"""Seeded operation lists for the four workloads.

Each operation is the argv of one ``hankelrev`` command plus the output the
reference (``reference.py``) says it must print, in the output format the
expectation names; ``build`` appends that ``--format``.  The seed draws parameter
values and expressions; the structure of each list (commands, depths,
orders, output formats) is fixed, so that runs with different seeds do
the same amount of work and differ only in the numbers.

Each list holds 10k + 5 operations.  Latencies pooled over passes then
put p50 and p90 in the middle of one operation's samples instead of on
the boundary between two operations of different cost, where the
quantile would jump between them from run to run.

Every generator respects the verifiers' preconditions: beta != 0 for
conjecture 4 and alpha_shift, alpha != 0 and beta != 0 for 6, alpha != 0
for 8 and prop9.  So a failed operation is a wrong or missing answer,
never a usage error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference as ref

FORMATS = ("table", "json", "csv")

WHY = {
    "deep_verify": "conjectures 4/6/8 and family triples at depth 14-34: det_exact is ~all the time,"
    " so a faster Hankel engine shows here and series changes do not",
    "grid_sweep": "the five default-grid sweeps of scripts/run_sweeps.py plus a seeded window: many"
    " tiny points, time in binomial_ogf/compose, term generation, checks and serialization",
    "series_gf": "expand/revert/hankel --gf/binomial at orders 40-150 on rational, radical and"
    " positive-valuation expressions: Fraction series code and eval_gf, no conjectures",
    "huge_values": "conjecture 8, prop9 and family C triples at |alpha| 10^30-10^120, depth <= 10:"
    " few operations on thousand-digit integers, rendering-heavy output",
}


@dataclass
class Op:
    argv: list[str]
    expect: ref.Expectation


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op]
    warmup: list[Op]
    over_limit: list[Op] = field(default_factory=list)  # known to exceed the int->str limit


def _mirror(rng: random.Random) -> int:
    """A seeded sign for a symmetry that leaves the amount of work unchanged."""
    return rng.choice((-1, 1))


def _poly(coeffs: list[int]) -> str:
    """Polynomial text in the g.f. grammar, constant term first (c0 != 0)."""
    text = str(coeffs[0])
    for power, c in enumerate(coeffs[1:], start=1):
        if c:
            monomial = "x" if power == 1 else f"x^{power}"
            text += f"{'+' if c > 0 else '-'}{abs(c)}*{monomial}"
    return text


# ----------------------------------------------------------------------
# deep_verify

# (|alpha|, beta) per depth rung, cycled.  At a fixed depth the cost of
# det_exact varies 2-3x with |alpha| and beta, which would swamp the change
# a benchmark is meant to see, so magnitudes follow this schedule and the
# seed draws signs the families are symmetric under: alpha -> -alpha for A
# and C, (alpha, beta) -> -(alpha, beta) for B.  Those flip the signs of
# terms and determinants and leave every magnitude, so all work, unchanged.
_DEEP_MAGNITUDES = ((3, 5), (5, -3), (4, 7), (7, -4), (6, 5), (5, -6), (3, -7))


def _family_op(kind: str, alpha: int, beta: int, depth: int, fmt: str) -> Op:
    a, b, d = f"--alpha={alpha}", f"--beta={beta}", str(depth)
    if kind == "v4":
        rows = ref.rows_conjecture4(alpha, beta, depth)
        expect = ref.Report(fmt, "4", alpha, beta, depth, rows)
        return Op(["verify", "--conjecture", "4", a, b, "--depth", d], expect)
    if kind == "v6":
        rows = ref.rows_conjecture6(alpha, beta, depth)
        expect = ref.Report(fmt, "6", alpha, beta, depth, rows)
        return Op(["verify", "--conjecture", "6", a, b, "--depth", d], expect)
    if kind == "v8":
        rows = ref.rows_conjecture8(alpha, depth)
        expect = ref.Report(fmt, "8", alpha, 0, depth, rows)
        return Op(["verify", "--conjecture", "8", a, "--depth", d], expect)
    if kind == "p9":
        expect = ref.Report(fmt, "prop9", alpha, 0, depth, ref.rows_prop9(alpha, depth))
        return Op(["prop9", a, "--n", d], expect)
    if kind == "tA":
        expect = ref.Triple(fmt, *ref.triple_family_a(alpha, beta, depth))
        return Op(["triple", "--family", "A", a, b, "--depth", d], expect)
    if kind == "tB":
        expect = ref.Triple(fmt, *ref.triple_family_b(alpha, beta, depth))
        return Op(["triple", "--family", "B", a, b, "--depth", d], expect)
    if kind == "tC":
        expect = ref.Triple(fmt, *ref.triple_family_c(alpha, depth))
        return Op(["triple", "--family", "C", a, "--depth", d], expect)
    if kind == "tgfA":
        # the family A reversion from its radical o.g.f.
        radical = _poly([1, -2 * alpha, alpha * alpha - 4 * beta])
        gf = f"({_poly([1, -alpha])}-sqrt({radical}))/({2 * beta}*x)"
        expect = ref.Triple(fmt, *ref.triple_family_a(alpha, beta, depth))
        return Op(["triple", f"--gf={gf}", "--depth", d], expect)
    if kind == "tgfC":
        gf = f"(1-sqrt({_poly([1, -4 * alpha])}))/({2 * alpha})"
        expect = ref.Triple(fmt, *ref.triple_family_c(alpha, depth))
        return Op(["triple", f"--gf={gf}", "--depth", d], expect)
    raise ValueError(kind)


def _deep_verify(rng: random.Random, tiny: bool) -> tuple[list[Op], list[Op]]:
    kinds = ("v4", "v6", "v8", "tA", "tB")
    depths = range(3, 8) if tiny else range(14, 35)
    ops = []
    for i, depth in enumerate(depths):
        magnitude, beta = _DEEP_MAGNITUDES[i % len(_DEEP_MAGNITUDES)]
        sign = _mirror(rng)
        alpha = sign * magnitude
        if kinds[i % 5] in ("v6", "tB"):  # family B
            beta *= sign
        ops.append(_family_op(kinds[i % len(kinds)], alpha, beta, depth, FORMATS[i % 3]))
    for i, depth in enumerate((4, 5) if tiny else (12, 14, 16, 18)):
        magnitude, beta = _DEEP_MAGNITUDES[i]
        ops.append(_family_op("tgfA", _mirror(rng) * magnitude, beta, depth, FORMATS[i % 3]))
    warmup = [_family_op(k, 3, -4, 3, f) for k in kinds + ("tgfA",) for f in FORMATS]
    return ops, warmup


# ----------------------------------------------------------------------
# grid_sweep

_SWEEPS = ("4", "6", "8", "prop9", "alpha_shift")


def _admissible(cid: str, alpha: int, beta: int) -> bool:
    if cid in ("4", "alpha_shift"):
        return beta != 0
    if cid == "6":
        return alpha != 0 and beta != 0
    return alpha != 0


def _point_report(cid: str, alpha: int, beta: int, depth: int) -> ref.Report:
    if cid == "4":
        return ref.Report("json", cid, alpha, beta, depth, ref.rows_conjecture4(alpha, beta, depth))
    if cid == "6":
        return ref.Report("json", cid, alpha, beta, depth, ref.rows_conjecture6(alpha, beta, depth))
    if cid == "8":
        return ref.Report("json", cid, alpha, 0, depth, ref.rows_conjecture8(alpha, depth))
    if cid == "prop9":
        return ref.Report("json", cid, alpha, 0, depth, ref.rows_prop9(alpha, depth))
    order = 2 * depth + 1
    return ref.Report("json", cid, alpha, beta, order, ref.rows_alpha_shift(alpha, beta, order))


def _sweep_op(cid: str, alphas: tuple[int, int], betas: tuple[int, int], depth: int, fmt: str, full: bool) -> Op:
    needs_beta = cid in ("4", "6", "alpha_shift")
    beta_values = range(betas[0], betas[1] + 1) if needs_beta else [0]
    grid = [(a, b) for a in range(alphas[0], alphas[1] + 1) for b in beta_values]
    skipped = [(a, b) for a, b in grid if not _admissible(cid, a, b)]
    reports = [_point_report(cid, a, b, depth) for a, b in grid if _admissible(cid, a, b)]
    argv = ["sweep", "--conjecture", cid, f"--alpha-range={alphas[0]}:{alphas[1]}"]
    if needs_beta:
        argv.append(f"--beta-range={betas[0]}:{betas[1]}")
    argv += ["--depth", str(depth)] + (["--full"] if full else [])
    return Op(argv, ref.Sweep(fmt, cid, depth, grid, skipped, reports, full))


def _grid_sweep(rng: random.Random, tiny: bool) -> tuple[list[Op], list[Op]]:
    """scripts/run_sweeps.py at depths 4 and 6, then a seeded window.

    The window is the default grid shifted by +2 in alpha, or its mirror
    image; the seed picks which.  The mirror leaves the work of sweeps 4, 8
    and prop9 (alpha -> -alpha) and 6 ((alpha, beta) -> -(alpha, beta))
    unchanged.  alpha_shift has no such symmetry, so it runs on the default
    grid, one sweep per alpha: operations near 50 ms rather than one of
    0.8 s, which the speed probes around an operation time poorly.
    """
    radius, depths = (2, (2, 3)) if tiny else (5, (4, 6))
    default = (-radius, radius)
    ops = [_sweep_op(cid, default, default, d, "table", False) for d in depths for cid in _SWEEPS]
    window = (2 - radius, 2 + radius)
    mirror = (-window[1], -window[0])
    chosen = window if _mirror(rng) > 0 else mirror
    ops += [
        _sweep_op("4", chosen, mirror, depths[-1], "json", True),
        _sweep_op("6", chosen, window if chosen == mirror else mirror, depths[-1], "json", True),
        _sweep_op("8", chosen, default, depths[-1], "csv", False),
        _sweep_op("prop9", chosen, default, depths[-1], "json", False),
    ]
    ops += [_sweep_op("alpha_shift", (a, a), default, depths[-1], "json", True) for a in range(-radius, radius + 1)]
    warmup = [_sweep_op(cid, (-1, 1), (-1, 1), 2, f, True) for cid in _SWEEPS for f in FORMATS]
    return ops, warmup


# ----------------------------------------------------------------------
# series_gf


# (|a|, b) of the series expressions, used in this order
_SERIES_MAGNITUDES = ((3, 5), (2, -5), (4, 3), (5, -2), (3, -4), (2, 3))


def _rational(a: int, b: int) -> str:
    return f"x/({_poly([1, a, b])})"


def _dense(a: int, c: int) -> str:
    return f"x*({_poly([1, a])})/({_poly([1, c])})"


def _catalan_scaled(p: int) -> str:
    # positive-valuation division: the numerator and 2*p*x both vanish at 0
    return f"(1-sqrt({_poly([1, -4 * p])}))/({2 * p}*x)"


def _central_scaled(p: int) -> str:
    return f"1/sqrt({_poly([1, -4 * p])})"


def _shifted_family_a(alpha: int, beta: int) -> str:
    # (u(x) - u_0)/x for the family A reversion u: divides by x^2
    radical = _poly([1, -2 * alpha, alpha * alpha - 4 * beta])
    return f"({_poly([1, -alpha])}-sqrt({radical}))/({2 * beta}*x^2)"


def _series_ops(rng: random.Random, tiny: bool) -> list[tuple[list[str], list[int]]]:
    """(argv, expected values) pairs.

    As in deep_verify, magnitudes are fixed and the seed draws signs under
    symmetries that keep the work: f(x) -> -f(-x) maps a -> -a in
    x/(1+a*x+b*x^2), (a, c) -> -(a, c) in x*(1+a*x)/(1+c*x), and p -> -p in
    the scaled Catalan and central binomial series.
    """
    big = (12, 14, 16, 18) if tiny else (80, 100, 120, 150)
    dense = (8, 9, 10, 11) if tiny else (40, 50, 60, 70)
    depths = (4, 5) if tiny else (20, 30)
    mags = _SERIES_MAGNITUDES
    specs = []
    for i, order in enumerate(big):
        a, b = mags[i]
        a *= _mirror(rng)
        specs.append((["expand", f"--gf={_rational(a, b)}", "--order", str(order)],
                      ref.family_a_base(a, b, order + 1)))
        a, b = mags[i + 1]
        a *= _mirror(rng)
        specs.append((["revert", f"--gf={_rational(a, b)}", "--order", str(order)],
                      ref.family_a_reversion(a, b, order + 1)))
    for i, order in enumerate(dense):
        sign = _mirror(rng)
        a, c = (sign * m for m in mags[i + 2])
        specs.append((["revert", f"--gf={_dense(a, c)}", "--order", str(order)],
                      ref.dense_revert(a, c, order + 1)))
    for i, order in enumerate(big[::2]):
        sign = _mirror(rng)
        a, c = (sign * m for m in mags[i + 1])
        specs.append((["expand", f"--gf={_dense(a, c)}", "--order", str(order)],
                      ref.dense_expand(a, c, order + 1)))
        p = _mirror(rng) * mags[i][0]
        specs.append((["expand", f"--gf={_catalan_scaled(p)}", "--order", str(order)],
                      [ref.catalan(n) * p**n for n in range(order + 1)]))
    p = _mirror(rng) * mags[3][0]
    specs.append((["expand", f"--gf={_central_scaled(p)}", "--order", str(big[1])],
                   [math.comb(2 * n, n) * p**n for n in range(big[1] + 1)]))
    for i, depth in enumerate(depths):
        p = _mirror(rng) * mags[i + 2][0]
        specs.append((["hankel", f"--gf={_catalan_scaled(p)}", "--depth", str(depth)],
                      ref.hankel_scaled_catalan(p, depth)))
        p = _mirror(rng) * mags[i + 1][0]
        specs.append((["hankel", f"--gf={_central_scaled(p)}", "--depth", str(depth)],
                      ref.hankel_scaled_central(p, depth)))
        alpha, beta = mags[i + 3]
        alpha *= _mirror(rng)
        specs.append((["hankel", f"--gf={_shifted_family_a(alpha, beta)}", "--depth", str(depth)],
                      ref.triple_family_a(alpha, beta, depth)[1]))
    a, b = mags[0]
    terms = ref.family_a_base(_mirror(rng) * a, b, big[1])
    seq = ",".join(str(t) for t in terms)
    specs.append((["binomial", f"--seq={seq}"], ref.binomial(terms)))
    specs.append((["binomial", f"--seq={seq}", "--inverse"], ref.binomial(terms, inverse=True)))
    return specs


def _series_gf(rng: random.Random, tiny: bool) -> tuple[list[Op], list[Op]]:
    specs = _series_ops(rng, tiny)
    ops = [Op(argv, ref.Values(FORMATS[i % 3], values)) for i, (argv, values) in enumerate(specs)]
    small = _series_ops(random.Random(0), True)
    warmup = [Op(argv, ref.Values(f, values)) for argv, values in small[:6] for f in FORMATS]
    return ops, warmup


# ----------------------------------------------------------------------
# huge_values

# (digits of alpha, depth): alpha^((depth+1)^2) stays below 4300 digits
_HUGE_LADDER = ((30, 10), (40, 9), (50, 8), (60, 7), (80, 6), (100, 5), (120, 4))
# the same commands past the limit: 4900 to 5880 digits
_OVER_LIMIT = (("v8", 100, 6), ("p9", 120, 6), ("tC", 120, 6))


def _huge_alpha(rng: random.Random, digits: int) -> int:
    return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)


def _huge_values(rng: random.Random, tiny: bool) -> tuple[list[Op], list[Op], list[Op]]:
    kinds = ("v8", "p9", "tC", "tgfC")
    ladder = ((30, 3), (60, 2)) if tiny else _HUGE_LADDER
    ops = []
    i = 0
    for _ in range(2):
        for digits, depth in ladder:
            for kind in kinds:
                alpha = _huge_alpha(rng, digits)
                ops.append(_family_op(kind, alpha, 0, depth, FORMATS[i % 3]))
                i += 1
    ops.pop()  # 56 -> 55 operations, see the module docstring
    over_limit = [
        _family_op(kind, _huge_alpha(rng, digits), 0, depth, FORMATS[j % 3])
        for j, (kind, digits, depth) in enumerate(_OVER_LIMIT)
    ]
    warmup = [_family_op(k, 10**30 + 1, 0, 2, f) for k in kinds for f in FORMATS]
    return ops, warmup, over_limit


# ----------------------------------------------------------------------


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    over_limit: list[Op] = []
    if name == "deep_verify":
        ops, warmup = _deep_verify(rng, tiny)
    elif name == "grid_sweep":
        ops, warmup = _grid_sweep(rng, tiny)
    elif name == "series_gf":
        ops, warmup = _series_gf(rng, tiny)
    elif name == "huge_values":
        ops, warmup, over_limit = _huge_values(rng, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in ops + warmup + over_limit:
        op.argv = op.argv + ["--format", op.expect.fmt]
    return Workload(name, WHY[name], ops, warmup, over_limit)


WORKLOADS = tuple(WHY)
