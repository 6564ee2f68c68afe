"""Expected outputs for benchmark operations, computed without hankelrev.

Every expected value comes from the paper's closed forms (h* of family A
is beta^binom(n+1,2), family C transforms are signed monomials in alpha,
the prop9 factorization forces alpha^(n(n+1)), ...) or from integer
recurrences for series coefficients.  Nothing here imports hankelrev, so
a bug in the program cannot hide in its own reference.

Outputs are compared as integers after a strict decimal parse that reads
long numbers in chunks, so values above the interpreter's int->str digit
limit can be checked without lifting that limit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

# claim labels as the reports print them; they are stable strings that
# downstream tooling matches on
CLAIM = {
    "c4_hstar": "h_star[n] == beta^binom(n+1,2)",
    "c4_h": "(-1)^(n+1) * h[n+1] == a[n+1] * h_star[n]",
    "c4_hss": "(-1)^(n+1) * h_star_star[n] == a[n+2] * h_star[n]",
    "c6_hstar": "h_star[n] == (alpha*(alpha-beta))^binom(n+1,2)",
    "c6_h": "beta * h[n+1] == ((alpha-beta)^(n+1) - alpha^(n+1)) * h_star[n]",
    "c6_hss": "h_star_star[n] == (alpha-beta)^(n+1) * h_star[n]",
    "c8_h": "h[n] == -n * alpha^(n^2-1)",
    "c8_hstar": "h_star[n] == alpha^(n*(n+1))",
    "c8_hss": "h_star_star[n] == alpha^((n+1)^2)",
    "c8_h_ratio": "h[n+1] == -(n+1) * alpha^n * h_star[n]",
    "c8_hss_ratio": "h_star_star[n] == alpha^(n+1) * h_star[n]",
    "shift_coeff": "binomial_ogf(u*)[n] == u*_at_alpha_plus_1[n]",
    "shift_hankel": "hankel(u*)[n] == hankel(binomial(u*))[n]",
    "p9_product": "H[{i},{j}] == (T*T^t)[{i},{j}]",
    "p9_det": "det(H) == alpha^(n*(n+1))",
    "p9_det_t": "det(T) == alpha^binom(n+1,2)",
}

_INT = re.compile(r"-?(?:0|[1-9][0-9]*)\Z")
_CHUNK = 4000  # below CPython's default int->str limit of 4300 digits


def parse_int(text: str) -> int:
    """Strict decimal parse that never trips the int->str digit limit."""
    if not isinstance(text, str) or not _INT.match(text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start : start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ----------------------------------------------------------------------
# sequences by integer recurrence


def family_a_base(alpha: int, beta: int, count: int) -> list[int]:
    """Coefficients of x / (1 + alpha*x + beta*x^2)."""
    a = [0] * count
    for n in range(1, count):
        a[n] = (1 if n == 1 else 0) - alpha * a[n - 1] - (beta * a[n - 2] if n >= 2 else 0)
    return a


def _convolve_at(u: list[int], n: int) -> int:
    return sum(u[i] * u[n - i] for i in range(n + 1))


def family_a_reversion(alpha: int, beta: int, count: int) -> list[int]:
    """Reversion u of x/(1+alpha*x+beta*x^2): u = x*(1 + alpha*u + beta*u^2)."""
    u = [0] * count
    for n in range(1, count):
        u[n] = (1 if n == 1 else 0) + alpha * u[n - 1] + beta * _convolve_at(u, n - 1)
    return u


def family_b_reversion(alpha: int, beta: int, count: int) -> list[int]:
    """Reversion u of x(1-alpha*x)/(1-beta*x): u = x - beta*x*u + alpha*u^2."""
    u = [0] * count
    for n in range(1, count):
        u[n] = (1 if n == 1 else 0) - beta * u[n - 1] + alpha * _convolve_at(u, n)
    return u


def family_c_reversion(alpha: int, count: int) -> list[int]:
    """Reversion of x(1-alpha*x): scaled Catalan numbers."""
    return [0] + [catalan(n - 1) * alpha ** (n - 1) for n in range(1, count)]


def dense_expand(a: int, c: int, count: int) -> list[int]:
    """Coefficients of x*(1 + a*x) / (1 + c*x)."""
    out = [0] * count
    for n in range(1, count):
        out[n] = (-c) ** (n - 1) + (a * (-c) ** (n - 2) if n >= 2 else 0)
    return out


def dense_revert(a: int, c: int, count: int) -> list[int]:
    """Reversion u of x*(1 + a*x)/(1 + c*x): u = x + c*x*u - a*u^2."""
    u = [0] * count
    for n in range(1, count):
        u[n] = (1 if n == 1 else 0) + c * u[n - 1] - a * _convolve_at(u, n)
    return u


def binomial(terms: list[int], inverse: bool = False) -> list[int]:
    """Binomial transform, or its inverse, row by row of Pascal's triangle."""
    out = []
    row = [1]
    for n in range(len(terms)):
        if inverse:
            out.append(sum((-1) ** (n - k) * row[k] * terms[k] for k in range(n + 1)))
        else:
            out.append(sum(row[k] * terms[k] for k in range(n + 1)))
        row = [x + y for x, y in zip([0] + row, row + [0])]
    return out


# ----------------------------------------------------------------------
# Hankel transforms by closed form


def triple_family_a(alpha: int, beta: int, depth: int) -> tuple[list[int], ...]:
    """(h, h*, h**) of the family A reversion (conjecture 4)."""
    base = family_a_base(alpha, beta, depth + 3)
    hs = [beta ** math.comb(n + 1, 2) for n in range(depth + 1)]
    h = [0] + [(-1) ** n * base[n] * hs[n - 1] for n in range(1, depth + 1)]
    hss = [(-1) ** (n + 1) * base[n + 2] * hs[n] for n in range(depth + 1)]
    return h, hs, hss


def triple_family_b(alpha: int, beta: int, depth: int) -> tuple[list[int], ...]:
    """(h, h*, h**) of the family B reversion (conjecture 6)."""
    hs = [(alpha * (alpha - beta)) ** math.comb(n + 1, 2) for n in range(depth + 1)]
    h = [0]
    for n in range(depth):
        numerator = ((alpha - beta) ** (n + 1) - alpha ** (n + 1)) * hs[n]
        quotient, remainder = divmod(numerator, beta)
        if remainder:
            raise ArithmeticError("family B closed form is not integral")
        h.append(quotient)
    hss = [(alpha - beta) ** (n + 1) * hs[n] for n in range(depth + 1)]
    return h, hs, hss


def triple_family_c(alpha: int, depth: int) -> tuple[list[int], ...]:
    """(h, h*, h**) of the scaled Catalan reversion (conjecture 8)."""
    h = [0] + [-n * alpha ** (n * n - 1) for n in range(1, depth + 1)]
    hs = [alpha ** (n * (n + 1)) for n in range(depth + 1)]
    hss = [alpha ** ((n + 1) ** 2) for n in range(depth + 1)]
    return h, hs, hss


def hankel_scaled_catalan(p: int, depth: int) -> list[int]:
    """Hankel transform of catalan(n) * p^n."""
    return [p ** (n * (n + 1)) for n in range(depth + 1)]


def hankel_scaled_central(p: int, depth: int) -> list[int]:
    """Hankel transform of binomial(2n, n) * p^n."""
    return [2**n * p ** (n * (n + 1)) for n in range(depth + 1)]


# ----------------------------------------------------------------------
# expected report rows


Row = tuple[int, str, int, int]  # n, claim, lhs, rhs (every row passes)


def rows_conjecture4(alpha: int, beta: int, depth: int) -> list[Row]:
    base = family_a_base(alpha, beta, depth + 2)
    _, hs, _ = triple_family_a(alpha, beta, depth)
    rows = [(n, CLAIM["c4_hstar"], hs[n], hs[n]) for n in range(depth + 1)]
    for n in range(depth):
        rows.append((n, CLAIM["c4_h"], base[n + 1] * hs[n], base[n + 1] * hs[n]))
        rows.append((n, CLAIM["c4_hss"], base[n + 2] * hs[n], base[n + 2] * hs[n]))
    return rows


def rows_conjecture6(alpha: int, beta: int, depth: int) -> list[Row]:
    _, hs, hss = triple_family_b(alpha, beta, depth)
    rows = [(n, CLAIM["c6_hstar"], hs[n], hs[n]) for n in range(depth + 1)]
    for n in range(depth):
        ratio = ((alpha - beta) ** (n + 1) - alpha ** (n + 1)) * hs[n]
        rows.append((n, CLAIM["c6_h"], ratio, ratio))
        rows.append((n, CLAIM["c6_hss"], hss[n], hss[n]))
    return rows


def rows_conjecture8(alpha: int, depth: int) -> list[Row]:
    h, hs, hss = triple_family_c(alpha, depth)
    rows = []
    for n in range(depth + 1):
        rows.append((n, CLAIM["c8_h"], h[n], h[n]))
        rows.append((n, CLAIM["c8_hstar"], hs[n], hs[n]))
        rows.append((n, CLAIM["c8_hss"], hss[n], hss[n]))
    for n in range(depth):
        rows.append((n, CLAIM["c8_h_ratio"], h[n + 1], h[n + 1]))
        rows.append((n, CLAIM["c8_hss_ratio"], hss[n], hss[n]))
    return rows


def rows_prop9(alpha: int, n: int) -> list[Row]:
    seq = [catalan(k) * alpha**k for k in range(2 * n + 1)]
    rows = []
    for i in range(n + 1):
        for j in range(n + 1):
            claim = CLAIM["p9_product"].format(i=i, j=j)
            rows.append((i, claim, seq[i + j], seq[i + j]))
    det_h = alpha ** (n * (n + 1))
    det_t = alpha ** math.comb(n + 1, 2)
    rows.append((n, CLAIM["p9_det"], det_h, det_h))
    rows.append((n, CLAIM["p9_det_t"], det_t, det_t))
    return rows


def rows_alpha_shift(alpha: int, beta: int, order: int) -> list[Row]:
    shifted = family_a_reversion(alpha + 1, beta, order + 2)[1:]
    rows = [(n, CLAIM["shift_coeff"], shifted[n], shifted[n]) for n in range(order + 1)]
    for n in range((order - 1) // 2 + 1):
        value = beta ** math.comb(n + 1, 2)
        rows.append((n, CLAIM["shift_hankel"], value, value))
    return rows


# ----------------------------------------------------------------------
# expectations: what one operation must print


class Mismatch(Exception):
    """The program's output differs from the reference."""


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def _ints(cells: list[str]) -> list[int]:
    try:
        return [parse_int(c) for c in cells]
    except ValueError as exc:
        raise Mismatch(str(exc)) from None


def _table_cells(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip()]


@dataclass
class Expectation:
    """Base: exit code 0, stdout in ``fmt``; ``checks`` counts equalities."""

    fmt: str

    @property
    def checks(self) -> int:
        raise NotImplementedError

    def verify(self, code: int, out: str, err: str) -> None:
        _expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
        _expect(out.endswith("\n"), "output does not end with a newline")
        self.verify_output(out)

    def verify_output(self, out: str) -> None:
        raise NotImplementedError


@dataclass
class Values(Expectation):
    """A sequence printed by expand, revert, hankel or binomial."""

    values: list[int] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return len(self.values)

    def verify_output(self, out: str) -> None:
        if self.fmt == "json":
            cells = json.loads(out)
        elif self.fmt == "csv":
            cells = out.strip().split(",")
        else:
            rows = _table_cells(out)
            _expect(rows[0] == ["n", "value"], "bad table header")
            _expect(all(r[0] == str(i) for i, r in enumerate(rows[1:])), "bad row index")
            cells = [r[1] for r in rows[1:] if len(r) == 2]
            _expect(len(cells) == len(rows) - 1, "bad table row")
        _expect(len(cells) == len(self.values), f"{len(cells)} values, expected {len(self.values)}")
        for n, (got, want) in enumerate(zip(_ints(cells), self.values)):
            _expect(got == want, f"value {n} differs")


@dataclass
class Triple(Expectation):
    """h, h*, h** printed by the triple command."""

    h: list[int] = field(default_factory=list)
    hs: list[int] = field(default_factory=list)
    hss: list[int] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return 3 * len(self.h)

    def verify_output(self, out: str) -> None:
        depth = len(self.h) - 1
        if self.fmt == "json":
            data = json.loads(out)
            _expect(data.get("depth") == str(depth), "bad depth")
            columns = [data.get("h"), data.get("h_star"), data.get("h_star_star")]
        else:
            if self.fmt == "csv":
                rows = list(csv.reader(io.StringIO(out)))
            else:
                rows = _table_cells(out)
            _expect(rows[0] == ["n", "h", "h_star", "h_star_star"], "bad header")
            _expect(all(len(r) == 4 for r in rows[1:]), "bad row width")
            _expect([r[0] for r in rows[1:]] == [str(n) for n in range(len(rows) - 1)], "bad index")
            columns = [[r[k] for r in rows[1:]] for k in (1, 2, 3)]
        for name, got, want in zip(("h", "h_star", "h_star_star"), columns, (self.h, self.hs, self.hss)):
            _expect(isinstance(got, list) and len(got) == depth + 1, f"{name} has wrong length")
            _expect(_ints(got) == want, f"{name} differs")


@dataclass
class Report(Expectation):
    """A verification report; every row is expected to pass."""

    conjecture: str = ""
    alpha: int | None = None
    beta: int | None = None
    depth: int = 0
    rows: list[Row] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return len(self.rows)

    def heading(self) -> str:
        return f"conjecture {self.conjecture}: alpha={self.alpha} beta={self.beta} depth={self.depth}"

    def verify_dict(self, data: dict) -> None:
        _expect(data.get("conjecture") == self.conjecture, "bad conjecture id")
        _expect(_ints([data["alpha"], data["beta"], data["depth"]]) == [self.alpha, self.beta, self.depth], "bad parameters")
        _expect(data.get("all_pass") is True, "report does not pass")
        _expect(data.get("notes") == [], "unexpected notes")
        checks = data.get("checks")
        _expect(isinstance(checks, list) and len(checks) == len(self.rows), "wrong number of checks")
        for c, (n, claim, lhs, rhs) in zip(checks, self.rows):
            _expect(c.get("claim") == claim and c.get("pass") is True, f"check {claim} at n={n}")
            _expect(_ints([c["n"], c["lhs"], c["rhs"]]) == [n, lhs, rhs], f"check {claim} at n={n} differs")

    def verify_output(self, out: str) -> None:
        if self.fmt == "json":
            self.verify_dict(json.loads(out))
            return
        if self.fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            _expect(rows[0] == ["conjecture", "alpha", "beta", "depth", "n", "claim", "lhs", "rhs", "pass"], "bad header")
            _expect(len(rows) - 1 == len(self.rows), "wrong number of checks")
            for r, (n, claim, lhs, rhs) in zip(rows[1:], self.rows):
                _expect(len(r) == 9 and r[0] == self.conjecture and r[5] == claim and r[8] == "true", f"check {claim} at n={n}")
                _expect(_ints([r[1], r[2], r[3], r[4], r[6], r[7]]) == [self.alpha, self.beta, self.depth, n, lhs, rhs], f"check {claim} at n={n} differs")
            return
        lines = out.rstrip("\n").split("\n")
        _expect(lines[0] == self.heading(), "bad heading")
        _expect(re.split(r" {2,}", lines[1]) == ["n", "claim", "lhs", "rhs", "status"], "bad header")
        total = len(self.rows)
        _expect(lines[-1] == f"all checks passed ({total}/{total})", "bad verdict")
        body = [re.split(r" {2,}", line.rstrip()) for line in lines[2:-1]]
        _expect(len(body) == total, "wrong number of checks")
        for r, (n, claim, lhs, rhs) in zip(body, self.rows):
            _expect(len(r) == 5 and r[1] == claim and r[4] == "ok", f"check {claim} at n={n}")
            _expect(_ints([r[0], r[2], r[3]]) == [n, lhs, rhs], f"check {claim} at n={n} differs")


@dataclass
class Sweep(Expectation):
    """A parameter sweep with no counterexample."""

    conjecture: str = ""
    depth: int = 0
    grid: list[tuple[int, int]] = field(default_factory=list)
    skipped: list[tuple[int, int]] = field(default_factory=list)
    reports: list[Report] = field(default_factory=list)
    full: bool = False

    @property
    def checks(self) -> int:
        return sum(r.checks for r in self.reports)

    def verify_output(self, out: str) -> None:
        checked = len(self.grid) - len(self.skipped)
        if self.fmt == "table":
            expected = (
                f"conjecture {self.conjecture}: depth={self.depth} grid={len(self.grid)}"
                f" checked={checked} skipped={len(self.skipped)} counterexamples=0\n"
                "no counterexamples\n"
            )
            _expect(out == expected, "bad sweep summary")
            return
        if self.fmt == "csv":
            lines = out.rstrip("\n").split("\n")
            _expect(lines[0] == "conjecture,alpha,beta,depth,status", "bad header")
            skipped = set(self.skipped)
            wanted = [
                f"{self.conjecture},{a},{b},{self.depth},{'skipped' if (a, b) in skipped else 'pass'}"
                for a, b in self.grid
            ]
            _expect(lines[1:] == wanted, "bad sweep rows")
            return
        data = json.loads(out)
        _expect(data.get("conjecture") == self.conjecture, "bad conjecture id")
        _expect(_ints([data["depth"], data["grid_points"], data["checked"]]) == [self.depth, len(self.grid), checked], "bad counts")
        _expect(data.get("skipped") == [{"alpha": str(a), "beta": str(b)} for a, b in self.skipped], "bad skipped list")
        _expect(data.get("counterexamples") == [] and data.get("all_pass") is True, "sweep found counterexamples")
        if self.full:
            reports = data.get("reports")
            _expect(isinstance(reports, list) and len(reports) == len(self.reports), "wrong number of reports")
            for got, want in zip(reports, self.reports):
                want.verify_dict(got)
        else:
            _expect("reports" not in data, "unexpected reports")
