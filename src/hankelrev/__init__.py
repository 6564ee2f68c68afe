"""Exact Hankel/binomial transforms, series reversion, and identity checks.

Everything computes in exact integer or rational arithmetic; no floats,
no rounding.  The optional :mod:`hankelrev.oeis` module (sequence
identification, network-aware) is deliberately not imported here, so the
core never touches the network.
"""

from hankelrev.conjectures import (
    CONJECTURES,
    SWEEPABLE,
    Check,
    ConjectureReport,
    SweepResult,
    prop9_T_matrix,
    prop9_verify,
    sweep,
    verify_alpha_shift,
    verify_anchors,
    verify_conjecture4,
    verify_conjecture6,
    verify_conjecture8,
)
from hankelrev.families import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    catalan,
    family_base_ogf,
    family_base_terms,
    family_reversion_terms,
)
from hankelrev.gf import (
    BinOp,
    GfParseError,
    Lit,
    Pow,
    Sqrt,
    Var,
    eval_gf,
    expand_gf,
    format_gf,
    parse_gf,
)
from hankelrev.hankel import (
    HankelTriple,
    binomial_transform,
    det_exact,
    hankel_matrix,
    hankel_transform,
    hankel_triple,
    inverse_binomial_transform,
)
from hankelrev.series import PowerSeries, coefficient_string

__version__ = "0.1.0"

__all__ = [
    "BinOp",
    "CONJECTURES",
    "Check",
    "ConjectureReport",
    "FAMILY_A",
    "FAMILY_B",
    "FAMILY_C",
    "FamilyParams",
    "GfParseError",
    "HankelTriple",
    "Lit",
    "Pow",
    "PowerSeries",
    "Sqrt",
    "SWEEPABLE",
    "SweepResult",
    "Var",
    "binomial_transform",
    "catalan",
    "coefficient_string",
    "det_exact",
    "eval_gf",
    "expand_gf",
    "family_base_ogf",
    "family_base_terms",
    "family_reversion_terms",
    "format_gf",
    "hankel_matrix",
    "hankel_transform",
    "hankel_triple",
    "inverse_binomial_transform",
    "parse_gf",
    "prop9_T_matrix",
    "prop9_verify",
    "sweep",
    "verify_alpha_shift",
    "verify_anchors",
    "verify_conjecture4",
    "verify_conjecture6",
    "verify_conjecture8",
]
