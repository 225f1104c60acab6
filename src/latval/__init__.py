"""Exact lattice valuations and the machinery built on them."""

from .intervals import IntervalSet, interval, iset_make, measure, singleton
from .lattice import (
    FiniteLattice,
    Lattice,
    check_distributive,
    chain_lattice,
    diamond_m3,
    finite_lattice_build,
    powerset_lattice,
)
from .oag import DIV_POS, LEX_PLANE, RATIONALS, DivPos, LexPair, check_group_axioms
from .report import CheckReport
from .stepfn import StepFn, indicator, integral, step_make
from .valuation import (
    Valuation,
    approx_equal,
    check_pseudometric,
    check_valuation,
    dist,
    quotient,
)
from .instances import (
    counting_valuation,
    dimension_valuation,
    interval_measure,
    mu_S,
    phi_S,
    step_integral,
    totient,
    totient_valuation,
)

__all__ = [
    "CheckReport",
    "DIV_POS",
    "DivPos",
    "FiniteLattice",
    "IntervalSet",
    "LEX_PLANE",
    "Lattice",
    "LexPair",
    "RATIONALS",
    "StepFn",
    "Valuation",
    "approx_equal",
    "chain_lattice",
    "check_distributive",
    "check_group_axioms",
    "check_pseudometric",
    "check_valuation",
    "counting_valuation",
    "diamond_m3",
    "dimension_valuation",
    "dist",
    "finite_lattice_build",
    "indicator",
    "integral",
    "interval",
    "interval_measure",
    "iset_make",
    "measure",
    "mu_S",
    "phi_S",
    "powerset_lattice",
    "quotient",
    "singleton",
    "step_integral",
    "step_make",
    "totient",
    "totient_valuation",
]
