"""Congruence speed of integer tetration in radix 10.

Two independent routes to V(a): a definitional oracle built on modular
power towers (`constant_speed`, `speed_profile`) and an explicit formula
system built on 10-adic root residues (`speed_by_formula`, `class_spec`,
`min_base`), plus the smallest-prime-per-speed search
(`smallest_prime_with_speed`).
"""

from .arith import digit_length, tower_residues, valuation
from .classes import (
    class5_closed_form,
    class_spec,
    ClassSpec,
    FormulaMismatch,
    min_base,
    min_base_class,
    ProgressionFamily,
    speed_by_formula,
    speed_by_membership,
    speed_one_residues,
    table1_rows,
    valuation_bound,
)
from .decadic import DecadicResidue, idempotents, IdempotentPair, root_residue
from .primes import (
    is_prime,
    non_monotonic_flags,
    prime_speed_bounds,
    PrimeSpeedRecord,
    repnine_speed,
    RepnineForm,
    SearchBudgetError,
    smallest_prime_table,
    smallest_prime_with_speed,
)
from .speed import (
    constant_speed,
    PrecisionError,
    speed_at_height,
    speed_profile,
    SpeedProfile,
    UndefinedSpeedError,
)
from .verify import FixtureMismatch, phase_shift_fixture, sweep, SweepReport

__version__ = "0.1.0"

__all__ = [
    "digit_length", "tower_residues", "valuation",
    "class5_closed_form", "class_spec", "ClassSpec", "FormulaMismatch", "min_base",
    "min_base_class", "ProgressionFamily",
    "speed_by_formula", "speed_by_membership", "speed_one_residues",
    "table1_rows", "valuation_bound",
    "DecadicResidue", "idempotents", "IdempotentPair", "root_residue",
    "is_prime", "non_monotonic_flags", "prime_speed_bounds",
    "PrimeSpeedRecord", "repnine_speed", "RepnineForm", "SearchBudgetError",
    "smallest_prime_table", "smallest_prime_with_speed",
    "constant_speed", "PrecisionError", "speed_at_height",
    "speed_profile", "SpeedProfile", "UndefinedSpeedError",
    "FixtureMismatch", "phase_shift_fixture", "sweep", "SweepReport",
]
