"""Sign-tracking scalar multiplication for groups with cheap fused negation.

The package bundles signed-digit recodings (binary, NAF, width-w NAF),
scalar-multiplication drivers that replace doublings and additions with
their fused negating forms while tracking the accumulated sign in a single
bit, an exact modular-arithmetic oracle, and cost accounting in exact
rational M-equivalents with presets for curve families where the fused
operations genuinely cost less.
"""

from . import costs
from .algorithms import (
    ALGORITHM_IDS,
    ALGORITHMS,
    MIXED_MODES,
    MulResult,
    TraceStep,
    double_and_add,
    mixed_scalar_mul,
    neg_scalar_mul,
    neg_scalar_mul_online,
    scalar_mul,
    windowed_neg_scalar_mul,
)
from .backends import (
    HYPERELLIPTIC_PROFILE,
    PICARD_PROFILE,
    CostChargingGroup,
    CostProfile,
    ModularGroup,
    load_profile,
    preset,
)
from .bench import BenchReport, algorithms_for_form, run_bench, sample_scalars
from .costs import (
    OP_KINDS,
    ZERO_COST,
    CostLedger,
    CostRatios,
    CostVector,
    savings_percent,
    weighted_total,
)
from .groups import NegationAwareGroup, prices_of
from .recoding import RECODING_FORMS, SignedExpansion, binary_expansion, naf, recode, width_w_naf
from .verify import (
    MAX_VERIFY_N,
    MIN_VERIFY_N,
    VERIFY_PRIMES,
    Mismatch,
    default_verify_algorithms,
    verify_universal_agreement,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> CostRatios:
    # DEFAULT_RATIOS is made on its first read (negmul.costs), so it is forwarded, not imported
    if name == "DEFAULT_RATIOS":
        return costs.DEFAULT_RATIOS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALGORITHM_IDS",
    "ALGORITHMS",
    "BenchReport",
    "CostChargingGroup",
    "CostLedger",
    "CostProfile",
    "CostRatios",
    "CostVector",
    "DEFAULT_RATIOS",
    "HYPERELLIPTIC_PROFILE",
    "MAX_VERIFY_N",
    "MIN_VERIFY_N",
    "MIXED_MODES",
    "Mismatch",
    "ModularGroup",
    "MulResult",
    "NegationAwareGroup",
    "OP_KINDS",
    "PICARD_PROFILE",
    "RECODING_FORMS",
    "SignedExpansion",
    "TraceStep",
    "VERIFY_PRIMES",
    "ZERO_COST",
    "algorithms_for_form",
    "binary_expansion",
    "default_verify_algorithms",
    "double_and_add",
    "load_profile",
    "mixed_scalar_mul",
    "naf",
    "neg_scalar_mul",
    "neg_scalar_mul_online",
    "preset",
    "prices_of",
    "recode",
    "run_bench",
    "sample_scalars",
    "savings_percent",
    "scalar_mul",
    "verify_universal_agreement",
    "weighted_total",
    "width_w_naf",
    "windowed_neg_scalar_mul",
]
