"""Exact divisor class groups of graded hypersurface rings k[z,x]/(z^n - g)."""

from .classgroup import (
    ClassGroupResult,
    HypothesisReport,
    compute_class_group,
    x0_extension_mode,
    validate_hypotheses,
)
from .errors import DivclassError
from .fields import FieldSpec
from .hyperring import HypersurfaceInput, RingElement
from .parser import parse_polynomial
from .qdivisor import DivisorContext, QDivisor
from .wpoly import (
    WeightedRing,
    WPolynomial,
    count_factors_one_plus_tc,
    validate_factorization,
    weighted_degree,
)

__version__ = "0.1.0"
