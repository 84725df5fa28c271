"""Shared helpers: the fixture hypersurfaces used across the test modules, and
a fixture that empties the process-wide enumeration and translate caches.

`pyproject.toml` puts `src` on the path of this process; the same directory
goes first on PYTHONPATH here, so the CLI processes that tests spawn import
the package from this checkout too."""

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from divclass import linalg, wpoly
from divclass.fields import FieldSpec
from divclass.hyperring import HypersurfaceInput
from divclass.parser import parse_polynomial
from divclass.qdivisor import DivisorContext, QDivisor
from divclass.wpoly import WeightedRing, validate_factorization

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@dataclass(frozen=True)
class Fixture:
    name: str
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    n: int
    factor_texts: tuple[str, ...]
    field: str
    invariants: tuple[int, ...]
    assume_normal: bool = False


# The surfaces every structural test runs over.  The first four cover the
# shapes the formulas are most sensitive to (several monomial factors, a
# single irreducible factor, a long factor list with n = 5); the rest vary
# coefficient field and weights.
FIXTURES = (
    Fixture(
        name="two-square-three-lines",
        variables=("x1", "x2", "x3"),
        weights=(1, 1, 1),
        n=2,
        factor_texts=("x1", "x2", "x3"),
        field="Q",
        invariants=(2, 2),
        assume_normal=True,
    ),
    Fixture(
        name="factorial-two-exponents",
        variables=("x1", "x2"),
        weights=(5, 3),
        n=2,
        factor_texts=("x1^3 + x2^5",),
        field="Q",
        invariants=(),
    ),
    Fixture(
        name="cube-two-lines",
        variables=("x1", "x2"),
        weights=(1, 1),
        n=3,
        factor_texts=("x1", "x2"),
        field="Q",
        invariants=(3,),
        assume_normal=True,
    ),
    Fixture(
        name="four-factors-n5",
        variables=("x1", "x2"),
        weights=(1, 1),
        n=5,
        factor_texts=("x1", "x2", "x1 + x2", "x1 - x2"),
        field="Q",
        invariants=(5, 5, 5),
        assume_normal=True,
    ),
    Fixture(
        name="cube-two-lines-f7",
        variables=("x1", "x2"),
        weights=(1, 1),
        n=3,
        factor_texts=("x1", "x2"),
        field="F7",
        invariants=(3,),
        assume_normal=True,
    ),
    Fixture(
        name="factorial-two-exponents-f7",
        variables=("x1", "x2"),
        weights=(5, 3),
        n=2,
        factor_texts=("x1^3 + x2^5",),
        field="F7",
        invariants=(),
    ),
    Fixture(
        name="mixed-conic-n3",
        variables=("x1", "x2"),
        weights=(1, 1),
        n=3,
        factor_texts=("x1", "x2", "x1^2 + x2^2"),
        field="Q",
        invariants=(3, 3),
        assume_normal=True,
    ),
    Fixture(
        name="cube-two-lines-closed",
        variables=("x1", "x2"),
        weights=(1, 1),
        n=3,
        factor_texts=("x1", "x2"),
        field="Qbar",
        invariants=(3,),
        assume_normal=True,
    ),
    Fixture(
        name="uneven-weights-n3",
        variables=("x1", "x2"),
        weights=(3, 1),
        n=3,
        factor_texts=("x1", "x2"),
        field="Q",
        invariants=(3,),
        assume_normal=True,
    ),
)


def build_input(fx: Fixture) -> HypersurfaceInput:
    ring = WeightedRing(fx.variables, fx.weights, FieldSpec.parse(fx.field))
    factors = [parse_polynomial(text, ring) for text in fx.factor_texts]
    return HypersurfaceInput(validate_factorization(factors, ring, fx.n), fx.n)


def build_context(fx: Fixture) -> DivisorContext:
    return DivisorContext.build(build_input(fx))


def component_divisor(dctx: DivisorContext, idx: int, coeff) -> QDivisor:
    """coeff * P for the component P at registry index `idx` of the context.

    coeff is an int or a Fraction; only its numerator and denominator are
    read.
    """
    nums = [0] * len(dctx.components)
    nums[idx] = coeff.numerator
    return QDivisor.from_ints(dctx.registry, coeff.denominator, nums)


def factor_cdegree(dctx: DivisorContext, t: int) -> int:
    """The c-degree of the t-th factor h_t of the context's input."""
    return dctx.components[dctx.factor_component[t]].cdegree


# the caches that keep enumerations, key sets and translates across calls
_CACHES = (wpoly._enumerate, wpoly.shifted_monomials, linalg._translates)


@pytest.fixture
def fresh_caches():
    """Empty enumeration and translate caches before and after the test."""
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()
