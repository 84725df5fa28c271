"""Q-divisors on X = Proj R supported on the coordinate and factor primes.

The registry fixes one entry per prime divisor: V(x_i) for each variable and
V(h_t) for each supplied factor, except that a factor which is a scalar
multiple of a variable shares the variable's entry.  Divisors are dense
coefficient tuples over the registry; coefficients are exact Fractions.

The distinguished divisor D = b * sum_i s_i V(x_i) + (a/n) * sum_t V(h_t)
drives everything downstream: R is recovered as the section ring of (X, D),
and the generator classes come from E_t = -(1/n) V(h_t).  Every divisor
also keeps its integer form: the lcm `den` of its denominators and its
numerators `nums` over `den`.  The denominators of D have lcm n, so n*D is
D.nums; the per-degree floors floor(E0 + jD) are taken from these integers
(`DivisorContext.floor_shift`), not through Fractions, and floor(jD) is the
floor of the zero divisor.

A divisorial module is checked degree by degree for one E0, so the context
keeps what depends only on the check: the integer pairs of each E0's floors
(`FloorShift`) and each factor power form_P^e.  These live on the context
of one job, not in module state, so they go when the job does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DegenerateInput, InternalInconsistency
from .exactmath import BezoutPair, bezout_vector
from .hyperring import HypersurfaceInput
from .wpoly import WPolynomial, weighted_degree


@dataclass(eq=False, frozen=True)
class PrimeComponent:
    """One prime divisor: V(variable) or V(irreducible factor).

    Registry-interned; identity comparison is intentional.
    """

    index: int
    kind: str  # "variable" or "factor"
    form: WPolynomial
    cdegree: int
    label: str


class QDivisor:
    """Immutable coefficient vector over a fixed registry.

    `den` is the lcm of the denominators and `nums` the numerators over it,
    so coeffs[i] == Fraction(nums[i], den).
    """

    __slots__ = ("registry", "coeffs", "den", "nums")

    def __init__(self, registry: "DivisorContext", coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != len(registry.components):
            raise DegenerateInput("coefficient count does not match the registry")
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("QDivisor is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QDivisor)
            and self.registry is other.registry
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if self.registry is not other.registry:
            raise DegenerateInput("divisors on different registries")
        return QDivisor(self.registry, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, k) -> "QDivisor":
        k = Fraction(k)
        return QDivisor(self.registry, [k * c for c in self.coeffs])

    def floor(self) -> tuple[int, ...]:
        """Componentwise greatest-integer part, as a dense integer vector."""
        return tuple(c.numerator // c.denominator for c in self.coeffs)

    def degree(self) -> Fraction:
        return sum(
            (c * comp.cdegree for c, comp in zip(self.coeffs, self.registry.components)),
            Fraction(0),
        )

    def items(self):
        for comp, c in zip(self.registry.components, self.coeffs):
            if c:
                yield comp, c

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{comp.label}" for comp, c in self.items())
        return f"QDivisor({body or '0'})"


class FloorShift:
    """floor(E0 + j*D) for one E0: entry i is (lifted_i + j*step_i) // L.

    With L = lcm(n, E0.den) every coefficient of E0 + j*D is an integer over
    L: lifted_i = (L/E0.den)*E0.nums_i and step_i = (L/n)*(nD)_i.  The pairs
    and `nonpositive` (E0 <= 0) depend on E0 alone and are computed once.
    """

    __slots__ = ("L", "pairs", "nonpositive")

    def __init__(self, E0: "QDivisor", nD: tuple[int, ...], n: int):
        L = lcm(n, E0.den)
        lift, step = L // E0.den, L // n
        self.L = L
        self.pairs = tuple((lift * c, step * d) for c, d in zip(E0.nums, nD))
        self.nonpositive = max(E0.nums) <= 0

    def floor(self, j: int) -> tuple[int, ...]:
        L = self.L
        return tuple((a + j * b) // L for a, b in self.pairs)


def integer_divisor_degree(registry: "DivisorContext", coeffs: tuple[int, ...]) -> int:
    return sum(map(mul, coeffs, registry.cdegrees))


@dataclass(eq=False)
class DivisorContext:
    """Registry plus the canonical divisor data for one hypersurface input."""

    input: HypersurfaceInput
    bez: BezoutPair
    svec: tuple[int, ...]
    components: tuple[PrimeComponent, ...]
    factor_component: tuple[int, ...]  # factor index t -> registry index
    cdegrees: tuple[int, ...] = field(init=False)  # c-degree of each component
    D: QDivisor = field(init=False)
    nD: tuple[int, ...] = field(init=False)  # n*D, integral because lcm(den D) = n
    g_exponents: tuple[int, ...] = field(init=False)  # exponent of form_P in g
    # per-check data, built on first use: FloorShift by (E0.den, E0.nums),
    # form_P^e by (registry index of P, e)
    _shifts: dict = field(init=False, repr=False, default_factory=dict)
    _powers: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        inp = self.input
        self.cdegrees = tuple(comp.cdegree for comp in self.components)
        self.g_exponents = tuple(
            self.factor_component.count(i) for i in range(len(self.components))
        )
        a_over_n = Fraction(self.bez.a, inp.n)
        coeffs = [a_over_n * e for e in self.g_exponents]
        for i in range(inp.ring.d):
            coeffs[i] += self.bez.b * self.svec[i]
        self.D = QDivisor(self, coeffs)
        expected = self.bez.b + a_over_n * inp.m
        if self.D.degree() != expected:
            raise InternalInconsistency("degree of D does not match b + (a/n)m")
        if expected != Fraction(1, inp.n):
            raise InternalInconsistency("degree of D is not 1/n; Bezout data corrupt")
        if self.D.den != (inp.n if inp.n >= 2 else 1):
            raise InternalInconsistency("denominators of D do not have lcm n")
        self.nD = self.D.nums

    @staticmethod
    def build(inp: HypersurfaceInput) -> "DivisorContext":
        """Construct the registry, Bezout data and D for a validated input."""
        bez = BezoutPair.make(inp.m, inp.n)
        svec = bezout_vector(inp.ring.weights)
        components = []
        for i, name in enumerate(inp.ring.variables):
            components.append(
                PrimeComponent(
                    index=i,
                    kind="variable",
                    form=WPolynomial.variable(inp.ring, i),
                    cdegree=inp.ring.weights[i],
                    label=f"V({name})",
                )
            )
        factor_component = []
        for h in inp.factored.factors:
            i = h.as_variable()
            if i is not None:
                factor_component.append(i)
            else:
                comp = PrimeComponent(
                    index=len(components),
                    kind="factor",
                    form=h,
                    cdegree=weighted_degree(h),
                    label=f"V({h.to_string()})",
                )
                components.append(comp)
                factor_component.append(comp.index)
        return DivisorContext(
            input=inp,
            bez=bez,
            svec=svec,
            components=tuple(components),
            factor_component=tuple(factor_component),
        )

    @property
    def r(self) -> int:
        return len(self.factor_component)

    def zero_divisor(self) -> QDivisor:
        return QDivisor(self, [0] * len(self.components))

    def component_divisor(self, idx: int, coeff) -> QDivisor:
        coeffs = [Fraction(0)] * len(self.components)
        coeffs[idx] = Fraction(coeff)
        return QDivisor(self, coeffs)

    def Et(self, t: int) -> QDivisor:
        """Generator divisor -(1/n) V(h_t); t is 0-based."""
        if not 0 <= t < self.r:
            raise DegenerateInput(f"factor index {t} outside 0..{self.r - 1}")
        return self.component_divisor(
            self.factor_component[t], Fraction(-1, self.input.n)
        )

    def factor_cdegree(self, t: int) -> int:
        return self.components[self.factor_component[t]].cdegree

    def shift_of(self, E0: QDivisor) -> FloorShift:
        """The floor data of E0, built once per E0 and kept on the context.

        The key is (E0.den, E0.nums): E_t and n*E_t share their nums and
        differ only in den.
        """
        key = (E0.den, E0.nums)
        shift = self._shifts.get(key)
        if shift is None:
            shift = self._shifts[key] = FloorShift(E0, self.nD, self.input.n)
        return shift

    def floor_shift(self, E0: QDivisor, j: int) -> tuple[int, ...]:
        """floor(E0 + j*D) computed from E0.nums and the integer vector n*D.

        One integer division per entry (`FloorShift`); the result equals
        (E0 + D.scale(j)).floor() exactly.
        """
        return self.shift_of(E0).floor(j)

    def factor_power(self, index: int, e: int) -> WPolynomial:
        """form_P^e for the component at registry `index`, built once per (P, e)."""
        key = (index, e)
        power = self._powers.get(key)
        if power is None:
            power = self._powers[key] = self.components[index].form ** e
        return power
