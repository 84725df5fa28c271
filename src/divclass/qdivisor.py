"""Q-divisors on X = Proj R supported on the coordinate and factor primes.

The registry fixes one entry per prime divisor: V(x_i) for each variable and
V(h_t) for each supplied factor, except that a factor which is a scalar
multiple of a variable shares the variable's entry.  It is a small
`DivisorRegistry` (the components and their c-degrees) owned by the job's
`DivisorContext`; divisors refer to the registry and not to the context, so
the context, which holds D, is in no reference cycle with its divisors and
is freed as soon as the job drops it.  A divisor is stored in
integer form only: a common denominator `den` and the numerators `nums` over
the registry, reduced so that gcd(den, *nums) = 1.  Then `den` is the lcm of
the reduced denominators of the coefficients, and sums, multiples, floors,
degrees and equality are integer arithmetic; `coeffs` gives the exact
Fractions on demand.

The distinguished divisor D = b * sum_i s_i V(x_i) + (a/n) * sum_t V(h_t)
drives everything downstream: R is recovered as the section ring of (X, D),
and the generator classes come from E_t = -(1/n) V(h_t).  The denominators
of D have lcm n, so n*D is the integer vector D.nums, and the floors
floor(E0 + jD) are integer divisions (`DivisorContext.floor_shift`);
floor(jD) is the floor for the zero divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateInput, InternalInconsistency
from .exactmath import BezoutPair, bezout_vector
from .hyperring import HypersurfaceInput
from .wpoly import WPolynomial


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


class DivisorRegistry:
    """The prime components of one job and the c-degree of each."""

    __slots__ = ("components", "cdegrees")

    def __init__(self, components: tuple[PrimeComponent, ...]):
        self.components = components
        self.cdegrees = tuple(comp.cdegree for comp in components)


class QDivisor:
    """Immutable Q-divisor over a fixed registry, kept as integers.

    Coefficient i is nums[i] / den, with den >= 1 and gcd(den, *nums) = 1,
    so equal divisors have equal (den, nums).  The constructor takes exact
    rationals (int or Fraction) and `from_ints` takes the integer form; no
    Fraction is stored, and `+`, `scale`, `floor` and `==` are integer
    arithmetic.
    """

    __slots__ = ("registry", "den", "nums")

    def __init__(self, registry: DivisorRegistry, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != len(registry.components):
            raise DegenerateInput("coefficient count does not match the registry")
        den = lcm(*(c.denominator for c in coeffs))
        # lcm of reduced denominators: gcd(den, *nums) is already 1
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._set(registry, den, nums)

    @classmethod
    def from_ints(cls, registry: DivisorRegistry, den: int, nums) -> "QDivisor":
        """The divisor sum_i (nums[i] / den) P_i, for den >= 1, reduced."""
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [a // g for a in nums]
        out = cls.__new__(cls)
        out._set(registry, den, tuple(nums))
        return out

    def _set(self, registry, den, nums) -> None:
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("QDivisor is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QDivisor)
            and self.registry is other.registry
            and self.den == other.den
            and self.nums == other.nums
        )

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if self.registry is not other.registry:
            raise DegenerateInput("divisors on different registries")
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return QDivisor.from_ints(
            self.registry, den, [p * a + q * b for a, b in zip(self.nums, other.nums)]
        )

    def scale(self, k) -> "QDivisor":
        """k times the divisor, for an int or Fraction k."""
        p = k.numerator
        return QDivisor.from_ints(
            self.registry, self.den * k.denominator, [p * a for a in self.nums]
        )

    def floor(self) -> tuple[int, ...]:
        """Componentwise greatest-integer part, as a dense integer vector."""
        den = self.den
        return tuple(a // den for a in self.nums)

    def degree(self) -> Fraction:
        return Fraction(integer_divisor_degree(self.registry, self.nums), self.den)

    def items(self):
        den = self.den
        for comp, a in zip(self.registry.components, self.nums):
            if a:
                yield comp, Fraction(a, den)

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{comp.label}" for comp, c in self.items())
        return f"QDivisor({body or '0'})"


def integer_divisor_degree(registry: DivisorRegistry, coeffs: tuple[int, ...]) -> int:
    return sum(map(mul, coeffs, registry.cdegrees))


@dataclass(eq=False)
class DivisorContext:
    """The registry plus the canonical divisor data for one hypersurface input."""

    input: HypersurfaceInput
    bez: BezoutPair
    svec: tuple[int, ...]
    components: tuple[PrimeComponent, ...]
    factor_component: tuple[int, ...]  # factor index t -> registry index
    registry: DivisorRegistry = field(init=False, repr=False)
    D: QDivisor = field(init=False)
    g_exponents: tuple[int, ...] = field(init=False)  # exponent of form_P in g
    # the residue base (r < n -> floor(rD) and its clearing data), the
    # prepared rows of the clearing tails (factor exponents -> row) and the
    # residue tables of the job's divisorial modules, read and written only
    # by `sections`
    residue_base: dict = field(init=False, repr=False, default_factory=dict)
    tail_rows: dict = field(init=False, repr=False, default_factory=dict)
    module_tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        inp = self.input
        self.registry = DivisorRegistry(self.components)
        self.g_exponents = tuple(
            self.factor_component.count(i) for i in range(len(self.components))
        )
        n, a, b = inp.n, self.bez.a, self.bez.b
        nD = [a * e for e in self.g_exponents]
        for i in range(inp.ring.d):
            nD[i] += n * b * self.svec[i]
        # the checks on n*D: degree b*n + a*m, that is 1, and no common
        # factor with n, so that D has denominator n
        if integer_divisor_degree(self.registry, nD) != b * n + a * inp.m:
            raise InternalInconsistency("degree of D does not match b + (a/n)m")
        if b * n + a * inp.m != 1:
            raise InternalInconsistency("degree of D is not 1/n; Bezout data corrupt")
        if gcd(n, *nD) != 1:
            raise InternalInconsistency("denominators of D do not have lcm n")
        self.D = QDivisor.from_ints(self.registry, n, nD)

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
        for h, cdegree in zip(inp.factored.factors, inp.factored.degrees):
            i = h.as_variable()
            if i is not None:
                factor_component.append(i)
            else:
                comp = PrimeComponent(
                    index=len(components),
                    kind="factor",
                    form=h,
                    cdegree=cdegree,
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
        return QDivisor.from_ints(self.registry, 1, [0] * len(self.components))

    def Et(self, t: int) -> QDivisor:
        """Generator divisor -(1/n) V(h_t); t is 0-based."""
        if not 0 <= t < self.r:
            raise DegenerateInput(f"factor index {t} outside 0..{self.r - 1}")
        nums = [0] * len(self.components)
        nums[self.factor_component[t]] = -1
        return QDivisor.from_ints(self.registry, self.input.n, nums)

    def floor_shift(self, E0: QDivisor, j: int) -> tuple[int, ...]:
        """floor(E0 + j*D) computed from E0.nums and the integer vector D.nums = n*D.

        With L = lcm(n, E0.den) every coefficient of E0 + j*D is an integer
        over L, so each entry is one integer division; the result equals
        (E0 + D.scale(j)).floor() exactly.
        """
        n = self.input.n
        L = lcm(n, E0.den)
        lift, step = L // E0.den, j * (L // n)
        return tuple((lift * c + step * d) // L for c, d in zip(E0.nums, self.D.nums))
