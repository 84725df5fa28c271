"""Global sections of integer divisors on X and their image inside R.

Everything here exploits the factoriality of the coordinate ring of X: a
section of O(E) is a form of c-degree deg(E) divided by the product of the
component forms raised to the coefficients of E.  Multiplying a section of
O(floor(E0 + jD)) by T^j with T = z^a x^b clears every denominator whenever
E0 <= 0 and lands in the degree-j piece of R.  Every image is a fixed tail
times a shifted monomial, so images are computed as exponent shifts; the
only polynomial arithmetic is expanding the powers of non-variable factors
that a nonzero E0 leaves in the tail.  For E0 = 0 (the section ring itself)
the tail is always a monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, InternalInconsistency
from .linalg import MonomialSpace, Subspace
from .qdivisor import DivisorContext, QDivisor, integer_divisor_degree
from .wpoly import WPolynomial, count_monomials_of_degree, enumerate_monomials_of_degree


@dataclass(frozen=True)
class SectionSpace:
    """Basis of H0(X, O(E)) as the numerators of its sections.

    Each basis entry is the exponent tuple of a monomial mu of c-degree
    `degree`; the section is mu / prod_P form_P^{E_P}, with E indexed by
    registry position (a negative entry is really a numerator factor).
    """

    E: tuple[int, ...]
    degree: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def h0_basis(dctx: DivisorContext, E: tuple[int, ...]) -> SectionSpace:
    """Basis of H0(X, O(E)) for an integer divisor E over the registry."""
    if len(E) != len(dctx.components):
        raise DegenerateInput("divisor length does not match the registry")
    deg = integer_divisor_degree(dctx, E)
    if deg < 0:
        return SectionSpace(E=tuple(E), degree=deg, basis=())
    basis = enumerate_monomials_of_degree(dctx.input.ring, deg)
    if len(basis) != count_monomials_of_degree(dctx.input.ring, deg):
        raise InternalInconsistency("monomial enumeration disagrees with its counter")
    return SectionSpace(E=tuple(E), degree=deg, basis=basis)


def _clearing_data(dctx: DivisorContext, denominators: tuple[int, ...], j: int):
    """Shared data for multiplying sections of O(E) by T^j, E = denominators.

    T = z^a x_1^{b s_1} ... x_d^{b s_d}; z^{aj} is rewritten as z^{u'} g^q
    with u' = aj mod n, and g^q is distributed over the factors.  Every
    section mu / prod form^{E_P} then maps to z^{u'} x^{mu + offset} times a
    fixed polynomial (the non-variable factor powers), so that tail is
    computed once per space.  All exponents must come out nonnegative; a
    leftover denominator means the divisor did not come from a nonpositive
    E0 and is a bug here, not bad user input.
    """
    inp = dctx.input
    n, b = inp.n, dctx.bez.b
    aj = dctx.bez.a * j
    u_prime = aj % n
    q = aj // n
    merged_count = [0] * len(dctx.components)
    for idx in dctx.factor_component:
        if dctx.components[idx].kind == "variable":
            merged_count[idx] += 1
    offset = []
    for i in range(inp.ring.d):
        e = b * j * dctx.svec[i] + merged_count[i] * q - denominators[i]
        if e < 0:
            raise InternalInconsistency(
                f"negative offset {e} on {inp.ring.variables[i]} while clearing T^{j}"
            )
        offset.append(e)
    coeff = inp.field.one
    if q:
        for unit in dctx.factor_unit:
            if unit != inp.field.one:
                coeff = inp.field.mul(coeff, inp.field.canon(unit**q))
    tail = WPolynomial.constant(inp.ring, coeff)
    for comp in dctx.components:
        if comp.kind != "variable":
            beta = q - denominators[comp.index]
            if beta < 0:
                raise InternalInconsistency(
                    f"negative exponent {beta} on {comp.label} while clearing T^{j}"
                )
            if beta:
                tail = tail * comp.form**beta
    return u_prime, tuple(offset), tail


def divisorial_module_component(
    dctx: DivisorContext, E0: QDivisor, j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the module H0(O(floor(E0 + jD))) T^j inside R.

    Only nonpositive E0 are supported; these are the divisors whose modules
    are honest ideals of R (E_t, n E_t, sums of E_t, and 0 itself).  The
    floor comes from `DivisorContext.floor_shift`, in integer arithmetic on
    n*D.  The piece is a set of monomials whenever the clearing tail is a
    monomial.
    """
    if any(c.numerator > 0 for c in E0.coeffs):
        raise DegenerateInput("divisorial modules are only computed for E0 <= 0")
    field = dctx.input.field
    E = dctx.floor_shift(E0, j)
    deg = integer_divisor_degree(dctx, E)
    if deg < 0:
        return MonomialSpace(field)
    numerators = enumerate_monomials_of_degree(dctx.input.ring, deg)
    if not numerators:
        return MonomialSpace(field)
    _, offset, tail = _clearing_data(dctx, E, j)
    tail_terms = tail.terms
    if len(tail_terms) == 1:
        # monomial tail: every image is a distinct monomial; the shift is
        # done one coordinate at a time so zip can assemble the keys in C
        ((te, _),) = tail_terms.items()
        base = tuple(a + b for a, b in zip(te, offset))
        if not any(base):
            return Subspace.unit_space(field, numerators)
        return Subspace.unit_space(
            field,
            zip(*([mu[i] + b for mu in numerators] for i, b in enumerate(base))),
        )
    space = Subspace(field)
    for mu in numerators:
        shifted = tuple(a + b for a, b in zip(mu, offset))
        row = {
            tuple(a + b for a, b in zip(fe, shifted)): fc
            for fe, fc in tail_terms.items()
        }
        space.insert(row)
    return space


@dataclass(frozen=True)
class SectionRingReport:
    depth: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def default_section_depth(dctx: DivisorContext) -> int:
    inp = dctx.input
    gamma = max((dctx.factor_cdegree(t) for t in range(dctx.r)), default=1)
    return max(200, 4 * inp.m * inp.n, inp.n * gamma + inp.m * inp.n)


def verify_section_ring(dctx: DivisorContext, depth: int | None = None) -> SectionRingReport:
    """Check R = section ring of (X, D) degree by degree up to `depth`.

    For each j the basis of H0(floor(jD)) is mapped into R by T^j; the images
    must be exactly the monomials z^u mu spanning R_j, and in particular the
    dimensions must agree.  floor(jD) has coefficient floor(aj/n) on every
    non-variable factor, exactly that factor's power in g^floor(aj/n), so
    clearing never leaves a factor power behind; a tail that is not a
    monomial raises InternalInconsistency.
    """
    inp = dctx.input
    if depth is None:
        depth = default_section_depth(dctx)
    mismatches = []
    for j in range(depth + 1):
        E, u, v, deg = dctx.floor_of_multiple(j)
        split = inp.degree_split(j)
        if split is None:
            expected = set()
        else:
            expected = {
                (split[0], mu)
                for mu in enumerate_monomials_of_degree(inp.ring, split[1])
            }
        space = h0_basis(dctx, E)
        images = set()
        if space.basis:
            u_prime, offset, tail = _clearing_data(dctx, E, j)
            if len(tail.terms) != 1:
                raise InternalInconsistency(
                    f"floor({j}D) left a factor power behind while clearing T^{j}"
                )
            ((te, _),) = tail.terms.items()
            base = tuple(a + b for a, b in zip(te, offset))
            images = {
                (u_prime, tuple(a + b for a, b in zip(mu, base))) for mu in space.basis
            }
        if images != expected:
            mismatches.append(
                f"j={j}: section images {sorted(images)} != ring basis {sorted(expected)}"
            )
    return SectionRingReport(depth=depth, checked=depth + 1, mismatches=tuple(mismatches))
