"""Global sections of integer divisors on X and their image inside R.

Everything here exploits the factoriality of the coordinate ring of X: a
section of O(E) is a form of c-degree deg(E) divided by the product of the
component forms raised to the coefficients of E.  Multiplying a section of
O(floor(E0 + jD)) by T^j with T = z^a x^b clears every denominator whenever
E0 <= 0 and lands in the degree-j piece of R.  Up to one scalar per piece,
every image is a shifted monomial times the factor powers a nonzero E0 leaves
behind, so images are computed as exponent shifts; the only polynomial
arithmetic is expanding those powers.  For E0 = 0 (the section ring itself)
none is left, and `verify_section_ring` checks R as that module.

A module is checked degree by degree for one E0.  Once per check, with
L = lcm(n, den E0), `_ResidueTable` applies the E0 <= 0 gate; it then keeps,
for each residue r = j mod L that a walk reaches, deg floor(E0 + rD) and the
clearing data of `_clearing_data`: the offset, and the tail as the prepared
row of `Subspace.prepared_row` or None.  Each residue is filled on first
use, so a walk to depth j fills at most j + 1 of the L residues.  The table
is kept on the job's context, one per E0.  Once per degree,
`divisorial_module_component` reads its residue's entry with one divmod and
one lookup (`_ResidueTable.fill` fills a missing one, for `at` too), reads
the monomials of its degree translated by the offset from the cache of
`shifted_monomials` and spans one piece: a set of monomials, or the
translates of the tail's row, which are already in echelon form and come
from the translate cache of `Subspace.shifted`.

Two exact identities make the table valid at every j of a class.  n*D is
integral of degree 1, so floor(E0 + (j + L)D) = floor(E0 + jD) + (L/n)*nD
and the degree grows by L/n per period.  The clearing exponents
q*g_P - E_P + b*j*s_P repeat with period L: n*D = a*g + n*b*s (built so in
`DivisorContext.__post_init__`), so one period changes them by
(L/n)(a*g_P - (nD)_P + n*b*s_P) = 0.  `DivisorContext.floor_shift` stays
the per-degree reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import DegenerateInput, InternalInconsistency
from .linalg import MonomialSpace, Subspace
from .qdivisor import DivisorContext, QDivisor, integer_divisor_degree
from .wpoly import (
    count_monomials_of_degree,
    enumerate_monomials_of_degree,
    monomial_counts,
    shifted_monomials,
)


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
    deg = integer_divisor_degree(dctx.registry, E)
    if deg < 0:
        return SectionSpace(E=tuple(E), degree=deg, basis=())
    basis = enumerate_monomials_of_degree(dctx.input.ring, deg)
    if len(basis) != count_monomials_of_degree(dctx.input.ring, deg):
        raise InternalInconsistency("monomial enumeration disagrees with its counter")
    return SectionSpace(E=tuple(E), degree=deg, basis=basis)


def _clearing_data(dctx: DivisorContext, denominators: tuple[int, ...], j: int):
    """Shared data for multiplying sections of O(E) by T^j, E = denominators.

    T = z^a x_1^{b s_1} ... x_d^{b s_d}; z^{aj} is rewritten as z^{aj mod n}
    times g^q with q = floor(aj/n), and g^q = c^q prod_P form_P^{q g_P} with c
    the product of the units of the variable factors.  A section
    mu / prod_P form_P^{E_P} therefore maps to z^{aj mod n} c^q x^{mu + offset}
    times a tail, where P has the exponent q g_P - E_P (plus b j s_i on the
    variable x_i): the variable exponents form the offset and the non-variable
    factor powers the tail.  c^q is dropped, because scaling every image of a
    piece by one nonzero constant leaves its span unchanged.  All exponents
    must come out nonnegative; a leftover denominator means the divisor did
    not come from a nonpositive E0 and is a bug here, not bad user input.
    Returns (offset, tail), with tail None when no factor power is left.
    """
    inp = dctx.input
    q = dctx.bez.a * j // inp.n
    bj = dctx.bez.b * j
    exps = [q * g - e for g, e in zip(dctx.g_exponents, denominators)]
    for i, s in enumerate(dctx.svec):
        exps[i] += bj * s
    for comp, e in zip(dctx.components, exps):
        if e < 0:
            raise InternalInconsistency(
                f"negative exponent {e} on {comp.label} while clearing T^{j}"
            )
    d = inp.ring.d
    tail = None
    for comp, e in zip(dctx.components[d:], exps[d:]):
        if e:
            power = comp.form**e
            tail = power if tail is None else tail * power
    return tuple(exps[:d]), tail


class _ResidueTable:
    """What a divisorial module of one E0 needs per residue class of j.

    For a residue r < L = lcm(n, den E0), `residues[r]` = (deg floor(E0 + rD),
    offset, row): the offset of `_clearing_data` at r and the prepared row
    of its tail over the job's field (None for no tail),
    `Subspace.prepared_row`, a frozenset of the canonical row's items, ready
    for `Subspace.shifted`.  A residue is filled by `fill` the first time a
    degree of its class is asked for.  No residue can raise on an E0 <= 0:
    each clearing exponent is q*g_P - floor(E0_P + a*g_P*j/n) >= 0, since
    g_P <= 1 when n >= 2 (proportional factors are rejected) and a = 0 when
    n = 1.
    """

    __slots__ = ("E0", "L", "period_degree", "residues")

    def __init__(self, dctx: DivisorContext, E0: QDivisor):
        if max(E0.nums) > 0:
            raise DegenerateInput("divisorial modules are only computed for E0 <= 0")
        n = dctx.input.n
        self.E0 = E0
        self.L = lcm(n, E0.den)
        self.period_degree = self.L // n
        self.residues: dict = {}

    def fill(self, dctx: DivisorContext, r: int) -> tuple:
        """Compute, keep and return the entry of residue r."""
        E = dctx.floor_shift(self.E0, r)
        offset, tail = _clearing_data(dctx, E, r)
        row = None if tail is None else Subspace.prepared_row(dctx.input.field, tail.terms)
        entry = self.residues[r] = (integer_divisor_degree(dctx.registry, E), offset, row)
        return entry

    def at(self, dctx: DivisorContext, j: int) -> tuple:
        """deg floor(E0 + j*D), the offset and the row at j."""
        periods, r = divmod(j, self.L)
        degree, offset, row = self.residues.get(r) or self.fill(dctx, r)
        return degree + periods * self.period_degree, offset, row


def _residue_table(dctx: DivisorContext, E0: QDivisor) -> _ResidueTable:
    """E0's table, built on first use and kept on the context.

    The key is (E0.den, E0.nums): E_t and n*E_t share their nums and differ
    only in den.
    """
    key = (E0.den, E0.nums)
    table = dctx.module_tables.get(key)
    if table is None:
        table = dctx.module_tables[key] = _ResidueTable(dctx, E0)
    return table


def divisorial_module_component(
    dctx: DivisorContext, E0: QDivisor, j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the module H0(O(floor(E0 + jD))) T^j inside R.

    Only nonpositive E0 are supported; these are the divisors whose modules
    are honest ideals of R (E_t, n E_t, sums of E_t, and 0 itself).  The
    degree of the floor and the clearing data come from the entry of j's
    residue in E0's table, read without `_ResidueTable.at`.
    The images of the sections are the numerators mu shifted by the clearing
    offset (`shifted_monomials`, a cached translate).  The
    piece is that set of monomials when clearing leaves no factor power
    behind, and otherwise the span of the translates x^(mu + offset) * tail
    (`Subspace.shifted` on the table's prepared row of the tail, whose
    translate cache the ideal pieces of `hyperring` share: the module of
    n*E_t and h_t R often translate equal rows by one key set).
    """
    table = _residue_table(dctx, E0)
    periods, r = divmod(j, table.L)
    deg, offset, tail = table.residues.get(r) or table.fill(dctx, r)
    deg += periods * table.period_degree
    ring = dctx.input.ring
    field = ring.field
    if deg < 0:
        return MonomialSpace(field)
    images = shifted_monomials(ring.weights, deg, offset)
    if not images:
        return MonomialSpace(field)
    if tail is None:
        return Subspace.unit_space(field, images)
    return Subspace.shifted(field, tail, images)


@dataclass(frozen=True)
class SectionRingReport:
    depth: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def verify_section_ring(dctx: DivisorContext, depth: int) -> SectionRingReport:
    """Check R = section ring of (X, D) degree by degree up to `depth`.

    R is the E0 = 0 case of the divisorial modules, so for each j the piece
    `divisorial_module_component` of the zero divisor must be R_j: with
    j = u m + v n, the set of all monomials of c-degree v.  Each j is split
    once, from m^{-1} mod n as in `ideal_graded_component`, and
    deg floor(jD) = v is asserted for every j from the residue table of the
    zero divisor, which that piece reads too.  The enumeration of c-degree v
    is checked against one table of monomial counts for every v <= depth // n
    (`monomial_counts`).  The piece keeps only the x-exponents of its
    images; the z-exponent it drops is aj mod n, and a m = 1 (mod n), which
    `BezoutPair` checks, makes that the u of the degree split, so nothing is
    lost.  floor(jD) has coefficient floor(aj/n) on every non-variable
    factor, exactly that factor's power in g^floor(aj/n), so clearing never
    leaves a factor power behind; a piece that is not a set of monomials
    raises InternalInconsistency.
    """
    inp = dctx.input
    ring, n, m = inp.ring, inp.n, inp.m
    # set, since the context's Bezout pair needs gcd(m, n) = 1
    m_inv = inp.m_inv
    field = ring.field
    zero = dctx.zero_divisor()
    table = _residue_table(dctx, zero)
    counts = monomial_counts(ring, depth // n)
    mismatches = []
    for j in range(depth + 1):
        u = j * m_inv % n
        v = (j - u * m) // n
        deg = table.at(dctx, j)[0]
        if v >= 0 and deg != v:
            raise InternalInconsistency(
                f"deg floor({j}D) = {deg} but the degree split gives v = {v}"
            )
        images = divisorial_module_component(dctx, zero, j)
        if not isinstance(images, MonomialSpace):
            raise InternalInconsistency(
                f"floor({j}D) left a factor power behind while clearing T^{j}"
            )
        basis = enumerate_monomials_of_degree(ring, v) if v >= 0 else ()
        if v >= 0 and len(basis) != counts[v]:
            raise InternalInconsistency("monomial enumeration disagrees with its counter")
        expected = MonomialSpace(field, basis)
        if not images == expected:  # one `==` dispatch, where `!=` takes two
            mismatches.append(
                f"j={j}: section images {sorted(images.keys)} != ring basis {sorted(expected.keys)}"
            )
    return SectionRingReport(depth=depth, checked=depth + 1, mismatches=tuple(mismatches))
