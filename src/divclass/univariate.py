"""Dense univariate polynomial arithmetic over Z, Q and F_p.

These are the workhorses behind the 1+t^c factor counting and the exact
two-variable irreducibility checks: cyclotomic polynomials with integer
coefficients; enough F_p[t] arithmetic for distinct- and equal-degree
factorisation and a bounded trial-division factorizer; and irreducibility
over Q, decided by degree patterns modulo a few primes and otherwise by
Zassenhaus factoring (Hensel lifting from one prime, then exhaustive
recombination over Z).  Nothing here needs a package outside the standard
library.

A polynomial is a list of coefficients, index = degree, last entry nonzero.
The zero polynomial is the empty list.

Over F_p the kernel (`_mul`, `_divmod`, `_gcd`, `_powmod`, `_monic`,
`_derivative`) takes and returns only canonical lists: residues in [0, p), no
trailing zero; the public `fp_*` functions normalize any integer list once.
Irreducibility over F_p is Ben-Or's test.  Over Q, gcd degrees come from
Brown's primitive pseudo-remainder sequence on integer coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, count, islice, product
from math import comb, gcd, isqrt, lcm

from .errors import DegenerateInput, InternalInconsistency, SearchSpaceTooLarge
from .exactmath import divisors, is_prime


def _zip_pad(f: list[int], g: list[int]):
    n = max(len(f), len(g))
    return zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))


# ---------------------------------------------------------------------------
# integer coefficients

def int_strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def int_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return int_strip(out)


def int_exact_div(f: list[int], g: list[int]) -> list[int] | None:
    """The quotient f / g in Z[t], or None when g does not divide f in Z[t]."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + len(g) - 1], g[-1])
        if r:
            return None
        if q:
            quo[k] = q
            for j, b in enumerate(g):
                rem[k + j] -= q * b
    return None if any(rem) else int_strip(quo)


def one_plus_tc(c: int) -> list[int]:
    f = [0] * (c + 1)
    f[0] = 1
    f[c] = 1
    return f


@lru_cache(maxsize=None)
def cyclotomic(e: int) -> tuple[int, ...]:
    """The e-th cyclotomic polynomial, by exact division of t^e - 1."""
    if e < 1:
        raise DegenerateInput(f"cyclotomic index must be >= 1, got {e}")
    if e == 1:
        return (-1, 1)
    f = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e):
        if d < e:
            f = int_exact_div(f, list(cyclotomic(d)))
            if f is None:
                raise DegenerateInput("cyclotomic division left a remainder; bug")
    return tuple(f)


# ---------------------------------------------------------------------------
# F_p coefficients

def fp_strip(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _mul(f: list[int], g: list[int], p: int) -> list[int]:
    return [c % p for c in int_mul(f, g)]  # a product of leads is nonzero mod p


def _divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    # the working remainder is reduced mod p only where a quotient term is read
    dg = len(g) - 1
    dq = len(f) - 1 - dg
    if dq < 0:
        return [], f
    inv = pow(g[-1], -1, p)
    low = [(j, b) for j, b in enumerate(g[:dg]) if b]
    rem = list(f)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + dg] * inv % p
        if c:
            quo[k] = c
            for j, b in low:
                rem[k + j] -= c * b
    return quo, int_strip([c % p for c in rem[:dg]])


def _sub(f: list[int], g: list[int], p: int) -> list[int]:
    return int_strip([(a - b) % p for a, b in _zip_pad(f, g)])


def _monic(f: list[int], p: int) -> list[int]:
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod, p) by square and multiply; mod is nonconstant."""
    result, acc = [1], _divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, acc, p), mod, p)[1]
        e >>= 1
        if e:
            acc = _divmod(_mul(acc, acc, p), mod, p)[1]
    return result


def _derivative(f: list[int], p: int) -> list[int]:
    return int_strip([i * c % p for i, c in enumerate(f)][1:])


def fp_mul(f: list[int], g: list[int], p: int) -> list[int]:
    return _mul(fp_strip(f, p), fp_strip(g, p), p)


def fp_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not (g := fp_strip(g, p)):
        raise ZeroDivisionError("division by zero polynomial")
    return _divmod(fp_strip(f, p), g, p)


def fp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    return _gcd(fp_strip(f, p), fp_strip(g, p), p)


def fp_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    mod = fp_strip(mod, p)
    if len(mod) <= 1:
        raise DegenerateInput("fp_powmod needs a nonconstant modulus")
    return _powmod(fp_strip(base, p), e, mod, p)

def fp_radical(f: list[int], p: int) -> list[int]:
    """Product of the distinct monic irreducible factors of f.

    Handles the char-p wrinkles: a vanishing derivative means f = v(t)^p
    (coefficients are Frobenius-fixed in F_p, so v is read off directly), and
    factors whose multiplicity is divisible by p survive inside gcd(f, f')
    and must be collected recursively.
    """
    f = _monic(fp_strip(f, p), p)
    if not f:
        raise DegenerateInput("radical of the zero polynomial")
    if len(f) == 1:
        return [1]
    d = _derivative(f, p)
    if not d:
        return fp_radical(f[::p], p)
    g = _gcd(f, d, p)
    w = _divmod(f, g, p)[0]  # squarefree, but may miss multiplicity-p factors
    if len(g) == 1:
        return w
    rg = fp_radical(g, p)
    return _divmod(_mul(w, rg, p), _gcd(w, rg, p), p)[0]


def fp_is_squarefree(f: list[int], p: int) -> bool:
    f = fp_strip(f, p)
    return len(f) <= 1 or len(_gcd(f, _derivative(f, p), p)) == 1


def fp_squarefree_degree(f: list[int], p: int) -> int:
    """Number of distinct roots of f in the algebraic closure of F_p."""
    return len(fp_radical(f, p)) - 1


def _distinct_degree(f: list[int], p: int):
    """Distinct-degree factorisation of the monic canonical f, lazily: the
    pairs (k, f_k), ascending in k, with f_k the product of the irreducible
    factors of degree k when f is squarefree.  gcd(f, t^(p^k) - t) is the
    product of the irreducible factors of degree dividing k, so after peeling
    the degrees below k it is f_k; once 2k exceeds the degree of what is
    left, the rest is irreducible."""
    h, k = [0, 1], 0
    while len(f) - 1 >= 1:
        k += 1
        if 2 * k > len(f) - 1:
            yield len(f) - 1, f
            return
        h = _powmod(h, p, f, p)
        g = _gcd(_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            yield k, g
            f = _divmod(f, g, p)[0]
            if len(f) - 1 >= 1:
                h = _divmod(h, f, p)[1]


def fp_distinct_degree_factors(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """`_distinct_degree` of the radical of f over F_p."""
    return list(_distinct_degree(fp_radical(f, p), p))


def fp_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test, the first block of `_distinct_degree`: the monic f of
    degree n is irreducible iff gcd(t^(p^k) - t, f) = 1 for all k <= n / 2,
    since a reducible f, a repeated factor g^2 included, has a factor of
    degree <= n / 2.  So no radical is needed."""
    f = _monic(fp_strip(f, p), p)
    return len(f) > 1 and next(_distinct_degree(f, p))[0] == len(f) - 1


def fp_distinct_factor_count(f: list[int], p: int) -> int:
    """Number of distinct monic irreducible factors of f over F_p."""
    return sum((len(g) - 1) // k for k, g in fp_distinct_degree_factors(f, p))


def fp_equal_degree_factors(g: list[int], k: int, p: int) -> list[list[int]]:
    """Monic irreducible factors of g, a squarefree product of degree-k
    irreducibles over F_p, by a deterministic trace split.

    At a root of each factor, Tr(a) = a + a^p + ... + a^(p^(k-1)) mod g takes
    a value in F_p.  The traces of the basis 1, t, ..., t^(deg g - 1) span all
    value patterns, so when g has two or more factors some t^i has a
    nonconstant trace, and the gcds of g with Tr(t^i) - s, s in F_p, split g
    into proper pieces.
    """
    g = _monic(fp_strip(g, p), p)
    if len(g) - 1 == k:
        return [g]
    for i in range(1, len(g) - 1):
        power = trace = [0] * i + [1]
        for _ in range(k - 1):
            power = _powmod(power, p, g, p)
            trace = int_strip([(a + b) % p for a, b in _zip_pad(trace, power)])
        if len(trace) > 1:
            pieces = (_gcd(_sub(trace, [s], p), g, p) for s in range(p))
            return [
                h for piece in pieces if len(piece) > 1
                for h in fp_equal_degree_factors(piece, k, p)
            ]
    raise InternalInconsistency(f"no trace splits a product of degree-{k} factors")


def fp_trial_division_factors(
    f: list[int], p: int, budget: int = 2_000_000
) -> list[tuple[tuple[int, ...], int]]:
    """Factor f over F_p by trial division over all monic polynomials.

    Candidates are enumerated degree by degree, so any factor found is
    irreducible (all smaller degrees were exhausted first).  Raises
    SearchSpaceTooLarge when the candidate count would exceed the budget.
    """
    f = _monic(fp_strip(f, p), p)
    if not f:
        raise DegenerateInput("cannot factor the zero polynomial")
    out: list[tuple[tuple[int, ...], int]] = []
    spent = 0
    deg = 1
    while len(f) - 1 >= 2 * deg:
        spent += p**deg
        if spent > budget:
            raise SearchSpaceTooLarge(
                f"trial division over F_{p} at degree {deg} exceeds budget"
            )
        for tail in product(range(p), repeat=deg):
            cand = list(tail) + [1]
            mult = 0
            while len(f) - 1 >= deg:
                q, r = _divmod(f, cand, p)
                if r:
                    break
                f = q
                mult += 1
            if mult:
                out.append((tuple(cand), mult))
        deg += 1
    if len(f) - 1 >= 1:
        out.append((tuple(f), 1))
    return sorted(out)


# ---------------------------------------------------------------------------
# characteristic zero

def _primitive(f: list[int]) -> list[int]:
    content = gcd(*f)
    return [c // content for c in f] if content > 1 else f


def _integer_multiple(coeffs: list) -> list[int]:
    """The primitive integer multiple of an int or Fraction polynomial."""
    scale = lcm(*(c.denominator for c in coeffs))
    return _primitive(int_strip([c.numerator * (scale // c.denominator) for c in coeffs]))


def int_gcd_degree(f: list[int], g: list[int]) -> int:
    """Degree of gcd(f, g) over Q for integer polynomials, by the primitive
    pseudo-remainder sequence (Brown, J. ACM 18, 1971): gcd(a, b) = gcd(b, r)
    for r the primitive part of a nonzero multiple of a mod b, which each
    division step keeps integral by scaling with lc(b) / gcd(c, lc(b))."""
    a, b = int_strip(list(f)), int_strip(list(g))
    if len(a) < len(b):
        a, b = b, a
    if not a:
        raise DegenerateInput("gcd of two zero polynomials")
    while len(b) > 1:
        r, lb = list(a), b[-1]
        for k in range(len(a) - len(b), -1, -1):
            c = r.pop()
            if c:
                d = gcd(c, lb)
                if d != lb:
                    r = [lb // d * x for x in r]
                for j, y in enumerate(b[:-1]):
                    r[k + j] -= c // d * y
        a, b = b, _primitive(int_strip(r))
    return 0 if b else len(a) - 1


def q_squarefree_degree(coeffs: list) -> int:
    """Number of distinct complex roots: deg f - deg gcd(f, f')."""
    f = _integer_multiple(coeffs)
    if len(f) <= 1:
        return 0
    return (len(f) - 1) - int_gcd_degree(f, [i * c for i, c in enumerate(f)][1:])


# Number of good primes whose degree patterns are intersected before falling
# back to Zassenhaus factoring.
_PATTERN_PRIMES = 5


def _good_residues(f: list[int]):
    """(p, monic f mod p) for each prime p that keeps f squarefree of degree deg f."""
    for p in count(2):
        if is_prime(p) and f[-1] % p:
            g = _monic(fp_strip(f, p), p)
            if len(_gcd(g, _derivative(g, p), p)) == 1:
                yield p, g


def _fp_inverse_mod(h: list[int], g: list[int], p: int) -> list[int]:
    """The inverse of h modulo g over F_p (extended Euclid); h, g coprime."""
    r0, r1 = g, _divmod(h, g, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    if len(r0) != 1:
        raise InternalInconsistency("inverse asked for modulo a non-coprime polynomial")
    return _mul(s0, [pow(r0[0], -1, p)], p)


def _hensel_lift(F: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift F = g_1 ... g_r mod p to monic G_i with F = G_1 ... G_r mod p^k.

    F is monic with coefficients mod p^k; the g_i are monic, pairwise coprime
    mod p.  Each g_i splits off the cofactor it leaves by linear lifting: with
    F = G H mod m and c = (F - G H) / m mod p, the corrections dG = c u mod g
    (u the inverse of h mod g) and dH = (c - dG h) / g solve
    dG h + dH g = c mod p, so F = (G + m dG)(H + m dH) mod m p.
    """
    lifted = []
    for g in factors[:-1]:
        h = _divmod(fp_strip(F, p), g, p)[0]
        u = _fp_inverse_mod(h, g, p)
        G, H, m = list(g), h, p
        for _ in range(k - 1):
            GH = int_mul(G, H)
            c = fp_strip([(a - b) % (m * p) // m for a, b in _zip_pad(F, GH)], p)
            dG = _divmod(_mul(c, u, p), g, p)[1]
            dH = _divmod(_sub(c, _mul(dG, h, p), p), g, p)[0]
            G = [a + m * b for a, b in _zip_pad(G, dG)]
            H = [a + m * b for a, b in _zip_pad(H, dH)]
            m *= p
        lifted.append(G)
        F = H
    return lifted + [F]


# The largest `recombination_subsets` that `_has_proper_factor` may try.
# Swinnerton-Dyer polynomials split into factors of degree at most 2 modulo
# every prime: degree 16 (k = 8, 162 subsets) took 0.015 s and degree 32
# (k = 16, 39 202 subsets) 9.0 s (Python 3.11, 2 cores), about 0.23 ms a
# subset.  The limit admits k <= 14 (9907 subsets).
MAX_RECOMBINATION_SUBSETS = 10**4


def recombination_subsets(k: int) -> int:
    """Number of subsets `_has_proper_factor` tries for k modular factors:
    the nonempty ones with at most k // 2 members."""
    return sum(comb(k, s) for s in range(1, k // 2 + 1))


def _has_proper_factor(f: list[int], factors: list[list[int]], p: int) -> bool:
    """Zassenhaus: whether the primitive, squarefree f has a proper factor
    over Z, given its monic irreducible factors mod a good prime p.

    A factor u of f of degree d has ||u||_1 <= 2^d |lc u / lc f| ||f||_2
    (Mignotte), so (lc f / lc u) u has coefficients below
    M = 2^deg f (isqrt(||f||_2^2) + 1).  Above 2 |lc f| M, the symmetric
    residue of lc f times the lifted factors of u mod p^k is that polynomial
    exactly, and its primitive part is u.  Either u or f / u uses at most half
    the factors mod p, so trying every such subset decides the question.
    When there are more than `MAX_RECOMBINATION_SUBSETS` such subsets,
    SearchSpaceTooLarge is raised before any lifting.
    """
    subsets = recombination_subsets(len(factors))
    if subsets > MAX_RECOMBINATION_SUBSETS:
        raise SearchSpaceTooLarge(
            f"recombining {len(factors)} factors modulo {p} would try {subsets} "
            f"subsets, above the limit {MAX_RECOMBINATION_SUBSETS}"
        )
    b = f[-1]
    bound = 2 * abs(b) * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    k, mod = 1, p
    while mod <= bound:
        k, mod = k + 1, mod * p
    inv = pow(b, -1, mod)
    lifted = _hensel_lift([c * inv % mod for c in f], factors, p, k)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            cand = [b]
            for g in subset:
                cand = [c % mod for c in int_mul(cand, g)]
            cand = [c - mod if 2 * c > mod else c for c in cand]
            if int_exact_div(f, _primitive(cand)) is not None:
                return True
    return False


def q_irreducible(coeffs: list) -> bool:
    """Irreducibility over Q of a nonconstant polynomial with rational coefficients.

    Reduction modulo primes alone cannot decide this (t^4 + 1 factors modulo
    every prime), so the answer comes in three steps on the primitive integer
    multiple f of the input:
    - degree 1 is irreducible, and a repeated factor (deg gcd(f, f') > 0) is
      a proper one;
    - modulo each of the first few primes that keep f squarefree of the same
      degree, the degrees of the irreducible factors (distinct-degree
      factorisation) bound the degree of any rational factor to their subset
      sums; when no degree up to deg f / 2 survives every prime, f is
      irreducible.  This covers f irreducible modulo one of the primes;
    - otherwise f is factored completely modulo the prime with the fewest
      factors and Zassenhaus recombination decides (_has_proper_factor).
    """
    f = _integer_multiple(coeffs)
    n = len(f) - 1
    if n < 1:
        raise DegenerateInput("irreducibility is about nonconstant polynomials")
    if n == 1:
        return True
    if int_gcd_degree(f, [i * c for i, c in enumerate(f)][1:]):
        return False
    degrees_left = set(range(1, n // 2 + 1))
    best = None
    for p, residue in islice(_good_residues(f), _PATTERN_PRIMES):
        blocks = list(_distinct_degree(residue, p))
        degrees = [k for k, g in blocks for _ in range((len(g) - 1) // k)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        degrees_left &= sums
        if not degrees_left:
            return True
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, blocks)
    _, p, blocks = best
    factors = [h for k, g in blocks for h in fp_equal_degree_factors(g, k, p)]
    return not _has_proper_factor(f, factors, p)
