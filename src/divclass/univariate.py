"""Dense univariate polynomial arithmetic over Z, Q and F_p.

These are the workhorses behind the 1+t^c factor counting and the exact
two-variable irreducibility checks: cyclotomic polynomials with integer
coefficients; enough F_p[t] arithmetic for distinct- and equal-degree
factorisation (the former also decides irreducibility) and a bounded
trial-division factorizer; and irreducibility over Q, decided by degree
patterns modulo a few primes and otherwise by Zassenhaus factoring (Hensel
lifting from one prime, then exhaustive recombination over Z).  Nothing here
needs a package outside the standard library.

A polynomial is a list of coefficients, index = degree, last entry nonzero.
The zero polynomial is the empty list.
"""

from __future__ import annotations

from fractions import Fraction
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


def int_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder; the divisor must be monic up to sign."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if abs(g[-1]) != 1:
        raise DegenerateInput("integer polynomial division needs a monic divisor")
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return [], int_strip(rem)
    quo = [0] * (dq + 1)
    inv = g[-1]  # 1 or -1
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1] * inv
        if c:
            quo[k] = c
            for j, b in enumerate(g):
                rem[k + j] -= c * b
    return int_strip(quo), int_strip(rem)


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
    f = [0] * (e + 1)
    f[0] = -1
    f[e] = 1
    for d in divisors(e):
        if d < e:
            q, r = int_divmod(f, list(cyclotomic(d)))
            if r:
                raise DegenerateInput("cyclotomic division left a remainder; bug")
            f = q
    return tuple(f)


# ---------------------------------------------------------------------------
# F_p coefficients

def fp_strip(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def fp_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return fp_strip(out, p)


def fp_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    g = fp_strip(list(g), p)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [c % p for c in f]
    while rem and rem[-1] == 0:
        rem.pop()
    dg = len(g) - 1
    dq = len(rem) - 1 - dg
    if dq < 0:
        return [], rem
    inv = pow(g[-1], p - 2, p)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + dg] * inv % p
        if c:
            quo[k] = c
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % p
    return fp_strip(quo, p), fp_strip(rem, p)


def fp_add(f: list[int], g: list[int], p: int) -> list[int]:
    return fp_strip([a + b for a, b in _zip_pad(f, g)], p)


def fp_sub(f: list[int], g: list[int], p: int) -> list[int]:
    return fp_strip([a - b for a, b in _zip_pad(f, g)], p)


def fp_monic(f: list[int], p: int) -> list[int]:
    f = fp_strip(list(f), p)
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def fp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = fp_strip(list(f), p), fp_strip(list(g), p)
    while b:
        _, r = fp_divmod(a, b, p)
        a, b = b, r
    return fp_monic(a, p)


def fp_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod, p) by square and multiply; mod must be nonconstant."""
    if len(fp_strip(list(mod), p)) <= 1:
        raise DegenerateInput("fp_powmod needs a nonconstant modulus")
    result = [1]
    _, acc = fp_divmod(base, mod, p)
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, acc, p), mod, p)[1]
        acc = fp_divmod(fp_mul(acc, acc, p), mod, p)[1]
        e >>= 1
    return result


def fp_derivative(f: list[int], p: int) -> list[int]:
    return fp_strip([i * c % p for i, c in enumerate(f)][1:], p)


def fp_radical(f: list[int], p: int) -> list[int]:
    """Product of the distinct monic irreducible factors of f.

    Handles the char-p wrinkles: a vanishing derivative means f = v(t)^p
    (coefficients are Frobenius-fixed in F_p, so v is read off directly), and
    factors whose multiplicity is divisible by p survive inside gcd(f, f')
    and must be collected recursively.
    """
    f = fp_monic(f, p)
    if not f:
        raise DegenerateInput("radical of the zero polynomial")
    if len(f) == 1:
        return [1]
    d = fp_derivative(f, p)
    if not d:
        return fp_radical([f[i] for i in range(0, len(f), p)], p)
    g = fp_gcd(f, d, p)
    w = fp_divmod(f, g, p)[0]  # squarefree, but may miss multiplicity-p factors
    if len(g) == 1:
        return w
    rg = fp_radical(g, p)
    h = fp_gcd(w, rg, p)
    return fp_monic(fp_divmod(fp_mul(w, rg, p), h, p)[0], p)


def fp_is_squarefree(f: list[int], p: int) -> bool:
    f = fp_monic(f, p)
    if len(f) <= 1:
        return True
    return len(fp_radical(f, p)) == len(f)


def fp_squarefree_degree(f: list[int], p: int) -> int:
    """Number of distinct roots of f in the algebraic closure of F_p."""
    return len(fp_radical(f, p)) - 1


def fp_distinct_degree_factors(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorisation of the radical of f over F_p.

    Returns the pairs (k, f_k), ascending in k, where f_k is the product of
    the monic irreducible factors of degree k.  gcd(f, t^(p^k) - t) is the
    product of the irreducible factors of degree dividing k, so after peeling
    the degrees below k it is f_k; once 2k exceeds the degree of what is left,
    the rest is irreducible.
    """
    f = fp_radical(f, p)
    out: list[tuple[int, list[int]]] = []
    h = [0, 1]
    k = 0
    while len(f) - 1 >= 1:
        k += 1
        if 2 * k > len(f) - 1:
            out.append((len(f) - 1, f))
            break
        h = fp_powmod(h, p, f, p)
        g = fp_gcd(fp_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((k, g))
            f = fp_divmod(f, g, p)[0]
            if len(f) - 1 >= 1:
                h = fp_divmod(h, f, p)[1]
    return out


def fp_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility over F_p, read off the distinct-degree factorisation.

    f is irreducible iff its DDF is the single block (deg f, monic f); a
    repeated factor makes the radical, and so every block, smaller than f.
    """
    f = fp_monic(f, p)
    if len(f) < 2:
        return False
    return fp_distinct_degree_factors(f, p) == [(len(f) - 1, f)]


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
    g = fp_monic(g, p)
    if len(g) - 1 == k:
        return [g]
    for i in range(1, len(g) - 1):
        power = trace = [0] * i + [1]
        for _ in range(k - 1):
            power = fp_powmod(power, p, g, p)
            trace = fp_add(trace, power, p)
        if len(trace) > 1:
            pieces = (fp_gcd(fp_sub(trace, [s], p), g, p) for s in range(p))
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
    f = fp_monic(f, p)
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
                q, r = fp_divmod(f, cand, p)
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

def _q_strip(f: list[Fraction]) -> list[Fraction]:
    while f and f[-1] == 0:
        f.pop()
    return f


def q_gcd_degree(f: list, g: list) -> int:
    """Degree of gcd over Q (monic Euclid with exact Fractions)."""
    a = _q_strip([Fraction(c) for c in f])
    b = _q_strip([Fraction(c) for c in g])
    while b:
        r = list(a)
        while r and len(r) >= len(b):
            c = r[-1] / b[-1]
            k = len(r) - len(b)
            for j, bc in enumerate(b):
                r[k + j] -= c * bc
            _q_strip(r)
        a, b = b, r
    if not a:
        raise DegenerateInput("gcd of two zero polynomials")
    return len(a) - 1


def q_squarefree_degree(coeffs: list) -> int:
    """Number of distinct complex roots: deg f - deg gcd(f, f')."""
    f = _q_strip([Fraction(c) for c in coeffs])
    if len(f) <= 1:
        return 0
    d = [i * c for i, c in enumerate(f)][1:]
    return (len(f) - 1) - q_gcd_degree(f, d)


# Number of good primes whose degree patterns are intersected before falling
# back to Zassenhaus factoring.
_PATTERN_PRIMES = 5


def _primitive(f: list[int]) -> list[int]:
    content = gcd(*f)
    return [c // content for c in f]


def _good_primes(f: list[int]):
    """Primes dividing neither the leading coefficient of f nor its
    discriminant, so f stays squarefree of the same degree mod p."""
    for p in count(2):
        if is_prime(p) and f[-1] % p and fp_is_squarefree(f, p):
            yield p


def _fp_inverse_mod(h: list[int], g: list[int], p: int) -> list[int]:
    """The inverse of h modulo g over F_p (extended Euclid); h, g coprime."""
    r0, r1 = fp_strip(list(g), p), fp_divmod(h, g, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
    if len(r0) != 1:
        raise InternalInconsistency("inverse asked for modulo a non-coprime polynomial")
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0]


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
        h = fp_divmod(F, g, p)[0]
        u = _fp_inverse_mod(h, g, p)
        G, H, m = list(g), h, p
        for _ in range(k - 1):
            GH = int_mul(G, H)
            c = fp_strip([(a - b) % (m * p) // m for a, b in _zip_pad(F, GH)], p)
            dG = fp_divmod(fp_mul(c, u, p), g, p)[1]
            dH = fp_divmod(fp_sub(c, fp_mul(dG, h, p), p), g, p)[0]
            G = [a + m * b for a, b in _zip_pad(G, dG)]
            H = [a + m * b for a, b in _zip_pad(H, dH)]
            m *= p
        lifted.append(G)
        F = H
    return lifted + [F]


def _divides(g: list[int], f: list[int]) -> bool:
    """Whether g divides f in Z[t]."""
    rem = list(f)
    for k in range(len(f) - len(g), -1, -1):
        q, r = divmod(rem[k + len(g) - 1], g[-1])
        if r:
            return False
        for j, b in enumerate(g):
            rem[k + j] -= q * b
    return not any(rem)


# The largest `recombination_subsets` that `_has_proper_factor` may try.
# Swinnerton-Dyer polynomials split into factors of degree at most 2 modulo
# every prime: degree 16 (k = 8, 162 subsets) took 0.02 s and degree 32
# (k = 16, 39 202 subsets) 7.2-7.6 s (Python 3.11, 2 cores), about 0.19 ms a
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
            if _divides(_primitive(cand), f):
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
    f = _q_strip([Fraction(c) for c in coeffs])
    n = len(f) - 1
    if n < 1:
        raise DegenerateInput("irreducibility is about nonconstant polynomials")
    if n == 1:
        return True
    scale = lcm(*(c.denominator for c in f))
    f = _primitive([int(c * scale) for c in f])
    if q_squarefree_degree(f) < n:
        return False
    degrees_left = set(range(1, n // 2 + 1))
    best = None
    for p in islice(_good_primes(f), _PATTERN_PRIMES):
        blocks = fp_distinct_degree_factors(f, p)
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
