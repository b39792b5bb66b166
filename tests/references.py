"""Slow, direct references that the tests check the library against.

Each one is written from its definition and shares no code with the function
it checks.  The module name does not match test_*.py, so pytest does not
collect it; the test modules import it by name.
"""

from fractions import Fraction
from math import comb

from modsetlab import ParameterError


def f_series_reference(n: int, p) -> Fraction:
    """F(n) = sum_{r=0}^{floor(n/2)} C(n-r, r) p^r (1-p)^(n-r), term by term."""
    p = Fraction(p)
    q = 1 - p
    return sum((comb(n - r, r) * p ** r * q ** (n - r) for r in range(n // 2 + 1)),
               Fraction(0))


def oracle_mean(n: int, p, statistic) -> Fraction:
    """Exact E[statistic(A)] over all 2^n subsets, calling the integer-valued
    ``statistic(mask, n)`` once per mask on a Python int."""
    p = Fraction(p)
    sums = [0] * (n + 1)
    for mask in range(1 << n):
        sums[mask.bit_count()] += statistic(mask, n)
    return sum((t * p ** c * (1 - p) ** (n - c) for c, t in enumerate(sums)), Fraction(0))


def independence_event_holds(A, g) -> bool:
    """True iff no edge of the pair graph g has both endpoints in the residue
    set A (a loop at v forbids v)."""
    if A.n != g.n:
        raise ParameterError("set and graph moduli differ")
    m = A.mask
    for a, b in g.edges:
        if (m >> a) & 1 and (m >> b) & 1:
            return False
    return True


def expected_y_k_by_residue(n: int, p, k: int) -> Fraction:
    """E[Y_k] with its nonzero differences r < n grouped by gcd(r, n) one r at a time.

    The per-cycle expectations are the library's own helpers; this checks the
    grouping, which the library does over the divisors of n.
    """
    from math import gcd

    from modsetlab.multiplicity import _cycle_choose_expectation, _poly_pow_trunc

    p = Fraction(p)
    total = comb(n, k) * p ** k
    gcd_counts: dict[int, int] = {}
    for r in range(1, n):
        d = gcd(r, n)
        gcd_counts[d] = gcd_counts.get(d, 0) + 1
    for d, mult in gcd_counts.items():
        poly = [_cycle_choose_expectation(n // d, kk, p) for kk in range(k + 1)]
        total += mult * _poly_pow_trunc(poly, d, k)[k]
    return total
