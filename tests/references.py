"""Slow, direct references that the tests check the library against.

Each one is written from its definition and shares no code with the function
it checks.  The module name does not match test_*.py, so pytest does not
collect it; the test modules import it by name.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd

import numpy as np

from modsetlab import ParameterError


def f_series_reference(n: int, p) -> Fraction:
    """F(n) = sum_{r=0}^{floor(n/2)} C(n-r, r) p^r (1-p)^(n-r), term by term.

    With p = a/b and d = b - a the terms share the denominator b^n; their
    numerators C(n-r, r) a^r d^(n-r) are summed in Horner form over r, which
    keeps n ~ 2000 at dyadic64 p (b = 2^64) fast.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    d, half = b - a, n // 2
    total, a_pow = 0, 1
    for r in range(half + 1):  # total = sum_{s <= r} C(n-s, s) a^s d^(r-s)
        total = total * d + comb(n - r, r) * a_pow
        a_pow *= a
    return Fraction(total * d ** (n - half), b ** n)


def prob_both_sums_missing_reference(n: int, p) -> Fraction:
    """P(i, j not in A+A) on the n-vertex path with a loop on each end: the
    looped ends stay out of A, and the rest is F(n-1)'s path, so (1-p) F(n-1)."""
    p = Fraction(p)
    return (1 - p) * f_series_reference(n - 1, p)


def expected_missing_sums_reference(n: int, p) -> Fraction:
    """E[S^c] summed over classes of sums, a class per number h of
    self-representations x + x = s: such a sum has (n - h)/2 disjoint pairs
    {x, s - x}, so it is missing with probability (1-p)^h (1-p^2)^((n-h)/2).
    Odd n has one class (h = 1); even n has two (h = 0 and h = 2)."""
    p = Fraction(p)
    reps = Counter(2 * x % n for x in range(n))
    classes = Counter(reps[s] for s in range(n))
    return sum((count * (1 - p) ** h * (1 - p * p) ** ((n - h) // 2)
                for h, count in classes.items()), Fraction(0))


def expected_missing_diffs_reference(n: int, p) -> Fraction:
    """E[D^c] - n(1-p)^n = sum_{k != 0} P(k not in A-A, A nonempty), one k at a time.

    A misses k when no a in A has a + k in A: A is independent in g = gcd(n, k)
    cycles of m = n/g vertices.  An m-cycle (m >= 2) has m C(m-r, r)/(m-r)
    independent r-sets; the g cycles' counts convolve into c_R, the independent
    R-sets of the whole graph, weighed term by term as a^R d^(n-R) / b^n for
    p = a/b, d = b - a.  R = 0 is the empty set, which is left out.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    d = b - a
    weights: dict[int, int] = {}  # g -> the numerator over b^n, one per cycle count
    total = 0
    for k in range(1, n):
        g = gcd(n, k)
        if g not in weights:
            m = n // g
            cycle = [m * comb(m - r, r) // (m - r) for r in range(m // 2 + 1)]
            counts = [1]
            for _ in range(g):
                counts = [sum(counts[i] * cycle[R - i] for i in range(len(counts))
                              if 0 <= R - i < len(cycle))
                          for R in range(len(counts) + len(cycle) - 1)]
            weights[g] = sum(c * a ** R * d ** (n - R) for R, c in enumerate(counts) if R)
        total += weights[g]
    return Fraction(total, b ** n)


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
    """E[Y_k] = sum_r E[C(m_r, k)], the x^k coefficient of sum_r E[(1+x)^(m_r)],
    with the nonzero differences r < n grouped by gcd(r, n) one r at a time.

    r = 0 has one diagonal pair per element: (1 + p x)^n.  A nonzero r splits
    its n slots (b + r, b) into g = gcd(n, r) cycles of L = n/g elements, a slot
    present when both its elements are in A, and the g cycles share no element.
    On one cycle E[(1+x)^m] is the trace V_L of T^L, T = [[q, p], [q, p (1+x)]]
    (row and column: an element out of A, in A).  T has trace V_1 = 1 + p x and
    determinant D = p q x, so V_{2j} = V_j^2 - 2 D^j, V_{2j+1} = V_j V_{j+1} -
    D^j V_1 and V_{j+2} = V_1 V_{j+1} - D V_j.  Polynomials in x stop at x^k.
    """
    p = Fraction(p)
    pq = p * (1 - p)
    zero = [Fraction(0)] * (k + 1)
    one, v1 = [Fraction(1)] + zero[1:], [Fraction(1), p] + zero[2:]

    def mul(f, g):
        return [sum((f[i] * g[j - i] for i in range(1, j + 1)), f[0] * g[j])
                for j in range(k + 1)]

    def minus_shifted(f, c, j, g):  # f - c x^j g
        return [e - c * g[i - j] if i >= j else e for i, e in enumerate(f)] if j <= k else f

    def power(f, e):
        out = f
        for bit in bin(e)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, f)
        return out

    def trace(L):
        v, w, j = [Fraction(2)] + zero[1:], v1, 0  # (V_j, V_{j+1})
        for bit in bin(L)[2:]:
            dj = pq ** j if j <= k else 0
            v, w, j = minus_shifted(mul(v, v), 2 * dj, j, one), \
                minus_shifted(mul(v, w), dj, j, v1), 2 * j
            if bit == "1":
                v, w, j = w, minus_shifted(mul(v1, w), pq, 1, v), j + 1
        return v

    total = power(v1, n)[k]
    for g, count in Counter(gcd(r, n) for r in range(1, n)).items():
        total += count * power(trace(n // g), g)[k]
    return total


def oracle_tallies_reference(n: int):
    """Counts of (|A|, n - |A+A|) and (|A|, n - |A-A|) over all 2^n masks, as a
    (2, n+1, n+1) array, read off each set's 0/1 membership column: t is in
    A+A iff a and t-a are both in A for some a, and k is in A-A iff a and a+k are."""
    tallies = np.zeros((2, (n + 1) ** 2), dtype=np.int64)
    r = np.arange(n)
    block = 1 << 14
    for lo in range(0, 1 << n, block):
        masks = np.arange(lo, min(lo + block, 1 << n), dtype=np.int64)
        member = (masks >> r[:, None]) & 1 == 1  # row a: is a in each set
        card = member.sum(axis=0)
        for side, pair_of in enumerate((lambda t: (t - r) % n, lambda k: (r + k) % n)):
            hit = sum((member & member[pair_of(t)]).any(axis=0) for t in range(n))
            tallies[side] += np.bincount(card * (n + 1) + n - hit, minlength=(n + 1) ** 2)
    return tallies.reshape(2, n + 1, n + 1)
