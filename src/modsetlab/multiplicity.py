"""Per-residue representation multiplicities and repeated sum/difference statistics.

Conventions (pinned so the alternating inclusion-exclusion identity is exact):

* sum pairs are unordered with a = b allowed, so the multiplicities over all
  residues add up to |A|(|A|+1)/2;
* difference pairs are ordered with (a, a) allowed, so they add up to |A|^2
  and the multiplicity of residue 0 is exactly |A|.

The profile only reads the pair counts: `sets` owns them, as the memo
`ResidueSet._pair_counts`, picks their backend and fixes their dtype, and
the profile holds those arrays uncopied.

x_k / y_k count k-sets of such pairs sharing one common sum / difference.
Each reads its k from one histogram per side (how many residues have each
multiplicity, `_histogram`), built once per profile on first use and cached
on it, whatever the number of k asked for.  inclusion_exclusion_size sums
the alternating series of the X_k (or Y_k) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ParameterError
from .exact import _over_power, _proper_divisors_with_totient, _weights
from .sets import ResidueSet

# Count a histogram by value while its maximum is at most this.  One
# count_nonzero pass per value against one np.add.at pass: at n = 1000423 and
# 100379, on uint16 counts of critical sets (p = c n^-1/2, c = 1..8), numpy
# 2.4 on a 2-vCPU Xeon VM, two runs broke even near a maximum of 12-18 on the
# sum side and 11-16 on the half-read difference side (BENCH_16.json).  The
# maxima are 7 or 8 at p = n^-1/2, n ~ 1e6; a dense set's is about |A|.
_COUNT_BY_VALUE_MAX = 14

__all__ = [
    "MultiplicityProfile",
    "multiplicity_profile",
    "x_k",
    "y_k",
    "inclusion_exclusion_size",
    "expected_x_k_exact",
    "expected_y_k_exact",
]


@dataclass(frozen=True)
class MultiplicityProfile:
    """m_sum[r] = #unordered pairs {a,b} from A with a+b = r (mod n);
    m_diff[r] = #ordered pairs (a,b) from AxA with a-b = r (mod n).

    Both are A's read-only pair counts, of the narrow `sets._count_dtype`, so
    arithmetic on them wraps: widen them (astype, or sum, which accumulates
    in uint64) before subtracting or multiplying.

    sum_histogram[v] / diff_histogram[v] count the residues of multiplicity v;
    each is built on first use and read by x_k / y_k for every k.
    """

    n: int
    m_sum: np.ndarray
    m_diff: np.ndarray

    @cached_property
    def sum_histogram(self) -> np.ndarray:
        return _histogram(self.m_sum)

    @cached_property
    def diff_histogram(self) -> np.ndarray:
        return _histogram(self.m_diff, mirrored=True)


def _histogram(mult: np.ndarray, mirrored: bool = False) -> np.ndarray:
    """hist[v] = number of residues of multiplicity v, in int64, of length mult.max() + 1.

    Counts by value, one np.count_nonzero pass per v = 1..max, while the
    maximum is at most _COUNT_BY_VALUE_MAX, else by one np.add.at pass;
    hist[0] is what is left of n.  A `mirrored` array (mult[r] = mult[n - r],
    as m_diff) is read up to (n - 1) / 2 and each count doubled; residue 0
    and, at even n, residue n/2 are their own mirrors and count once, apart.
    Residue 0 of m_diff is |A|, so kept in the body it would set the loop's
    bound.  Both ways read the narrow read-only counts in place, where
    np.bincount would copy and widen them.
    """
    n = mult.size
    body, weight, apart = mult, 1, mult[:0]
    if mirrored:
        body, weight = mult[1:(n - 1) // 2 + 1], 2
        apart = mult[[0, n // 2] if n % 2 == 0 else [0]]
    top = int(body.max(initial=0))
    hist = np.zeros(max(top, int(apart.max(initial=0))) + 1, dtype=np.int64)
    if top > _COUNT_BY_VALUE_MAX:
        np.add.at(hist, body, weight)
    else:
        for v in range(1, top + 1):
            hist[v] = weight * np.count_nonzero(body == v)
    np.add.at(hist, apart, 1)
    hist[0] = n - hist[1:].sum()
    return hist


def multiplicity_profile(A: ResidueSet) -> MultiplicityProfile:
    """Sum and difference multiplicities of every residue.

    The arrays are A's memoized pair counts (`sets` picks and checks their
    backend), shared uncopied and read-only.
    """
    return MultiplicityProfile(A.n, *A._pair_counts)


def _k_sets_with_common_value(hist: np.ndarray, k: int) -> int:
    """Sum over residues of C(multiplicity, k), exactly, from the multiplicity histogram.

    Only the nonzero entries of hist[k:] are visited: the difference histogram
    runs up to |A|, the multiplicity of residue 0, and is nearly all zeros.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    values = np.flatnonzero(hist[k:]) + k
    return sum(cnt * comb(v, k) for v, cnt in zip(values.tolist(), hist[values].tolist()))


def x_k(profile: MultiplicityProfile, k: int) -> int:
    """Number of k-sets of unordered element pairs that share one common sum."""
    return _k_sets_with_common_value(profile.sum_histogram, k)


def y_k(profile: MultiplicityProfile, k: int) -> int:
    """Number of k-sets of ordered element pairs that share one common difference."""
    return _k_sets_with_common_value(profile.diff_histogram, k)


def inclusion_exclusion_size(profile: MultiplicityProfile, side: str) -> int:
    """Alternating series sum_{k>=1} (-1)^(k+1) X_k (or Y_k), in closed form.

    Grouped by residue, the series is sum_r sum_{k>=1} (-1)^(k+1) C(m_r, k),
    and the inner sum is 1 for m_r >= 1 and 0 for m_r = 0.  So the series
    equals the number of residues with nonzero multiplicity, which is
    |A+A| (resp. |A-A|) exactly.  The term-by-term series is kept in the
    tests as the reference.
    """
    if side == "sum":
        mult = profile.m_sum
    elif side == "difference":
        mult = profile.m_diff
    else:
        raise ParameterError(f"side must be 'sum' or 'difference', got {side!r}")
    return int(np.count_nonzero(mult))


def expected_x_k_exact(n: int, p, k: int) -> Fraction:
    """Exact E[X_k] for any n >= 1.

    A sum s has disjoint representation slots: two-element pairs {a, b}
    (cost p^2 each) and self-slots 2a = s (cost p each).  A k-set of slots
    with j self-slots costs p^(2k-j), a^(2k-j) b^j over b^(2k) for p = a/b.
    At odd n every s has (n-1)/2 pairs and one self-slot; at even n an even s
    has (n-2)/2 pairs and two self-slots (a and a + n/2), and an odd s has n/2
    pairs and none.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if k < 1:
        raise ParameterError("k must be >= 1")
    a, b, _ = _weights(p)

    def per_sum(self_slots: int, pairs: int) -> int:
        return sum(comb(self_slots, j) * comb(pairs, k - j) * a ** (2 * k - j) * b ** j
                   for j in range(min(self_slots, k) + 1))

    half = n // 2
    num = n * per_sum(1, half) if n % 2 else half * (per_sum(2, half - 1) + per_sum(0, half))
    return _over_power(num, b, 2 * k)


def _cycle_choose_expectation(L: int, kk: int, a: int, b: int) -> int:
    """b^(2 kk) E[C(m, kk)], m the present slots on one cycle of L slots, p = a/b.

    The L C(kk-1, j-1) C(L-kk-1, j-1) / j kk-subsets of cycle edges with j
    runs cover kk + j vertices each; choosing all L edges covers exactly L.
    """
    if kk == 0:
        return 1
    if kk > L:
        return 0
    if kk == L:
        return (a * b) ** L
    return sum(L * comb(kk - 1, j - 1) * comb(L - kk - 1, j - 1) // j
               * a ** (kk + j) * b ** (kk - j) for j in range(1, kk + 1))


def _poly_pow_trunc(poly: list[int], e: int, k: int) -> list[int]:
    """poly**e truncated at degree k (polynomials as k + 1 coefficients)."""

    def mul(f, g):
        return [sum(f[i] * g[j - i] for i in range(j + 1)) for j in range(k + 1)]

    result = [1] + [0] * k
    while e:
        if e & 1:
            result = mul(result, poly)
        e >>= 1
        if e:
            poly = mul(poly, poly)
    return result


def expected_y_k_exact(n: int, p, k: int) -> Fraction:
    """Exact E[Y_k] for any n >= 2.

    Difference 0 is realized only by the |A| diagonal pairs (a, a), giving a
    C(n,k) p^k term.  A nonzero difference r has n slots (b+r, b) whose
    overlap graph is gcd(n,r) disjoint cycles of length n/gcd(n,r); slots on
    distinct cycles touch disjoint elements, so the expectation of
    C(m_r, k) is a truncated convolution power of the one-cycle expectations
    E[C(m, k')] (a k'-subset of cycle edges with j runs covers k'+j
    elements).  That term depends on r only through d = gcd(n, r), so the
    sum runs over the divisors d < n of n, phi(n/d) differences each.  With
    p = a/b, the degree-kk term of one cycle is over b^(2 kk), so every
    degree-k term of a power is over b^(2k).

    For prime n the diagonal term C(n,k) p^k dominates everything else
    whenever n p^k is small, which is why Y_k for k >= 2 is *not*
    ~ n^(k+1) p^(2k) / k! near p = n^(-1/2).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n < 2:
        raise ParameterError("n must be >= 2")
    a, b, _ = _weights(p)
    num = comb(n, k) * (a * b) ** k
    for d, mult in _proper_divisors_with_totient(n):
        poly = [_cycle_choose_expectation(n // d, kk, a, b) for kk in range(k + 1)]
        num += mult * _poly_pow_trunc(poly, d, k)[k]
    return _over_power(num, b, 2 * k)

