"""Per-residue representation multiplicities and repeated sum/difference statistics.

Conventions (pinned so the alternating inclusion-exclusion identity is exact):

* sum pairs are unordered with a = b allowed, so the multiplicities over all
  residues add up to |A|(|A|+1)/2;
* difference pairs are ordered with (a, a) allowed, so they add up to |A|^2
  and the multiplicity of residue 0 is exactly |A|.

x_k / y_k count k-sets of such pairs sharing one common sum / difference.
Each reads its k from one histogram per side (how many residues have each
multiplicity), built once per profile on first use and cached on it: one
length-n pass per side, whatever the number of k asked for.

The profile has two backends, picked from |A| and n alone.  Sparse sets
share the set's memoized exact pair bincount (`ResidueSet._pair_counts`,
cost ~|A|^2): the profile holds those arrays uncopied and read-only, and the
sparse kernels of `sets` then read A+A and A-A off them.  Dense sets use a
real FFT convolution and correlation zero-padded to a power of two L >= 2n
(cost ~L log L).  Every FFT result checks its own exactness (rounding error
below 1/4, the count totals, the |A| diagonal differences) and falls back to
the memo if any check fails, so both backends return identical profiles.
The bincount keeps no separate accumulator: the first pair block's counts
are the running total.  On both backends the |A| diagonal sums 2a go in
place by np.add.at, which counts a and a + n/2 both at even n.

The alternating inclusion-exclusion series sum_k (-1)^(k+1) X_k collapses
per residue to 1 - (1 - 1)^m = [m >= 1], so inclusion_exclusion_size counts
the residues of nonzero multiplicity.  The Monte Carlo spot check compares
it with |A+A| / |A-A| from `sets`, whose kernels run before the profile on
a spot-checked trial: for dense sets that sets the FFT against the
bit-rotation kernel, two algorithms that share no code, and for sparse sets
the bincount against the pair scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ParameterError
from .exact import _as_probability
from .sets import ResidueSet, _unordered_sums

_FFT_CROSSOVER = 4  # FFT backend once 4 |A|^2 > L log2 L; see _use_fft

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
        return _histogram(self.m_diff)


def _histogram(mult: np.ndarray) -> np.ndarray:
    """hist[v] = number of residues of multiplicity v.

    np.add.at reads the read-only pair counts in place; np.bincount would
    first copy them (it asks numpy for a writeable array).
    """
    hist = np.zeros(int(mult.max()) + 1, dtype=np.int64)
    np.add.at(hist, mult, 1)
    return hist


def _fft_length(n: int) -> int:
    """Smallest power of two >= 2n: room for every a+b and a-b without wrap-around."""
    return 1 << (2 * n - 1).bit_length()


def _use_fft(c: int, n: int) -> bool:
    """Pick the FFT backend for |A| = c in Z/nZ.

    The pair bincount costs ~|A|^2 and the padded FFT ~L log2 L; measured
    with numpy 2.4 on a 2-vCPU Xeon VM for n from 2e3 to 1e6, they break even near
    |A|^2 = L log2 L / 4, so sparse critical-density sets (|A| ~ sqrt(n))
    stay on the bincount and dense ones (|A| ~ n p) go to the FFT.
    """
    L = _fft_length(n)
    return _FFT_CROSSOVER * c * c > L * (L.bit_length() - 1)


def _pair_counts_fft(A: ResidueSet) -> tuple[np.ndarray, np.ndarray] | None:
    """(m_sum, m_diff) by a zero-padded real FFT, or None if inexact.

    The indicator of A, padded to L >= 2n, gives the linear autoconvolution
    (sum a+b at index a+b < 2n) and autocorrelation (difference a-b at index
    a-b mod L); folding both mod n gives the cyclic counts.  The float result
    is accepted only if it passes its own exactness check: every entry within
    1/4 of an integer, both ordered count vectors summing to |A|^2, and
    difference 0 counted exactly |A| times.
    """
    n = A.n
    idx = A.indices()
    c = idx.size
    L = _fft_length(n)
    ind = np.zeros(L)
    ind[idx] = 1.0
    F = np.fft.rfft(ind)
    del ind  # one transform at a time keeps the peak near 45 bytes per L
    conv, conv_exact = _rounded(np.fft.irfft(F * F, L))
    corr, corr_exact = _rounded(np.fft.irfft(F * F.conj(), L))
    ordered_sum = conv[:n] + conv[n:2 * n]
    m_diff = corr[:n] + corr[L - n:]
    if (conv_exact and corr_exact and int(ordered_sum.sum()) == c * c
            and int(m_diff.sum()) == c * c and m_diff[0] == c):
        return _unordered_sums(n, idx, ordered_sum), m_diff
    return None


def _rounded(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """x rounded to int64, and whether every entry was within 1/4 of an integer.

    Overwrites x.
    """
    counts = np.rint(x)
    x -= counts
    exact = bool(np.abs(x, out=x).max() < 0.25)
    return counts.astype(np.int64), exact


def multiplicity_profile(A: ResidueSet) -> MultiplicityProfile:
    """Sum and difference multiplicities of every residue.

    Small sets share A's memoized pair bincount, uncopied and read-only;
    large ones use the padded FFT, whose every result is checked for
    exactness and replaced by the bincount if it fails (see _pair_counts_fft).
    """
    counts = _pair_counts_fft(A) if _use_fft(A.cardinality, A.n) else None
    return MultiplicityProfile(A.n, *(counts or A._pair_counts))


def _k_sets_with_common_value(hist: np.ndarray, k: int) -> int:
    """Sum over residues of C(multiplicity, k), exactly, from the multiplicity histogram."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    return sum(cnt * comb(v, k)
               for v, cnt in enumerate(hist[k:].tolist(), start=k) if cnt)


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
    """Exact E[X_k] for odd n.

    For each residue there are (n-1)/2 disjoint two-element representation
    slots (cost p^2 each) plus one repeated-element slot (cost p), so
    E[X_k] = n * [C((n-1)/2, k) p^(2k) + C((n-1)/2, k-1) p^(2k-1)].
    """
    if n % 2 == 0:
        raise ParameterError("exact E[X_k] requires odd n")
    if k < 1:
        raise ParameterError("k must be >= 1")
    p = _as_probability(p)
    half = (n - 1) // 2
    return n * (comb(half, k) * p ** (2 * k) + comb(half, k - 1) * p ** (2 * k - 1))


def _cycle_choose_expectation(L: int, kk: int, p: Fraction) -> Fraction:
    """E[C(m, kk)] where m counts present slots on one cycle of L slots.

    A kk-subset of cycle edges with j runs covers kk + j vertices; choosing
    all L edges covers exactly L vertices.
    """
    if kk == 0:
        return Fraction(1)
    if kk > L:
        return Fraction(0)
    if kk == L:
        return p ** L
    return sum((Fraction(L, j) * comb(kk - 1, j - 1) * comb(L - kk - 1, j - 1)
                * p ** (kk + j) for j in range(1, kk + 1)), Fraction(0))


def _poly_pow_trunc(poly: list[Fraction], e: int, k: int) -> list[Fraction]:
    """poly**e truncated at degree k (polynomials as coefficient lists)."""

    def mul(a, b):
        out = [Fraction(0)] * (k + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[:k + 1 - i]):
                    if bj:
                        out[i + j] += ai * bj
        return out

    result = [Fraction(1)] + [Fraction(0)] * k
    base = list(poly)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def expected_y_k_exact(n: int, p, k: int) -> Fraction:
    """Exact E[Y_k] for any n >= 2.

    Difference 0 is realized only by the |A| diagonal pairs (a, a), giving a
    C(n,k) p^k term.  A nonzero difference r has n slots (b+r, b) whose
    overlap graph is gcd(n,r) disjoint cycles of length n/gcd(n,r); slots on
    distinct cycles touch disjoint elements, so the expectation of
    C(m_r, k) is a truncated convolution power of the one-cycle expectations
    E[C(m, k')] (a k'-subset of cycle edges with j runs covers k'+j
    elements).

    For prime n the diagonal term C(n,k) p^k dominates everything else
    whenever n p^k is small, which is why Y_k for k >= 2 is *not*
    ~ n^(k+1) p^(2k) / k! near p = n^(-1/2).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n < 2:
        raise ParameterError("n must be >= 2")
    p = _as_probability(p)
    total = comb(n, k) * p ** k
    gcd_counts: dict[int, int] = {}
    for r in range(1, n):
        d = math.gcd(r, n)
        gcd_counts[d] = gcd_counts.get(d, 0) + 1
    for d, mult in gcd_counts.items():
        L = n // d
        poly = [_cycle_choose_expectation(L, kk, p) for kk in range(k + 1)]
        total += mult * _poly_pow_trunc(poly, d, k)[k]
    return total
