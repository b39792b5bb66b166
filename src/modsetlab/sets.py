"""Random subsets of Z/nZ and their sumsets / difference sets.

A subset is stored as an immutable bit mask over the residues 0..n-1.  Since
A-A = A + (-A), three primitives carry every sum and difference in the
package, each written once here and shared by `multiplicity` and `graphs`:
`_neg`, negation mod n; `_or_rotations`, the dense kernel (A+A is A rotated
by A, A-A is -A rotated by A, cost ~|A| n / wordsize, but a dense random set
fills Z/nZ in a few dozen rotations); and `_pair_residues`, each unordered
pair {a, b}, a != b, once, which the sparse kernel scatters into a mask
(cost ~|A|^2 / 2).  ``kernel="auto"`` picks the dense or sparse kernel by a
size threshold (`_pick_kernel`); both produce identical masks.

A set's pair counts have one owner: `ResidueSet._pair_counts`, the memo of
the multiplicity profile's arrays, counted at most once per set.  They are
exact, read-only, since `multiplicity.multiplicity_profile` hands them out
uncopied, and of the narrow `_count_dtype(|A|)`, so every n-length pass over
them (counting, `_mirror`, the supports, the histograms) touches a quarter
or an eighth of the bytes that int64 would.  Two backends fill the memo,
picked from |A| and n alone (`_use_fft`): the pair count for sparse sets and
a self-checked FFT for dense ones, which store identical arrays.  Once a set
holds the memo, the sparse kernel returns its support, whichever backend
filled it; without it the kernel scatters the pairs, which is faster than
counting them, so sweeps without x_k/y_k never build it.

A sparse trial's memory scales with the set and the narrow counts, not with
8 bytes per residue.  Beyond the n-bit mask, the sampler holds one n-byte
array and one block of _BLOCK uint64 draws; the pair count holds one (2, n)
buffer of `_count_dtype(|A|)`, m_sum and m_diff as its rows, and one block of
at most _BLOCK int64 pairs (512 KB, about an L2 cache).  The one buffer is
for the allocator as much as for the count: glibc serves a request above its
mmap threshold (128 KB at start) by mmap and raises the threshold, and with
it the heap's trim threshold, to the size of each such block it frees.  Two
separate count rows at n ~ 1e6 (2 MB each) are then trimmed or unmapped and
faulted in anew on every trial, while one buffer of twice the size stays in
the heap from one trial to the next.

Sampling is deterministic: the random stream of trial t is derived only
from (base_seed, t), so trials can run in any order, on any number of
workers, and reproduce bit-identically.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
# numpy loads numpy.random and numpy.fft on first use; loading them here puts
# them in the parent of forked sweep workers, which would otherwise each load
# them again, on the first trial and on the first FFT pair count
import numpy.fft
from numpy.random import PCG64, Generator, SeedSequence

from .errors import ParameterError, ResourceLimitError
from .exact import _as_probability, _fast_length, _rounded

_WORD_BITS = 64
_FRAC_BITS = 64          # probabilities are realized on the k / 2**64 grid
_ONE = 1 << _FRAC_BITS
_BLOCK = 1 << 16         # entries per block of draws or pairs: 512 KB of 8-byte words
_MAX_MODULUS = sys.maxsize // 8  # the most int64 residues (8 bytes each) one array holds

__all__ = [
    "ResidueSet",
    "SampleSpec",
    "dyadic64",
    "sample_subset",
    "sumset",
    "difference_set",
    "missing_counts",
]


def dyadic64(p) -> Fraction:
    """Round a probability to the nearest multiple of 2**-64, as an exact Fraction.

    This is the grid on which the sampler actually operates; regime formulas
    (floats) are pushed through this function so that the stored rational p
    is exactly the inclusion probability used.
    """
    return Fraction(_threshold64(_as_probability(p)), _ONE)


def _check_modulus(n: int) -> None:
    """Reject a modulus below 1, or too large for n int64 residues, before any allocation."""
    if n < 1:
        raise ParameterError(f"modulus must be >= 1, got {n}")
    if n > _MAX_MODULUS:
        raise ResourceLimitError(f"modulus n={n} is above {_MAX_MODULUS}, "
                                 "the most int64 residues one array holds")


def _threshold64(p: Fraction) -> int:
    """Inclusion threshold on the 64-bit grid: include iff u < threshold."""
    num, rem = divmod(p.numerator * _ONE, p.denominator)
    if 2 * rem >= p.denominator:
        num += 1
    return num


@dataclass(frozen=True)
class ResidueSet:
    """An immutable subset of Z/nZ, stored as a bit mask (bit r set <=> r in set)."""

    n: int
    mask: int

    def __post_init__(self):
        _check_modulus(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ParameterError("mask has bits outside [0, n)")

    @classmethod
    def from_indices(cls, n: int, indices) -> "ResidueSet":
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices,
                         dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ParameterError("indices outside [0, n)")
        bits = np.zeros(n, dtype=np.uint8)
        bits[idx] = 1
        return cls(n, _mask_from_bits(bits))

    @cached_property
    def cardinality(self) -> int:
        """|A|, counted once per set: a popcount of the n-bit mask takes about
        0.1 ms at n = 1e6, and a sparse trial asks for it about six times."""
        return self.mask.bit_count()

    def indices(self) -> np.ndarray:
        """Sorted member residues as an int64 array."""
        nbytes = (self.n + 7) // 8
        raw = self.mask.to_bytes(nbytes, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little", count=self.n)
        return np.flatnonzero(bits.view(bool)).astype(np.int64, copy=False)

    @cached_property
    def _pair_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(m_sum, m_diff), the multiplicity profile's arrays, counted once per set.

        By the checked FFT for large sets, else (or if it is inexact) by the
        pair bincount.  Read-only: `multiplicity.multiplicity_profile` hands
        them out unchanged, and the sparse kernels read A+A and A-A off their
        supports.
        """
        counts = _pair_counts_fft(self) if _use_fft(self.cardinality, self.n) else None
        counts = counts or _pair_multiplicities(self.n, self.indices())
        for m in counts:
            m.flags.writeable = False
        return counts

    def negated(self) -> "ResidueSet":
        """The set {-a mod n : a in A}."""
        return ResidueSet(self.n, _neg(self.mask, self.n))

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.n and (self.mask >> r) & 1 == 1

    def __iter__(self):
        return iter(self.indices().tolist())

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        members = self.indices().tolist() if self.n <= 64 else f"<{self.cardinality} residues>"
        return f"ResidueSet(n={self.n}, members={members})"


def _mask_from_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class SampleSpec:
    """Everything that determines one sampled subset.

    Identical SampleSpec values always produce identical sets, regardless of
    execution order or parallelism: trial t's stream is seeded from
    (base_seed, t) only.
    """

    n: int
    p: Fraction
    base_seed: int
    trial_index: int = 0

    def __post_init__(self):
        _check_modulus(self.n)
        object.__setattr__(self, "p", _as_probability(self.p))
        if self.trial_index < 0:
            raise ParameterError("trial_index must be nonnegative")


def _trial_rng(base_seed: int, trial_index: int) -> Generator:
    seed64 = base_seed & 0xFFFFFFFFFFFFFFFF
    return Generator(PCG64(SeedSequence((seed64, trial_index))))


def sample_subset(spec: SampleSpec) -> ResidueSet:
    """Sample A subseteq Z/nZ, each residue included independently with probability p.

    The inclusion probability is p rounded to the 2**-64 grid (exact for any
    dyadic p with at most 64 fractional bits, e.g. 1/4, 1/2, 3/4).  Residue r
    is in A iff the r-th uint64 draw of the trial's stream is below the
    threshold.  The draws come in blocks of _BLOCK, each compared straight
    into one n-byte array: full-range uint64 draws take one 64-bit output of
    the generator each, so consecutive blocks continue the stream exactly as
    one n-long draw would, without its 8n bytes.
    """
    threshold = _threshold64(spec.p)
    if threshold <= 0:
        return ResidueSet(spec.n, 0)
    if threshold >= _ONE:
        return ResidueSet(spec.n, (1 << spec.n) - 1)
    rng = _trial_rng(spec.base_seed, spec.trial_index)
    bits = np.empty(spec.n, dtype=bool)
    threshold = np.uint64(threshold)
    for lo in range(0, spec.n, _BLOCK):
        hi = min(lo + _BLOCK, spec.n)
        np.less(rng.integers(0, _ONE, size=hi - lo, dtype=np.uint64), threshold,
                out=bits[lo:hi])
    return ResidueSet(spec.n, _mask_from_bits(bits))


# ---------------------------------------------------------------------------
# kernels


def _pick_kernel(A: ResidueSet) -> str:
    # sparse pair enumeration when |A|^2 < n * (n / wordsize), else dense shifts
    c = A.cardinality
    return "sparse" if c * c * _WORD_BITS < A.n * A.n else "dense"


def _rotl(mask: int, s: int, n: int, full: int) -> int:
    return ((mask << s) | (mask >> (n - s))) & full


def _neg(mask, n: int):
    """-A: bit r moves to bit (n - r) mod n, on an int or a uint32 array (n <= 32).

    Reverse the bits within the smallest power-of-two width w >= n, swapping
    halves, quarters, ... (log2 w mask-and-shift steps); shifting right by
    w - n then sends r to n-1-r, and a rotation left by one to n-r mod n.
    """
    w = 1 << (n - 1).bit_length()
    s = w >> 1
    m = (1 << s) - 1  # the low s bits of every 2s-bit block
    while s:
        mask = ((mask >> s) & m) | ((mask & m) << s)
        s >>= 1
        m ^= m << s
    return _rotl(mask >> (w - n), 1, n, (1 << n) - 1)


def _or_rotations(n: int, shifts: int, base):
    """OR of `base` rotated left by each member of the bit mask `shifts`.

    `base` is a Python int or a uint32 array (n <= 32).  On an int the loop
    stops once the result is all of Z/nZ, since an OR cannot grow past it.
    """
    full = (1 << n) - 1
    saturates = isinstance(base, int)
    acc = 0
    while shifts and not (saturates and acc == full):
        low = shifts & -shifts
        acc |= _rotl(base, low.bit_length() - 1, n, full)
        shifts ^= low
    return acc


def _pair_residues(n: int, idx: np.ndarray, subtract: bool):
    """Yield a + b mod n (or b - a mod n) once per unordered pair {a, b} of idx, a != b.

    idx is sorted, c = |idx|.  Member i pairs with member i + s mod c for
    s = 1 .. (c-1)//2, and for s = c/2 with i < c/2 only when c is even, so
    each pair turns up once.  Row s is a window of idx doubled, read in place
    by sliding_window_view: no mask, no index table.  For differences the
    upper copy is idx + n, so b - a already lies in [1, n-1]; the one-sided
    difference counts fold with their negations in `_mirror`.  The caller adds
    the diagonal a = b: both sides are symmetric, so the other half of the
    |A|^2 ordered pairs says nothing new.

    A block holds at most _BLOCK entries (one row of |A| if |A| is larger):
    whole rows, then the half row of an even c as a block of its own.
    """
    c = idx.size
    if c < 2:
        return
    rows, half = (c - 1) // 2, c // 2
    doubled = np.concatenate((idx, idx + n if subtract else idx))
    windows = np.lib.stride_tricks.sliding_window_view(doubled, c)
    op = np.subtract if subtract else np.add
    step = max(1, _BLOCK // c)
    for s in range(1, rows + 1, step):
        yield _wrap(op(windows[s:min(s + step, rows + 1)], idx).ravel(), n, subtract)
    if c % 2 == 0:
        yield _wrap(op(doubled[half:c], idx[:half]), n, subtract)


def _wrap(t: np.ndarray, n: int, subtract: bool) -> np.ndarray:
    """Sums a + b in [0, 2n-2] reduced mod n in place; differences need no wrap."""
    if not subtract:
        np.subtract(t, n, out=t, where=t >= n)
    return t


def _count_dtype(c: int) -> np.dtype:
    """The narrowest unsigned dtype that holds |A| = c, the dtype of A's pair counts.

    uint8 up to c = 255, uint16 up to 65535; it depends on |A| alone.  No
    count overflows it: m_sum[r] <= (c + 1) / 2 and m_diff[r] <= c.
    """
    return np.min_scalar_type(max(c, 1))


def _pair_bincount(m: np.ndarray, idx: np.ndarray, subtract: bool) -> np.ndarray:
    """Add to m (length n) the count of every residue over the pairs {a, b} of idx, a != b.

    Sums count #{a, b} with a + b = r; differences count the one-sided b - a
    of `_pair_residues`, which `_mirror` folds with its negation.  Each block
    is counted in place by np.add.at into m, of `_count_dtype(|idx|)`; the
    added one has that dtype too, which keeps numpy on its fast ufunc.at loop
    (numpy >= 1.25).
    """
    one = m.dtype.type(1)
    for t in _pair_residues(m.size, idx, subtract):
        np.add.at(m, t, one)
        del t  # else the loop holds this block while the next is built
    return m


def _mirror(m: np.ndarray, op) -> np.ndarray:
    """m[r] and m[n - r] both become op(m[r], m[n - r]) for 0 < r != n - r, in place.

    The two halves are disjoint views, so numpy needs no n-length temporary,
    which an overlapping m[1:] op= m[:0:-1] would allocate.
    """
    h = (m.size - 1) // 2
    lo, hi = m[1:h + 1], m[m.size - h:][::-1]
    op(lo, hi, out=lo)
    hi[...] = lo
    return m


def _pair_multiplicities(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m_sum, m_diff) by an exact count of each unordered pair once, in `_count_dtype(|A|)`.

    Both are rows of one (2, n) buffer, allocated once and zeroed: see the
    module docstring for why one buffer and not two.  m_sum adds the |A|
    diagonal sums 2a by np.add.at (a and a + n/2 both at even n).  m_diff[r]
    = cnt[r] + cnt[n - r]: the pair with b - a = n/2 at even n stands for
    both orders, and difference 0 is the |A| pairs (a, a).
    """
    m_sum, m_diff = np.zeros((2, n), dtype=_count_dtype(idx.size))
    _pair_bincount(m_sum, idx, subtract=False)
    np.add.at(m_sum, (2 * idx) % n, m_sum.dtype.type(1))
    _mirror(_pair_bincount(m_diff, idx, subtract=True), np.add)
    if n % 2 == 0:
        m_diff[n // 2] *= 2
    m_diff[0] = idx.size
    return m_sum, m_diff


def _use_fft(c: int, n: int) -> bool:
    """Count the pairs of |A| = c in Z/nZ by FFT rather than by the pair count.

    The FFT once c^2 > L log2 L, with L = `exact._fast_length(2n)`, the length
    `_pair_counts_fft` transforms at: the pair count costs ~c^2 and the FFT
    ~L log2 L.  Measured on random sets from n = 2003 to 1000003, the break-even
    lies at c^2 / (L log2 L) between about 0.7 and 1.7, so this rule picks a
    backend at most about 2x slower than the other (BENCH_31.json).
    """
    L = _fast_length(2 * n)
    return c * c > L * (L.bit_length() - 1)


def _pair_counts_fft(A: ResidueSet) -> tuple[np.ndarray, np.ndarray] | None:
    """(m_sum, m_diff) by a zero-padded real FFT, or None if inexact.

    The indicator of A, padded to L = `exact._fast_length(2n)` >= 2n, gives
    the linear autoconvolution (sum a+b at index a+b < 2n) and
    autocorrelation (difference a-b at index a-b mod L); folding both mod n
    gives the cyclic counts.  The float result is accepted only if it passes
    its own exactness check: every entry within 1/4 of an integer
    (`exact._rounded`), both ordered count vectors summing to |A|^2, and
    difference 0 counted exactly |A| times.  The checks run in int64; the
    exact counts are then cast to `_count_dtype(|A|)`, as the bincount's are.

    The spectrum F is squared in place, after its power |F|^2 (the
    correlation's spectrum, real, so half as long) is taken, and each
    inverse is folded to length n before the next is formed: no two complex
    spectra and no two length-L results are alive at once.
    """
    n = A.n
    idx = A.indices()
    c = idx.size
    L = _fast_length(2 * n)
    ind = np.zeros(n)
    ind[idx] = 1.0
    F = np.fft.rfft(ind, L)
    del ind
    power = F.real ** 2
    power += F.imag ** 2
    F *= F
    conv = np.fft.irfft(F, L)
    del F
    conv, conv_exact = _rounded(conv)
    ordered_sum = conv[:n] + conv[n:2 * n]
    del conv
    corr = np.fft.irfft(power, L)
    del power
    corr, corr_exact = _rounded(corr)
    m_diff = corr[:n] + corr[L - n:]
    del corr
    if (conv_exact and corr_exact and int(ordered_sum.sum()) == c * c
            and int(m_diff.sum()) == c * c and m_diff[0] == c):
        # unordered sums: each {a, b} was counted twice, {a, a} once, and
        # np.add.at counts a and a + n/2 (the same 2a at even n) both
        np.add.at(ordered_sum, (2 * idx) % n, 1)
        ordered_sum //= 2
        dtype = _count_dtype(c)
        return ordered_sum.astype(dtype), m_diff.astype(dtype)
    return None


def _pair_table_mask(A: ResidueSet, subtract: bool) -> int:
    """Bit mask of all pairwise sums (or differences) mod n.

    The support of A's pair counts when A already holds them, else a scatter
    of the pairs, which is faster than counting them.
    """
    counts = vars(A).get("_pair_counts")
    if counts is not None:
        return _mask_from_bits(counts[subtract] > 0)
    n, idx = A.n, A.indices()
    bits = np.zeros(n, dtype=np.uint8)
    for t in _pair_residues(n, idx, subtract):
        bits[t] = 1
        del t  # one block at a time, as in `_pair_bincount`
    if subtract:
        _mirror(bits, np.bitwise_or)
        bits[0] = idx.size > 0
    else:
        bits[(2 * idx) % n] = 1
    return _mask_from_bits(bits)


def _kernel(A: ResidueSet, kernel: str, subtract: bool) -> ResidueSet:
    """A+A, or A-A if `subtract`, by the named kernel; "auto" asks `_pick_kernel`."""
    k = _pick_kernel(A) if kernel == "auto" else kernel
    if k == "dense":
        base = _neg(A.mask, A.n) if subtract else A.mask
        return ResidueSet(A.n, _or_rotations(A.n, A.mask, base))
    if k == "sparse":
        return ResidueSet(A.n, _pair_table_mask(A, subtract))
    raise ParameterError(f"unknown kernel {kernel!r}")


def sumset(A: ResidueSet, kernel: str = "auto") -> ResidueSet:
    """A+A = {a + b mod n : a, b in A} (a = b allowed)."""
    return _kernel(A, kernel, subtract=False)


def difference_set(A: ResidueSet, kernel: str = "auto") -> ResidueSet:
    """A-A = {a - b mod n : a, b in A}; symmetric under negation, contains 0 iff A nonempty."""
    return _kernel(A, kernel, subtract=True)


def missing_counts(A: ResidueSet, kernel: str = "auto") -> tuple[int, int]:
    """(n - |A+A|, n - |A-A|): the missing-sum and missing-difference counts."""
    s = sumset(A, kernel).cardinality
    d = difference_set(A, kernel).cardinality
    return A.n - s, A.n - d
