"""Exact closed-form counts and probabilities for missing sums and differences.

Everything here is arbitrary-precision, and every exact value of the package,
here and in `graphs` and `multiplicity`, follows one rule: `_weights` takes p
apart as a/b with d = b - a, the value is one integer over a power b^e, and
`_over_power` (a shift and a gcd with b alone, at any p) reduces it once, at
the public return.  Floating point appears only in the log-domain gauge
functions and in the regime targets, where the quantities are compared
against Monte Carlo output.  _binomial(a, b) = 0 whenever b < 0, b > a, or
a < 0, which makes every series below total without case splits.  Each input
has one check, here: `_as_probability` for p, and `_check_regime` for a decay
regime's parameters, which sweeps and `theoretical_targets` share.

Every missing-target event is "A is independent in a pair graph" of
loop-ended paths and cycles, and `independence_probability` weighs its
component list: one Lucas-sequence value (`_lucas_u`) per distinct component,
over b^n.  The named forms are the engine on their graph, save the composite form.

The Lucas values run to about 64 n bits, so every big product of the engine,
and every power (`_pow`), goes through one kernel, `_mul`: above
`_FFT_MIN_BITS`, a float FFT of the balanced 16-bit digits, returned only if
it passes `_rounded` (the rule `sets._pair_counts_fft` shares) and a check
modulo 2^61 - 1, else x * y.  F(8002) takes 10 ms where Karatsuba took 26,
and `prob_diff_missing` at n = 100003 0.56 s where it took 3.2 (BENCH_20.json).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError

__all__ = [
    "path_count",
    "cycle_count",
    "lucas",
    "independence_probability",
    "f_series",
    "expected_missing_sums",
    "expected_missing_sums_asymptotic",
    "prob_diff_missing",
    "prob_diff_missing_composite",
    "prob_both_sums_missing",
    "expected_missing_diffs",
    "MissingDiffExpectation",
    "gauge_functions",
    "GaugeValues",
    "theoretical_targets",
    "Targets",
]


def _binomial(a: int, b: int) -> int:
    """C(a, b) with the total convention: 0 outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _as_probability(p) -> Fraction:
    """p as an exact Fraction, checked to lie in [0, 1]: the package's one p check."""
    f = Fraction(p)
    if not 0 <= f <= 1:
        raise ParameterError(f"p={p} outside [0, 1]")
    return f


def _weights(p) -> tuple[int, int, int]:
    """(a, b, d) for p = a/b in lowest terms and d = b - a: b times the weight of
    an element in A and out of it, the one way an exact value takes p apart."""
    f = _as_probability(p)
    return f.numerator, f.denominator, f.denominator - f.numerator


def _float_n(n: int) -> float:
    """float(n) for n >= 1, so that the gauges and targets raise a ParameterError
    rather than an OverflowError for n beyond float range (about 1.8e308)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    try:
        return float(n)
    except OverflowError:
        raise ParameterError("n is beyond float range") from None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64 (and well beyond 3*10^24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_regime(regime: str, delta: float | None = None, c: float | None = None,
                  gamma: float | None = None) -> None:
    """Reject a regime parameter outside its regime's range, or infinite or NaN
    even where the regime ignores it: no p, target or config field holds one."""
    for name, value in (("delta", delta), ("c", c), ("gamma", gamma)):
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if regime == "fast" and (delta is None or not delta > 0.5):
        raise ParameterError("fast regime needs delta > 1/2")
    if regime == "slow" and (delta is None or not 0 < delta < 0.5):
        raise ParameterError("slow regime needs 0 < delta < 1/2")
    if regime == "critical" and (c is None or not c > 0):
        raise ParameterError("critical regime needs c > 0")
    if regime == "intermediate" and (gamma is None or not gamma > 0):
        raise ParameterError("intermediate regime needs gamma > 0")


def path_count(m: int, r: int) -> int:
    """Number of r-subsets of a path of m vertices with no two adjacent.

    Equals C(m - r + 1, r); zero as soon as r exceeds ceil(m/2).
    """
    if m < 0 or r < 0:
        raise ParameterError("m and r must be nonnegative")
    return _binomial(m - r + 1, r)


def cycle_count(n: int, k: int) -> int:
    """Number of k-subsets of an n-cycle with no two adjacent.

    Equals C(n-k+1, k) - C(n-k-1, k-2); the count is 1 at k = 0 and vanishes
    for k > n/2 by pigeonhole.
    """
    if n < 2:
        raise ParameterError("cycle needs n >= 2")
    if k < 0:
        raise ParameterError("k must be nonnegative")
    return _binomial(n - k + 1, k) - _binomial(n - k - 1, k - 2)


def lucas(n: int) -> int:
    """Lucas number L_n (L_0 = 2, L_1 = 1, L_n = L_{n-1} + L_{n-2}): V_n at a = d = 1."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return _trace(1, 1, n)


def _rounded(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """x rounded to int64, and whether every entry was within 1/4 of an integer.

    Overwrites x.
    """
    counts = np.rint(x)
    x -= counts
    exact = bool(np.abs(x, out=x).max() < 0.25)
    return counts.astype(np.int64), exact


_FFT_MIN_BITS = 32_000    # FFT products once both factors are this long; see _mul
_BIAS = 1 << 62           # lifts each signed product coefficient into an unsigned int64 field
_M61 = (1 << 61) - 1      # the modulus of the product's final check


def _mul(x: int, y: int) -> int:
    """x * y, by a checked float FFT once both are positive and _FFT_MIN_BITS long.

    Below the threshold, or for x or y <= 0, this is x * y.  The FFT, checks
    included, overtook CPython's Karatsuba near 22k bits for a product and 28k
    for a square (numpy 2.4, 2-vCPU Xeon VM); at 32k bits it took 0.29 ms
    against 0.40, and at 220k bits, the Lucas values of n ~ 3500 at a 64-bit
    p, 2 ms against 14.  The FFT result is returned only if every coefficient
    was within 1/4 of an integer (`_rounded`) and the product equals x y
    modulo 2^61 - 1; otherwise this is x * y.  So every product is exact.
    """
    if x <= 0 or y <= 0 or min(x.bit_length(), y.bit_length()) < _FFT_MIN_BITS:
        return x * y
    z = _fft_product(x, y)
    if z is not None:
        r = x % _M61
        if z % _M61 == r * (r if y is x else y % _M61) % _M61:
            return z
    return x * y


def _fft_product(x: int, y: int) -> int | None:
    """x * y from one rfft/irfft convolution of their limbs, or None if inexact.

    The limbs are balanced 16-bit digits, in [-2^15, 2^15), so at every size the
    float error stays far below 1/4 (4e-4 on random 6.4M-bit operands, where
    unsigned digits reach 0.25; Crandall and Fagin, Math. Comp. 1994).  A
    square (y is x) takes one transform.
    """
    a = _limbs(x)
    b = None if y is x else _limbs(y)
    size = a.size + (a.size if b is None else b.size) - 1
    length = _fast_length(size)
    spectrum = np.fft.rfft(a, length)
    del a
    spectrum *= spectrum if b is None else np.fft.rfft(b, length)
    del b
    coefficients, exact = _rounded(np.fft.irfft(spectrum, length)[:size])
    del spectrum
    return _from_coefficients(coefficients) if exact else None


def _limbs(x: int) -> np.ndarray:
    """The balanced base-2^16 digits of x >= 0, in [-2^15, 2^15), least first, as
    float64: the limbs of x + half, half = sum_j 2^15 2^(16 j), less 2^15 each,
    which flipping each limb's top bit reads as int16.  k keeps a guard bit."""
    k = (x.bit_length() + 17) // 16
    half = int.from_bytes(b"\x00\x80" * k, "little")
    return np.frombuffer(((x + half) ^ half).to_bytes(2 * k, "little"), "<i2").astype(np.float64)


def _fast_length(size: int) -> int:
    """The least of 5, 6 and 8 times a power of two that is >= size, a fast length
    for numpy's pocketfft; a power of two alone would pad up to twice as much."""
    unit = 1 << max((size - 1).bit_length() - 3, 0)
    return min(m * unit for m in (5, 6, 8) if m * unit >= size)


def _from_coefficients(c: np.ndarray) -> int:
    """sum_j c_j 2^(16 j) for |c_j| < _BIAS.

    The 64-bit fields c_j + _BIAS with j = r mod 4 do not overlap, so each
    residue r packs into one integer, shifted by 16 r; the bias comes off once.
    """
    fields = np.zeros(-(-c.size // 4) * 4, "<i8")
    np.add(c, _BIAS, out=fields[:c.size])
    total = sum(int.from_bytes(fields.reshape(-1, 4)[:, r].tobytes(), "little") << (16 * r)
                for r in range(4))
    return total - (int.from_bytes(b"\x01\x00" * c.size, "little") << 62)  # times _BIAS


def _pow(x: int, e: int) -> int:
    """x ** e for e >= 0, by square-and-multiply on `_mul`."""
    if e == 0:
        return 1
    y = x
    for bit in bin(e)[3:]:
        y = _mul(y, y)
        if bit == "1":
            y = _mul(y, x)
    return y


def _lucas_u(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) of U_0 = 0, U_1 = 1, U_{k+1} = P U_k - Q U_{k-1}.

    Doubling from the top bit of n down, with U_{2k} = U_k (2 U_{k+1} - P U_k)
    and U_{2k+1} = U_{k+1}^2 - Q U_k^2: three big multiplications per bit.
    For p = a/b, P = d = b - a and Q = -a d it weighs paths and cycles.
    """
    u, u1 = 0, 1
    for bit in bin(n)[2:]:
        u, u1 = _mul(u, 2 * u1 - P * u), _mul(u1, u1) - Q * _mul(u, u)
        if bit == "1":
            u, u1 = u1, P * u1 - Q * u
    return u, u1


def _trace(a: int, d: int, m: int) -> int:
    """V_m = 2 U_{m+1} - d U_m = trace of [[d, a], [d, 0]]^m: b^m P(the m-cycle is independent)."""
    u, u1 = _lucas_u(d, -a * d, m)
    return 2 * u1 - d * u


# Fraction(num, den) for coprime num, den > 0, skipping the gcd (Python >= 3.12, <= 3.11)
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False))


def _over_power(num: int, b: int, n: int) -> Fraction:
    """num / b^n, reduced with no gcd against b^n: for b = 2^k o, o odd, a shift
    takes the twos, and gcd(num, o), then gcd(num, g^2) for the last divisor g,
    strips the rest while it shares a factor with what is left of o^n, so no
    prime comes off num more often than b^n holds it."""
    if num == 0:
        return Fraction(0)
    k = (b & -b).bit_length() - 1
    o, twos = b >> k, min((num & -num).bit_length() - 1, k * n)
    num, den, f = num >> twos, _pow(o, n), o
    while f > 1 and (g := math.gcd(math.gcd(num, f), den)) > 1:
        num, den, f = num // g, den // g, g * g  # g holds every prime still shared
    return _coprime_fraction(num, den << (k * n - twos))


def independence_probability(components, p) -> Fraction:
    """P(A is independent) in a pair graph given by its component list.

    Each entry is (kind, m, end loops, count) as `graphs.PairGraph.components`
    gives it.  With p = a/b, d = b - a and the transfer matrix [[d, a], [d, 0]]
    (weight a in A, d outside), an m-cycle weighs the trace V_m, a loop-free
    m-path U_{m+1} + a U_m, and one with l >= 1 end loops (kept out of A)
    d^l (U_{m-l+1} + a U_{m-l}) = d^(l-1) U_{m-l+2}, one value that the last
    doubling step forms alone; the product is divided by b^n once.  The empty
    set counts.  The named forms are this engine on their graph's components.
    """
    a, b, d = _weights(p)
    num, n = 1, 0
    for kind, m, loops, count in components:
        if count < 0 or not (kind == "path" and 0 <= loops <= min(m, 2)
                             or kind == "cycle" and loops == 0 and m >= 1):
            raise ParameterError(f"not a path or cycle component: {(kind, m, loops, count)}")
        if kind == "cycle":
            w = _trace(a, d, m)
        elif loops:
            h = m - loops + 2
            u, u1 = _lucas_u(d, -a * d, h >> 1)
            w = d ** (loops - 1) * (_mul(u1, u1) + a * d * _mul(u, u) if h & 1
                                    else _mul(u, 2 * u1 - d * u))
        else:
            u, u1 = _lucas_u(d, -a * d, m)
            w = u1 + a * u
        num = _mul(num, _pow(w, count))
        n += m * count
    return _over_power(num, b, n)


def f_series(n: int, p) -> Fraction:
    """The tail series F(n) = sum_{r=0}^{floor(n/2)} C(n-r, r) p^r (1-p)^(n-r), exactly.

    With p = a/b and d = b - a, W_n = b^n F(n) obeys W_m = d W_{m-1} + a d W_{m-2}
    (G_n(p/(1-p)) scaled by (1-p)^n), so W_n = U_{n+1}: the weight of the
    n-vertex path with one end loop.  n ~ 1e4 at dyadic64 p is fast.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return independence_probability((("path", n, 1, 1),) if n else (), p)


def f_series_log(n: int, p) -> float:
    """log F(n) in floating point, usable far beyond exact-arithmetic scales.

    Uses the closed form of the two-term recurrence: with x = p/(1-p) and
    roots alpha, beta = (1 +- sqrt(1 + 4x))/2,

        F(n) = (1-p)^n (alpha^(n+1) - beta^(n+1)) / (alpha - beta).
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    pf = float(p)
    if not 0 < pf < 1:
        raise ParameterError("log-domain F(n) needs 0 < p < 1")
    x = pf / (1.0 - pf)
    root = math.sqrt(1.0 + 4.0 * x)
    # beta = (1 - root)/2 without the cancellation, which rounds it to 0 for
    # p below about 1e-16; alpha = 1 - beta and root = sqrt(1 + 4x) go
    # through log1p for the same reason
    beta = -2.0 * x / (1.0 + root)  # negative, |beta| < alpha
    log_alpha = math.log1p(-beta)
    ratio_log = (n + 1) * (math.log(-beta) - log_alpha)
    sign = -1.0 if (n + 1) % 2 == 0 else 1.0  # -(beta/alpha)^(n+1)
    correction = math.log1p(sign * math.exp(ratio_log)) if ratio_log < -1e-12 else 0.0
    return (n * math.log1p(-pf) + (n + 1) * log_alpha
            - 0.5 * math.log1p(4.0 * x) + correction)


def expected_missing_sums(n: int, p) -> Fraction:
    """Exact expected number of residues missing from A+A, for any n >= 1.

    With q = 1 - p: at odd n each sum s has (n-1)/2 disjoint pairs and one
    self-representation h + h = s, so P(s not in A+A) = q (1-p^2)^((n-1)/2).
    At even n, n/2 sums have two self-representations and (n-2)/2 pairs, weight
    q^2 (1-p^2)^((n-2)/2), and n/2 have n/2 pairs, weight (1-p^2)^(n/2); as
    q^2 + 1 - p^2 = 2q their mean is q (1-p^2)^((n-2)/2).  So at every n it is
    n times the weight of a looped vertex and floor((n-1)/2) edges.  (The
    often-quoted n (1-p^2)^((n+1)/2) is off by a factor 1+p at odd n; see
    expected_missing_sums_asymptotic.)
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return n * independence_probability((("path", 1, 1, 1), ("path", 2, 0, (n - 1) // 2)), p)


def expected_missing_sums_asymptotic(n: int, p) -> Fraction:
    """The first-order form n (1 - p^2)^ceil(n/2), (1+p) times the exact expectation.

    Only at odd n is it the often-quoted n (1 - p^2)^((n+1)/2).  It is
    asymptotically equivalent as p -> 0 but not equal to the enumeration value.
    """
    return expected_missing_sums(n, p) * (1 + Fraction(p))


def prob_diff_missing(n: int, p) -> Fraction:
    """P(k not in A-A) for any k coprime to n (any k != 0 at prime n), A nonempty.

    A misses the difference k exactly when A is independent in the n-cycle
    joining a to a+k, so this is the weighted count of its nonempty independent
    sets, sum_{r>=1} [C(n-r+1, r) - C(n-r-1, r-2)] p^r (1-p)^(n-r); adding
    (1-p)^n, the empty set, gives the n-cycle's `independence_probability`.
    This is the g = 1 case of `prob_diff_missing_composite`.
    """
    return prob_diff_missing_composite(n, 1, p)


def prob_diff_missing_composite(n: int, k: int, p) -> Fraction:
    """P(k not in A-A) for general n, per the disjoint-cycle product formula.

    With g = gcd(n, k), the difference graph splits into g cycles of length
    m = n/g, and the formula conditions each cycle on a nonempty intersection:
    (prob_diff_missing(m, p))^g, computed as (V_m - d^m)^g / b^n.

    For g = 1 this is prob_diff_missing.  For g > 1 the per-cycle nonemptiness
    makes it deviate from the enumerated probability, the engine's weight of the
    g cycles; so it keeps this body and shares only the trace `_trace`.
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
    if k % n == 0:
        raise ParameterError("k must be a nonzero residue")
    g = math.gcd(n, k)
    m = n // g
    a, b, d = _weights(p)
    return _over_power(_pow(_trace(a, d, m) - _pow(d, m), g), b, n)


def prob_both_sums_missing(n: int, p) -> Fraction:
    """P(i not in A+A and j not in A+A) for any i, j with gcd(n, i - j) = 1.

    The pair graph is then a path of n vertices with a loop on each end (at
    prime n, for every i != j); its ends stay out of A, so P = (1-p) F(n-1).
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
    return independence_probability((("path", n, 2, 1),), p)


def _proper_divisors_with_totient(n: int) -> list[tuple[int, int]]:
    """(g, phi(n/g)) for each divisor g < n of n: the difference classes.

    phi(n/g) residues k have gcd(k, n) = g, and each one's difference graph is
    g cycles of n/g vertices; g = 1 comes first.  The divisors and the primes
    of n come by trial division up to sqrt(n).
    """
    primes, m, q = [], n, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    small = [q for q in range(1, math.isqrt(n) + 1) if n % q == 0]
    out = []
    for g in sorted((set(small) | {n // q for q in small}) - {n}):
        phi = n // g
        for q in primes:
            if (n // g) % q == 0:
                phi -= phi // q
        out.append((g, phi))
    return out


@dataclass(frozen=True)
class MissingDiffExpectation:
    """E[D^c] - n (1-p)^n, the part of E[D^c] that comes from nonempty A, and
    its series upper bound 2 n F(n), or None at composite n, where it fails."""

    value: Fraction
    bound: Fraction | None


def expected_missing_diffs(n: int, p) -> MissingDiffExpectation:
    """E[D^c] - n (1-p)^n = sum_{k != 0} P(k not in A-A, A nonempty), for n >= 1.

    Only the empty set misses 0, and it misses all n residues.  A k with
    gcd(n, k) = g splits the difference graph into g cycles of n/g vertices,
    of weight (V_{n/g}^g - d^n) / b^n for p = a/b, d = b - a.  The coprime class
    is phi(n) `prob_diff_missing(n, p)`; the others, at composite n only, form
    one numerator over b^n, which that class joins by one exact division, and
    `_over_power` reduces the sum once (a Fraction add per class would run a
    quadratic gcd).  The bound 2 n F(n) holds at n = 1 and prime n; at
    composite n it fails (n = 8, p = 9/10) and is None.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    a, b, d = _weights(p)
    classes = _proper_divisors_with_totient(n)  # none at n = 1, the coprime one at prime n
    value = classes[0][1] * prob_diff_missing(n, p) if classes else Fraction(0)
    if len(classes) <= 1:
        bound = 2 * n * f_series(n, p)
        if value > bound:
            raise AssertionError("E[D^c] - n(1-p)^n exceeded its series bound 2 n F(n)")
        return MissingDiffExpectation(value=value, bound=bound)
    empty = _pow(d, n)
    num = sum(phi * (_pow(_trace(a, d, n // g), g) - empty) for g, phi in classes[1:])
    num += value.numerator * (_pow(b, n) // value.denominator)
    return MissingDiffExpectation(value=_over_power(num, b, n), bound=None)


@dataclass(frozen=True)
class GaugeValues:
    """Decay gauges: G = n (1-p^2)^(n/2) and h = 2 n^4 (e^p - p e^p)^n."""

    G: float
    h: float
    log_G: float
    log_h: float


def gauge_functions(n: int, p) -> GaugeValues:
    """Evaluate both decay gauges in log domain (natural log), underflow-free.

    log G = log n + (n/2) log(1 - p^2),
    log h = log 2 + 4 log n + n (p + log(1 - p)).

    Their signs separate the slow-decay window (both -> -inf) from the
    intermediate window below sqrt(log n / n) (both -> +inf).
    """
    nf = _float_n(n)
    pf = float(p)
    if not 0 < pf < 1:
        raise ParameterError(f"gauge functions need 0 < p < 1, got {p!r}")
    log_g = math.log(nf) + 0.5 * nf * math.log1p(-pf * pf)
    log_h = math.log(2.0) + 4.0 * math.log(nf) + nf * (pf + math.log1p(-pf))
    return GaugeValues(G=_safe_exp(log_g), h=_safe_exp(log_h),
                       log_G=log_g, log_h=log_h)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Targets:
    """Limit-law targets for |A+A|, |A-A| and their ratio in one decay regime."""

    S_target: float
    D_target: float
    ratio_target: float


def theoretical_targets(regime: str, n: int, *, c: float | None = None,
                        delta: float | None = None) -> Targets:
    """Targets per decay regime.

    fast (p = n^-delta, delta > 1/2):  ((np)^2 / 2, (np)^2, 2)
    critical (p = c n^-1/2):           (n(1-e^(-c^2/2)), n(1-e^(-c^2)), 1+e^(-c^2/2))
    slow (p = n^-delta, delta < 1/2):  (n, n, 1)

    The critical difference-set target is n(1 - exp(-c^2)), the form that the
    alternating series and the ratio law 1 + exp(-c^2/2) both agree with.
    """
    nf = _float_n(n)
    if regime not in ("fast", "critical", "slow"):
        raise ParameterError(f"unknown regime {regime!r} (expected fast/critical/slow)")
    _check_regime(regime, delta=delta, c=c)
    if regime == "fast":
        np_ = nf ** (1.0 - delta)
        return Targets(0.5 * np_ * np_, np_ * np_, 2.0)
    if regime == "critical":
        e_half = math.exp(-0.5 * c * c)
        e_full = math.exp(-c * c)
        return Targets(nf * (1.0 - e_half), nf * (1.0 - e_full), 1.0 + e_half)
    return Targets(nf, nf, 1.0)
