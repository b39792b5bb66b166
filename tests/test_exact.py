"""Closed-form counts and probabilities against brute force and frozen values."""

import math
import operator
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from modsetlab import (
    ParameterError,
    RegimeSpec,
    cycle_count,
    expected_missing_diffs,
    expected_missing_sums,
    expected_missing_sums_asymptotic,
    f_series,
    gauge_functions,
    independence_probability,
    lucas,
    oracle_event_probability,
    oracle_moments,
    path_count,
    prob_both_sums_missing,
    prob_diff_missing,
    prob_diff_missing_composite,
    theoretical_targets,
    build_diff_graph,
    event_diff_missing,
    event_sums_missing,
)
from modsetlab import exact, sets
from modsetlab.exact import _FFT_MIN_BITS, _lucas_u, _mul, _over_power, _pow, f_series_log
from modsetlab.sets import dyadic64
from references import (
    expected_missing_diffs_reference,
    expected_missing_sums_reference,
    f_series_reference,
    prob_both_sums_missing_reference,
)

PRIMES_13 = (2, 3, 5, 7, 11, 13)
P_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def brute_non_consecutive_path(m, r):
    count = 0
    for sub in combinations(range(m), r):
        if all(b - a > 1 for a, b in zip(sub, sub[1:])):
            count += 1
    return count


def brute_non_consecutive_cycle(n, k):
    count = 0
    for sub in combinations(range(n), k):
        ok = all(b - a > 1 for a, b in zip(sub, sub[1:]))
        if ok and k >= 2 and sub[0] == 0 and sub[-1] == n - 1:
            ok = False
        if ok:
            count += 1
    return count


class TestCounts:
    def test_path_examples(self):
        assert path_count(5, 2) == 6
        assert path_count(9, 0) == 1
        assert path_count(4, 3) == 0

    def test_cycle_examples(self):
        assert cycle_count(7, 2) == 14
        assert cycle_count(5, 2) == 5
        assert cycle_count(6, 4) == 0
        assert cycle_count(9, 0) == 1

    @pytest.mark.parametrize("m", range(0, 15))
    def test_path_vs_enumeration(self, m):
        for r in range(0, m + 2):
            assert path_count(m, r) == brute_non_consecutive_path(m, r)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_cycle_vs_enumeration(self, n):
        for k in range(0, n + 1):
            assert cycle_count(n, k) == brute_non_consecutive_cycle(n, k)

    def test_lucas_values(self):
        assert lucas(0) == 2
        assert lucas(1) == 1
        assert lucas(10) == 123

    def test_lucas_identity_through_60(self):
        for n in range(2, 61):
            assert sum(cycle_count(n, k) for k in range(0, n // 2 + 1)) == lucas(n)


class TestFSeries:
    def test_example(self):
        assert f_series(4, Fraction(1, 2)) == Fraction(5, 16)

    def test_p_zero(self):
        assert f_series(123, Fraction(0)) == 1

    def test_p_one(self):
        assert f_series(9, Fraction(1)) == 0
        assert f_series(0, Fraction(1)) == 1

    def test_matches_reference(self):
        for n in (0, 1, 2, 3, 7, 20, 81):
            for p in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(7, 9)):
                assert f_series(n, p) == f_series_reference(n, p)

    def test_decay_at_2000(self):
        n = 2000
        assert n ** 3 * f_series(n, dyadic64(n ** -0.25)) < Fraction(1, 1000)

    def test_log_form(self):
        for n in (60, 500):
            p = dyadic64(n ** -0.3)
            v = f_series(n, p)
            exact_log = math.log(v.numerator) - math.log(v.denominator)
            assert f_series_log(n, p) == pytest.approx(exact_log, abs=1e-9)

    def test_log_form_below_double_epsilon(self):
        # (1 - sqrt(1 + 4x))/2 rounds to 0 at this p, and log(-beta) failed
        n, p = 8002, Fraction(1, 2 ** 64 - 59)
        got = f_series_log(n, p)
        assert math.isfinite(got)
        assert got == pytest.approx(math.log1p(float(f_series(n, p) - 1)), abs=1e-12)


def cycle_reference(m, p):
    """P(A independent on the m-cycle), term by term (empty set included)."""
    q = 1 - p
    return sum((cycle_count(m, r) * p ** r * q ** (m - r) for r in range(m // 2 + 1)),
               Fraction(0))


def path_reference(m, p):
    """P(A independent on the m-vertex path), term by term."""
    q = 1 - p
    return sum((path_count(m, r) * p ** r * q ** (m - r) for r in range((m + 1) // 2 + 1)),
               Fraction(0))


PRIMITIVE_P = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
               Fraction(3, 7))


class TestLucasPrimitive:
    @pytest.mark.parametrize("P,Q", [(1, -1), (3, 2), (0, 0), (1, 0), (0, 5), (-2, 5),
                                     (7, -12), (2 ** 64 - 3, -(3 * (2 ** 64 - 3)))])
    def test_matches_recurrence(self, P, Q):
        seq = [0, 1]
        for _ in range(70):
            seq.append(P * seq[-1] - Q * seq[-2])
        for n in range(70):
            assert _lucas_u(P, Q, n) == (seq[n], seq[n + 1])

    @pytest.mark.parametrize("n", range(2, 61))
    def test_against_termwise_series(self, n):
        for p in PRIMITIVE_P + (dyadic64(n ** -0.5),):
            q = 1 - p
            assert f_series(n, p) == f_series_reference(n, p)
            assert prob_diff_missing(n, p) == cycle_reference(n, p) - q ** n
            assert prob_both_sums_missing(n, p) == q * q * path_reference(n - 2, p)

    def test_composite_against_termwise(self):
        for n in (4, 6, 8, 9, 10, 12, 15, 16, 18, 21, 24, 25, 30, 36):
            for k in range(1, n):
                g = math.gcd(n, k)
                m = n // g
                for p in (Fraction(1, 3), Fraction(2, 5), dyadic64(n ** -0.5)):
                    expected = (cycle_reference(m, p) - (1 - p) ** m) ** g
                    assert prob_diff_missing_composite(n, k, p) == expected
                    assert prob_diff_missing_composite(n, -k, p) == expected

    def test_lucas_against_recurrence(self):
        a, b = 2, 1
        for n in range(200):
            assert lucas(n) == a
            a, b = b, a + b

    @pytest.mark.parametrize("b", [1, 2, 4, 2 ** 64, 3, 6, 10, 12, 2 ** 64 - 59])
    def test_over_power_is_reduced_fraction(self, b):
        for n in (0, 1, 5, 37, 200):
            for num in (0, 1, 2, 3, 12, 2 ** 70, 3 ** 50, 2 ** 300 * 5, b ** n, 7 * b ** n,
                        2 ** (3 * n), 35 * 6 ** n):
                got = _over_power(num, b, n)
                want = Fraction(num, b ** n)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                assert got == want and hash(got) == hash(want)
        # 6^n holds n twos: the shift must stop there and leave 3^n whole
        got = _over_power(2 ** 600, 6, 200)
        assert (got.numerator, got.denominator) == (2 ** 400, 3 ** 200)

    def test_endpoint_probabilities_reduce(self):
        for n in (2, 3, 10, 61):
            for p in (Fraction(0), Fraction(1)):
                for value in (f_series(n, p), prob_diff_missing(n, p),
                              prob_both_sums_missing(n, p)):
                    assert value.denominator == 1 and value in (0, 1)


def odd_operand(bits, seed):
    """A random odd integer of exactly `bits` bits."""
    x = int.from_bytes(np.random.default_rng(seed).bytes(-(-bits // 8)), "little")
    return x >> (-bits % 8) | 1 << (bits - 1) | 1


@pytest.fixture
def products(monkeypatch):
    """Whether each `_fft_product` call came back exact (not None)."""
    seen = []
    fft_product = exact._fft_product

    def spy(x, y):
        z = fft_product(x, y)
        seen.append(z is not None)
        return z

    monkeypatch.setattr(exact, "_fft_product", spy)
    return seen


class TestProductKernel:
    """`_mul` equals `*` everywhere, and on random operands the FFT itself is
    exact at every size, with one limb layout: no case leans on the fallback."""

    @pytest.mark.parametrize("bits", [
        _FFT_MIN_BITS - 1, _FFT_MIN_BITS, _FFT_MIN_BITS + 1,
        262_143, 262_144, 262_145, 262_161, 1_000_000, 6_400_000])
    def test_equals_builtin_product(self, products, bits):
        x, y = odd_operand(bits, 1), odd_operand(bits + 5, 2)
        xy, xx = x * y, x * x
        assert x.bit_length() == bits
        assert _mul(x, y) == xy and _mul(y, x) == xy and _mul(x, x) == xx
        assert products == ([] if bits < _FFT_MIN_BITS else [True] * 3)
        if products:  # the FFT itself is exact here, not rescued by the fallback
            assert exact._fft_product(x, y) == xy and exact._fft_product(x, x) == xx

    @pytest.mark.parametrize("k", [1, 2, 3, 2001, 1 << 14, 62_500])
    def test_top_digit_has_a_guard(self, k):
        # 2^(16k-1) - 1 plus half = sum_j 2^15 2^(16j) passes 2^(16k), so
        # k balanced digits cannot hold it; nor any bit length = 15 mod 16
        for x in ((1 << 16 * k - 1) - 1, odd_operand(16 * k - 1, k)):
            y = x + 2
            assert exact._fft_product(x, x) == x * x
            assert exact._fft_product(x, y) == x * y

    @pytest.mark.parametrize("k", [_FFT_MIN_BITS + 3, 100_000, 262_145])
    def test_powers_of_two_and_their_neighbours(self, k):
        values = ((1 << k) - 1, 1 << k, (1 << k) + 1)
        for x in values:
            for y in values:
                assert _mul(x, y) == x * y
            assert _mul(x, x) == x * x

    @pytest.mark.parametrize("m", [1 << 14, 400_000])
    def test_digits_all_at_minus_half(self, m):
        # m digits of -2^15 under a top digit 1, the worst case of the layout:
        # every product coefficient of x^2 has one sign, so the float error
        # adds up.  The FFT was exact up to 4M bits (m = 250000), but at 6.4M
        # bits its checks can reject the result, so this asserts only that
        # `_mul`, with its fallback, stays exact.
        x = (1 << 16 * m) - int.from_bytes(b"\x00\x80" * m, "little")
        assert (exact._limbs(x)[:-1] == -(1 << 15)).all()
        assert _mul(x, x) == x * x

    def test_unbalanced_operands(self):
        x, y = odd_operand(_FFT_MIN_BITS, 3), odd_operand(20 * _FFT_MIN_BITS, 4)
        short = odd_operand(_FFT_MIN_BITS - 1, 5)
        assert _mul(x, y) == x * y and _mul(y, short) == y * short

    def test_square_takes_one_transform(self, monkeypatch):
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        x = odd_operand(3 * _FFT_MIN_BITS, 6)
        assert _mul(x, x) == x * x and len(calls) == 1
        y = x + 2
        assert _mul(x, y) == x * y and len(calls) == 3

    def test_small_or_non_positive_operands_use_builtin(self, monkeypatch):
        def no_fft(x, y):
            raise AssertionError("reached the FFT")

        monkeypatch.setattr(exact, "_fft_product", no_fft)
        big = odd_operand(2 * _FFT_MIN_BITS, 7)
        for x in (0, 1, -1, 2 ** 64 - 1, -big, -(big << 3)):
            assert _mul(x, big) == x * big and _mul(big, x) == big * x
        assert _mul(-big, -big) == big * big

    @pytest.mark.parametrize("noise", ["rounding", "whole coefficient"])
    def test_inexact_fft_falls_back_to_builtin_product(self, monkeypatch, noise):
        x, y = odd_operand(2 * _FFT_MIN_BITS, 8), odd_operand(2 * _FFT_MIN_BITS, 9)
        irfft = np.fft.irfft

        def noisy_irfft(*args, **kwargs):
            z = irfft(*args, **kwargs)
            # 0.3 fails the distance-to-integer check; a whole 1.0 passes it
            # and fails the check modulo 2^61 - 1
            z[3] += 0.3 if noise == "rounding" else 1.0
            return z

        monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
        fft = exact._fft_product(x, y)
        assert fft is None if noise == "rounding" else fft == x * y + (1 << 48)
        assert _mul(x, y) == x * y
        assert _mul(x, x) == x * x

    def test_one_rounding_rule(self):
        # the FFT product and the FFT pair counts accept a float result by one rule
        assert sets._rounded is exact._rounded
        source = "".join(p.read_text() for p in Path(exact.__file__).parent.glob("*.py"))
        assert source.count("def _rounded") == 1 and source.count("< 0.25") == 1

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 10, 1023, 1024, 5005])
    def test_pow_equals_builtin_power(self, e):
        for x in (0, 1, 3, 2 ** 64 - 1, odd_operand(40_000, 10)):
            if x.bit_length() * e <= 3_000_000:
                assert _pow(x, e) == x ** e


def identity_values(n, p):
    """The named closed forms and a mixed component list at n and p."""
    mixed = [("cycle", n // 3, 0, 2), ("path", n // 4, 1, 1), ("path", n // 5, 2, 1),
             ("path", n // 6, 0, 1), ("cycle", 7, 0, 3), ("path", 2, 0, n // 2)]
    return (f_series(n, p), prob_diff_missing(n, p), prob_both_sums_missing(n, p),
            prob_diff_missing_composite(n + n % 2, 2, p), independence_probability(mixed, p))


def assert_identical(monkeypatch, products, n, p, references):
    """The values at (n, p) equal those with each (name, function) of
    `references` patched into `exact`; and no FFT product fell back."""
    got = identity_values(n, p)
    assert products and all(products)  # the FFT carried them, exact each time
    for name, function in references:
        monkeypatch.setattr(exact, name, function)
    want = identity_values(n, p)
    for g, w in zip(got, want):
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)


class TestFFTProductIdentity:
    """Every value through the FFT product is the Fraction of the builtin one."""

    @pytest.mark.parametrize("n", [2003, 8002, 30011])
    def test_closed_forms_are_fraction_identical(self, monkeypatch, products, n):
        assert_identical(monkeypatch, products, n, dyadic64(n ** -0.5),
                         [("_mul", operator.mul)])

    def test_closed_forms_are_fraction_identical_off_the_dyadic_grid(self, monkeypatch,
                                                                     products):
        # b = 2^64 - 59 is odd, so every value is reduced by the gcd-free strip
        # of _over_power; the reference reduces by Fraction's gcd with b^n
        assert_identical(monkeypatch, products, 8002, Fraction(1, 2 ** 64 - 59),
                         [("_mul", operator.mul),
                          ("_over_power", lambda num, b, n: Fraction(num, b ** n))])

    def test_dense_half_report_stays_below_the_fft(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("reached the FFT")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        assert expected_missing_sums(20021, Fraction(1, 2)) > 0


def path(m, loops, count=1):
    return ("path", m, loops, count)


class TestIndependenceEngine:
    """`f_series`, `prob_both_sums_missing` and `expected_missing_sums` are the
    engine on their graph, so they are checked against references that share
    no code with it; `prob_diff_missing` keeps its own body."""

    @pytest.mark.parametrize("n", [*range(1, 60), 501, 2003])
    def test_closed_forms_are_component_weights(self, n):
        for p in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 5), dyadic64(n ** -0.5)):
            q = 1 - p
            assert f_series(n, p) == f_series_reference(n, p)
            if n >= 2:
                assert prob_both_sums_missing(n, p) == prob_both_sums_missing_reference(n, p)
                assert prob_diff_missing(n, p) + q ** n == \
                    independence_probability([("cycle", n, 0, 1)], p)
            assert expected_missing_sums(n, p) == expected_missing_sums_reference(n, p)

    def test_small_weights(self):
        p = Fraction(1, 3)
        q = 1 - p
        assert independence_probability([], p) == 1
        assert independence_probability([path(0, 0, 5)], p) == 1
        assert independence_probability([path(1, 0, 3)], p) == 1
        assert independence_probability([path(1, 1, 3)], p) == q ** 3
        assert independence_probability([path(2, 0)], p) == q * q + 2 * p * q
        # a 2-cycle and a 1-cycle read as the edge and the looped vertex they collapse to
        assert independence_probability([("cycle", 2, 0, 1)], p) == q * q + 2 * p * q
        assert independence_probability([("cycle", 1, 0, 1)], p) == q
        assert independence_probability([("cycle", 3, 0, 2), path(2, 1)], p) == \
            (q ** 3 + 3 * p * q * q) ** 2 * q * (q + p)

    @pytest.mark.parametrize("component", [("star", 3, 0, 1), path(1, 2), path(4, 3),
                                           ("cycle", 4, 1, 1), ("cycle", 0, 0, 1),
                                           path(2, 0, -1)])
    def test_outside_the_family_rejected(self, component):
        with pytest.raises(ParameterError, match="not a path or cycle component"):
            independence_probability([component], Fraction(1, 2))


class TestMissingSums:
    def test_trivial_endpoints(self):
        assert expected_missing_sums(7, Fraction(0)) == 7
        assert expected_missing_sums(7, Fraction(1)) == 0

    def test_frozen_oracle_value(self):
        # enumeration over all 2^7 subsets gives 189/128 at p = 1/2
        assert expected_missing_sums(7, Fraction(1, 2)) == Fraction(189, 128)

    def test_asymptotic_form_differs_by_one_plus_p(self):
        for n in (5, 7, 11, 2, 8, 12):
            for p in P_GRID:
                exact = expected_missing_sums(n, p)
                asym = expected_missing_sums_asymptotic(n, p)
                assert asym == (1 + p) * exact
                assert asym == n * (1 - p * p) ** ((n + 1) // 2)  # exponent ceil(n/2)
        assert expected_missing_sums_asymptotic(7, Fraction(1, 2)) == Fraction(567, 256)

    @pytest.mark.parametrize("n", [-1, -3, -7, 0, -2])
    def test_negative_odd_n_rejected(self, n):
        for form in (expected_missing_sums, expected_missing_sums_asymptotic):
            with pytest.raises(ParameterError, match="n must be >= 1"):
                form(n, Fraction(1, 2))

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, *range(2, 21, 2)])
    @pytest.mark.parametrize("p", P_GRID)
    def test_equals_enumeration(self, n, p):
        assert expected_missing_sums(n, p) == oracle_moments(n, p).E_Sc


class TestMissingDiffProbability:
    def test_example(self):
        assert prob_diff_missing(5, Fraction(1, 2)) == Fraction(5, 16)

    def test_full_set(self):
        assert prob_diff_missing(5, Fraction(1)) == 0

    @pytest.mark.parametrize("n", PRIMES_13)
    @pytest.mark.parametrize("p", P_GRID)
    def test_bridge_identity_vs_enumeration(self, n, p):
        q = 1 - p
        for k in range(1, n):
            with_empty = oracle_event_probability(n, p, event_diff_missing(k))
            without = oracle_event_probability(n, p, event_diff_missing(k),
                                               include_empty_set=False)
            assert without == prob_diff_missing(n, p)
            assert with_empty == prob_diff_missing(n, p) + q ** n

    @pytest.mark.parametrize("n", (17, 19))
    def test_bridge_identity_larger_primes(self, n):
        # spot checks at the top of the enumeration range (value is
        # independent of k, covered exhaustively for n <= 13 above)
        p = Fraction(1, 2)
        for k in (1, n // 2):
            with_empty = oracle_event_probability(n, p, event_diff_missing(k))
            assert with_empty == prob_diff_missing(n, p) + (1 - p) ** n

    def test_composite_formula_prime_case(self):
        for p in P_GRID:
            assert prob_diff_missing_composite(7, 3, p) == prob_diff_missing(7, p)

    def test_composite_values(self):
        # d = gcd(6,2) = 2 cycles of length 3 -> (3/8)^2; gcd(6,3) = 3 of length 2
        assert prob_diff_missing_composite(6, 2, Fraction(1, 2)) == Fraction(9, 64)
        assert prob_diff_missing_composite(6, 3, Fraction(1, 2)) == Fraction(1, 8)

    def test_composite_deviation_reported_not_asserted(self):
        # the per-cycle-nonempty conditioning deviates from plain enumeration
        # restricted to nonempty A; the artifact reports the gap
        n, k, p = 6, 2, Fraction(1, 2)
        formula = prob_diff_missing_composite(n, k, p)
        enumerated = oracle_event_probability(n, p, event_diff_missing(k),
                                              include_empty_set=False)
        assert formula != enumerated
        assert abs(formula - enumerated) < Fraction(1, 8)
        # the unconditioned weight of the two 3-cycles is the enumerated value
        weight = independence_probability(build_diff_graph(n, k).components, p)
        assert enumerated == weight - (1 - p) ** n

    def test_zero_residue_rejected(self):
        with pytest.raises(ParameterError):
            prob_diff_missing_composite(6, 6, Fraction(1, 2))


class TestJointMissingSums:
    def test_trivial_endpoints(self):
        assert prob_both_sums_missing(7, Fraction(1)) == 0
        assert prob_both_sums_missing(7, Fraction(0)) == 1

    def test_one_vertex_rejected(self):
        # (1-p) F(0) would read 1 - p; a one-vertex sum graph has no two targets
        with pytest.raises(ParameterError, match="n must be >= 2"):
            prob_both_sums_missing(1, Fraction(1, 3))

    def test_frozen_oracle_value(self):
        # enumeration over all 2^7 subsets, any i != j, gives 13/128 at p = 1/2
        assert prob_both_sums_missing(7, Fraction(1, 2)) == Fraction(13, 128)

    @pytest.mark.parametrize("n", PRIMES_13)
    @pytest.mark.parametrize("p", (Fraction(1, 4), Fraction(1, 2)))
    def test_equals_enumeration_all_pairs(self, n, p):
        expected = prob_both_sums_missing(n, p)
        for i in range(n):
            for j in range(i + 1, n):
                assert oracle_event_probability(n, p, event_sums_missing(i, j)) == expected


class TestMissingDiffExpectation:
    def test_example(self):
        rec = expected_missing_diffs(5, Fraction(1, 2))
        assert rec.value == Fraction(5, 4)
        assert rec.bound == 10 * f_series(5, Fraction(1, 2))
        assert rec.value <= rec.bound

    def test_full_set(self):
        assert expected_missing_diffs(5, Fraction(1)).value == 0

    @pytest.mark.parametrize("n", (3, 5, 7, 11, 13))
    def test_bound_holds(self, n):
        for p in P_GRID:
            rec = expected_missing_diffs(n, p)
            assert rec.value <= rec.bound

    @pytest.mark.parametrize("n", range(1, 23))
    def test_value_is_the_oracle_mean_less_the_empty_set(self, n):
        # the empty set misses all n differences, and only it misses 0
        for p in P_GRID:
            rec = expected_missing_diffs(n, p)
            assert rec.value + n * (1 - p) ** n == oracle_moments(n, p).E_Dc, p

    @pytest.mark.parametrize("n", range(1, 23))
    def test_bound_is_none_exactly_at_composite_n(self, n):
        composite = n > 1 and not exact.is_prime(n)
        for p in P_GRID:
            assert (expected_missing_diffs(n, p).bound is None) == composite, p

    def test_bound_fails_at_composite_n(self):
        # why composite n carries no bound: the classes with gcd(n, k) > 1 push
        # the value past 2nF(n)
        for n, p in ((8, Fraction(9, 10)), (200, Fraction(1, 3))):
            assert expected_missing_diffs(n, p).value > 2 * n * f_series(n, p)

    @pytest.mark.parametrize("n", [*range(1, 61), 120, 210])
    def test_matches_reference(self, n):
        for p in (Fraction(1, 3), dyadic64(n ** -0.5)):
            assert expected_missing_diffs(n, p).value == expected_missing_diffs_reference(n, p), p

    def test_parameter_errors(self):
        for n in (0, -3):
            with pytest.raises(ParameterError, match="n must be >= 1"):
                expected_missing_diffs(n, Fraction(1, 3))
        with pytest.raises(ParameterError):
            expected_missing_diffs(6, Fraction(3, 2))

    def test_divisors_with_totient(self):
        assert exact._proper_divisors_with_totient(1) == []
        assert exact._proper_divisors_with_totient(12) == [
            (1, 4), (2, 2), (3, 2), (4, 2), (6, 1)]
        for n in (97, 1024, 30030):
            pairs = exact._proper_divisors_with_totient(n)
            assert sum(phi for _, phi in pairs) == n - 1


class TestGauges:
    def test_sign_flip_log_g(self):
        n = 10007
        slow = gauge_functions(n, n ** -0.25)
        inter = gauge_functions(n, 0.3 * math.sqrt(math.log(n) / n))
        assert slow.log_G < 0 < inter.log_G
        assert slow.log_h < 0 < inter.log_h

    def test_log_g_decreasing_along_moduli(self):
        values = [gauge_functions(n, n ** -0.25).log_G for n in (10007, 20011, 40009)]
        assert values[0] > values[1] > values[2]
        assert all(v < 0 for v in values)

    def test_g_matches_exact_square(self):
        n = 2001
        p = Fraction(1, 8)
        g2 = n * n * (1 - p * p) ** n  # exact G^2: G itself has a half power
        log_g2 = math.log(g2.numerator) - math.log(g2.denominator)
        assert 2 * gauge_functions(n, p).log_G == pytest.approx(log_g2, rel=1e-12)

    def test_underflow_free(self):
        g = gauge_functions(10 ** 6, 0.05)
        assert g.G == 0.0 and math.isfinite(g.log_G)

    def test_domain(self):
        with pytest.raises(ParameterError):
            gauge_functions(100, 0.0)
        for n in (0, -5):
            with pytest.raises(ParameterError, match="n must be >= 1"):
                gauge_functions(n, 0.5)


class TestTargets:
    def test_critical_values(self):
        tg = theoretical_targets("critical", 10007, c=1.0)
        assert tg.S_target / 10007 == pytest.approx(0.3934693402, abs=1e-9)
        assert tg.D_target / 10007 == pytest.approx(0.6321205588, abs=1e-9)
        assert tg.ratio_target == pytest.approx(1.6065306597, abs=1e-9)

    def test_fast_and_slow(self):
        tg = theoretical_targets("fast", 10 ** 6, delta=0.6)
        np_ = 10 ** 6 * (10 ** 6) ** -0.6
        assert tg.S_target == pytest.approx(np_ ** 2 / 2)
        assert tg.D_target == pytest.approx(np_ ** 2)
        assert tg.ratio_target == 2.0
        slow = theoretical_targets("slow", 101, delta=0.25)
        assert (slow.S_target, slow.D_target, slow.ratio_target) == (101.0, 101.0, 1.0)

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterError):
            theoretical_targets("fast", 100, delta=0.4)
        with pytest.raises(ParameterError):
            theoretical_targets("critical", 100)
        with pytest.raises(ParameterError):
            theoretical_targets("glacial", 100)
        # a sweep regime without targets is named before its parameters are checked
        with pytest.raises(ParameterError, match=r"^unknown regime 'intermediate' "
                                                 r"\(expected fast/critical/slow\)$"):
            theoretical_targets("intermediate", 100)

    @pytest.mark.parametrize("regime, params, message", [
        ("fast", {"delta": 0.4}, "fast regime needs delta > 1/2"),
        ("fast", {}, "fast regime needs delta > 1/2"),
        ("slow", {"delta": 0.6}, "slow regime needs 0 < delta < 1/2"),
        ("slow", {}, "slow regime needs 0 < delta < 1/2"),
        ("critical", {"c": 0.0}, "critical regime needs c > 0"),
        ("critical", {"c": 1.0, "delta": math.nan}, "delta must be finite, got nan"),
    ])
    @pytest.mark.parametrize("check", [
        lambda regime, params: theoretical_targets(regime, 101, **params),
        lambda regime, params: RegimeSpec(regime=regime, n_values=(101,), trials=1,
                                          base_seed=0, **params),
    ], ids=["theoretical_targets", "RegimeSpec"])
    def test_one_regime_check(self, check, regime, params, message):
        # targets and sweeps share one check, so one message and one range per rule
        with pytest.raises(ParameterError, match=rf"^{message}$"):
            check(regime, params)
