"""Multiplicity profiles, x_k/y_k statistics, and the inclusion-exclusion identity."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from modsetlab import multiplicity, sets
from modsetlab import (
    ParameterError,
    ResidueSet,
    difference_set,
    expected_x_k_exact,
    expected_y_k_exact,
    inclusion_exclusion_size,
    multiplicity_profile,
    sumset,
    x_k,
    y_k,
)
from references import expected_y_k_by_residue, oracle_mean

FULL7 = ResidueSet(7, (1 << 7) - 1)


def profile_of(n, members):
    return multiplicity_profile(ResidueSet.from_indices(n, members))


class TestProfile:
    def test_full_set_sum_multiplicities(self):
        prof = multiplicity_profile(FULL7)
        # residue 2 is realized by {0,2},{1,1},{3,6},{4,5}
        assert prof.m_sum[2] == 4
        assert prof.m_sum.tolist() == [4] * 7

    def test_diff_profile_example(self):
        prof = profile_of(5, [0, 1])
        assert prof.m_diff.tolist() == [2, 1, 0, 0, 1]

    def test_sum_invariants_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 128)
            members = [r for r in range(n) if rng.random() < 0.3]
            prof = profile_of(n, members)
            c = len(members)
            assert prof.m_sum.sum() == c * (c + 1) // 2
            assert prof.m_diff.sum() == c * c
            assert prof.m_diff[0] == c


class TestBackends:
    """The FFT backend against the exact pair bincount it falls back to."""

    @staticmethod
    def assert_backends_agree(n, members):
        A = ResidueSet.from_indices(n, members)
        counts = sets._pair_counts_fft(A)
        assert counts is not None  # exact at these sizes: no fallback
        fft_sum, fft_diff = counts
        ref_sum, ref_diff = sets._pair_multiplicities(n, A.indices())
        assert fft_sum.dtype == ref_sum.dtype and fft_diff.dtype == ref_diff.dtype
        assert np.array_equal(fft_sum, ref_sum)
        assert np.array_equal(fft_diff, ref_diff)

    def test_every_small_modulus(self):
        rng = random.Random(17)
        for n in range(1, 65):
            self.assert_backends_agree(n, [])
            self.assert_backends_agree(n, range(n))
            for density in (0.1, 0.5, 0.9):
                self.assert_backends_agree(n, [r for r in range(n) if rng.random() < density])

    @pytest.mark.parametrize("n", [4096, 4998, 4999, 4913, 2 * 3 * 5 * 7 * 11])
    def test_larger_even_composite_and_prime(self, n):
        rng = random.Random(n)
        self.assert_backends_agree(n, [])
        self.assert_backends_agree(n, range(n))
        for density in (0.01, 0.5):
            self.assert_backends_agree(n, [r for r in range(n) if rng.random() < density])

    @pytest.mark.parametrize("n, length", [
        (1, 5), (2, 5), (3, 6),
        (2559, 5120), (2560, 5120), (2561, 6144),
        (3071, 6144), (3072, 6144), (3073, 8192),
        (4095, 8192), (4096, 8192), (4097, 10240)])
    def test_fast_lengths_either_side_of_2n(self, monkeypatch, n, length):
        # the transform runs at exact._fast_length(2n), the least 5, 6 or 8
        # times a power of two >= 2n: here 2n lies just below, at and just
        # above 5 * 2^10, 6 * 2^10 and 8 * 2^10, at even and odd n
        lengths = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, L: lengths.append(L) or irfft(a, L))
        rng = random.Random(n)
        self.assert_backends_agree(n, [r for r in range(n) if rng.random() < 0.5])
        self.assert_backends_agree(n, range(n))
        assert lengths == [length] * 4

    @pytest.mark.parametrize("noise", ["rounding", "whole count"])
    def test_inexact_fft_falls_back_to_exact_counts(self, monkeypatch, noise):
        n = 257
        idx = np.arange(0, n, 2, dtype=np.int64)
        A = ResidueSet.from_indices(n, idx)
        assert sets._use_fft(A.cardinality, n)
        expected = sets._pair_multiplicities(n, idx)
        irfft = np.fft.irfft

        def noisy_irfft(*args, **kwargs):
            x = irfft(*args, **kwargs)
            # 0.3 fails the distance-to-integer check; a whole 1.0 passes it
            # and fails the count totals
            x[3] += 0.3 if noise == "rounding" else 1.0
            return x

        fallbacks = []
        bincount = sets._pair_multiplicities
        monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
        monkeypatch.setattr(sets, "_pair_multiplicities",
                            lambda *a: fallbacks.append(a) or bincount(*a))
        assert sets._pair_counts_fft(A) is None
        got = multiplicity_profile(A)
        assert len(fallbacks) == 1
        assert np.array_equal(got.m_sum, expected[0]) and np.array_equal(got.m_diff, expected[1])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_pair_enumerator_over_many_blocks(self, monkeypatch, block):
        # both sparse kernels read the shared pair enumerator, which yields
        # each unordered pair {a, b}, a != b, once; a small block splits every
        # nontrivial set into several
        monkeypatch.setattr(sets, "_BLOCK", block)
        rng = random.Random(block)

        def folded(counts, n):
            # a one-sided difference count r stands for r and n - r
            return [counts[0]] + [counts[r] + counts[n - r] for r in range(1, n)]

        for n in (1, 2, 12, 13, 97, 256):
            cases = [[], range(n), [r for r in range(n) if rng.random() < 0.3],
                     range(0, n, 3), range(1, n, 2)]
            if n in (12, 256):
                # a and a + n/2 both present: one sum 2a twice, difference n/2
                cases += [[0, 1, n // 2], [0, 1, n // 2, n // 2 + 1]]
            for members in map(list, cases):
                idx = np.asarray(members, dtype=np.int64)
                pairs = list(itertools.combinations(members, 2))
                sums = Counter((a + b) % n for a, b in pairs)
                diffs = Counter((a - b) % n for a, b in pairs)
                dtype = sets._count_dtype(idx.size)
                pair_sums = sets._pair_bincount(np.zeros(n, dtype), idx, subtract=False)
                pair_diffs = sets._pair_bincount(np.zeros(n, dtype), idx, subtract=True)
                assert pair_sums.tolist() == [sums[r] for r in range(n)]
                assert folded(pair_diffs.tolist(), n) == folded([diffs[r] for r in range(n)], n)
                all_sums = Counter((a + b) % n for a in members for b in members)
                all_diffs = Counter((a - b) % n for a in members for b in members)
                A = ResidueSet.from_indices(n, members)
                m_diff = A._pair_counts[1]  # A now holds its counts
                assert m_diff.tolist() == [all_diffs[r] for r in range(n)]
                for subtract, expected in ((False, all_sums), (True, all_diffs)):
                    # a fresh set scatters its pairs; A's mask is the support
                    # of its counts
                    mask = sets._pair_table_mask(ResidueSet.from_indices(n, members), subtract)
                    assert set(ResidueSet(n, mask)) == set(expected)
                    assert sets._pair_table_mask(A, subtract) == mask
                    blocks = list(sets._pair_residues(n, idx, subtract))
                    assert all(t.size <= max(block, len(members)) for t in blocks)
                    assert sum(t.size for t in blocks) == len(pairs)

    def test_backend_choice_follows_set_size(self):
        # critical density |A| ~ c sqrt(n), c <= 3, stays on the bincount from
        # n = 1e4 up; p = 1/2 goes to the FFT
        for n in (10007, 100003, 1000003):
            assert not sets._use_fft(int(3 * n ** 0.5), n)
            assert sets._use_fft(n // 2, n)
        assert not sets._use_fft(0, 1)


def brute_profile(n, members):
    """(m_sum, m_diff) from their definitions: unordered sums, ordered differences."""
    m_sum, m_diff = [0] * n, [0] * n
    for i, a in enumerate(members):
        for b in members[i:]:
            m_sum[(a + b) % n] += 1
        for b in members:
            m_diff[(a - b) % n] += 1
    return m_sum, m_diff


@pytest.fixture(params=["sparse", "fft"])
def backend(request, monkeypatch):
    """Run multiplicity_profile on one backend, whatever the set size."""
    monkeypatch.setattr(sets, "_use_fft", lambda c, n: request.param == "fft")
    return request.param


class TestProfileBruteForce:
    @staticmethod
    def assert_profile(n, members):
        members = sorted(set(members))
        prof = profile_of(n, members)
        m_sum, m_diff = brute_profile(n, members)
        dtype = np.min_scalar_type(max(len(members), 1))  # the narrowest that holds |A|
        assert prof.m_sum.dtype == dtype and prof.m_diff.dtype == dtype
        assert prof.m_sum.tolist() == m_sum
        assert prof.m_diff.tolist() == m_diff
        return prof

    def test_every_small_modulus(self, backend):
        rng = random.Random(40)
        for n in range(1, 41):
            for members in ([], [rng.randrange(n)], range(n)):
                self.assert_profile(n, members)
            for density in (0.3, 0.7):
                self.assert_profile(n, [r for r in range(n) if rng.random() < density])

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 40, 1000])
    def test_even_n_with_both_halves(self, backend, n):
        # a and a + n/2 have the same double 2a, so the diagonal adds 2 there
        rng = random.Random(n)
        half = n // 2
        for a in {0, 1 % half, half - 1}:
            self.assert_profile(n, [a, a + half])
        members = [r for r in range(half) if rng.random() < 0.3]
        self.assert_profile(n, members + [a + half for a in members])

    @pytest.mark.parametrize("n", [510, 512])
    def test_count_dtype_boundary(self, backend, n):
        # the even residues, a subgroup: |A| = 255 fits uint8 and 256 needs
        # uint16; every difference in A - A = A has multiplicity |A|, and the
        # totals pass 255 on both sides
        members = range(0, n, 2)
        prof = self.assert_profile(n, members)
        c = len(members)
        assert prof.m_diff.max() == c
        assert int(prof.m_sum.sum()) == c * (c + 1) // 2 and int(prof.m_diff.sum()) == c * c

    def test_arrays_are_the_read_only_memo(self, backend):
        for n, members in ((40, range(0, 40, 3)), (1000, range(0, 1000, 2))):
            A = ResidueSet.from_indices(n, members)
            prof = multiplicity_profile(A)
            assert multiplicity_profile(A).m_sum is prof.m_sum  # counted once per set
            for m in (prof.m_sum, prof.m_diff):
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0] = 0

    @pytest.mark.parametrize("block", [1, 7])
    def test_sparse_accumulator_over_many_blocks(self, monkeypatch, block):
        monkeypatch.setattr(sets, "_BLOCK", block)
        monkeypatch.setattr(sets, "_use_fft", lambda c, n: False)
        rng = random.Random(block)
        for n in (1, 2, 12, 13, 40, 97):
            for members in ([], [n - 1], range(n), [r for r in range(n) if rng.random() < 0.3]):
                self.assert_profile(n, members)

    def test_x_k_y_k_from_histogram(self, backend):
        rng = random.Random(6)
        cases = [(7, range(7)), (9, []), (5, [3])]
        cases += [(n, [r for r in range(n) if rng.random() < 0.5])
                  for n in (rng.randint(1, 60) for _ in range(20))]
        beyond_max = 0
        for n, members in cases:
            members = list(members)
            prof = profile_of(n, members)
            m_sum, m_diff = brute_profile(n, members)
            for k in range(1, 7):
                assert x_k(prof, k) == sum(comb(m, k) for m in m_sum)
                assert y_k(prof, k) == sum(comb(m, k) for m in m_diff)
                beyond_max += k > max(m_sum) and k > max(m_diff)
            assert prof.sum_histogram is prof.sum_histogram  # built once per side
        assert beyond_max > 0


class TestHistogram:
    """The multiplicity histograms against np.bincount of the widened counts."""

    @staticmethod
    def assert_histograms(n, members):
        prof = profile_of(n, sorted(set(members)))
        for hist, mult in ((prof.sum_histogram, prof.m_sum),
                           (prof.diff_histogram, prof.m_diff)):
            ref = np.bincount(mult.astype(np.int64))
            assert hist.dtype == ref.dtype == np.int64
            assert hist.tolist() == ref.tolist()  # the same length and values
        return prof

    def test_small_moduli_and_edge_sets(self, backend):
        rng = random.Random(16)
        for n in range(1, 41):
            for members in ([], [0], [n - 1], range(n), range(0, n, 2),
                            [r for r in range(n) if rng.random() < 0.3]):
                self.assert_histograms(n, members)

    @pytest.mark.parametrize("n", [2, 4, 10, 100, 1000, 1001])
    def test_the_self_mirrored_residues(self, backend, n):
        # m_diff[0] = |A| and, at even n, m_diff[n/2] are counted once, apart
        # from the doubled half; here both are nonzero at even n
        half = n // 2
        for members in ([0, half], [0, 1, half, half + 1], range(half + 1)):
            prof = self.assert_histograms(n, [r % n for r in members])
            if n % 2 == 0:
                assert prof.m_diff[half] > 0

    @pytest.mark.parametrize("n", [101, 100])
    @pytest.mark.parametrize("above", [0, 1])
    def test_maxima_at_the_bound_and_one_above(self, backend, n, above):
        # {0..L-1} with 2L <= n: the largest sum multiplicity is ceil(L/2),
        # the largest nonzero difference multiplicity L - 1 (m_diff[0] = L)
        bound = multiplicity._COUNT_BY_VALUE_MAX
        prof = self.assert_histograms(n, range(2 * (bound + above)))
        assert prof.m_sum.max() == bound + above
        prof = self.assert_histograms(n, range(bound + above + 1))
        assert prof.m_diff[1:].max() == bound + above

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_dense_sets_above_the_bound(self, backend, n):
        rng = random.Random(n)
        for members in (range(n), [r for r in range(n) if rng.random() < 0.5]):
            prof = self.assert_histograms(n, members)
            assert prof.m_sum.max() > multiplicity._COUNT_BY_VALUE_MAX


class TestXkYk:
    def test_x2_full_set(self):
        assert x_k(multiplicity_profile(FULL7), 2) == 7 * comb(4, 2)

    def test_x1_is_pair_count(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 64)
            members = [r for r in range(n) if rng.random() < 0.4]
            prof = profile_of(n, members)
            c = len(members)
            assert x_k(prof, 1) == c * (c + 1) // 2
            assert y_k(prof, 1) == c * c

    def test_singleton_x2_zero(self):
        assert x_k(profile_of(7, [0]), 2) == 0

    def test_y2_example(self):
        assert y_k(profile_of(5, [0, 1]), 2) == 1

    def test_empty(self):
        prof = multiplicity_profile(ResidueSet(9, 0))
        for k in (1, 2, 5):
            assert x_k(prof, k) == 0
            assert y_k(prof, k) == 0

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            x_k(multiplicity_profile(FULL7), 0)


class TestInclusionExclusion:
    def test_full_set(self):
        prof = multiplicity_profile(FULL7)
        assert inclusion_exclusion_size(prof, "sum") == 7
        assert inclusion_exclusion_size(prof, "difference") == 7

    def test_singleton(self):
        prof = profile_of(7, [0])
        assert inclusion_exclusion_size(prof, "sum") == 1

    def test_small_example(self):
        prof = profile_of(5, [1, 2])
        assert inclusion_exclusion_size(prof, "difference") == 3

    def test_matches_termwise_series(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 48)
            members = [r for r in range(n) if rng.random() < 0.5]
            prof = profile_of(n, members)
            for side, mult in (("sum", prof.m_sum), ("difference", prof.m_diff)):
                kmax = int(mult.max()) if len(members) else 0
                series = sum((-1) ** (k + 1) * (x_k(prof, k) if side == "sum" else y_k(prof, k))
                             for k in range(1, kmax + 1))
                assert inclusion_exclusion_size(prof, side) == series

    def test_equals_set_sizes_random(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 256)
            members = [r for r in range(n) if rng.random() < rng.choice([0.05, 0.2, 0.5])]
            A = ResidueSet.from_indices(n, members)
            prof = multiplicity_profile(A)
            fresh = ResidueSet(n, A.mask)  # no pair counts for the kernels to read back
            assert inclusion_exclusion_size(prof, "sum") == sumset(fresh).cardinality
            assert inclusion_exclusion_size(prof, "difference") == difference_set(fresh).cardinality

    def test_side_validation(self):
        with pytest.raises(ParameterError):
            inclusion_exclusion_size(multiplicity_profile(FULL7), "product")


class TestExpectations:
    def test_first_order_vs_exact_bookkeeping(self):
        # at p=1 the exact form realizes the full set's X_1 = |A|(|A|+1)/2
        n = 7
        assert expected_x_k_exact(n, Fraction(1), 1) == n * (n + 1) // 2

    @pytest.mark.parametrize("n,p", [(9, Fraction(1, 3)), (11, Fraction(1, 2)),
                                     (10, Fraction(5, 6))])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_expectations_match_enumeration(self, n, p, k):
        def xk_stat(mask, nn):
            m_sum = [0] * nn
            members = [r for r in range(nn) if mask >> r & 1]
            for ai, a in enumerate(members):
                for b in members[ai:]:
                    m_sum[(a + b) % nn] += 1
            return sum(comb(m, k) for m in m_sum)

        def yk_stat(mask, nn):
            m_diff = [0] * nn
            members = [r for r in range(nn) if mask >> r & 1]
            for a in members:
                for b in members:
                    m_diff[(a - b) % nn] += 1
            return sum(comb(m, k) for m in m_diff)

        assert oracle_mean(n, p, xk_stat) == expected_x_k_exact(n, p, k)
        assert oracle_mean(n, p, yk_stat) == expected_y_k_exact(n, p, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_x_k_at_even_n(self, k):
        # an even sum has two self-slots (a and a + n/2), an odd one none
        def xk_stat(mask, nn):
            members = [r for r in range(nn) if mask >> r & 1]
            m_sum = Counter((a + b) % nn for i, a in enumerate(members) for b in members[i:])
            return sum(comb(m, k) for m in m_sum.values())

        for n in (2, 4, 6, 8, 10):
            for p in (Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(1)):
                assert expected_x_k_exact(n, p, k) == oracle_mean(n, p, xk_stat), (n, p)

    def test_exact_x_k_parameter_errors(self):
        for n, k in ((0, 1), (-3, 1), (8, 0)):
            with pytest.raises(ParameterError):
                expected_x_k_exact(n, Fraction(1, 2), k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_y_k_over_divisors_equals_the_loop_over_residues(self, k):
        p = Fraction(1, 3)
        for n in [*range(2, 121), 1000, 1024, 30030]:
            assert expected_y_k_exact(n, p, k) == expected_y_k_by_residue(n, p, k), n
