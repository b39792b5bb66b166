"""Core set sampling and kernel tests."""

import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsetlab import (
    ParameterError,
    RegimeSpec,
    ResourceLimitError,
    ResidueSet,
    SampleSpec,
    difference_set,
    dyadic64,
    f_series,
    missing_counts,
    sample_subset,
    sumset,
)
from modsetlab import sets


def brute_sumset(n, members):
    return {(a + b) % n for a in members for b in members}


def brute_diffset(n, members):
    return {(a - b) % n for a in members for b in members}


class TestResidueSet:
    def test_roundtrip(self):
        A = ResidueSet.from_indices(11, [0, 3, 7])
        assert A.indices().tolist() == [0, 3, 7]
        assert A.cardinality == 3
        assert 3 in A and 4 not in A
        assert sorted(A) == [0, 3, 7]

    def test_indices_brute_force(self):
        rng = random.Random(130)
        for n in [*range(1, 131), 100_003]:
            for mask in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(3))):
                idx = ResidueSet(n, mask).indices()
                assert idx.dtype == np.int64
                assert idx.tolist() == [r for r in range(n) if mask >> r & 1]

    def test_negated(self):
        A = ResidueSet.from_indices(7, [0, 1, 5])
        assert sorted(A.negated()) == [0, 2, 6]
        rng = random.Random(70)
        for n in [*range(1, 71), 1000, 4097]:
            for mask in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(4))):
                A = ResidueSet(n, mask)
                assert set(A.negated()) == {(n - a) % n for a in A}

    def test_validation(self):
        with pytest.raises(ParameterError):
            ResidueSet(0, 0)
        with pytest.raises(ParameterError):
            ResidueSet(3, 1 << 3)
        with pytest.raises(ParameterError):
            ResidueSet.from_indices(5, [5])


class TestDyadic64:
    def test_exact_on_dyadics(self):
        for p in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            assert dyadic64(p) == p

    def test_rounding(self):
        p = dyadic64(Fraction(1, 3))
        assert p.denominator <= 1 << 64
        assert abs(p - Fraction(1, 3)) <= Fraction(1, 2 ** 64)
        # halves round up, below a half rounds down: the sampler's threshold rule
        assert dyadic64(Fraction(1, 2 ** 65)) == Fraction(1, 2 ** 64)
        assert dyadic64(Fraction(1, 2 ** 65) - Fraction(1, 2 ** 80)) == 0

    def test_range(self):
        with pytest.raises(ParameterError):
            dyadic64(Fraction(3, 2))

    @pytest.mark.parametrize("p, shown", [(Fraction(3, 2), "3/2"), (-0.25, "-0.25"),
                                          (1.1547005383792517, "1.1547005383792517")])
    @pytest.mark.parametrize("check", [
        dyadic64,
        lambda p: SampleSpec(n=5, p=p, base_seed=1),
        lambda p: RegimeSpec(regime="fixed", n_values=(5,), trials=1, base_seed=0, p_fixed=p),
        lambda p: f_series(5, p),
    ], ids=["dyadic64", "SampleSpec", "RegimeSpec", "f_series"])
    def test_one_probability_check(self, check, p, shown):
        # one check, one message, which shows p as given
        with pytest.raises(ParameterError, match=rf"^p={re.escape(shown)} outside \[0, 1\]$"):
            check(p)


class TestSampling:
    def test_p_zero_empty(self):
        A = sample_subset(SampleSpec(n=7, p=Fraction(0), base_seed=1))
        assert A.cardinality == 0

    def test_p_one_full(self):
        A = sample_subset(SampleSpec(n=7, p=Fraction(1), base_seed=1))
        assert A.indices().tolist() == list(range(7))

    def test_deterministic(self):
        spec = SampleSpec(n=503, p=Fraction(1, 3), base_seed=99, trial_index=4)
        assert sample_subset(spec) == sample_subset(spec)

    def test_order_independent(self):
        specs = [SampleSpec(n=101, p=Fraction(1, 2), base_seed=5, trial_index=t)
                 for t in range(6)]
        forward = [sample_subset(s) for s in specs]
        backward = [sample_subset(s) for s in reversed(specs)]
        assert forward == backward[::-1]

    def test_distinct_trials_differ(self):
        a = sample_subset(SampleSpec(n=503, p=Fraction(1, 2), base_seed=5, trial_index=0))
        b = sample_subset(SampleSpec(n=503, p=Fraction(1, 2), base_seed=5, trial_index=1))
        assert a != b

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            SampleSpec(n=0, p=Fraction(1, 2), base_seed=1)
        with pytest.raises(ParameterError):
            SampleSpec(n=5, p=Fraction(3, 2), base_seed=1)

    def test_modulus_beyond_an_array_is_a_resource_limit(self):
        # checked before anything of size n is allocated: n int64 residues must fit one array
        assert SampleSpec(n=sets._MAX_MODULUS, p=Fraction(0), base_seed=1).n == sets._MAX_MODULUS
        for make in (lambda n: SampleSpec(n=n, p=Fraction(1, 2), base_seed=1),
                     lambda n: ResidueSet(n, 0)):
            with pytest.raises(ResourceLimitError, match=r"^modulus n=\d+ is above "):
                make(sets._MAX_MODULUS + 1)
            with pytest.raises(ParameterError, match=r"^modulus must be >= 1, got 0$"):
                make(0)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 7), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "7", "B-1", "B", "B+1", "3B+5"])
    def test_streamed_draws_equal_one_draw_of_n(self, blocks, extra):
        # the sampler draws in blocks of B; A must be the set that one draw of
        # n uint64 words, compared with the threshold, gives
        n = blocks * sets._BLOCK + extra
        for p in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 2 ** 10),
                  dyadic64(n ** -0.5)):
            for t in (0, 3):
                threshold = p.numerator * 2 ** 64 // p.denominator  # p is dyadic
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((42, t))))
                u = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
                ref = np.ones(n, bool) if threshold == 2 ** 64 else u < np.uint64(threshold)
                A = sample_subset(SampleSpec(n=n, p=p, base_seed=42, trial_index=t))
                assert A.indices().tolist() == np.flatnonzero(ref).tolist(), (p, t)

    def test_binomial_mean_against_reference_sampler(self):
        # mean |A| over 500 trials should sit within 3 SE of n*p, and agree
        # with a plain uniform-threshold reference sampler
        n, trials = 10007, 500
        p = dyadic64(n ** -0.5)
        np_target = float(n * p)
        se = (float(n * p * (1 - p)) / trials) ** 0.5
        cards = [sample_subset(SampleSpec(n=n, p=p, base_seed=123, trial_index=t)).cardinality
                 for t in range(trials)]
        mean = sum(cards) / trials
        assert abs(mean - np_target) < 3 * se

        rng = np.random.default_rng(123)
        ref = sum(int((rng.random(n) < float(p)).sum()) for _ in range(trials)) / trials
        assert abs(ref - np_target) < 3 * se


class TestKernels:
    def test_sumset_examples(self):
        assert sorted(sumset(ResidueSet.from_indices(7, [0]))) == [0]
        assert sorted(sumset(ResidueSet.from_indices(5, [1, 2]))) == [2, 3, 4]
        full = ResidueSet(7, (1 << 7) - 1)
        assert sumset(full) == full

    def test_difference_examples(self):
        assert difference_set(ResidueSet(5, 0)).cardinality == 0
        assert sorted(difference_set(ResidueSet.from_indices(5, [1, 2]))) == [0, 1, 4]
        full = ResidueSet(7, (1 << 7) - 1)
        assert difference_set(full) == full

    def test_missing_counts_examples(self):
        assert missing_counts(ResidueSet(7, (1 << 7) - 1)) == (0, 0)
        assert missing_counts(ResidueSet.from_indices(7, [0])) == (6, 6)
        assert missing_counts(ResidueSet.from_indices(5, [1, 2])) == (2, 2)

    @pytest.mark.parametrize("op", [sumset, difference_set, missing_counts])
    def test_unknown_kernel(self, op):
        with pytest.raises(ParameterError, match=r"^unknown kernel 'fft'$"):
            op(ResidueSet.from_indices(7, [1, 2]), "fft")

    def test_kernels_agree_on_1000_random_instances(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 512)
            density = rng.choice([0.005, 0.02, 0.1, 0.3, 0.7])
            members = [r for r in range(n) if rng.random() < density]
            A = ResidueSet.from_indices(n, members)
            s_dense = sumset(A, "dense")
            s_sparse = sumset(A, "sparse")
            d_dense = difference_set(A, "dense")
            d_sparse = difference_set(A, "sparse")
            assert s_dense == s_sparse
            assert d_dense == d_sparse
            assert set(s_dense) == brute_sumset(n, members)
            assert set(d_dense) == brute_diffset(n, members)

    @given(n=st.integers(1, 96), bits=st.integers(0, 2 ** 96 - 1))
    @settings(max_examples=300, deadline=None)
    def test_kernel_agreement_and_bounds(self, n, bits):
        A = ResidueSet(n, bits & ((1 << n) - 1))
        c = A.cardinality
        S = sumset(A, "dense")
        D = difference_set(A, "dense")
        assert S == sumset(A, "sparse")
        assert D == difference_set(A, "sparse")
        assert S.cardinality <= min(n, c * (c + 1) // 2)
        assert D.cardinality <= min(n, c * c - c + 1 if c else 0)
        # difference set closed under negation; 0 present iff A nonempty
        assert D == D.negated()
        assert (0 in D) == (c > 0)

    @pytest.mark.parametrize("n,members", [
        (64, range(0, 64, 2)),                     # even residues of even n
        (1000, range(0, 1000, 2)),
        (1000, [r for r in range(0, 1000, 2) if r % 6]),
        (60, range(2, 60, 5)),                     # coset 2 + <5>
        (462, range(7, 462, 21)),                  # coset 7 + <21>
        (97, []),
        (97, [3]),
    ])
    def test_dense_kernel_on_non_saturating_sets(self, n, members):
        # A+A and A-A stay inside a proper subgroup (or its coset), so the
        # dense kernel's accumulator never fills and it ORs every rotation
        members = list(members)
        A = ResidueSet.from_indices(n, members)
        S = sumset(A, "dense")
        D = difference_set(A, "dense")
        assert set(S) == brute_sumset(n, members) and S.cardinality < n
        assert set(D) == brute_diffset(n, members) and D.cardinality < n
        assert S == sumset(A, "sparse") and D == difference_set(A, "sparse")


def traced_peak(f, *args):
    """Bytes of the peak tracemalloc reading above the start, during f(*args)."""
    f(*args)  # warm: first-call caches are not the call's memory
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrialMemory:
    """A trial's transient memory scales with its set and narrow counts, not with 8n."""

    N = 1 << 20

    def test_sampler_holds_no_draws_of_n_words(self):
        # one n-byte array, one block of draws, and the mask's bytes and int
        spec = SampleSpec(n=self.N, p=dyadic64(self.N ** -0.5), base_seed=1)
        assert traced_peak(sample_subset, spec) < 3 * self.N

    def test_pair_count_holds_one_count_buffer_and_one_block(self):
        # m_sum and m_diff, of the narrow count dtype, plus one pair block
        spec = SampleSpec(n=self.N, p=dyadic64(self.N ** -0.5), base_seed=1)
        idx = sample_subset(spec).indices()
        itemsize = sets._count_dtype(idx.size).itemsize
        assert itemsize == 2
        peak = traced_peak(sets._pair_multiplicities, self.N, idx)
        assert peak < 2 * self.N * itemsize + (1 << 20)
