"""Pair-graph structure and the exhaustive enumeration oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from modsetlab import graphs
from modsetlab import (
    PairGraph,
    ParameterError,
    ResidueSet,
    ResourceLimitError,
    build_diff_graph,
    build_sum_graph,
    difference_set,
    event_diff_missing,
    event_sums_missing,
    independence_probability,
    is_prime,
    oracle_event_probability,
    oracle_moments,
    prob_diff_missing,
    sumset,
)
from modsetlab.sets import _rotl, dyadic64
from references import independence_event_holds, oracle_mean, oracle_tallies_reference

PRIMES_19 = (2, 3, 5, 7, 11, 13, 17, 19)


def loop_vertices(g):
    return tuple(a for a, b in g.edges if a == b)


class TestBuild:
    def test_sum_graph_7_2_5(self):
        g = build_sum_graph(7, 2, 5)
        expected = {(0, 2), (1, 1), (3, 6), (4, 5), (0, 5), (1, 4), (2, 3), (6, 6)}
        assert set(g.edges) == expected
        assert g.components == (("path", 7, 2, 1),)
        assert loop_vertices(g) == (1, 6)

    def test_sum_graph_5_0_1(self):
        g = build_sum_graph(5, 0, 1)
        assert g.components == (("path", 5, 2, 1),)
        assert loop_vertices(g) == (0, 3)

    def test_one_target_sum_graphs(self):
        # disjoint edges a + b = s, plus a loop wherever 2a = s
        assert build_sum_graph(7, 2).components == (("path", 1, 1, 1), ("path", 2, 0, 3))
        assert build_sum_graph(8, 3).components == (("path", 2, 0, 4),)
        g = build_sum_graph(8, 2)
        assert g.components == (("path", 1, 1, 2), ("path", 2, 0, 3))
        assert loop_vertices(g) == (1, 5)
        assert build_sum_graph(1, 0).components == (("path", 1, 1, 1),)

    def test_diff_graph_7_2_cycle(self):
        g = build_diff_graph(7, 2)
        assert set(g.edges) == {(0, 2), (2, 4), (4, 6), (1, 6), (1, 3), (3, 5), (0, 5)}
        assert g.components == (("cycle", 7, 0, 1),)

    def test_diff_graph_composite(self):
        assert build_diff_graph(6, 2).components == (("cycle", 3, 0, 2),)

    @pytest.mark.parametrize("targets", [(), (1, 2, 3)], ids=["0", "3"])
    def test_sum_target_count_has_one_rule(self, targets):
        # the sum predicate takes what the sum graph takes, with one message
        messages = []
        for make in (lambda: build_sum_graph(7, *targets), lambda: event_sums_missing(*targets)):
            with pytest.raises(ParameterError) as info:
                make()
            messages.append(str(info.value))
        assert messages == [f"a sum graph or event needs one or two target sums, "
                            f"got {len(targets)}"] * 2

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            build_sum_graph(7, 3, 3)
        with pytest.raises(ParameterError):
            build_sum_graph(7, -4, 10)  # both are 3 mod 7
        with pytest.raises(ParameterError):
            build_sum_graph(1, 0, 1)
        with pytest.raises(ParameterError, match="n must be >= 1"):
            build_sum_graph(0, 1)
        with pytest.raises(ParameterError):
            build_diff_graph(7, 0)
        with pytest.raises(ParameterError):
            build_diff_graph(7, 14)
        with pytest.raises(ParameterError):
            build_diff_graph(1, 1)


def _cycles(count, m):
    """count m-cycles; an m = 2 cycle is one edge, so a 2-vertex path."""
    return (("cycle", m, 0, count) if m > 2 else ("path", 2, 0, count),)


# hand-built graphs that reach every branch of the decomposition; a graph that
# is not loop-ended paths and cycles is a ParameterError
HAND_BUILT = {
    "n0": (PairGraph(0, ()), ()),
    "single-vertex": (PairGraph(1, ()), (("path", 1, 0, 1),)),
    "single-loop": (PairGraph(1, ((0, 0),)), (("path", 1, 1, 1),)),
    "loop-ended-edge": (PairGraph(2, ((0, 0), (0, 1), (1, 1))), (("path", 2, 2, 1),)),
    "two-loops-no-edge": (PairGraph(2, ((0, 0), (1, 1))), (("path", 1, 1, 2),)),
    "triangle-and-isolated-vertex": (PairGraph(4, ((0, 1), (0, 2), (1, 2))),
                                     (("cycle", 3, 0, 1), ("path", 1, 0, 1))),
    "loop-on-a-cycle": (PairGraph(3, ((0, 0), (0, 1), (0, 2), (1, 2))), ParameterError),
    "two-triangles": (PairGraph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))),
                      (("cycle", 3, 0, 2),)),
    "unequal-cycles": (PairGraph(7, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 6), (4, 5), (5, 6))),
                       (("cycle", 3, 0, 1), ("cycle", 4, 0, 1))),
    "two-paths": (PairGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5))), (("path", 3, 0, 2),)),
    "complete-k4": (PairGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
                    ParameterError),
    "path-without-loops": (PairGraph(4, ((0, 1), (1, 2), (2, 3))), (("path", 4, 0, 1),)),
    "path-one-end-loop": (PairGraph(4, ((0, 0), (0, 1), (1, 2), (2, 3))),
                          (("path", 4, 1, 1),)),
    "path-loops-not-at-ends": (PairGraph(4, ((0, 0), (0, 1), (1, 2), (2, 2), (2, 3))),
                               ParameterError),
    "loop-ended-path-and-isolated-vertex": (PairGraph(4, ((0, 0), (0, 1), (1, 2), (2, 2))),
                                            (("path", 1, 0, 1), ("path", 3, 2, 1))),
    "star-with-loops": (PairGraph(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2))),
                        ParameterError),
    "2-cycles-collapsed": (build_diff_graph(4, 2), _cycles(2, 2)),
    "2-cycle-n2": (build_diff_graph(2, 1), _cycles(1, 2)),
    # 0 loop, 0-3-6, 6 loop; and the 6-cycle 1-8-4-5-7-2-1
    "sum-graph-9-0-3": (build_sum_graph(9, 0, 3), (("cycle", 6, 0, 1), ("path", 3, 2, 1))),
    "sum-graph-8-1-2": (build_sum_graph(8, 1, 2), (("path", 8, 2, 1),)),
}


class TestClassify:
    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_graphs(self, name):
        g, expected = HAND_BUILT[name]
        if expected is ParameterError:
            with pytest.raises(ParameterError, match="not a union of loop-ended paths"):
                g.components
        else:
            assert g.components == expected

    @pytest.mark.parametrize("n", PRIMES_19)
    def test_prime_sum_graphs_are_loop_ended_paths(self, n):
        for i in range(n):
            for j in range(i + 1, n):
                g = build_sum_graph(n, i, j)
                assert g.components == (("path", n, 2, 1),)
                # the loops sit where a residue doubles to a target
                expected_loops = tuple(a for a in range(n) if (2 * a) % n in (i, j))
                assert loop_vertices(g) == expected_loops

    @pytest.mark.parametrize("n", PRIMES_19)
    def test_prime_diff_graphs_are_single_cycles(self, n):
        for k in range(1, n):
            assert build_diff_graph(n, k).components == _cycles(1, n)

    @pytest.mark.parametrize("n", range(2, 19))
    def test_diff_graph_cycle_decomposition(self, n):
        for k in range(1, n):
            d = math.gcd(n, k)
            assert build_diff_graph(n, k).components == _cycles(d, n // d)


def _all_pair_graphs(n):
    """Every one-target sum graph, two-target sum graph and difference graph."""
    return ([build_sum_graph(n, s) for s in range(n)]
            + [build_sum_graph(n, i, j) for i in range(n) for j in range(i + 1, n)]
            + [build_diff_graph(n, k) for k in range(1, n)])


class TestEngine:
    @pytest.mark.parametrize("name", [name for name, (_, expected) in HAND_BUILT.items()
                                      if expected is not ParameterError])
    def test_hand_built_weights(self, name):
        g, _ = HAND_BUILT[name]
        p = Fraction(2, 5)
        independent = (mask for mask in range(1 << g.n)
                       if not any(mask >> a & 1 and mask >> b & 1 for a, b in g.edges))
        brute = sum((p ** m.bit_count() * (1 - p) ** (g.n - m.bit_count()) for m in independent),
                    Fraction(0))
        assert independence_probability(g.components, p) == brute

    def test_census_and_oracle(self):
        # every pair graph for n = 2..24 is loop-ended paths and cycles
        for n in range(2, 25):
            for g in _all_pair_graphs(n):
                assert sum(m * count for _, m, _, count in g.components) == n
        # and its weight is the enumerated probability of its event, both
        # one by one and summed into the moment means
        for n in range(1, 13):
            events = ([(event_sums_missing(s), build_sum_graph(n, s)) for s in range(n)]
                      + [(event_diff_missing(k), build_diff_graph(n, k)) for k in range(1, n)]
                      + [(event_sums_missing(i, j), build_sum_graph(n, i, j))
                         for i in range(n) for j in range(i + 1, n)])
            for p in (Fraction(1, 3), Fraction(2, 5)):
                weights = [independence_probability(g.components, p) for _, g in events]
                for (event, _), w in zip(events, weights):
                    assert oracle_event_probability(n, p, event) == w
                mom = oracle_moments(n, p)
                assert mom.E_Sc == sum(weights[:n])
                assert mom.E_Dc == (1 - p) ** n + sum(weights[n:2 * n - 1])


class TestIndependenceEvent:
    def test_examples(self):
        g = build_sum_graph(7, 2, 5)
        assert independence_event_holds(ResidueSet(7, 0), g)
        assert not independence_event_holds(ResidueSet.from_indices(7, [1]), g)
        gd = build_diff_graph(7, 2)
        assert independence_event_holds(ResidueSet.from_indices(7, [0, 4]), gd)

    def test_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            independence_event_holds(ResidueSet(5, 0), build_diff_graph(7, 1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_event_equivalence_exhaustive(self, n):
        diff_graphs = {k: build_diff_graph(n, k) for k in range(1, n)}
        sum_graphs = {(i, j): build_sum_graph(n, i, j)
                      for i in range(n) for j in range(i + 1, n)}
        for mask in range(1 << n):
            A = ResidueSet(n, mask)
            D = difference_set(A)
            S = sumset(A)
            for k, g in diff_graphs.items():
                assert (k not in D) == independence_event_holds(A, g)
                assert (k not in D) == event_diff_missing(k)(mask, n)
            for (i, j), g in sum_graphs.items():
                both_out = i not in S and j not in S
                assert both_out == independence_event_holds(A, g)
                assert both_out == event_sums_missing(i, j)(mask, n)
            for i in range(n):
                assert (i not in S) == event_sums_missing(i)(mask, n)


class TestOracle:
    def test_diff_missing_independent_set_counts(self):
        p = Fraction(1, 2)
        excl = oracle_event_probability(5, p, event_diff_missing(1),
                                        include_empty_set=False)
        incl = oracle_event_probability(5, p, event_diff_missing(1))
        assert excl == Fraction(10, 32)
        assert incl == Fraction(11, 32)  # Lucas number L_5 independent sets in C_5

    def test_full_inclusion_kills_missing_events(self):
        assert oracle_event_probability(6, Fraction(1), event_diff_missing(2)) == 0
        assert oracle_event_probability(6, Fraction(1), event_sums_missing(3)) == 0

    def test_independent_of_k_for_prime(self):
        p = Fraction(1, 3)
        vals = {oracle_event_probability(7, p, event_diff_missing(k)) for k in range(1, 7)}
        assert len(vals) == 1

    def test_mean_cardinality(self):
        for n in (4, 9):
            for p in (Fraction(1, 3), Fraction(2, 5)):
                assert oracle_mean(n, p, lambda m, nn: m.bit_count()) == n * p

    def test_moments_frozen_values(self):
        mom = oracle_moments(7, Fraction(1, 2))
        assert mom.E_Sc == Fraction(189, 128)
        assert oracle_moments(7, Fraction(1)).E_Sc == 0

    def test_moments_bridge_identity(self):
        # E[D^c] over all subsets = (n-1) * P(k missing | nonempty) + n q^n
        for n in (5, 7):
            for p in (Fraction(1, 4), Fraction(1, 2)):
                mom = oracle_moments(n, p)
                q = 1 - p
                assert mom.E_Dc == (n - 1) * prob_diff_missing(n, p) + n * q ** n

    def test_variances_nonnegative(self):
        mom = oracle_moments(6, Fraction(1, 3))
        assert mom.Var_Sc >= 0 and mom.Var_Dc >= 0

    def test_resource_limits(self):
        with pytest.raises(ResourceLimitError):
            oracle_event_probability(23, Fraction(1, 2), event_diff_missing(1))
        with pytest.raises(ResourceLimitError):
            oracle_moments(23, Fraction(1, 2))

    def test_predicates_accept_int_and_uint32_array(self):
        rng = np.random.default_rng(22)
        cases = [(n, np.arange(1 << n, dtype=np.uint32), range(n)) for n in range(1, 11)]
        # 4096 random masks where -A takes the 32-bit reversal width
        cases += [(n, rng.integers(0, 1 << n, 4096, dtype=np.uint32),
                   (0, 1, n // 2, n - 1)) for n in (19, 22)]
        for n, masks, residues in cases:
            events = ([event_diff_missing(k + 1) for k in residues]
                      + [event_sums_missing(i) for i in residues]
                      + [event_sums_missing(i, j) for i in residues for j in residues if i < j])
            for event in events:
                on_array = event(masks, n)
                assert on_array.dtype == bool and on_array.shape == masks.shape
                on_ints = [event(mask, n) for mask in masks.tolist()]
                assert all(type(v) is bool for v in on_ints)
                assert on_array.tolist() == on_ints

    def test_popcount_matches_bit_count(self):
        x = np.concatenate([np.arange(1 << 16), [2 ** 32 - 1, 2 ** 31, 0x55555555, 0xAAAAAAAA,
                                                  2 ** 22 - 1, 123456789]]).astype(np.uint32)
        assert graphs._popcount(x).tolist() == [int(v).bit_count() for v in x]

    def test_excluding_empty_set_across_two_chunks(self):
        n = graphs._CHUNK.bit_length()
        assert 1 << n == 2 * graphs._CHUNK
        for p in (Fraction(1, 3), dyadic64(n ** -0.5)):
            q = 1 - p
            for event in (event_diff_missing(5), event_sums_missing(4), event_sums_missing(0, 7),
                          lambda mask, n: mask >= (1 << n) - 3):
                for include in (True, False):
                    got = oracle_event_probability(n, p, event, include_empty_set=include)
                    assert got == event_reference(n, p, event, include)
            # n may be composite, so the closed forms are the graphs' weights
            excl = oracle_event_probability(n, p, event_diff_missing(5), include_empty_set=False)
            assert excl + q ** n == independence_probability(build_diff_graph(n, 5).components, p)
            assert oracle_event_probability(n, p, event_diff_missing(5)) == excl + q ** n
            assert oracle_event_probability(n, p, event_sums_missing(2, 9)) == \
                independence_probability(build_sum_graph(n, 2, 9).components, p)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_moments_match_per_mask_reference(self, n):
        # p = 0 and 1 have b = 1; 5/6 has a b with a factor of two and an odd one
        for p in (Fraction(1, 3), dyadic64(n ** -0.5), Fraction(0), Fraction(1), Fraction(5, 6)):
            assert oracle_moments(n, p) == moments_reference(n, p)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_tallies_match_full_enumeration(self, n):
        # prime n enumerates 2^(n-2) masks and any other n 2^(n-1): at a
        # _CHUNK of 16384 that is one chunk up to n = 15 and several above
        assert (graphs._oracle_tallies(n) == oracle_tallies_reference(n)).all()

    def test_moments_at_the_cap(self):
        # composite, so the translation path runs at the widest lanes
        n, p = graphs.ORACLE_MAX_N, Fraction(1, 3)
        mom = oracle_moments(n, p)
        assert mom.E_Sc == sum(independence_probability(build_sum_graph(n, s).components, p)
                               for s in range(n))
        assert mom.E_Dc == (1 - p) ** n + sum(
            independence_probability(build_diff_graph(n, k).components, p) for k in range(1, n))

    def test_orbit_scale_back_checks_its_divisions(self, monkeypatch):
        # the affine identity is false at n = 8, and its row division leaves a remainder
        monkeypatch.setattr(graphs, "is_prime", lambda n: True)
        with pytest.raises(AssertionError, match="do not divide exactly"):
            graphs._oracle_tallies(8)

    def test_is_prime_helper(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def weigh_reference(per_card, p, n):
    q = 1 - p
    return sum((per_card[c] * p ** c * q ** (n - c) for c in range(n + 1)), Fraction(0))


def event_reference(n, p, event, include_empty_set):
    """One predicate call per mask on a Python int."""
    counts = [0] * (n + 1)
    for mask in range(0 if include_empty_set else 1, 1 << n):
        if event(mask, n):
            counts[mask.bit_count()] += 1
    return weigh_reference(counts, p, n)


def neg_mask_reference(mask, n):
    out = 0
    m = mask
    while m:
        lsb = m & -m
        out |= 1 << ((n - (lsb.bit_length() - 1)) % n)
        m ^= lsb
    return out


def moments_reference(n, p):
    """The per-mask moments loop: OR the rotations of A and -A by each a in A."""
    full = (1 << n) - 1
    sc_sum, sc_sq, dc_sum, dc_sq = ([0] * (n + 1) for _ in range(4))
    for mask in range(1 << n):
        s_acc = 0
        d_acc = 0
        neg = neg_mask_reference(mask, n)
        m = mask
        while m:
            lsb = m & -m
            a = lsb.bit_length() - 1
            s_acc |= _rotl(mask, a, n, full)
            d_acc |= _rotl(neg, a, n, full)
            m ^= lsb
        c = mask.bit_count()
        sc = n - s_acc.bit_count()
        dc = n - d_acc.bit_count()
        sc_sum[c] += sc
        sc_sq[c] += sc * sc
        dc_sum[c] += dc
        dc_sq[c] += dc * dc
    e_sc, e_dc = weigh_reference(sc_sum, p, n), weigh_reference(dc_sum, p, n)
    return graphs.OracleMoments(E_Sc=e_sc, E_Dc=e_dc,
                                Var_Sc=weigh_reference(sc_sq, p, n) - e_sc * e_sc,
                                Var_Dc=weigh_reference(dc_sq, p, n) - e_dc * e_dc)
