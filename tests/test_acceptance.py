"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Two sub-criteria are implemented exactly as stated and are expected to fail
for documented mathematical reasons (strict xfails, so a surprise pass would
itself be flagged):

* 7b: the Monte Carlo means of Y_2 and Y_3 at critical decay cannot match
  n/k! * c^(2k).  Y_k includes the k-sets of diagonal pairs (a, a), whose
  expectation C(|A|, k) p^k is the same order as the stated target at k = 2
  and dominates it by ~ sqrt(n) at k = 3.  The companion test 7c shows the
  measured means agree with the exact expectation formula instead.
* 8b: n^3 F(n, n^-0.4) is still increasing on the ladder 500..32000; the
  product log(n^3 F) ~ 3 log n - n^(1-2 delta) turns over only near
  n = (3/(1-2 delta))^(1/(1-2 delta)) ~ 7.6e5 for delta = 0.4.  The
  companion test 8c verifies the decrease beyond that scale.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from modsetlab import (
    RegimeSpec,
    ResidueSet,
    cycle_count,
    difference_set,
    dyadic64,
    event_diff_missing,
    event_sums_missing,
    expected_missing_sums,
    expected_y_k_exact,
    f_series,
    gauge_functions,
    inclusion_exclusion_size,
    is_prime,
    lucas,
    multiplicity_profile,
    oracle_event_probability,
    oracle_moments,
    path_count,
    prob_both_sums_missing,
    prob_diff_missing,
    realized_p,
    run_sweep,
    sumset,
    theoretical_targets,
)
from modsetlab.exact import f_series_log
from modsetlab.graphs import build_diff_graph, build_sum_graph

SEED = 20260810
PRIMES_13 = (2, 3, 5, 7, 11, 13)
P_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def announce(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def critical_sweep():
    spec = RegimeSpec(regime="critical", n_values=(10007,), trials=500,
                      base_seed=SEED, c=1.0, k_max=3, require_prime=True)
    return spec, run_sweep(spec).aggregates[0]


def test_criterion_1_critical_regime(critical_sweep):
    spec, agg = critical_sweep
    n = agg.n
    s_frac, d_frac = agg.mean_S / n, agg.mean_D / n
    s_target = 1 - math.exp(-0.5)
    d_target = 1 - math.exp(-1.0)
    r_target = 1 + math.exp(-0.5)
    ok = (abs(s_frac - s_target) <= 0.02 and abs(d_frac - d_target) <= 0.02
          and abs(agg.mean_ratio - r_target) <= 0.05)
    announce(" 1", ok,
             f"critical c=1 n={n} trials={agg.trials}: S/n={s_frac:.5f} "
             f"(target {s_target:.5f}), D/n={d_frac:.5f} (target {d_target:.5f}), "
             f"ratio={agg.mean_ratio:.5f} (target {r_target:.5f})")
    assert abs(s_frac - s_target) <= 0.02
    assert abs(d_frac - d_target) <= 0.02
    assert abs(agg.mean_ratio - r_target) <= 0.05


def test_criterion_2_fast_regime():
    n, delta = 1000003, 0.6
    assert is_prime(n)
    spec = RegimeSpec(regime="fast", n_values=(n,), trials=200, base_seed=SEED,
                      delta=delta)
    agg = run_sweep(spec).aggregates[0]
    tg = theoretical_targets("fast", n, delta=delta)
    s_rel = agg.mean_S / tg.S_target - 1
    d_rel = agg.mean_D / tg.D_target - 1
    ok = abs(s_rel) <= 0.05 and abs(d_rel) <= 0.05 and 1.9 <= agg.mean_ratio <= 2.1
    announce(" 2", ok,
             f"fast delta=0.6 n={n}: S rel err {s_rel:+.4f}, D rel err {d_rel:+.4f}, "
             f"ratio={agg.mean_ratio:.4f} (window [1.9, 2.1])")
    assert abs(s_rel) <= 0.05
    assert abs(d_rel) <= 0.05
    assert 1.9 <= agg.mean_ratio <= 2.1


def test_criterion_3_slow_regime():
    n, delta = 10007, 0.25
    spec = RegimeSpec(regime="slow", n_values=(n,), trials=200, base_seed=SEED,
                      delta=delta, require_prime=True)
    agg = run_sweep(spec).aggregates[0]
    headroom = expected_missing_sums(n, realized_p(spec, n))
    ok = agg.frac_S_full >= 0.99 and agg.frac_D_full >= 0.99 and headroom < Fraction(1, 10 ** 17)
    announce(" 3", ok,
             f"slow delta=1/4 n={n}: S=n in {agg.frac_S_full:.3f}, "
             f"D=n in {agg.frac_D_full:.3f} of trials; exact E[S^c]={float(headroom):.2e}. "
             f"Note: delta near 1/2 is not reproducible at desk scale "
             f"(log n = o(n p^2) bites only at astronomically large n).")
    assert agg.frac_S_full >= 0.99
    assert agg.frac_D_full >= 0.99
    assert headroom < Fraction(1, 10 ** 17)


def test_criterion_4_exact_vs_oracle_equality():
    checks = 0
    for n in PRIMES_13:
        for p in P_GRID:
            q = 1 - p
            assert oracle_moments(n, p).E_Sc == expected_missing_sums(n, p)
            checks += 1
            for k in range(1, n):
                inclusive = oracle_event_probability(n, p, event_diff_missing(k))
                assert inclusive == prob_diff_missing(n, p) + q ** n  # empty-set bridge
                checks += 1
            expected = prob_both_sums_missing(n, p)
            for i in range(n):
                for j in range(i + 1, n):
                    assert oracle_event_probability(n, p, event_sums_missing(i, j)) == expected
                    checks += 1
    announce(" 4", True,
             f"exact == 2^n enumeration (zero tolerance) for primes <= 13, "
             f"p in {{1/4, 1/2, 3/4}}: {checks} equalities "
             f"(E[S^c], P(k not in A-A) with empty-set bridge, joint sum miss)")


def test_criterion_5_lucas_identity_and_counts():
    for n in range(2, 61):
        assert sum(cycle_count(n, k) for k in range(0, n // 2 + 1)) == lucas(n)
    # exhaustive non-consecutive subset counts up to n = 20, vectorized
    for m in range(1, 21):
        masks = np.arange(1 << m, dtype=np.uint32)
        no_adj = (masks & (masks << 1) & np.uint32((1 << m) - 1)) == 0
        pops = np.bitwise_count(masks)
        path_hist = np.bincount(pops[no_adj], minlength=m + 2)
        for r in range(0, m + 1):
            assert path_count(m, r) == int(path_hist[r])
        if m >= 2:
            wrap = ((masks >> (m - 1)) & masks & 1) == 1
            cycle_ok = no_adj & ~wrap
            cycle_hist = np.bincount(pops[cycle_ok], minlength=m + 2)
            for k in range(0, m + 1):
                assert cycle_count(m, k) == int(cycle_hist[k])
    announce(" 5", True,
             "sum_k D(n,k) = L_n exactly for 2 <= n <= 60; path/cycle counts match "
             "exhaustive enumeration for n <= 20")


def test_criterion_6_inclusion_exclusion_identity():
    rng = random.Random(SEED)
    for trial in range(1000):
        n = rng.randint(1, 512)
        p = rng.choice([0.02, 0.05, 0.1, 0.25, 0.5, 0.8])
        members = [r for r in range(n) if rng.random() < p]
        A = ResidueSet.from_indices(n, members)
        prof = multiplicity_profile(A)
        # the sizes come from a copy that holds no pair counts: on A itself a
        # sparse kernel reads A+A off the very counts the profile sums
        fresh = ResidueSet(n, A.mask)
        assert inclusion_exclusion_size(prof, "sum") == sumset(fresh).cardinality
        assert inclusion_exclusion_size(prof, "difference") == difference_set(fresh).cardinality
    announce(" 6", True,
             "sum_k (-1)^(k+1) X_k = |A+A| and sum_k (-1)^(k+1) Y_k = |A-A| exactly "
             "on 1000 random sets (n <= 512, assorted p)")


def test_criterion_7a_repeated_pair_asymptotics(critical_sweep):
    spec, agg = critical_sweep
    n, c = agg.n, 1.0
    x_targets = [n / math.factorial(k) * (c * c / 2) ** k for k in (1, 2, 3)]
    x_rel = [agg.mean_xk[k - 1] / x_targets[k - 1] - 1 for k in (1, 2, 3)]
    y1_target = n * c * c
    y1_rel = agg.mean_yk[0] / y1_target - 1
    ok = all(abs(r) <= 0.10 for r in x_rel) and abs(y1_rel) <= 0.10
    announce("7a", ok,
             f"critical c=1 n={n}: X_k rel errs {[f'{r:+.3f}' for r in x_rel]} "
             f"(tol 10%), Y_1 rel err {y1_rel:+.3f}")
    for r in x_rel:
        assert abs(r) <= 0.10
    assert abs(y1_rel) <= 0.10


@pytest.mark.xfail(strict=True, reason=(
    "Y_k counts k-sets of ordered pairs sharing a difference, and the pairs "
    "(a, a) all share difference 0: that class contributes E[C(|A|, k)] ~ "
    "(np)^k / k! = n^(k/2) c^k / k!, which equals the stated target's order "
    "at k = 2 and exceeds it by ~ sqrt(n) at k = 3.  No implementation of "
    "the pinned pair conventions (the ones that make the inclusion-exclusion "
    "identity exact) can land within 10% of n/k! * c^(2k) for k in {2, 3}."))
def test_criterion_7b_y2_y3_as_stated(critical_sweep):
    spec, agg = critical_sweep
    n, c = agg.n, 1.0
    y_targets = [n / math.factorial(k) * c ** (2 * k) for k in (1, 2, 3)]
    rels = [agg.mean_yk[k - 1] / y_targets[k - 1] - 1 for k in (2, 3)]
    ok = all(abs(r) <= 0.10 for r in rels)
    announce("7b", ok,
             f"critical c=1 n={n}: Y_2, Y_3 rel errs vs n/k! c^2k: "
             f"{[f'{r:+.2f}' for r in rels]} (tol 10%; expected failure, "
             f"diagonal-pair class dominates)")
    for r in rels:
        assert abs(r) <= 0.10


def test_criterion_7c_y_k_matches_exact_expectation(critical_sweep):
    spec, agg = critical_sweep
    p = realized_p(spec, agg.n)
    rels = [agg.mean_yk[k - 1] / float(expected_y_k_exact(agg.n, p, k)) - 1
            for k in (1, 2, 3)]
    ok = all(abs(r) <= 0.05 for r in rels)
    announce("7c", ok,
             f"Y_k means vs exact expectation (diagonal class included): "
             f"rel errs {[f'{r:+.4f}' for r in rels]} (tol 5%)")
    for r in rels:
        assert abs(r) <= 0.05


LADDER = (500, 1000, 2000, 4000, 8000, 16000, 32000)


def test_criterion_8a_series_decay_and_sign_flips():
    values = [n ** 3 * f_series(n, dyadic64(n ** -0.25)) for n in LADDER]
    decreasing = all(b < a for a, b in zip(values, values[1:]))

    n = 10007
    slow_g = gauge_functions(n, n ** -0.25)
    inter_g = gauge_functions(n, 0.3 * math.sqrt(math.log(n) / n))
    flips = (slow_g.log_G < 0 < inter_g.log_G) and (slow_g.log_h < 0 < inter_g.log_h)
    announce("8a", decreasing and flips,
             f"n^3 F(n, n^-0.25) strictly decreasing on {LADDER} "
             f"(drops {float(values[0]):.2e} -> {float(values[-1]):.2e}); "
             f"log G and log h flip sign at n=10007 between p=n^-1/4 "
             f"({slow_g.log_G:.1f}, {slow_g.log_h:.1f}) and p=0.3 sqrt(log n / n) "
             f"({inter_g.log_G:.1f}, {inter_g.log_h:.1f})")
    assert decreasing
    assert flips


@pytest.mark.xfail(strict=True, reason=(
    "log(n^3 F(n, n^-delta)) ~ 3 log n - n^(1-2 delta) increases until "
    "n ~ (3/(1-2 delta))^(1/(1-2 delta)), which is about 7.6e5 for "
    "delta = 0.4: the 500..32000 ladder sits entirely before the turnover, "
    "so the exact values are strictly increasing there."))
def test_criterion_8b_delta_04_ladder_as_stated():
    values = [n ** 3 * f_series(n, dyadic64(n ** -0.4)) for n in LADDER]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    announce("8b", decreasing,
             f"n^3 F(n, n^-0.4) on {LADDER}: "
             f"{[f'{float(v):.2e}' for v in values]} (expected failure: "
             f"turnover only near n~7.6e5)")
    assert decreasing


def test_criterion_8c_delta_04_decays_beyond_turnover():
    logs = [3 * math.log(n) + f_series_log(n, dyadic64(n ** -0.4))
            for n in (2 ** 20, 2 ** 22, 2 ** 24)]
    ok = logs[0] > logs[1] > logs[2]
    announce("8c", ok,
             f"log(n^3 F(n, n^-0.4)) at n=2^20,2^22,2^24: "
             f"{[f'{v:.2f}' for v in logs]} (decreasing past the turnover)")
    assert ok


def test_criterion_9_graph_structure():
    def cycles(count, m):  # a 2-cycle is one edge, a 2-vertex path
        return (("cycle", m, 0, count) if m > 2 else ("path", 2, 0, count),)

    for n in (2, 3, 5, 7, 11, 13, 17, 19):
        for i in range(n):
            for j in range(i + 1, n):
                assert build_sum_graph(n, i, j).components == (("path", n, 2, 1),)
        for k in range(1, n):
            assert build_diff_graph(n, k).components == cycles(1, n)
    for n in range(2, 19):
        for k in range(1, n):
            d = math.gcd(n, k)
            assert build_diff_graph(n, k).components == cycles(d, n // d)
    announce(" 9", True,
             "all prime n <= 19: sum graphs are loop-ended paths, difference graphs "
             "single n-cycles; all n <= 18: difference graphs split into gcd(n,k) "
             "cycles of length n/gcd(n,k)")


def test_criterion_10_balanced_at_half():
    spec = RegimeSpec(regime="fixed", n_values=(10007,), trials=100, base_seed=SEED,
                      p_fixed=Fraction(1, 2), require_prime=True)
    agg = run_sweep(spec).aggregates[0]
    ok = agg.frac_S_full == 1.0 and agg.frac_D_full == 1.0
    announce("10", ok,
             f"p=1/2 n=10007, 100 trials: every trial has S=D=n "
             f"(S full {agg.frac_S_full:.2f}, D full {agg.frac_D_full:.2f})")
    assert agg.frac_S_full == 1.0
    assert agg.frac_D_full == 1.0
