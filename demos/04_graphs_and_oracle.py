#!/usr/bin/env python3
"""Pair graphs, their structure, and exact verification by 2^n enumeration.

"Residue k is missing from A-A" is the same as "A is independent in the graph
joining a to a+k"; for two missing sums the graph is a loop-ended path.  The
enumeration oracle weighs all 2^n subsets exactly and confirms the closed
forms, including the one place they deliberately diverge (composite moduli).
"""

from fractions import Fraction

from modsetlab import (
    build_diff_graph,
    build_sum_graph,
    event_diff_missing,
    event_sums_missing,
    oracle_event_probability,
    oracle_moments,
    expected_missing_sums,
    prob_both_sums_missing,
    prob_diff_missing,
    prob_diff_missing_composite,
)


def describe(g):
    k = g.kind
    if k.kind == "path_with_end_loops":
        return f"path with end loops at {list(k.loop_vertices)}"
    if k.kind == "single_cycle":
        return f"single {k.cycle_length}-cycle"
    if k.kind == "disjoint_cycles":
        return f"{k.cycle_count} disjoint {k.cycle_length}-cycles"
    return "other"


def main():
    print("== graph structure ==")
    print(f"sum graph (n=7, targets 2 and 5): {describe(build_sum_graph(7, 2, 5))}")
    print(f"difference graph (n=7, k=2):      {describe(build_diff_graph(7, 2))}")
    print(f"difference graph (n=6, k=2):      {describe(build_diff_graph(6, 2))}")
    print(f"difference graph (n=6, k=3):      {describe(build_diff_graph(6, 3))}")

    p = Fraction(1, 2)
    print("\n== closed forms vs exhaustive enumeration (n = 7, p = 1/2) ==")
    enum = oracle_event_probability(7, p, event_diff_missing(3), include_empty_set=False)
    print(f"P(3 not in A-A | A nonempty): enumeration {enum}, "
          f"formula {prob_diff_missing(7, p)}, equal: {enum == prob_diff_missing(7, p)}")
    enum = oracle_event_probability(7, p, event_sums_missing(0, 1))
    print(f"P(0,1 not in A+A):            enumeration {enum}, "
          f"formula {prob_both_sums_missing(7, p)}, equal: "
          f"{enum == prob_both_sums_missing(7, p)}")
    mom = oracle_moments(7, p)
    print(f"E[S^c] by enumeration:        {mom.E_Sc}, "
          f"formula {expected_missing_sums(7, p)}, equal: "
          f"{mom.E_Sc == expected_missing_sums(7, p)}")
    print(f"(second moments come free:    Var[S^c] = {mom.Var_Sc})")

    print("\n== the composite-modulus formula conditions each cycle separately ==")
    n, k = 6, 2
    formula = prob_diff_missing_composite(n, k, p)
    enum = oracle_event_probability(n, p, event_diff_missing(k), include_empty_set=False)
    print(f"n={n}, k={k}: product formula {formula} vs enumeration "
          f"(nonempty A) {enum}; gap {enum - formula}")
    print("each 3-cycle factor starts its sum at one element, so subsets that")
    print("miss one cycle entirely are excluded by the formula but not by the event")


if __name__ == "__main__":
    main()
