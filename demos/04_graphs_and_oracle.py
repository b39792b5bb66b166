#!/usr/bin/env python3
"""Pair graphs, their structure, and exact verification by 2^n enumeration.

"Residue k is missing from A-A" is the same as "A is independent in the graph
joining a to a+k"; for missing sums it joins a to t-a for each target t.
Every such graph is a disjoint union of loop-ended paths and cycles, and one
engine weighs its component list.  The enumeration oracle weighs all 2^n
subsets exactly and confirms the engine and the closed forms, including the
one place a closed form deliberately diverges (composite moduli).
"""

from fractions import Fraction

from modsetlab import (
    build_diff_graph,
    build_sum_graph,
    event_diff_missing,
    event_sums_missing,
    independence_probability,
    oracle_event_probability,
    oracle_moments,
    expected_missing_sums,
    prob_both_sums_missing,
    prob_diff_missing,
    prob_diff_missing_composite,
)


def describe(g):
    return ", ".join(f"{count} x {m}-vertex {kind}" + (f" with {loops} end loop(s)" if loops else "")
                     for kind, m, loops, count in g.components)


def main():
    print("== graph structure ==")
    print(f"sum graph (n=7, targets 2 and 5): {describe(build_sum_graph(7, 2, 5))}")
    print(f"difference graph (n=7, k=2):      {describe(build_diff_graph(7, 2))}")
    print(f"difference graph (n=6, k=2):      {describe(build_diff_graph(6, 2))}")
    print(f"difference graph (n=6, k=3):      {describe(build_diff_graph(6, 3))}")
    print(f"sum graph (n=9, targets 0 and 3): {describe(build_sum_graph(9, 0, 3))}")
    print(f"sum graph (n=8, target 2):        {describe(build_sum_graph(8, 2))}")

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
    engine = independence_probability(build_diff_graph(n, k).components, p) - (1 - p) ** n
    print(f"the engine on the two 3-cycles, less the empty set: {engine}, "
          f"equal to the enumeration: {engine == enum}")


if __name__ == "__main__":
    main()
