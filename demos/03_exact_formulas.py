#!/usr/bin/env python3
"""Exact rational evaluation of every closed form in the library.

Everything here is computed with arbitrary-precision rationals: independent
set counts on paths and cycles (and their Lucas-number identity), missing-sum
and missing-difference probabilities, the tail series F(n) with its decay
witness, and the log-domain gauges separating the decay windows.
"""

import math
from fractions import Fraction

from modsetlab import (
    cycle_count,
    dyadic64,
    expected_missing_diffs,
    expected_missing_sums,
    expected_missing_sums_asymptotic,
    f_series,
    gauge_functions,
    lucas,
    path_count,
    prob_both_sums_missing,
    prob_diff_missing,
)


def main():
    print("== independent sets on paths and cycles ==")
    print(f"path of 5, pick 2 non-adjacent:  {path_count(5, 2)} ways")
    print(f"cycle of 7, pick 2 non-adjacent: {cycle_count(7, 2)} ways")
    total = {n: sum(cycle_count(n, k) for k in range(n // 2 + 1)) for n in (5, 10, 20)}
    print(f"summing cycle counts gives Lucas numbers: {total} "
          f"vs L_5={lucas(5)}, L_10={lucas(10)}, L_20={lucas(20)}")

    print("\n== exact missing-element formulas (n = 7, p = 1/2) ==")
    p = Fraction(1, 2)
    print(f"E[S^c]            = {expected_missing_sums(7, p)} "
          f"(first-order form {expected_missing_sums_asymptotic(7, p)} = (1+p) times it)")
    print(f"P(k not in A-A)   = {prob_diff_missing(7, p)} for any k != 0, A nonempty")
    print(f"P(i,j not in A+A) = {prob_both_sums_missing(7, p)} for any i != j")
    rec = expected_missing_diffs(7, p)
    print(f"E[D^c] - n(1-p)^n = {rec.value} <= series bound 2nF(n) = {rec.bound}"
          " (the part from nonempty A)")
    rec = expected_missing_diffs(12, p)
    print(f"E[D^c] at n = 12  = {rec.value + 12 * (1 - p) ** 12}, one term per class gcd(12, k);"
          " composite n has no series bound")

    print("\n== the tail series F(n) and its decay ==")
    print(f"F(4, 1/2) = {f_series(4, p)}")
    for delta in (0.25, 0.4):
        vals = [float(n ** 3 * f_series(n, dyadic64(n ** -delta)))
                for n in (500, 2000, 8000, 32000)]
        trend = "decreasing" if all(b < a for a, b in zip(vals, vals[1:])) else "increasing"
        print(f"n^3 F(n, n^-{delta}): " + ", ".join(f"{v:.2e}" for v in vals)
              + f"  ({trend} at this scale)")
    from modsetlab.exact import f_series_log
    turn = [3 * math.log(n) + f_series_log(n, dyadic64(n ** -0.4))
            for n in (2 ** 20, 2 ** 24)]
    print(f"delta = 0.4 turns over only near n ~ 7.6e5: log(n^3 F) goes "
          f"{turn[0]:.1f} -> {turn[1]:.1f} between n = 2^20 and 2^24")
    n = 30011
    q = dyadic64(n ** -0.5)  # a numerator of about 64 n = 1.9M bits, built by FFT products
    big = f_series(n, q)
    print(f"F({n}, 2^-64 grid) exactly: log F = "
          f"{math.log(big.numerator) - math.log(big.denominator):.9f}, "
          f"log-domain form {f_series_log(n, q):.9f}")
    n, b = 8002, 2 ** 64 - 59  # an odd prime b: _over_power strips gcd(num, b), no gcd with b^n
    q = Fraction(round(b * n ** -0.5), b)
    odd = f_series(n, q)
    print(f"F({n}, 1/(2^64-59) grid) exactly: log F = "
          f"{math.log(odd.numerator) - math.log(odd.denominator):.9f}, "
          f"log-domain form {f_series_log(n, q):.9f}")

    print("\n== decay gauges at n = 10007 ==")
    n = 10007
    for label, p_val in (("p = n^-1/4          ", n ** -0.25),
                         ("p = 0.3 sqrt(ln n/n)", 0.3 * math.sqrt(math.log(n) / n))):
        g = gauge_functions(n, p_val)
        print(f"{label}: log G = {g.log_G:8.2f}, log h = {g.log_h:8.2f}"
              f"  -> {'both vanish' if g.log_G < 0 else 'both blow up'}")


if __name__ == "__main__":
    main()
