"""Pair graphs for missing-sum/difference events, plus a 2^n enumeration oracle.

The graph with an edge {a, b} whenever a+b hits one of two target sums (or
a-b hits a target difference) turns "those targets are missing" into "A is an
independent set".  For prime n the sum graph is a path with a loop on each
endpoint and the difference graph is a single n-cycle; for composite n the
difference graph splits into gcd(n, k) cycles of length n / gcd(n, k).

The oracle enumerates all 2^n subsets with weight p^|A| (1-p)^(n-|A|) and is
exact: satisfying subsets are tallied per cardinality as integers and the
probability is assembled once at the end, so partial tallies can be merged in
any order.  Masks run through numpy as uint32 chunks of _CHUNK, so an event
predicate ``event(mask, n)`` must accept a Python int or a uint32 array and use
only operators that work on both (&, |, <<, >>, ==; not `and`).  The built-in
predicates are the negation and rotation kernel of `sets` (`_neg`,
`_or_rotations`), which take either.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .exact import _as_probability, _over_power
from .sets import _neg, _or_rotations, _rotl

ORACLE_MAX_N = 22  # masks are uint32, so the cap must stay below 32

__all__ = [
    "PairGraph",
    "Classification",
    "build_sum_graph",
    "build_diff_graph",
    "event_diff_missing",
    "event_sum_missing",
    "event_sums_missing",
    "oracle_event_probability",
    "oracle_moments",
    "OracleMoments",
]


@dataclass(frozen=True)
class Classification:
    kind: str  # "path_with_end_loops" | "single_cycle" | "disjoint_cycles" | "other"
    cycle_count: int | None = None
    cycle_length: int | None = None
    loop_vertices: tuple[int, ...] = ()


@dataclass(frozen=True)
class PairGraph:
    """Undirected graph on vertices 0..n-1; loops allowed; edges deduplicated."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def kind(self) -> Classification:
        """Structural classification from degrees and connectivity alone."""
        return _classify(self.n, self.edges)


def _normalize_edges(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(a, b) if a <= b else (b, a) for a, b in pairs}))


def build_sum_graph(n: int, i: int, j: int) -> PairGraph:
    """Edges {a, b} with a+b = i or a+b = j (mod n); a loop at v means 2v hits a target."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    if (i - j) % n == 0:
        raise ParameterError("the two target sums must differ")
    return PairGraph(n, _normalize_edges((a, (s - a) % n) for s in (i, j) for a in range(n)))


def build_diff_graph(n: int, k: int) -> PairGraph:
    """Edges {a, a+k mod n} for all a; loops impossible since k != 0."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    if k % n == 0:
        raise ParameterError("k must be a nonzero residue")
    return PairGraph(n, _normalize_edges((a, (a + k) % n) for a in range(n)))


def _classify(n: int, edges: tuple[tuple[int, int], ...]) -> Classification:
    loops = tuple(sorted(a for a, b in edges if a == b))
    simple = [(a, b) for a, b in edges if a != b]
    root = list(range(n))  # union-find forest over the loop-free graph

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    degree = [0] * n
    for a, b in simple:
        degree[a] += 1
        degree[b] += 1
        root[find(a)] = find(b)
    sizes = list(Counter(map(find, range(n))).values())  # component sizes

    # one component, a path of all n vertices with loops exactly at its two ends
    if (len(loops) == 2 and len(sizes) == 1 and len(simple) == n - 1
            and max(degree, default=0) <= 2
            and [v for v in range(n) if degree[v] <= 1] == list(loops)):
        return Classification("path_with_end_loops", loop_vertices=loops)

    # equal-size components, all cycles: degree 2 each, or one edge for the
    # collapsed double edge of a 2-cycle
    m = min(sizes, default=0)
    if not loops and m >= 2 and max(sizes) == m and all(d == min(m - 1, 2) for d in degree):
        kind = "single_cycle" if len(sizes) == 1 else "disjoint_cycles"
        return Classification(kind, cycle_count=len(sizes), cycle_length=m)
    return Classification("other", loop_vertices=loops)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle


def event_diff_missing(k: int) -> Callable:
    """Predicate: k is not in A-A, i.e. A misses A rotated by k."""
    return lambda mask, n: mask & _or_rotations(n, 1 << k % n, mask) == 0


def event_sum_missing(i: int) -> Callable:
    """Predicate: i is not in A+A, i.e. A misses -A rotated by i."""
    return lambda mask, n: mask & _or_rotations(n, 1 << i % n, _neg(mask, n)) == 0


def event_sums_missing(i: int, j: int) -> Callable:
    """Predicate: neither i nor j is in A+A."""
    return lambda mask, n: (
        mask & _or_rotations(n, (1 << i % n) | (1 << j % n), _neg(mask, n)) == 0)


_CHUNK = 4096  # masks per uint32 chunk: large enough to amortise numpy, small in memory


def _mask_chunks(n: int, start: int = 0):
    for lo in range(start, 1 << n, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, 1 << n), dtype=np.uint32)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Bits set in each uint32 (SWAR)."""
    x = x - ((x >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return (x * 0x01010101) >> 24


def _check_oracle_n(n: int) -> None:
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"enumeration oracle capped at n <= {ORACLE_MAX_N}, got {n}")


def _weigh(counts, p: Fraction, n: int) -> Fraction:
    """sum_c counts[c] p^c (1-p)^(n-c), formed as one integer over b^n."""
    a, b = p.numerator, p.denominator
    d = b - a
    return _over_power(sum(int(t) * a ** c * d ** (n - c)
                           for c, t in enumerate(counts) if t), b, n)


def oracle_event_probability(n: int, p, event: Callable,
                             include_empty_set: bool = True) -> Fraction:
    """Exact P(event) over all 2^n subsets, weight p^|A| (1-p)^(n-|A|).

    ``event(masks, n)`` gets uint32 chunks of masks and returns a boolean
    array (see the module docstring).  Satisfying subsets are counted per
    cardinality in int64 and weighted once at the end.
    ``include_empty_set=False`` drops A = empty from the event.
    """
    _check_oracle_n(n)
    p = _as_probability(p)
    counts = np.zeros(n + 1, dtype=np.int64)
    for masks in _mask_chunks(n, 0 if include_empty_set else 1):
        counts += np.bincount(_popcount(masks[event(masks, n)]), minlength=n + 1)
    return _weigh(counts, p, n)


@dataclass(frozen=True)
class OracleMoments:
    """Exact first and second moments of the missing counts S^c and D^c."""

    E_Sc: Fraction
    E_Dc: Fraction
    Var_Sc: Fraction
    Var_Dc: Fraction


def oracle_moments(n: int, p) -> OracleMoments:
    """Exact moments of S^c = n - |A+A| and D^c = n - |A-A| by full enumeration.

    Per uint32 chunk of masks, A+A and A-A are the OR over a in A of A and -A
    rotated by a; the (|A|, missing count) pairs are tallied in int64.
    """
    _check_oracle_n(n)
    p = _as_probability(p)
    full = (1 << n) - 1
    m1 = n + 1
    tally_s, tally_d = np.zeros((2, m1 * m1), dtype=np.int64)
    for masks in _mask_chunks(n):
        neg = _neg(masks, n)
        s_acc, d_acc = np.zeros((2, masks.size), dtype=np.uint32)
        for a in range(n):
            member = (masks >> a) & 1
            s_acc |= _rotl(masks, a, n, full) * member
            d_acc |= _rotl(neg, a, n, full) * member
        row = _popcount(masks) * m1
        tally_s += np.bincount(row + (n - _popcount(s_acc)), minlength=m1 * m1)
        tally_d += np.bincount(row + (n - _popcount(d_acc)), minlength=m1 * m1)
    miss = np.arange(m1, dtype=np.int64)

    def moments(tally):
        t = tally.reshape(m1, m1)
        mean = _weigh(t @ miss, p, n)
        return mean, _weigh(t @ (miss * miss), p, n) - mean * mean

    e_sc, var_sc = moments(tally_s)
    e_dc, var_dc = moments(tally_d)
    return OracleMoments(E_Sc=e_sc, E_Dc=e_dc, Var_Sc=var_sc, Var_Dc=var_dc)
