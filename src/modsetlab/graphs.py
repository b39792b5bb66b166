"""Pair graphs for missing-sum/difference events, plus a 2^n enumeration oracle.

The graph with an edge {a, b} whenever a+b hits one or two target sums (or
a-b hits a target difference) turns "those targets are missing" into "A is an
independent set".  A vertex a has neighbours only among t - a for the targets
t, and a loop at a uses one of them, so every pair graph is a disjoint union
of loop-ended paths and loop-free cycles: `PairGraph.components` lists them
and `exact.independence_probability` weighs that list.  For prime n the
two-target sum graph is one path with a loop on each end and the difference
graph is one n-cycle; for composite n the difference graph splits into
gcd(n, k) cycles of length n / gcd(n, k).

The oracle weighs every one of the 2^n subsets by p^|A| (1-p)^(n-|A|) and is
exact: subsets are tallied per cardinality as integers, so partial tallies can
be merged in any order, and `_weigh` makes the tallies one integer over b^n.
The event oracle enumerates all 2^n masks.  The moments oracle enumerates
only the 2^(n-1) sets that contain 0, or at prime n the 2^(n-2) that contain
0 and 1, and scales their counts back by translation or affine symmetry
(`_oracle_tallies`).  Masks run through numpy as uint32 chunks of _CHUNK, so
an event predicate ``event(mask, n)`` must accept a Python int or a uint32
array and use only operators that work on both (&, |, <<, >>, ==; not `and`).
The built-in predicates are the negation and rotation kernel of `sets`
(`_neg`, `_or_rotations`), which take either.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .exact import _over_power, _weights, is_prime
from .sets import _neg, _or_rotations, _rotl

ORACLE_MAX_N = 22  # masks are uint32, so the cap must stay below 32

__all__ = [
    "PairGraph",
    "build_sum_graph",
    "build_diff_graph",
    "event_diff_missing",
    "event_sums_missing",
    "oracle_event_probability",
    "oracle_moments",
    "OracleMoments",
]


@dataclass(frozen=True)
class PairGraph:
    """Undirected graph on vertices 0..n-1; loops allowed; edges deduplicated."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def components(self) -> tuple[tuple[str, int, int, int], ...]:
        """Sorted (kind, vertices, end loops, count) per distinct component,
        kind "path" or "cycle"; a 2-cycle is one edge, so a 2-vertex path.
        A graph that is not loop-ended paths and cycles raises ParameterError."""
        return _components(self.n, self.edges)


def _normalize_edges(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(a, b) if a <= b else (b, a) for a, b in pairs}))


def _check_sum_targets(targets: tuple[int, ...]) -> None:
    """A sum graph, and so a sum event, has one or two target sums."""
    if len(targets) not in (1, 2):
        raise ParameterError(f"a sum graph or event needs one or two target sums, "
                             f"got {len(targets)}")


def build_sum_graph(n: int, *targets: int) -> PairGraph:
    """Edges {a, b} with a+b at one or two targets (mod n); a loop: 2a hits one."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    _check_sum_targets(targets)
    if len({t % n for t in targets}) < len(targets):
        raise ParameterError("the two target sums must differ")
    return PairGraph(n, _normalize_edges((a, (s - a) % n) for s in targets for a in range(n)))


def build_diff_graph(n: int, k: int) -> PairGraph:
    """Edges {a, a+k mod n} for all a; loops impossible since k != 0."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if k % n == 0:
        raise ParameterError("k must be a nonzero residue")
    return PairGraph(n, _normalize_edges((a, (a + k) % n) for a in range(n)))


def _components(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    root = list(range(n))  # union-find forest over the loop-free edges

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    degree, looped = [0] * n, [False] * n
    for a, b in edges:
        if a == b:
            looped[a] = True
        else:
            degree[a] += 1
            degree[b] += 1
            root[find(a)] = find(b)
    # a connected graph with no degree above 2 is a path or a cycle, and a
    # loop may only sit on a path's end
    if any(d > 2 or loop and d == 2 for d, loop in zip(degree, looped)):
        raise ParameterError("pair graph is not a union of loop-ended paths and cycles")
    tally: dict[int, tuple[int, int, int]] = {}  # root -> (vertices, degree sum, loops)
    for v in range(n):
        m, deg, loops = tally.get(r := find(v), (0, 0, 0))
        tally[r] = (m + 1, deg + degree[v], loops + looped[v])
    shapes = Counter(("cycle" if deg == 2 * m else "path", m, loops)
                     for m, deg, loops in tally.values())
    return tuple(sorted((*shape, count) for shape, count in shapes.items()))


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle


def event_diff_missing(k: int) -> Callable:
    """Predicate: k is not in A-A, i.e. A misses A rotated by k."""
    return lambda mask, n: mask & _or_rotations(n, 1 << k % n, mask) == 0


def event_sums_missing(*targets: int) -> Callable:
    """Predicate: none of one or two target sums (as in `build_sum_graph`) is in
    A+A, i.e. A misses -A rotated by each target."""
    _check_sum_targets(targets)
    return lambda mask, n: (
        mask & _or_rotations(n, sum({1 << t % n for t in targets}), _neg(mask, n)) == 0)


_CHUNK = 16384  # masks per uint32 chunk: large enough to amortise numpy, small in memory


def _mask_chunks(n: int, start: int = 0, low: int = 0):
    """uint32 chunks of the n-bit masks whose `low` lowest bits are set, from
    the start-th such mask on, in increasing order."""
    ones, end = (1 << low) - 1, 1 << (n - low)
    for lo in range(start, end, _CHUNK):
        free = np.arange(lo, min(lo + _CHUNK, end), dtype=np.uint32)
        yield (free << low) | ones if low else free


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


def _weigh(counts, a: int, d: int, n: int) -> int:
    """sum_c counts[c] a^c d^(n-c): b^n sum_c counts[c] p^c (1-p)^(n-c) for p = a/b."""
    return sum(int(t) * a ** c * d ** (n - c) for c, t in enumerate(counts) if t)


def oracle_event_probability(n: int, p, event: Callable,
                             include_empty_set: bool = True) -> Fraction:
    """Exact P(event) over all 2^n subsets, weight p^|A| (1-p)^(n-|A|).

    ``event(masks, n)`` gets uint32 chunks of masks and returns a boolean
    array (see the module docstring).  Satisfying subsets are counted per
    cardinality in int64 and weighted once at the end.
    ``include_empty_set=False`` drops A = empty from the event.
    """
    _check_oracle_n(n)
    a, b, d = _weights(p)
    counts = np.zeros(n + 1, dtype=np.int64)
    for masks in _mask_chunks(n, 0 if include_empty_set else 1):
        counts += np.bincount(_popcount(masks[event(masks, n)]), minlength=n + 1)
    return _over_power(_weigh(counts, a, d, n), b, n)


@dataclass(frozen=True)
class OracleMoments:
    """Exact first and second moments of the missing counts S^c and D^c."""

    E_Sc: Fraction
    E_Dc: Fraction
    Var_Sc: Fraction
    Var_Dc: Fraction


def _oracle_tallies(n: int) -> np.ndarray:
    """Integer (|A|, S^c) and (|A|, D^c) counts over all 2^n subsets of Z/nZ,
    as a (2, n+1, n+1) int64 array: [0] for S^c, [1] for D^c.  No p enters.

    |A|, |A+A| and |A-A| are kept by every translation, and at prime n by
    every affine map x -> ux + v, u != 0, which carries any two distinct
    residues to 0 and 1.  So only the 2^(n-1) sets that contain 0 are
    enumerated, or at prime n the 2^(n-2) that contain 0 and 1, and each
    count of m-sets is scaled back by N[m] = (n/m) N_0[m], or at prime n by
    N[m] = n(n-1)/(m(m-1)) N_01[m].  The empty set and, at prime n, the n
    singletons are added in closed form.  A division that leaves a remainder
    raises AssertionError.  Per uint32 chunk, A+A and A-A are the OR over a
    in A of A and -A rotated by a.
    """
    low = 2 if n >= 2 and is_prime(n) else 1  # residues 0..low-1 are in every set enumerated
    full = (1 << n) - 1
    m1 = n + 1
    tally = np.zeros((2, m1 * m1), dtype=np.int64)
    for masks in _mask_chunks(n, low=low):
        neg = _neg(masks, n)
        s_acc, d_acc = np.zeros((2, masks.size), dtype=np.uint32)
        for a in range(n):
            member = (masks >> a) & 1
            s_acc |= _rotl(masks, a, n, full) * member
            d_acc |= _rotl(neg, a, n, full) * member
        row = _popcount(masks) * m1
        tally[0] += np.bincount(row + (n - _popcount(s_acc)), minlength=m1 * m1)
        tally[1] += np.bincount(row + (n - _popcount(d_acc)), minlength=m1 * m1)
    tally = tally.reshape(2, m1, m1)
    # pairs (m-set, ordered low-tuple of its members), counted both ways:
    # perm(m, low) N[m] = perm(n, low) N_0[m] (or N_01[m])
    picks = np.array([math.perm(m, low) for m in range(low, m1)], dtype=np.int64)[:, None]
    scaled, rest = np.divmod(tally[:, low:] * math.perm(n, low), picks)
    if rest.any():
        raise AssertionError(f"oracle orbit counts at n = {n} do not divide exactly")
    tally[:, low:] = scaled
    tally[:, 0, n] = 1  # the empty set misses every sum and difference
    if low == 2:
        tally[:, 1, n - 1] = n  # a singleton {a} has A+A = {2a} and A-A = {0}
    return tally


def oracle_moments(n: int, p) -> OracleMoments:
    """Exact moments of S^c = n - |A+A| and D^c = n - |A-A| over all 2^n subsets.

    The p-free tallies of `_oracle_tallies`, which enumerates only the sets
    that contain 0 (at prime n, 0 and 1) and scales their counts back by
    symmetry, are weighed once each: with m1 and m2 the weights of S^c and
    (S^c)^2 over b^n, E = m1 / b^n and Var = (b^n m2 - m1^2) / b^(2n).
    """
    _check_oracle_n(n)
    a, b, d = _weights(p)
    miss = np.arange(n + 1, dtype=np.int64)

    def moments(t):
        m1, m2 = _weigh(t @ miss, a, d, n), _weigh(t @ (miss * miss), a, d, n)
        return _over_power(m1, b, n), _over_power(b ** n * m2 - m1 * m1, b, 2 * n)

    (e_sc, var_sc), (e_dc, var_dc) = map(moments, _oracle_tallies(n))
    return OracleMoments(E_Sc=e_sc, E_Dc=e_dc, Var_Sc=var_sc, Var_Dc=var_dc)
