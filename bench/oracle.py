"""Independent expected values for the benchmark's jobs.

Nothing here imports latval: every answer is computed from the generated
inputs with separate, deliberately plain code (sorted sweeps, closed forms,
trial division), so a wrong result from the program cannot also be the
expected one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def fr(text) -> Fraction:
    return Fraction(str(text))


# --- interval sets -------------------------------------------------------


def merged_spans(pieces) -> list[tuple[Fraction, Fraction]]:
    """Union of closed spans ``(lo, hi)`` as sorted disjoint spans.

    Boundary kinds carry no length, so for measures every piece can be
    treated as closed.
    """
    out: list[list[Fraction]] = []
    for lo, hi in sorted(pieces):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def union_measure(pieces) -> Fraction:
    return sum((hi - lo for lo, hi in merged_spans(pieces)), Fraction(0))


def symdiff_measure(a, b) -> Fraction:
    """Length of the symmetric difference, by one sweep over all endpoints."""
    events: list[tuple[Fraction, int, int]] = []
    for which, pieces in ((0, a), (1, b)):
        for lo, hi in merged_spans(pieces):
            events.append((lo, which, +1))
            events.append((hi, which, -1))
    events.sort()
    depth = [0, 0]
    total = Fraction(0)
    prev = None
    for x, which, step in events:
        if prev is not None and (depth[0] > 0) != (depth[1] > 0):
            total += x - prev
        depth[which] += step
        prev = x
    return total


def point_in(pieces, x: Fraction) -> bool:
    """Membership in a union of pieces ``(lo, hi, lo_closed, hi_closed)``."""
    for lo, hi, lo_closed, hi_closed in pieces:
        if lo < x < hi or (x == lo and lo_closed) or (x == hi and hi_closed):
            return True
    return False


# --- step functions ------------------------------------------------------


def step_integral(bps, ovals) -> Fraction:
    return sum((v * (bps[i + 1] - bps[i]) for i, v in enumerate(ovals)), Fraction(0))


def _step_open_value(bps, ovals, x: Fraction) -> Fraction:
    """Value on the open gap containing ``x`` (``x`` is never a breakpoint)."""
    if not bps or x < bps[0] or x > bps[-1]:
        return Fraction(0)
    return ovals[bisect_right(bps, x) - 1]


def step_l1_distance(f, g) -> Fraction:
    """Integral of |f - g| over the common refinement of two step functions."""
    grid = sorted(set(f[0]) | set(g[0]))
    total = Fraction(0)
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        diff = _step_open_value(*f, mid) - _step_open_value(*g, mid)
        total += abs(diff) * (hi - lo)
    return total


# --- closed forms --------------------------------------------------------


def sqrt2_convergents(count: int) -> list[Fraction]:
    """The first ``count`` continued-fraction convergents 1, 3/2, 7/5, ..."""
    out = []
    p_prev, p = 1, 1
    q_prev, q = 0, 1
    for _ in range(count):
        out.append(Fraction(p, q))
        p_prev, p = p, 2 * p + p_prev
        q_prev, q = q, 2 * q + q_prev
    return out


def totient(n: int) -> int:
    """Euler's totient by trial division."""
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def ceil_dyadic(x: Fraction, k: int) -> Fraction:
    return Fraction(math.ceil(x * 2**k), 2**k)


def floor_dyadic(x: Fraction, k: int) -> Fraction:
    return Fraction(math.floor(x * 2**k), 2**k)


# --- descriptive-set codes -----------------------------------------------


def cantor_pair(a: int, b: int) -> int:
    """The shifted Cantor diagonal numbering of pairs of naturals >= 1."""
    s = a + b - 2
    return s * (s + 1) // 2 + (b - 1) + 2


def tuple_code(xs) -> int:
    code = 1
    for x in reversed(list(xs)):
        code = cantor_pair(x, code)
    return code


def tree_rank(tree) -> int:
    """Rank of a stump document: leaves 0, every node at least 1."""
    if tree.get("leaf"):
        return 0
    return 1 + max([tree_rank(c) for c in tree["node"]] + [0])
