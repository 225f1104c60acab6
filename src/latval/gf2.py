"""Subspaces of GF(2)^n as row-reduced bit-matrix bases.

Rows are ints used as bit masks (bit i = coordinate i), kept in reduced
row-echelon form so equal subspaces have equal representations.  Join is
row reduction of the stacked bases; meet uses the Zassenhaus block trick.
Ambient dimension is capped at 24 to keep exhaustive test oracles feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_AMBIENT = 24


class AmbientMismatch(ValueError):
    pass


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # back-substitute so every pivot column is cleared above
    basis.sort(reverse=True)
    for i in range(len(basis)):
        pivot = basis[i].bit_length() - 1
        for j in range(i):
            if basis[j] >> pivot & 1:
                basis[j] ^= basis[i]
    return tuple(basis)


@dataclass(frozen=True)
class GF2Subspace:
    ambient: int
    rows: tuple[int, ...]  # RREF, nonzero, decreasing

    def __post_init__(self):
        if not 1 <= self.ambient <= MAX_AMBIENT:
            raise ValueError(f"ambient dimension must be in 1..{MAX_AMBIENT}")
        for r in self.rows:
            if r <= 0 or r >> self.ambient:
                raise ValueError(f"row {r:b} outside ambient dimension {self.ambient}")

    @staticmethod
    def from_vectors(ambient: int, vectors: Iterable[int]) -> "GF2Subspace":
        vecs = list(vectors)
        for v in vecs:
            if v < 0 or v >> ambient:
                raise ValueError(f"vector {v} outside ambient dimension {ambient}")
        return GF2Subspace(ambient, _rref(vecs))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector: int) -> bool:
        for b in self.rows:
            vector = min(vector, vector ^ b)
        return vector == 0

    def vectors(self) -> list[int]:
        """All 2^dim member vectors; for small test oracles only."""
        out = [0]
        for r in self.rows:
            out += [v ^ r for v in out]
        return sorted(out)

    def __str__(self) -> str:
        rows = ", ".join(format(r, f"0{self.ambient}b") for r in self.rows)
        return f"span[{rows}]"


def _check_pair(u: GF2Subspace, w: GF2Subspace) -> None:
    if u.ambient != w.ambient:
        raise AmbientMismatch(f"ambient {u.ambient} vs {w.ambient}")


def gf2_join(u: GF2Subspace, w: GF2Subspace) -> GF2Subspace:
    _check_pair(u, w)
    return GF2Subspace.from_vectors(u.ambient, u.rows + w.rows)


def gf2_meet(u: GF2Subspace, w: GF2Subspace) -> GF2Subspace:
    """Intersection via the Zassenhaus block matrix [[u|u],[w|0]]."""
    _check_pair(u, w)
    n = u.ambient
    block = [(r << n) | r for r in u.rows] + [r << n for r in w.rows]
    reduced = _rref(block)
    low_mask = (1 << n) - 1
    inter = [r & low_mask for r in reduced if r >> n == 0]
    return GF2Subspace.from_vectors(n, inter)


def gf2_leq(u: GF2Subspace, w: GF2Subspace) -> bool:
    _check_pair(u, w)
    return all(w.contains(r) for r in u.rows)


def span(ambient: int, *vectors: int) -> GF2Subspace:
    return GF2Subspace.from_vectors(ambient, vectors)


def unit(ambient: int, i: int) -> int:
    """The i-th standard basis vector (1-indexed) as a bit mask."""
    if not 1 <= i <= ambient:
        raise ValueError(f"index {i} outside 1..{ambient}")
    return 1 << (i - 1)
