"""Bit-matrix linear algebra over GF(2), in bitset echelon form.

Entries are masked with ``& 1``.  Each column is packed into an ``int``
(bit i = row i) tagged with a bit for its own index above the row bits, and
inserted into a greedy basis left to right: a column outside the span of
those before it is a pivot.  ``rank`` counts the basis; ``solve`` reduces
``rhs`` against it and reads x off the tag bits, which gives the pivot-only
particular solution (every free variable 0); ``relations`` keeps the tag
bits of the columns that reduce to zero, a basis of the left null space,
as lists of indices.
"""
from __future__ import annotations

import numpy as np


def _bitsets(rows: np.ndarray) -> list[int]:
    """Each row of an integer matrix as an int, bit i = entry i & 1."""
    packed = np.packbits(rows & 1, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reduce(v: int, basis: dict[int, int], mask: int) -> int:
    """Clear v's row bits from the top until one has no basis entry."""
    while low := v & mask:
        entry = basis.get(low.bit_length() - 1)
        if entry is None:
            break
        v ^= entry
    return v


def _echelon(cols: list[int], n_rows: int,
             relations: list[int] | None = None) -> dict[int, int]:
    """Greedy left-to-right basis of tagged columns, keyed by pivot row.

    A column that reduces to zero is dropped; with `relations` given, its
    tag bits (itself and the basis columns that sum to it) are appended."""
    mask = (1 << n_rows) - 1
    basis: dict[int, int] = {}
    for j, col in enumerate(cols):
        v = _reduce(col | 1 << (n_rows + j), basis, mask)
        if v & mask:
            basis[(v & mask).bit_length() - 1] = v
        elif relations is not None:
            relations.append(v >> n_rows)
    return basis


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve mat @ x = rhs over GF(2); None if inconsistent."""
    m, n = mat.shape
    *cols, target = _bitsets(np.column_stack([mat, rhs]).T)
    mask = (1 << m) - 1
    v = _reduce(target, _echelon(cols, m), mask)
    if v & mask:
        return None
    # the tag bits, x_0 .. x_(n-1), as a 0/1 vector
    packed = np.frombuffer((v >> m).to_bytes(n // 8 + 1, "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def rank(mat: np.ndarray) -> int:
    """Rank over GF(2), eliminating along the shorter side."""
    vecs = mat if mat.shape[0] < mat.shape[1] else mat.T
    return len(_echelon(_bitsets(vecs), vecs.shape[1]))


def relations(vecs: np.ndarray) -> list[list[int]]:
    """Each row of `vecs` that is a sum of rows before it, as the
    ascending indices of the rows (itself the last) that sum to zero: a
    basis of the left null space, one relation per dependent row."""
    if not len(vecs):
        return []
    found: list[int] = []
    _echelon(_bitsets(vecs), vecs.shape[1], found)
    return [[i for i in range(tags.bit_length()) if tags >> i & 1]
            for tags in found]
