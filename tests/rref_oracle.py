"""Row reduction one row at a time, for small matrices.

codes._rref clears each pivot column from every row in one array step; the
tests hold it to this oracle, which finds the first nonzero entry at or
below the pivot row, scales that row, and clears the column row by row.
"""

from __future__ import annotations

import numpy as np

from kuniform.gf import FiniteField


def oracle_rref(F: FiniteField, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over F and its pivot columns."""
    R = np.array(M, dtype=np.int64)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if R[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        inv = F.inv(int(R[r, c]))
        R[r] = F.mul_arr(R[r], np.full(cols, inv, dtype=np.int64))
        for i in range(rows):
            if i != r and R[i, c]:
                factor = F.neg(int(R[i, c]))
                R[i] = F.add_arr(R[i], F.mul_arr(R[r], np.full(cols, factor, dtype=np.int64)))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots
