"""Strength and irredundancy by their definitions, for small arrays.

An array has strength k when the rows take every k-tuple on each set of k
columns equally often, and it is irredundant when on top of that deleting
any k columns leaves its rows pairwise distinct.  oa.verify_strength counts
blocks of column subsets at once, and oa.is_irredundant decides
irredundancy through the minimum row distance; both read their answers off
the source code of a code-built array.  The tests hold them to this
oracle, which scans one column subset at a time and calls none of them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from kuniform.oa import OrthogonalArray


def oracle_scan_strength(A: OrthogonalArray, k: int) -> bool:
    """Strength k by counting the k-tuples of every column subset."""
    if k == 0:
        return True
    block = A.d**k
    if A.r % block:
        return False
    lam = A.r // block
    weights = A.d ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for cols in combinations(range(A.N), k):
        keys = A.rows[:, cols] @ weights
        counts = np.bincount(keys, minlength=block)
        if counts.size > block or not np.all(counts == lam):
            return False
    return True


def oracle_is_irredundant(A: OrthogonalArray, k: int) -> bool:
    """Strength k and distinct residual rows after deleting each k-subset
    of columns."""
    if not oracle_scan_strength(A, k):
        return False
    for cols in combinations(range(A.N), k):
        keep = [c for c in range(A.N) if c not in cols]
        if np.unique(A.rows[:, keep], axis=0).shape[0] != A.r:
            return False
    return True
