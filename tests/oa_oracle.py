"""Irredundancy by its definition, for small arrays.

An array of strength k is irredundant when deleting any k columns leaves
its rows pairwise distinct.  oa.is_irredundant decides the same through the
minimum row distance, and reads both criteria off the source code of a
code-built array; the tests hold it to this oracle, which scans a copy of
the rows with no code attached.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import numpy as np

from kuniform.oa import OrthogonalArray, verify_strength


def oracle_is_irredundant(A: OrthogonalArray, k: int) -> bool:
    """Strength k and distinct residual rows after deleting each k-subset
    of columns."""
    if not verify_strength(replace(A, source_code=None), k):
        return False
    for cols in combinations(range(A.N), k):
        keep = [c for c in range(A.N) if c not in cols]
        if np.unique(A.rows[:, keep], axis=0).shape[0] != A.r:
            return False
    return True
