"""Orthogonal arrays OA(r, N, d, k) and irredundancy.

An array has strength k when every r x k subarray contains each k-tuple over
the symbol set exactly r/d^k times, and it is irredundant for k when on top
of that any two distinct rows differ in more than k positions, so that
deleting any k columns leaves the remaining rows pairwise distinct.
is_irredundant decides it through the minimum row distance.  Arrays built
from a linear code keep a reference to it so minimum-distance queries can
reuse the code-level enumeration instead of an all-pairs scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from . import codes
from .caps import check_cap
from .errors import KuniformError, NotIrredundant, ParseError, RankDeficient

__all__ = [
    "OrthogonalArray",
    "oa_from_code",
    "verify_strength",
    "oa_min_distance",
    "is_irredundant",
    "delete_columns",
    "trim_to_iroa",
    "load_oa",
    "save_oa",
]


@dataclass
class OrthogonalArray:
    d: int
    rows: np.ndarray  # shape (r, N), dtype int64
    k: int  # claimed strength; verify_strength checks it
    provenance: str = ""
    source_code: codes.LinearCode | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError("rows must be a non-empty 2-d array")
        if self.d < 2:
            raise ValueError(f"symbol count d = {self.d} must be >= 2")
        if rows.min() < 0 or rows.max() >= self.d:
            raise ValueError(f"symbols out of range [0, {self.d})")
        if not 0 <= self.k <= rows.shape[1]:
            raise ValueError(f"claimed strength {self.k} outside [0, {rows.shape[1]}]")
        if self.k > 0 and rows.shape[0] % self.d**self.k:
            raise ValueError(
                f"row count {rows.shape[0]} is not a multiple of d^k = {self.d ** self.k}"
            )
        rows.setflags(write=False)
        self.rows = rows

    @property
    def r(self) -> int:
        return self.rows.shape[0]

    @property
    def N(self) -> int:
        return self.rows.shape[1]

    @property
    def index(self) -> int:
        """The index lambda = r / d^k."""
        return self.r // self.d**self.k

    def __repr__(self) -> str:
        return f"OA({self.r},{self.N},{self.d},{self.k})"


def oa_from_code(C: codes.LinearCode) -> OrthogonalArray:
    """All codewords of C as an OA(q^t, N, q, w_dual - 1).

    The strength comes from the dual distance; for the full space (dual
    distance sentinel inf) the strength saturates at N.  The q^t rows are
    bounded by the oa_rows cap, which codes.codeword_matrix checks.
    """
    if C.t == 0:
        raise ValueError("zero code has a single row; not a useful array")
    rows = codes.codeword_matrix(C)
    wd = codes.dual_distance(C)
    k = C.N if wd == math.inf else min(int(wd) - 1, C.N)
    return OrthogonalArray(
        d=C.q,
        rows=rows,
        k=k,
        provenance=f"codewords of [{C.N},{C.t}]_{C.q}",
        source_code=C,
    )


def verify_strength(A: OrthogonalArray, k: int) -> bool:
    """Exhaustively check strength k over all C(N, k) column subsets."""
    if not 0 <= k <= A.N:
        raise ValueError(f"strength {k} outside [0, {A.N}]")
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


def oa_min_distance(A: OrthogonalArray) -> int | float:
    """Exact minimum Hamming distance between distinct rows; 0 when the
    array has duplicate rows, infinity sentinel for a single-row array.

    Reuses the source code's minimum distance when the rows are exactly a
    linear code's codebook; otherwise runs the pairwise scan (capped).
    """
    if A.r == 1:
        return math.inf
    C = A.source_code
    if C is not None and C.q == A.d and C.q**C.t == A.r:
        return codes.min_distance(C)
    check_cap("oa_pairs", A.r, what=f"pairwise distance scan over {A.r} rows")
    best: int | float = math.inf
    for i in range(A.r - 1):
        dist = np.count_nonzero(A.rows[i + 1 :] != A.rows[i], axis=1)
        m = int(dist.min())
        if m < best:
            best = m
        if best == 0:
            return 0
    return best


def is_irredundant(A: OrthogonalArray, k: int) -> bool:
    """Strength k and minimum row distance > k."""
    return verify_strength(A, k) and oa_min_distance(A) >= k + 1


def delete_columns(A: OrthogonalArray, cols) -> OrthogonalArray:
    """Remove the named columns; strength survives (capped at the new N).

    Minimum distance may drop by at most len(cols).  When the source code's
    matching column slice keeps full rank the sliced code rides along so
    distance queries stay cheap.
    """
    cols = sorted(set(int(c) for c in cols))
    if any(c < 0 or c >= A.N for c in cols):
        raise ValueError(f"column indices out of range for N = {A.N}")
    if len(cols) >= A.N:
        raise ValueError("cannot delete every column")
    keep = [c for c in range(A.N) if c not in cols]
    src = None
    if A.source_code is not None:
        try:
            src = codes.LinearCode(A.source_code.field, A.source_code.G[:, keep])
        except (RankDeficient, ValueError):
            src = None  # sliced generator lost rank; fall back to pairwise
    return OrthogonalArray(
        d=A.d,
        rows=A.rows[:, keep],
        k=min(A.k, len(keep)),
        provenance=f"{A.provenance}; columns {cols} deleted",
        source_code=src,
    )


def trim_to_iroa(A: OrthogonalArray, k: int, target_N: int) -> OrthogonalArray:
    """Trim trailing columns down to target_N, yielding an irredundant OA.

    Requires strength k and minimum distance w > k; the admissible window is
    N - w + k + 1 <= target_N <= N.  The result is re-verified irredundant.
    """
    if not verify_strength(A, k):
        raise NotIrredundant(f"{A} does not have strength {k}")
    w = oa_min_distance(A)
    if w <= k:
        raise NotIrredundant(f"minimum distance {w} is not above k = {k}")
    lo = A.N - (w if w != math.inf else A.N) + k + 1
    lo = max(lo, k + 1)
    if not lo <= target_N <= A.N:
        raise KuniformError(
            f"target {target_N} outside the irredundancy window [{lo}, {A.N}]"
        )
    if target_N == A.N:
        base = A
    else:
        base = delete_columns(A, range(target_N, A.N))
    out = OrthogonalArray(
        d=base.d,
        rows=base.rows,
        k=k,
        provenance=f"{A.provenance}; trimmed to irredundant OA on {target_N} columns",
        source_code=base.source_code,
    )
    if not is_irredundant(out, k):
        raise KuniformError("trimmed array unexpectedly failed irredundancy")
    return out


# ---------------------------------------------------------------------------
# file I/O: header `oa r N d k`, then r rows; `#` comments, blank lines ok


def load_oa(path: str | Path) -> OrthogonalArray:
    path = Path(path)
    return parse_oa(path.read_text(), source=str(path))


def parse_oa(text: str, source: str = "<string>") -> OrthogonalArray:
    lines = list(codes._content_lines(text))
    if not lines:
        raise ParseError(f"{source}: empty array file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "oa":
        raise ParseError(f"{source}:{lineno}: expected header 'oa r N d k'")
    try:
        r, N, d, k = (int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: non-integer header field") from None
    body = lines[1:]
    if len(body) != r:
        raise ParseError(f"{source}: expected {r} rows, found {len(body)}")
    rows = np.zeros((r, N), dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        symbols = line.split()
        if len(symbols) != N:
            raise ParseError(f"{source}:{lineno}: row has {len(symbols)} symbols, expected {N}")
        try:
            rows[i] = [int(s) for s in symbols]
        except ValueError:
            raise ParseError(f"{source}:{lineno}: non-integer symbol") from None
        if rows[i].min() < 0 or rows[i].max() >= d:
            raise ParseError(f"{source}:{lineno}: symbol out of range [0, {d})")
    try:
        return OrthogonalArray(d=d, rows=rows, k=k, provenance=source)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def save_oa(A: OrthogonalArray, path: str | Path) -> None:
    path = Path(path)
    out = [f"oa {A.r} {A.N} {A.d} {A.k}"]
    for row in A.rows:
        out.append(" ".join(str(int(x)) for x in row))
    path.write_text("\n".join(out) + "\n")
