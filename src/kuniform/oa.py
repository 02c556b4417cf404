"""Orthogonal arrays OA(r, N, d, k) and irredundancy.

An array has strength k when every r x k subarray contains each k-tuple over
the symbol set exactly r/d^k times, and it is irredundant for k when on top
of that any two distinct rows differ in more than k positions, so that
deleting any k columns leaves the remaining rows pairwise distinct.
check_irredundant decides it through the minimum row distance and names
the criterion that fails.

Arrays built from a linear code keep a reference to it, and both criteria
are then read off the code: its codebook has strength exactly w_dual - 1
(Delsarte; Hedayat, Sloane & Stufken, Orthogonal Arrays, Thm 3.29) and
minimum row distance w, both from one weight enumerator.  The source code
is derived, never passed in: only oa_from_code, delete_columns and
trim_to_iroa attach one, to rows they built as its codewords in message
order, and any other array, dataclasses.replace included, has none.  Arrays
without a code are counted over all C(N, k) column subsets in blocks
(_balanced, which states' counting check shares) and scanned pairwise for
their distance: arrays loaded from files, and column slices whose code lost
rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from . import codes, textio
from .caps import check_cap
from .errors import KuniformError, NotIrredundant, ParseError, RankDeficient

__all__ = [
    "OrthogonalArray",
    "oa_from_code",
    "verify_strength",
    "oa_min_distance",
    "is_irredundant",
    "check_irredundant",
    "delete_columns",
    "trim_to_iroa",
    "load_oa",
    "save_oa",
]

# entries of each (subsets, rows) array of a counting block, unless one
# subset's row is longer
_COUNT_BLOCK = 1 << 14


@dataclass(eq=False)
class OrthogonalArray:
    """An r x N array over d symbols with claimed strength k.  Equality
    compares d, k and the rows; provenance and source_code are not
    compared."""

    d: int
    rows: np.ndarray  # shape (r, N), dtype int64
    k: int  # claimed strength; verify_strength checks it
    provenance: str = ""
    # the code whose codewords the rows are, in message order; set only by
    # _coded, so a constructed or replaced array has none
    source_code: codes.LinearCode | None = field(default=None, init=False, repr=False, compare=False)

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

    def __eq__(self, other):
        if not isinstance(other, OrthogonalArray):
            return NotImplemented
        return (self.d, self.k) == (other.d, other.k) and np.array_equal(self.rows, other.rows)

    __hash__ = None

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


def _coded(d: int, rows: np.ndarray, k: int, provenance: str, C) -> OrthogonalArray:
    """An array whose rows the caller built as the codewords of C in message
    order, with C as its source code."""
    A = OrthogonalArray(d=d, rows=rows, k=k, provenance=provenance)
    A.source_code = C
    return A


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
    return _coded(C.q, rows, k, f"codewords of [{C.N},{C.t}]_{C.q}", C)


def verify_strength(A: OrthogonalArray, k: int) -> bool:
    """Whether A has strength k.

    An array with a source code has strength exactly w_dual - 1, so the
    answer is k < dual_distance; any other array is counted over all C(N, k)
    column subsets, in blocks.
    """
    if not 0 <= k <= A.N:
        raise ValueError(f"strength {k} outside [0, {A.N}]")
    if A.source_code is not None:
        return k < codes.dual_distance(A.source_code)
    if A.r % A.d**k:
        return False
    columns = np.ascontiguousarray(A.rows.T)
    blocks = _in_blocks(combinations(range(A.N), k), A.r)
    return all(_balanced(columns, A.d, np.array(block, dtype=np.int64)).all() for block in blocks)


def _in_blocks(subsets, width: int):
    """The subsets in order, in lists of at most max(1, _COUNT_BLOCK //
    width), so that a block's (subsets, width) arrays hold at most
    max(width, _COUNT_BLOCK) entries."""
    while block := list(islice(subsets, max(1, _COUNT_BLOCK // width))):
        yield block


def _balanced(columns: np.ndarray, d: int, block: np.ndarray) -> np.ndarray:
    """A bool mask over a (B, k) block of column subsets S: where the rows
    take each of the d^k values on S exactly r / d^k times.  `columns` is
    the (N, r) transpose of rows over d symbols, and d^k divides r."""
    B, k = block.shape
    r, dim = columns.shape[1], d**k
    kept = np.zeros((B, r), dtype=np.int64)
    for j in range(k):
        kept *= d
        kept += columns[block[:, j]]
    kept += np.arange(0, B * dim, dim)[:, None]
    return (np.bincount(kept.reshape(-1), minlength=B * dim).reshape(B, dim) == r // dim).all(axis=1)


def oa_min_distance(A: OrthogonalArray) -> int | float:
    """Exact minimum Hamming distance between distinct rows; 0 when the
    array has duplicate rows, infinity sentinel for a single-row array.

    Reuses the source code's minimum distance when the array has one;
    otherwise runs the pairwise scan (capped).
    """
    if A.r == 1:
        return math.inf
    if A.source_code is not None:
        return codes.min_distance(A.source_code)
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


def check_irredundant(A: OrthogonalArray, k: int) -> int | float:
    """The minimum row distance of A, once A is known irredundant for k.

    Raises NotIrredundant naming the first criterion that fails: strength
    k, then minimum row distance above k.
    """
    if not verify_strength(A, k):
        raise NotIrredundant(f"{A} does not have strength {k}")
    w = oa_min_distance(A)
    if w <= k:
        raise NotIrredundant(f"minimum row distance {w} is not above k = {k}")
    return w


def is_irredundant(A: OrthogonalArray, k: int) -> bool:
    """Strength k and minimum row distance > k."""
    try:
        check_irredundant(A, k)
    except NotIrredundant:
        return False
    return True


def delete_columns(A: OrthogonalArray, cols) -> OrthogonalArray:
    """Remove the named columns; strength survives (capped at the new N).

    Minimum distance may drop by at most len(cols).  When the source code's
    matching column slice keeps full rank the sliced code rides along so
    strength and distance queries stay cheap.
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
    # message m of the sliced code gives m G[:, keep], the kept part of row m
    provenance = f"{A.provenance}; columns {cols} deleted"
    return _coded(A.d, A.rows[:, keep], min(A.k, len(keep)), provenance, src)


def trim_to_iroa(A: OrthogonalArray, k: int, target_N: int) -> OrthogonalArray:
    """Trim trailing columns down to target_N, yielding an irredundant OA.

    Requires strength k and minimum distance w > k; the admissible window is
    N - w + k + 1 <= target_N <= N.  The result is re-verified irredundant,
    from the trimmed code's distances when the array has a code.
    """
    w = check_irredundant(A, k)
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
    provenance = f"{A.provenance}; trimmed to irredundant OA on {target_N} columns"
    out = _coded(base.d, base.rows, k, provenance, base.source_code)
    if not is_irredundant(out, k):
        raise KuniformError("trimmed array unexpectedly failed irredundancy")
    return out


# ---------------------------------------------------------------------------
# file I/O: header `oa r N d k`, then r rows of N symbols


def load_oa(path: str | Path) -> OrthogonalArray:
    path = Path(path)
    return parse_oa(path.read_text(), source=str(path))


def parse_oa(text: str, source: str = "<string>") -> OrthogonalArray:
    lineno, (r, N, d, k), body = textio.read_header(text, source, "array", "oa r N d k")
    rows = textio.read_symbols(body, lineno, source, r, N, d, f"symbol out of range [0, {d})", "rows")
    try:
        return OrthogonalArray(d=d, rows=rows, k=k, provenance=source)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def save_oa(A: OrthogonalArray, path: str | Path) -> None:
    textio.write_rows(path, f"oa {A.r} {A.N} {A.d} {A.k}", " ".join(["%d"] * A.N) + "\n", A.r, A.rows.__getitem__)
