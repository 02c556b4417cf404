"""Linear [N, t, w]_q codes: construction, duals, exact distances, file I/O.

A LinearCode holds a full-rank generator matrix over a FiniteField.  Minimum
distance and dual distance are computed exactly from one pair of weight
distributions: the side of smaller dimension, C or its dual, is enumerated,
and the other side follows from the MacWilliams transform.  Both are cached
write-once: each value is computed locally first and published with a
single attribute store, so concurrent readers never observe a partial result.
Distances are never stored in code files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import textio
from .caps import check_cap
from .errors import FieldMismatch, KuniformError, ParseError, RankDeficient
from .gf import FiniteField, field_new

__all__ = [
    "LinearCode",
    "ParityCheck",
    "mds_code",
    "dual",
    "parity_check",
    "min_distance",
    "dual_distance",
    "direct_sum",
    "is_self_dual",
    "codeword_matrix",
    "load_code",
    "save_code",
    "load_bundled_code",
    "BUNDLED_CODES",
]


@dataclass
class LinearCode:
    """A linear code given by a t x N generator matrix of full row rank.

    The degenerate zero code (t = 0) is allowed so that dual() is total; its
    minimum distance is the infinity sentinel.
    """

    field: FiniteField
    G: np.ndarray  # shape (t, N), dtype int64, symbols in [0, q)
    _w: int | float | None = None
    _w_dual: int | float | None = None

    def __post_init__(self):
        G = np.asarray(self.G, dtype=np.int64)
        if G.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
        t, N = G.shape
        if N < 1:
            raise ValueError("code length must be positive")
        if t > N:
            raise ValueError(f"dimension {t} exceeds length {N}")
        if G.size and (G.min() < 0 or G.max() >= self.field.order):
            raise ValueError(f"symbols out of range for {self.field}")
        if t > 0 and _rank(self.field, G) != t:
            raise RankDeficient(f"generator matrix has rank < {t}")
        G.setflags(write=False)
        self.G = G

    @property
    def N(self) -> int:
        return self.G.shape[1]

    @property
    def t(self) -> int:
        return self.G.shape[0]

    @property
    def q(self) -> int:
        return self.field.order

    def __repr__(self) -> str:
        return f"LinearCode([{self.N},{self.t}]_{self.q})"


@dataclass(frozen=True)
class ParityCheck:
    """Parity-check matrix H with H G^T = 0 and rank N - t."""

    field: FiniteField
    H: np.ndarray


# ---------------------------------------------------------------------------
# row reduction over a finite field


def _rref(F: FiniteField, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced copy, pivot columns)."""
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


def _rank(F: FiniteField, M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    _, pivots = _rref(F, M)
    return len(pivots)


def _matmul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over F (small matrices; scalar loops are fine here)."""
    n, k = A.shape
    k2, m = B.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for s in range(k):
                acc = F.add(acc, F.mul(int(A[i, s]), int(B[s, j])))
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# construction


def mds_code(F: FiniteField, t: int) -> LinearCode:
    """Extended Reed-Solomon [q+1, t, q-t+2]_q code, 1 <= t <= q+1.

    Columns are the point-at-infinity column (0, ..., 0, 1) followed by the
    evaluation vectors (1, x, ..., x^(t-1)) at every field point in
    descending element order.  This layout makes mds_code(GF(3), 2)
    reproduce the 9x4 reference array row for row; every distance and
    duality property is independent of the column order.
    """
    q = F.order
    if not 1 <= t <= q + 1:
        raise ValueError(f"t = {t} outside [1, {q + 1}]")
    G = np.zeros((t, q + 1), dtype=np.int64)
    G[t - 1, 0] = 1  # infinity column
    for j, x in enumerate(range(q - 1, -1, -1)):
        acc = 1
        for i in range(t):
            G[i, j + 1] = acc
            acc = F.mul(acc, x)
    return LinearCode(F, G)


def parity_check(C: LinearCode) -> ParityCheck:
    """Parity-check matrix of C, verified to annihilate G."""
    F, G, t, N = C.field, C.G, C.t, C.N
    if t == 0:
        H = np.eye(N, dtype=np.int64)
        return ParityCheck(F, H)
    R, pivots = _rref(F, G)
    free = [c for c in range(N) if c not in pivots]
    H = np.zeros((N - t, N), dtype=np.int64)
    for i, fc in enumerate(free):
        H[i, fc] = 1
        for r, pc in enumerate(pivots):
            H[i, pc] = F.neg(int(R[r, fc]))
    if H.size and np.any(_matmul(F, H, G.T)):
        raise KuniformError("parity check failed to annihilate the generator")
    return ParityCheck(F, H)


def dual(C: LinearCode) -> LinearCode:
    """The dual code under the standard bilinear form.

    dual of the full space is the zero code (t = 0, distance sentinel inf).
    """
    H = parity_check(C).H
    return LinearCode(C.field, H.reshape(C.N - C.t, C.N))


# ---------------------------------------------------------------------------
# codeword enumeration


def codeword_matrix(C: LinearCode) -> np.ndarray:
    """All q^t codewords as a (q^t, N) array, message-order enumeration.

    These are the rows of oa.oa_from_code, so the oa_rows cap bounds q^t.
    """
    check_cap("oa_rows", C.q**C.t, what=f"codeword enumeration of [{C.N},{C.t}]_{C.q}")
    return _enumerate(C.field, C.G)


def _enumerate(F: FiniteField, G: np.ndarray) -> np.ndarray:
    """Every combination of the rows of G over F in message order, the
    first row's coefficient most significant; unchecked, for callers that
    checked a cap covering it."""
    q, (t, N) = F.order, G.shape
    rows = np.zeros((1, N), dtype=np.int64)
    for i in range(t - 1, -1, -1):
        # prepend one message digit: new block = old block + c * G[i]
        mults = np.stack([F.mul_arr(np.full(N, c, dtype=np.int64), G[i]) for c in range(q)])
        rows = F.add_arr(rows[None, :, :], mults[:, None, :]).reshape(-1, N)
    return rows


# the most codewords in one block of _chunked_codewords
_CHUNK_ROWS = 1 << 16


def _chunked_codewords(C: LinearCode):
    """Yield the codewords in message order, in blocks of at most
    _CHUNK_ROWS rows: the span of the trailing generator rows plus each
    combination of the leading ones.  The first block is that span itself,
    so no caller may write to a block.

    Unchecked: the caller has checked a cap on all q^t codewords.
    """
    F, q, t = C.field, C.q, C.t
    low = 0
    while q ** (t - low) > _CHUNK_ROWS and low < t:
        low += 1
    block = _enumerate(F, C.G[low:])
    for prefix in _enumerate(F, C.G[:low]):
        yield F.add_arr(block, prefix[None, :]) if prefix.any() else block


def _krawtchouk(j: int, i: int, N: int, q: int) -> int:
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(N-i, j-s)."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(N - i, j - s)
        for s in range(j + 1)
    )


def _weight_distributions(C: LinearCode) -> tuple[list[int], list[int]]:
    """Weight distributions (A_0, ..., A_N) of C and of dual(C).

    The side of smaller dimension is enumerated, q^min(t, N-t) codewords;
    the other side comes from the MacWilliams identity in Python ints,
    B_j = q^-dim * sum_i A_i K_j(i) (MacWilliams & Sloane, ch. 5).  Counts
    that do not sum to their code's size, or a transformed count that is
    negative or not integral, raise KuniformError.
    """
    q, t, N = C.q, C.t, C.N
    side = C if t <= N - t else dual(C)
    size = q**side.t
    what = f"weight enumerator of [{N},{t}]_{q}"
    check_cap("codewords", size, what=what)
    counts = np.zeros(N + 1, dtype=np.int64)
    for block in _chunked_codewords(side):
        counts += np.bincount(np.count_nonzero(block, axis=1), minlength=N + 1)
    enumerated = counts.tolist()
    if sum(enumerated) != size:
        raise KuniformError(f"{what} counts {sum(enumerated)} codewords, not {size}")
    transformed = []
    for j in range(N + 1):
        total = sum(a * _krawtchouk(j, i, N, q) for i, a in enumerate(enumerated) if a)
        b, rem = divmod(total, size)
        if rem or b < 0:
            raise KuniformError(f"{what}: MacWilliams transform gives a non-count at weight {j}")
        transformed.append(b)
    if sum(transformed) != q ** (N - side.t):
        raise KuniformError(
            f"{what}: MacWilliams transform sums to {sum(transformed)}, not {q ** (N - side.t)}"
        )
    return (enumerated, transformed) if side is C else (transformed, enumerated)


def _first_nonzero(counts: list[int]) -> int | float:
    return next((w for w in range(1, len(counts)) if counts[w]), math.inf)


def _distances(C: LinearCode) -> None:
    """Compute and cache both distances from one weight enumerator."""
    if C._w is None or C._w_dual is None:
        A, B = _weight_distributions(C)
        C._w_dual = _first_nonzero(B)
        C._w = _first_nonzero(A)


def min_distance(C: LinearCode) -> int | float:
    """Exact minimum Hamming weight over the nonzero codewords of C.

    Read off the weight distribution of C, which is enumerated or, when the
    dual has the smaller dimension, obtained from the dual's by the
    MacWilliams transform.  The zero code returns the infinity sentinel.
    The codewords cap bounds the q^min(t, N-t) codewords enumerated; beyond
    it the computation is refused, never approximated.  Both distances are
    cached together.
    """
    _distances(C)
    return C._w


def dual_distance(C: LinearCode) -> int | float:
    """Minimum distance of dual(C); infinity sentinel when the dual is zero.

    Read off the same pair of weight distributions as min_distance, so the
    codewords cap bounds q^min(t, N-t) here too.  Cached with it.
    """
    _distances(C)
    return C._w_dual


# ---------------------------------------------------------------------------
# combination and predicates


def direct_sum(C1: LinearCode, C2: LinearCode) -> LinearCode:
    """Block-diagonal direct sum: an [N1+N2, t1+t2]_q code.

    Its minimum distance is min(w1, w2) and its dual distance
    min(w1_dual, w2_dual); both facts are verified by enumeration in the
    tests rather than pre-seeded here, so min_distance stays a single
    honest computation path.
    """
    if C1.field != C2.field:
        raise FieldMismatch(f"direct sum over {C1.field} vs {C2.field}")
    t1, n1, t2, n2 = C1.t, C1.N, C2.t, C2.N
    G = np.zeros((t1 + t2, n1 + n2), dtype=np.int64)
    G[:t1, :n1] = C1.G
    G[t1:, n1:] = C2.G
    return LinearCode(C1.field, G)


def is_self_dual(C: LinearCode) -> bool:
    """True iff N = 2t and G G^T = 0 over the field."""
    if C.N != 2 * C.t or C.t == 0:
        return False
    return not np.any(_matmul(C.field, C.G, C.G.T))


# ---------------------------------------------------------------------------
# file I/O: header `code p m N t`, then t generator rows of N symbols


def load_code(path: str | Path) -> LinearCode:
    path = Path(path)
    return parse_code(path.read_text(), source=str(path))


def parse_code(text: str, source: str = "<string>") -> LinearCode:
    lineno, (p, m, N, t), body = textio.read_header(text, source, "code", "code p m N t")
    try:
        F = field_new(p, m)
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None
    G = textio.read_symbols(body, lineno, source, t, N, F.order, f"symbol out of range for GF({F.order})", "generator rows")
    try:
        return LinearCode(F, G)
    except RankDeficient as exc:
        raise RankDeficient(f"{source}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None


def save_code(C: LinearCode, path: str | Path) -> None:
    header = f"code {C.field.p} {C.field.m} {C.N} {C.t}"
    textio.write_rows(path, header, " ".join(["%d"] * C.N) + "\n", C.t, C.G.__getitem__)


# ---------------------------------------------------------------------------
# bundled generators (never trusted: re-verified on every load)

BUNDLED_CODES = ("golay12_3", "sd12_gf4")


def load_bundled_code(name: str) -> LinearCode:
    """Load a bundled self-dual [12, 6, 6] generator and verify it.

    Verification: self-duality (N = 2t and G G^T = 0) and minimum distance
    exactly 6 by full enumeration.  A failure means the data file is corrupt
    and raises KuniformError.
    """
    if name not in BUNDLED_CODES:
        raise KeyError(f"unknown bundled code {name!r}; have {BUNDLED_CODES}")
    text = resources.files("kuniform.data").joinpath(f"{name}.code").read_text()
    C = parse_code(text, source=f"bundled:{name}")
    if not is_self_dual(C):
        raise KuniformError(f"bundled code {name} failed self-duality check")
    w = min_distance(C)
    if w != 6:
        raise KuniformError(f"bundled code {name} has min distance {w}, expected 6")
    return C
