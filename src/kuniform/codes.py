"""Linear [N, t, w]_q codes: construction, duals, exact distances, file I/O.

A LinearCode holds a full-rank generator matrix over a FiniteField.  Minimum
distance and dual distance are computed exactly from one pair of weight
distributions: the side of smaller dimension, C or its dual, is enumerated,
and the other side follows from the MacWilliams transform.  Both are cached
on the code at the first call of either: they are computed together and
stored as two attributes, and nothing reads them between the two stores.
Distances are never stored in code files.  code_of_rows recognises rows
that are exactly a coset of a linear code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import textio
from .caps import check_cap, get_cap
from .errors import FieldMismatch, KuniformError, ParseError, RankDeficient
from .gf import FiniteField, field_new, is_prime_power

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
    "code_of_rows",
    "load_code",
    "save_code",
    "load_bundled_code",
    "BUNDLED_CODES",
]


@dataclass(eq=False)
class LinearCode:
    """A linear code given by a t x N generator matrix of full row rank.

    The degenerate zero code (t = 0) is allowed so that dual() is total; its
    minimum distance is the infinity sentinel.  The rank check keeps the
    reduced row echelon form of G and its pivot columns for parity_check.
    Both caches are derived, never passed in, so dataclasses.replace starts
    them afresh.  Equality compares the field and G.
    """

    field: FiniteField
    G: np.ndarray  # shape (t, N), dtype int64, symbols in [0, q)
    _w: int | float | None = field(default=None, init=False, repr=False, compare=False)
    _w_dual: int | float | None = field(default=None, init=False, repr=False, compare=False)
    _echelon: tuple = field(default=None, init=False, repr=False, compare=False)

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
        R, pivots = _rref(self.field, G)
        if len(pivots) != t:
            raise RankDeficient(f"generator matrix has rank < {t}")
        G.setflags(write=False)
        self.G, self._echelon = G, (R, pivots)

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.G, other.G)

    __hash__ = None

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
    """Reduced row echelon form; returns (reduced copy, pivot columns).
    Each pivot column is cleared from every other row in one array step."""
    R = np.array(M, dtype=np.int64)
    rows, cols = R.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = np.flatnonzero(R[r:, c])
        if not len(below):
            continue
        if below[0]:
            R[[r, r + below[0]]] = R[[r + below[0], r]]
        R[r] = F.mul_arr(R[r], F.inv(int(R[r, c])))
        factors = F.neg_arr(R[:, c])
        factors[r] = 0
        R = F.add_arr(R, F.mul_arr(factors[:, None], R[r]))
        pivots.append(c)
    return R, pivots


def _matmul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over F: one integer product mod p for a prime field
    whose row sums cannot wrap int64, one field product and sum per inner
    index otherwise."""
    n, k = A.shape
    if F.m == 1 and k * (F.p - 1) ** 2 < 1 << 63:
        return (A @ B) % F.p
    out = np.zeros((n, B.shape[1]), dtype=np.int64)
    for s in range(k):
        out = F.add_arr(out, F.mul_arr(A[:, s, None], B[s]))
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
    R, pivots = C._echelon
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


@cache
def _krawtchouk(j: int, i: int, N: int, q: int) -> int:
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(N-i, j-s), kept for the
    next transform of a code of the same length and field: at most
    (N + 1)^2 values each, and the code stage asks the same ones on every
    call."""
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
    transformed = _macwilliams(enumerated, q, what)
    return (enumerated, transformed) if side is C else (transformed, enumerated)


def _macwilliams(counts: list[int], q: int, what: str) -> list[int]:
    """The weight distribution of the dual of a code whose weight
    distribution is counts, in Python ints; a transformed count that is
    negative or not integral, or counts that do not sum to q^N over the
    code's size, raise KuniformError."""
    N, size = len(counts) - 1, sum(counts)
    transformed = []
    for j in range(N + 1):
        total = sum(a * _krawtchouk(j, i, N, q) for i, a in enumerate(counts) if a)
        b, rem = divmod(total, size)
        if rem or b < 0:
            raise KuniformError(f"{what}: MacWilliams transform gives a non-count at weight {j}")
        transformed.append(b)
    if sum(transformed) * size != q**N:
        raise KuniformError(f"{what}: MacWilliams transform sums to {sum(transformed)}, not {q**N // size}")
    return transformed


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
# recognising cosets of codes


# rows in the first block code_of_rows translates; later blocks double up
# to _CHUNK_ROWS, so rows that are no coset are usually refused early
_FIRST_ROWS = 64


def _minus(F: FiniteField, y: np.ndarray, c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """y - c X over F, for rows y, their coefficients c and a few rows X."""
    return F.add_arr(y, F.neg_arr(_matmul(F, c, X)))


def code_of_rows(q: int, rows) -> LinearCode | None:
    """The linear code C whose coset rows[0] + C the rows are exactly, or
    None when they are not one.

    Exact over GF(q): q must be a prime power within the field_order cap,
    the T rows must number q^t, and every row less rows[0] must lie in one
    t-dimensional space.  That space is grown deterministically from the
    rows themselves: each row's difference is reduced against the basis so
    far, and the first one left nonzero joins it, so no sample can miss a
    direction.  The rows are translated in blocks, _FIRST_ROWS first and
    each next one twice as long up to _CHUNK_ROWS, never as one full copy.
    Distinct rows of that coset differ in their pivot columns, so one
    count of those columns' radix keys decides that all q^t rows are
    distinct, hence the whole coset.  C is returned with its generator in
    reduced row echelon form; the rows are its codewords translated by
    rows[0], in any order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    T, N = rows.shape
    pm = is_prime_power(q) if q <= get_cap("field_order") else None
    if pm is None or not T or not N:
        return None
    t = 0
    while q**t < T:
        t += 1
    if q**t != T or t > N:
        return None
    F = field_new(*pm)
    shift = F.neg_arr(rows[0])
    basis, pivots = np.zeros((0, N), dtype=np.int64), []
    start, size = 0, _FIRST_ROWS
    while start < T:
        block = rows[start : start + size]
        start, size = start + size, min(2 * size, _CHUNK_ROWS)
        if block.min() < 0 or block.max() >= q:
            return None
        # the basis is zero at every pivot but its own, so one pass reduces
        residual = F.add_arr(block, shift)
        residual = _minus(F, residual, residual[:, pivots], basis)
        while len(left := np.flatnonzero(residual.any(axis=1))):
            if len(pivots) == t:
                return None
            v = residual[left[0]]
            p = int(np.flatnonzero(v)[0])
            v = F.mul_arr(v, F.inv(int(v[p])))
            basis = np.vstack([_minus(F, basis, basis[:, p, None], v[None]), v])
            pivots.append(p)
            residual = _minus(F, residual[left], residual[left, p, None], v[None])
    if len(pivots) < t:
        return None  # a coset of fewer than T rows: some rows repeat
    keys = np.zeros(T, dtype=np.int64)
    for p in sorted(pivots):
        keys = keys * q + rows[:, p]
    if not (np.bincount(keys, minlength=T) == 1).all():
        return None
    return LinearCode(F, basis[np.argsort(pivots)])


def _supports_within(C: LinearCode, rows: np.ndarray, w: int) -> np.ndarray | None:
    """The distinct supports, rows of a (P, N) bool array, of the nonzero
    words of weight at most w in C, for rows that are exactly the coset
    rows[0] + C; None when dual(C) has such words too.

    C's words are the rows less rows[0], so the support of each is where
    its row differs from rows[0]: C's supports and weight distribution come
    from the rows, in blocks of _CHUNK_ROWS, with no field arithmetic and no
    enumeration.  The MacWilliams transform of that distribution gives
    dual(C)'s distance, and dual(C) is never enumerated.
    """
    q, N = C.q, C.N
    counts = np.zeros(N + 1, dtype=np.int64)
    found = []
    for start in range(0, len(rows), _CHUNK_ROWS):
        support = rows[start : start + _CHUNK_ROWS] != rows[0]
        weight = support.sum(axis=1)
        counts += np.bincount(weight, minlength=N + 1)
        found.append(support[(weight > 0) & (weight <= w)])
    if _first_nonzero(_macwilliams(counts.tolist(), q, f"coset of [{N},{C.t}]_{q}")) <= w:
        return None
    return np.unique(np.concatenate(found), axis=0)


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
