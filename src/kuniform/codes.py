"""Linear [N, t, w]_q codes: construction, duals, exact distances, file I/O.

A LinearCode holds a full-rank generator matrix over a FiniteField.  Minimum
distance and dual distance are computed exactly from one pair of weight
distributions: the side of smaller dimension, C or its dual, is enumerated,
and the other side follows from the MacWilliams transform.  Both are cached
on the code at the first call of either: they are computed together and
stored as two attributes, and nothing reads them between the two stores.
Distances are never stored in code files.  _read_coset recognises rows
that are exactly a coset of an additive code, read over the base-p digits
of GF(p^m) with integer arithmetic mod p alone, and reads that code's
weight distribution and short words off the same one read of the rows,
with no enumeration, and its dual's distance off the MacWilliams
transform.  _rref row-reduces over any field, through _rref_mod over a
prime one, which _read_coset's _span also uses for odd p.  Both
parity_check and _read_coset take the checks of a reduced row echelon
basis from _check_columns.
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
    "load_code",
    "parse_code",
    "save_code",
    "load_bundled_code",
    "BUNDLED_CODES",
]


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code given by a t x N generator matrix of full row rank.

    The degenerate zero code (t = 0) is allowed so that dual() is total; its
    minimum distance is the infinity sentinel.  The rank check keeps the
    reduced row echelon form of G and its pivot columns for parity_check.
    Both caches are derived, never passed in, so dataclasses.replace starts
    them afresh, and the code is frozen, so G cannot change under them.
    Equality compares the field and G.
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
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "_echelon", (R, pivots))

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
    Each pivot column is cleared from every other row in one array step.
    A prime field reduces as integers mod p (_rref_mod)."""
    if F.m == 1:
        return _rref_mod(F.p, M)
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


def _rref_mod(p: int, M: np.ndarray, most: int | float = math.inf) -> tuple[np.ndarray, list[int]]:
    """_rref over GF(p), entries in [0, p), with int64 arithmetic mod p;
    each pivot row is the one below with the largest entry in its column.
    It stops once it has more than `most` pivots, leaving the form partial."""
    R = np.array(M, dtype=np.int64)
    rows, cols = R.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows or r > most:
            break
        i = r + int(R[r:, c].argmax())
        lead = int(R[i, c])
        if not lead:
            continue
        if i != r:
            R[[r, i]] = R[[i, r]]
        row = R[r]
        if lead != 1:
            row *= pow(lead, -1, p)
            row %= p
        factors = R[:, c].copy()
        factors[r] = 0
        R -= np.multiply.outer(factors, row)
        R %= p
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


def _check_columns(basis: np.ndarray, pivots: list[int], neg) -> np.ndarray:
    """The (W, W - r) parity-check columns of the span of a reduced row
    echelon (r, W) basis, with neg negating an array of its entries: a row
    x lies in the span exactly when x times them is 0.  Free column j
    checks that x_j equals the combination of the basis named by x's pivot
    entries, so the columns are the identity on the free columns and the
    negated free entries of the basis at the pivots; I_W when r = 0."""
    r, W = basis.shape
    free = np.ones(W, dtype=bool)
    free[pivots] = False
    checks = np.zeros((W, W - r), dtype=np.int64)
    checks[free, np.arange(W - r)] = 1
    checks[pivots] = neg(basis[:, free])
    return checks


def parity_check(C: LinearCode) -> ParityCheck:
    """Parity-check matrix of C, verified to annihilate G."""
    F, G = C.field, C.G
    # rows in C order, as a generator's rows are read one at a time
    H = _check_columns(*C._echelon, F.neg_arr).T.copy()
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
        mults = F.mul_arr(np.arange(q)[:, None], G[i])
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
        object.__setattr__(C, "_w_dual", _first_nonzero(B))
        object.__setattr__(C, "_w", _first_nonzero(A))


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


# rows in the strided sample that first grows _read_coset's basis
_FIRST_ROWS = 64
# the fractional part of the golden ratio, which spreads that sample
_GOLDEN = (math.sqrt(5) - 1) / 2


def _span(p: int, words: np.ndarray, most: int) -> tuple[np.ndarray, list[int]]:
    """(basis, pivots): the basis in reduced row echelon form over GF(p) of
    the span of the rows of words, entries in [0, p), and its pivot
    columns; it stops once the span has more than `most` dimensions,
    leaving a partial basis of most + 1 rows.

    Over GF(2) each row is one Python int, column 0 its highest bit, and
    the rows join the basis one by one: a row is cleared by XOR at every
    pivot it holds, and what is left, when not zero, is a new basis row,
    which then clears its own pivot from the others; a sample that refuses
    costs a few XORs per row, where _rref_mod's column steps cost several
    numpy calls each.  Other primes use _rref_mod, one column at a time.
    """
    if p != 2:
        R, pivots = _rref_mod(p, words, most)
        return R[: len(pivots)], pivots
    S, W = words.shape
    width = -(-W // 8)
    packed = np.packbits(words.astype(np.uint8), axis=1).tobytes()
    top = 8 * width - 1
    basis: dict[int, int] = {}  # pivot bit -> row
    for i in range(S):
        x = int.from_bytes(packed[i * width : (i + 1) * width], "big")
        for bit, row in basis.items():
            if x >> bit & 1:
                x ^= row
        if not x:
            continue
        bit = x.bit_length() - 1
        for other, row in basis.items():
            if row >> bit & 1:
                basis[other] = row ^ x
        basis[bit] = x
        if len(basis) > most:
            break
    bits = sorted(basis, reverse=True)
    rows = b"".join(basis[bit].to_bytes(width, "big") for bit in bits)
    R = np.unpackbits(np.frombuffer(rows, dtype=np.uint8).reshape(len(bits), width), axis=1)[:, :W]
    return R.astype(np.int64), [top - bit for bit in bits]


def _read_coset(q: int, rows, w: int) -> np.ndarray | None:
    """The distinct supports of the short words of C, when the rows are
    exactly a coset rows[0] + C of an additive code C whose dual has no
    nonzero word of symbol weight at most w; None otherwise, when a walk
    must count.  Each symbol of GF(q) = GF(p^m) is read as its m base-p
    digits (gf's digit table; for prime q the digits are the symbols), so
    C is an F_p-linear code of length N m, as every GF(q)-linear code is,
    of dimension r with p^r = T.  The supports are rows of a (P, N) bool
    array, empty when C has no short word: those of C's nonzero words of
    symbol weight at most w, a word's support being the parties where any
    of its digits is nonzero.

    Exact: q must be a prime power within the field_order cap, the T rows
    must number p^r with r at most N m, and N m (p - 1)^2 must be below
    2^53, so that the parity products below are exact in floats.  The
    digit differences from rows[0] of a strided sample give a basis
    (_span), and a sample whose rank passes r refuses the rows at once.
    Then every row is read once, in blocks of _CHUNK_ROWS rows, never as
    one full digit copy: while the basis has rank below r a block grows it
    and is held; once it has rank r, every row of every block must meet
    its parity checks (_check_columns) mod p, so every row lies in the
    coset.  Distinct words of C differ in the pivot digits, so one count
    of their radix keys decides that all p^r rows are distinct, hence the
    whole coset.

    The same differences are C's words, read with no enumeration and no
    GF(q) arithmetic: a word's support is where its row's symbols differ
    from rows[0]'s, so the symbol weights give C's weight distribution,
    whose MacWilliams transform over an alphabet of q symbols gives the
    dual's distance (Delsarte), and the short words' supports come from
    the same comparison.
    """
    rows = np.asarray(rows, dtype=np.int64)
    T, N = rows.shape
    pm = is_prime_power(q) if q <= get_cap("field_order") else None
    if pm is None or not T or not N:
        return None
    (p, m), r = pm, 0
    while p**r < T:
        r += 1
    if p**r != T or r > N * m or N * m * (p - 1) ** 2 >= 1 << 53:
        return None
    table = field_new(p, m)._digits if m > 1 else None

    def digits(block: np.ndarray) -> np.ndarray | None:
        """The block's (B, N m) digits; None when a symbol is out of range."""
        if block.min() < 0 or block.max() >= q:
            return None
        return block if m == 1 else table.take(block, axis=0).reshape(len(block), N * m)

    # rows j s mod T for a stride s near T / golden ratio that p does not
    # divide, so the _FIRST_ROWS rows are distinct: an even stride through
    # rows in message or sorted order repeats message digits, and spans less
    stride = round(T * _GOLDEN)
    stride += stride % p == 0
    sample = digits(rows[np.arange(min(_FIRST_ROWS, T)) * stride % T])
    if sample is None:
        return None
    # the sample starts with rows[0]: a word is a row's digits less its own
    first = sample[0].astype(np.int64)
    basis, pivots = _span(p, (sample - first) % p, r)
    radix = p ** np.arange(r - 1, -1, -1, dtype=np.int64)
    keys, counts, found = [], np.zeros(N + 1, dtype=np.int64), []

    def read(block: np.ndarray, block_digits: np.ndarray) -> bool:
        """Whether every row of the block meets the parity checks, whose
        syndromes are integers, exact in floats, divisible by p; then its
        rows' keys, weights and short supports are kept.  Its arrays are
        freed on return, before the next block is read."""
        syndromes = block_digits @ checks
        syndromes -= rest
        syndromes /= p
        if not (syndromes == np.rint(syndromes)).all():
            return False
        keys.append(block_digits[:, pivots] @ radix)
        support = block != rows[0]
        weight = support @ np.ones(N, dtype=np.intp)
        np.add(counts, np.bincount(weight, minlength=N + 1), out=counts)
        found.append(support[(weight > 0) & (weight <= w)])
        return True

    checks, held = None, []
    for start in range(0, T, _CHUNK_ROWS):
        if len(pivots) > r:
            return None
        block = rows[start : start + _CHUNK_ROWS]
        block_digits = digits(block)
        if block_digits is None:
            return None
        held.append((block, block_digits))
        if len(pivots) < r:
            basis, pivots = _span(p, np.vstack([basis, (block_digits - first) % p]), r)
            if len(pivots) != r:
                continue
        if checks is None:
            checks = _check_columns(basis, pivots, lambda x: (p - x) % p).astype(float)
            rest = first @ checks
        if not all(read(*pair) for pair in held):
            return None
        held = []
    # a rank below r leaves some rows repeated
    if len(pivots) != r or (np.bincount(np.concatenate(keys), minlength=T) != 1).any():
        return None
    if _first_nonzero(_macwilliams(counts.tolist(), q, f"additive coset of {T} words of length {N} over GF({q})")) <= w:
        return None
    short = np.concatenate(found)
    if not len(short):
        return short
    # distinct supports as byte strings, eight parties to a byte, which
    # np.unique sorts as one field each
    packed = np.packbits(short, axis=1)
    width = packed.shape[1]
    distinct = np.unique(packed.view(np.dtype((np.void, width)))[:, 0]).view(np.uint8).reshape(-1, width)
    return np.unpackbits(distinct, axis=1, count=N).astype(bool)


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
