"""Pure multiparty states with exact amplitudes and partial traces.

A state on N parties of local dimension d is a list of terms held as
arrays: a (T, N) index array and one amplitude per row, in the order the
terms were given.  Exact states keep Gaussian-integer numerators (a, b)
meaning a + bi over a common denominator sqrt(r), in int64 or, past 2^63,
in Python ints, so norms, inner products and reduced density operators are
computed in integer arithmetic with no rounding.  Float states carry
physical complex amplitudes for data that does not fit the integer form.
Construction, file reading and writing and tensor products work on those
arrays, and inner products are read off the reduction kernel; only a float
state's norm is still summed term by term.  Numerators past float range
still give finite magnitudes: they are scaled down by powers of two first.

A state built from an irredundant orthogonal array of strength k is
k-uniform: every reduction onto k parties is exactly I / d^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources
from itertools import combinations, count
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import textio
from .caps import check_cap
from .codes import _supports_within, code_of_rows
from .errors import KuniformError, NormError, ParseError
from .oa import OrthogonalArray, _balanced, _in_blocks, check_irredundant

__all__ = [
    "PureState",
    "SparseOperator",
    "UniformityReport",
    "InnerProduct",
    "ghz",
    "state_from_iroa",
    "tensor_parties",
    "reduction",
    "inner_product",
    "verify_k_uniform",
    "from_vector",
    "load_state",
    "save_state",
    "load_bundled_state",
    "BUNDLED_STATES",
]

NORM_TOL = 1e-12
# the largest deviation, cross term or inner product a float state may show
FLOAT_TOL = 1e-10


class _RowFault(ValueError):
    """An index row out of range or repeated; parse_state names its line."""


class PureState:
    """|psi> = (1 / sqrt(r)) * sum_j (a_j + b_j i) |index_j>, held as arrays.

    Terms keep the order they were given in: file order, construction
    order, or the insertion order of an amplitudes dict.  The indices are
    an int64 (T, N) array.  An exact state holds its numerator pairs (a, b)
    in a (T, 2) int64 array, or in an object array of Python ints once any
    |a| or |b| reaches 2^63, and requires sum(a^2 + b^2) == r.  A float
    state holds physical complex amplitudes in a (T,) array, with r == 1
    and a squared norm within NORM_TOL of 1.  Construction checks the
    arrays at once: indices in range and distinct, no zero amplitude, the
    exact norm summed without wrapping.

    PureState(N, d, amplitudes, r, exact) builds a state from an
    {index tuple: (a, b) or complex} dict; `amplitudes` gives that mapping
    back, read-only and built on first use.  Equality ignores term order.
    provenance is an in-memory note about where the state came from and is
    neither compared nor serialized.
    """

    __hash__ = None

    def __init__(self, N: int, d: int, amplitudes, r: int = 1, exact: bool = True, provenance: str = ""):
        _check_sizes(N, d, r, len(amplitudes))
        idx, values = _dict_arrays(amplitudes, N, d, exact)
        self._init(N, d, idx, values, r, exact, provenance)

    def _init(self, N, d, idx, values, r, exact, provenance):
        _check_sizes(N, d, r, len(idx))
        T = len(idx)
        out_of_range = ((idx < 0) | (idx >= d)).any(axis=1)
        if out_of_range.any():
            raise _RowFault(f"index {_row(idx, out_of_range.argmax())} out of range for d = {d}")
        repeats = _repeats(idx, d)
        if len(repeats):
            raise _RowFault(f"duplicate index {_row(idx, repeats.min())}")
        bound = None
        if exact:
            values, bound = _normalized(values)
            zero = (values == 0).all(axis=1)
        else:
            zero = values == 0
        if zero.any():
            raise ValueError(f"zero amplitude stored at {_row(idx, zero.argmax())}")
        if exact:
            squares = values * values if 2 * bound**2 * T < _INT64_LIMIT else values.astype(object) ** 2
            norm = int(squares.sum())
            if norm != r:
                raise NormError(f"sum of |numerator|^2 is {norm}, expected r = {r}")
        else:
            if r != 1:
                raise ValueError("float states use r = 1")
            # term by term, so a NormError quotes the norm to the same bits
            norm = sum(abs(v) ** 2 for v in values.tolist())
            if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
                raise NormError(f"squared norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        idx.setflags(write=False)
        values.setflags(write=False)
        self.N, self.d, self.r, self.exact, self.provenance = N, d, r, exact, provenance
        self._idx, self._values, self._bound = idx, values, bound
        self._amplitudes = None

    @property
    def amplitudes(self) -> MappingProxyType:
        """Read-only {index tuple: amplitude} mapping in term order: (a, b)
        pairs of Python ints when exact, complex values otherwise."""
        if self._amplitudes is None:
            keys = map(tuple, self._idx.tolist())
            values = map(tuple, self._values.tolist()) if self.exact else self._values.tolist()
            self._amplitudes = MappingProxyType(dict(zip(keys, values)))
        return self._amplitudes

    @property
    def num_terms(self) -> int:
        return len(self._idx)

    def _lex_order(self) -> np.ndarray:
        return np.lexsort(self._idx.T[::-1])

    def __eq__(self, other):
        if not isinstance(other, PureState):
            return NotImplemented
        if (self.N, self.d, self.r, self.exact, self.num_terms) != (
            other.N, other.d, other.r, other.exact, other.num_terms
        ):
            return False
        a, b = self._lex_order(), other._lex_order()
        return np.array_equal(self._idx[a], other._idx[b]) and np.array_equal(self._values[a], other._values[b])

    def to_vector(self) -> np.ndarray:
        """Dense normalized amplitude vector, radix order."""
        dim = self.d**self.N
        check_cap("matrix_dim", dim, what=f"dense vector of length {dim}")
        vec = np.zeros(dim, dtype=complex)
        pos = self._idx @ self.d ** np.arange(self.N - 1, -1, -1)
        if self.exact:
            r, parts = _floats(self.r, self._values)
            vec[pos] = _complex(*(parts * (1.0 / math.sqrt(r))).T)
        else:
            vec[pos] = self._values
        return vec

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"PureState(N={self.N}, d={self.d}, terms={self.num_terms}, {mode})"


def _check_sizes(N: int, d: int, r: int, terms: int) -> None:
    if N < 1:
        raise ValueError("state needs at least one party")
    if d < 1:
        raise ValueError("local dimension must be positive")
    if r < 1:
        raise ValueError("denominator r must be positive")
    if not terms:
        raise ValueError("state has no terms")


def _repeats(idx: np.ndarray, d: int) -> np.ndarray:
    """Rows equal to an earlier row: one stable sort of the rows' keys,
    radix keys while d^N fits int64 and distinct-row ids, which sort as the
    rows do, otherwise."""
    keys = _row_keys(idx, d, _INT64_LIMIT)[0]
    order = np.argsort(keys, kind="stable")
    return order[1:][keys[order[1:]] == keys[order[:-1]]]


def _row(idx: np.ndarray, i) -> tuple:
    return tuple(idx[i].tolist())


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with these parts, bit for bit."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _floats(R: int, *parts) -> tuple:
    """The integer R > 0 and the integer arrays `parts` as floats, for
    computing parts / sqrt(R): float(R) and float(x) while both are within
    float range; past it, R / 4^s and x / 2^s for s = bit_length(R) // 2,
    each a correctly rounded int / int division, so that quotients of
    magnitude at most about 1 stay finite."""
    try:
        return (float(R), *(np.asarray(x).astype(float) for x in parts))
    except OverflowError:
        s = R.bit_length() // 2
        halve = np.frompyfunc(lambda v: int(v) / (1 << s), 1, 1)
        return (R / (1 << 2 * s), *(np.asarray(halve(x), dtype=float) for x in parts))


def _normalized(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact numerators as int64 while every |a| and |b| is below 2^63, as
    Python ints otherwise, and that bound."""
    if values.dtype == object:
        bound = int(np.abs(values).max())
    else:
        bound = max(-int(values.min()), int(values.max()))
    dtype = np.dtype(np.int64) if bound < _INT64_LIMIT else np.dtype(object)
    return (values if values.dtype == dtype else values.astype(dtype)), bound


def _numerators(pairs: list) -> np.ndarray:
    """A (T, 2) array of integer numerator pairs: int64 where they fit,
    Python ints otherwise."""
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("exact amplitudes must be numerator pairs (a, b)")
    if not all(isinstance(x, (int, np.integer)) for pair in pairs for x in pair):
        raise ValueError("exact numerators must be integers")
    try:
        return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError:
        return np.array(pairs, dtype=object).reshape(len(pairs), 2)


def _dict_arrays(amplitudes: dict, N: int, d: int, exact: bool):
    """The index and value arrays of an {index tuple: amplitude} dict."""
    keys = list(amplitudes)
    for key in keys:
        if len(key) != N:
            raise ValueError(f"index {key} does not have {N} parties")
    try:
        idx = np.array(keys, dtype=np.int64).reshape(len(keys), N)
    except OverflowError:
        far = next((key for key in keys if not all(0 <= x < d for x in key)), None)
        if far is None:
            raise ValueError("indices must be below 2^63") from None
        raise _RowFault(f"index {far} out of range for d = {d}") from None
    values = list(amplitudes.values())
    return idx, _numerators(values) if exact else np.array(values, dtype=complex)


def _from_arrays(N: int, d: int, idx, values, r: int = 1, exact: bool = True, provenance: str = "") -> PureState:
    """A PureState over (T, N) indices and (T, 2) numerators, or (T,)
    complex amplitudes when not exact, checked as the constructor does."""
    state = PureState.__new__(PureState)
    state._init(N, d, idx, values, r, exact, provenance)
    return state


def _amplitude_parts(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the physical amplitudes: (a, b) / sqrt(r)
    of an exact state, as Python's complex(a, b) / sqrt(r) gives them."""
    if not state.exact:
        return state._values.real, state._values.imag
    r, parts = _floats(state.r, state._values)
    return parts[:, 0] / math.sqrt(r), parts[:, 1] / math.sqrt(r)


class SparseOperator:
    """Sparse operator on n_parties subsystems of dimension d, held as arrays.

    Entry j sits at row index rows[j] and column index cols[j], both
    (entries, n_parties) int64 arrays in lexicographic (row, column) order,
    and diagonal[j] says whether the two are equal.  re and im hold the
    values: Gaussian-integer numerators (int64, or Python ints past 2^63)
    over the denominator sqrt(r_ket * r_bra) when exact, physical complex
    parts otherwise.  Exact reductions store nonzero entries only, so two
    over one denominator are the same operator iff their arrays are equal.

    SparseOperator(n_parties, d, entries, r_ket, r_bra, exact) builds one
    from an {(row tuple, col tuple): (a, b) or complex} dict; `entries`
    gives that mapping back, read-only and built on first use.  Equality
    compares the fields and the arrays.
    """

    __hash__ = None

    def __init__(self, n_parties: int, d: int, entries, r_ket: int = 1, r_bra: int = 1, exact: bool = True):
        keys = sorted(entries)
        pairs = np.array(keys, dtype=np.int64).reshape(len(keys), 2, n_parties)
        values = list(map(entries.__getitem__, keys))
        if exact:
            values = _numerators(values)
            re, im = values[:, 0], values[:, 1]
        else:
            values = np.array(values, dtype=complex)
            re, im = values.real, values.imag
        rows, cols = pairs[:, 0], pairs[:, 1]
        self._init(d, rows, cols, (rows == cols).all(axis=1), re, im, r_ket, r_bra, exact)

    def _init(self, d, rows, cols, diagonal, re, im, r_ket, r_bra, exact):
        for array in (rows, cols, diagonal, re, im):
            array.setflags(write=False)
        self.n_parties, self.d, self.r_ket, self.r_bra, self.exact = rows.shape[1], d, r_ket, r_bra, exact
        self.rows, self.cols, self.diagonal, self.re, self.im = rows, cols, diagonal, re, im
        self._entries = None

    @property
    def entries(self) -> MappingProxyType:
        """Read-only {(row tuple, col tuple): value} mapping in entry order:
        (a, b) pairs of Python ints when exact, complex values otherwise."""
        if self._entries is None:
            keys = zip(map(tuple, self.rows.tolist()), map(tuple, self.cols.tolist()))
            parts = self.re.tolist(), self.im.tolist()
            self._entries = MappingProxyType(dict(zip(keys, zip(*parts) if self.exact else map(complex, *parts))))
        return self._entries

    @property
    def dim(self) -> int:
        return self.d**self.n_parties

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        fields = ("n_parties", "d", "r_ket", "r_bra", "exact")
        arrays = ("rows", "cols", "re", "im")
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        )

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"SparseOperator(n_parties={self.n_parties}, d={self.d}, entries={len(self.re)}, {mode})"

    def is_zero(self) -> bool:
        """Whether an exact operator stores no entry; ValueError for a
        float operator, whose deviations are read with
        maximally_mixed_deviation or deviation instead."""
        if not self.exact:
            raise ValueError("is_zero decides exact operators only")
        return not len(self.re)

    def trace(self):
        """The sum of the stored diagonal values: an (a, b) numerator pair
        when exact, a complex number otherwise."""
        if self.exact:
            return sum(self.re[self.diagonal].tolist()), sum(self.im[self.diagonal].tolist())
        return sum(_complex(self.re, self.im)[self.diagonal].tolist())

    def to_matrix(self) -> np.ndarray:
        check_cap("matrix_dim", self.dim, what=f"dense {self.dim} x {self.dim} operator")
        return self._dense()

    def _dense(self) -> np.ndarray:
        place = self.d ** np.arange(self.n_parties - 1, -1, -1)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[self.rows @ place, self.cols @ place] = self._physical()
        return M

    def _physical(self) -> np.ndarray:
        """The values over sqrt(r_ket * r_bra), with the bits of a Python
        complex(a, b) * (1 / sqrt(r_ket * r_bra)) product."""
        R, x, y = _floats(self.r_ket * self.r_bra, self.re, self.im)
        scale = 1.0 / math.sqrt(R)
        return _complex(x * scale - y * 0.0, x * 0.0 + y * scale)

    def maximally_mixed_deviation(self) -> float:
        """Largest entrywise distance from I / d^n_parties.

        Exact operators over one denominator r are compared in integers, so
        exact matches report exactly 0: a diagonal entry deviates by
        |a dim - r + b dim i| / (r dim), its parts formed in integers and
        taken to floats once, and an off-diagonal entry by |a + b i| / r.
        """
        dim = self.dim
        if not (self.exact and self.r_ket == self.r_bra):
            v = self._physical()
            x = np.where(self.diagonal, v.real - 1.0 / dim, v.real)
            dev = float(np.max(np.hypot(x, v.imag), initial=0.0))
        elif not len(self.re):
            dev = 0.0
        else:
            r, on = self.r_ket, self.diagonal
            bound = max(abs(int(v)) for part in (self.re, self.im) for v in (part.min(), part.max()))
            x, y = (part.astype(object if bound * dim + r >= _INT64_LIMIT else np.int64) for part in (self.re, self.im))
            x[on] = x[on] * dim - r
            y[on] *= dim
            R, x, y = _floats(r * r, x, y)
            # np.hypot gives abs() of a Python complex bit for bit
            mags = np.hypot(x, y) * (1.0 / math.sqrt(R))
            mags[on] /= dim
            dev = float(mags.max())
        if np.count_nonzero(self.diagonal) < dim:
            dev = max(dev, 1.0 / dim)  # some diagonal entry is missing entirely
        return dev

    def is_maximally_mixed(self) -> bool:
        """Whether an exact operator is exactly I / d^n_parties; ValueError
        for a float operator."""
        if not self.exact:
            raise ValueError("is_maximally_mixed decides exact operators only")
        r, dim = self.r_ket, self.dim
        return bool(
            self.r_bra == r
            and r % dim == 0
            and len(self.re) == dim
            and self.diagonal.all()
            and (self.re == r // dim).all()
            and (self.im == 0).all()
        )

    def deviation(self, other: SparseOperator) -> float:
        """Largest entrywise |self - other| of the physical operators, taken
        over the entries either one stores; every other entry is 0 in both.
        np.abs gives the bits of the same difference of dense matrices."""
        T = len(self.re)
        pairs = np.concatenate([np.hstack([op.rows, op.cols]) for op in (self, other)])
        _, slot = np.unique(_row_keys(pairs, self.d, _INT64_LIMIT)[0], return_inverse=True)
        a, b = np.zeros((2, slot.max(initial=-1) + 1), dtype=complex)
        a[slot[:T]], b[slot[T:]] = self._physical(), other._physical()
        return float(np.max(np.abs(a - b), initial=0.0))


def _sparse(d, rows, cols, diagonal, re, im, r_ket=1, r_bra=1, exact=True) -> SparseOperator:
    """A SparseOperator over arrays already in lexicographic (row, column)
    order, with their diagonal mask."""
    op = SparseOperator.__new__(SparseOperator)
    op._init(d, rows, cols, diagonal, re, im, r_ket, r_bra, exact)
    return op


def _maximally_mixed(d: int, k: int, r: int) -> SparseOperator:
    """I / d^k over the denominator r, which d^k divides, stored as the
    kernel stores an exact reduction."""
    dim = d**k
    rows = np.indices((d,) * k).reshape(k, dim).T
    re = np.full(dim, r // dim, dtype=np.int64 if r // dim < _INT64_LIMIT else object)
    return _sparse(d, rows, rows, np.ones(dim, dtype=bool), re, np.zeros_like(re), r, r)


def ghz(N: int, d: int) -> PureState:
    """(1 / sqrt(d)) * sum_i |i i ... i>; 1-uniform for every d >= 2."""
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    idx = np.repeat(np.arange(d, dtype=np.int64)[:, None], N, axis=1)
    return _from_arrays(N, d, idx, _unit_numerators(d), r=d, provenance=f"ghz({N},{d})")


def _unit_numerators(T: int) -> np.ndarray:
    values = np.zeros((T, 2), dtype=np.int64)
    values[:, 0] = 1
    return values


def state_from_iroa(A: OrthogonalArray, k: int) -> PureState:
    """Uniform superposition of the rows of an irredundant strength-k array.

    oa.check_irredundant decides it and names the failing criterion:
    missing strength, or minimum row distance at most k.
    """
    check_irredundant(A, k)
    return _from_arrays(
        A.N,
        A.d,
        np.array(A.rows, dtype=np.int64),
        _unit_numerators(A.r),
        r=A.r,
        provenance=f"rows of {A} ({A.provenance})" if A.provenance else f"rows of {A}",
    )


def tensor_parties(s1: PureState, s2: PureState) -> PureState:
    """Partywise tensor: party j of the result carries the pair of party-j
    symbols, encoded i1 * d2 + i2, so local dimension becomes d1 * d2.

    Its terms are the rows of the partywise product of the two index
    arrays, s1's term outermost, so the oa_rows cap bounds their number
    before anything is allocated.
    """
    if s1.N != s2.N:
        raise ValueError(f"party counts differ: {s1.N} vs {s2.N}")
    T1, T2 = s1.num_terms, s2.num_terms
    check_cap("oa_rows", T1 * T2, what=f"tensor product of {T1} and {T2} terms")
    idx = (s1._idx[:, None, :] * s2.d + s2._idx[None, :, :]).reshape(T1 * T2, s1.N)
    exact = s1.exact and s2.exact
    if exact:
        wide = 2 * s1._bound * s2._bound >= _INT64_LIMIT
        a1, b1 = (part.astype(object) if wide else part for part in s1._values.T[:, :, None])
        a2, b2 = s2._values.T
        # (a1 + b1 i)(a2 + b2 i)
        values = np.stack([(a1 * a2 - b1 * b2).reshape(-1), (a1 * b2 + b1 * a2).reshape(-1)], axis=1)
    else:
        x1, y1 = (part[:, None] for part in _amplitude_parts(s1))
        x2, y2 = _amplitude_parts(s2)
        values = _complex((x1 * x2 - y1 * y2).reshape(-1), (x1 * y2 + y1 * x2).reshape(-1))
    return _from_arrays(
        s1.N,
        s1.d * s2.d,
        idx,
        values,
        r=s1.r * s2.r if exact else 1,
        exact=exact,
        provenance=f"tensor of ({s1.provenance}) and ({s2.provenance})",
    )


def _validate_parties(N: int, parties) -> tuple[int, ...]:
    parties = tuple(sorted(set(int(p) for p in parties)))
    if not parties:
        raise ValueError("need at least one party to keep")
    if parties[0] < 0 or parties[-1] >= N:
        raise ValueError(f"party indices out of range for N = {N}")
    return parties


# ---------------------------------------------------------------------------
# the reduction kernel: states as arrays, one sort per subset
#
# Entry (kept1, kept2) of tr_others |psi><psi| sums amp1 * conj(amp2) over
# the row pairs that agree on the traced-out parties.  Rows are matched
# through integer keys of their complement columns, and the pair products
# are summed per (kept1, kept2) key.  Exact states stay in int64 only where
# every product and sum provably fits, and in Python ints otherwise, so no
# result ever wraps.
#
# A family of states psi_s is reduced as one purified state
# Psi = sum_s |s>_a |psi_s>: block (s, t) of its reduction onto the ancilla
# and S is |psi_s><psi_t| traced down to S.

_INT64_LIMIT = 1 << 63
# kept keys stay below this, so a (row, col) key pair fits one int64
_KEPT_KEY_LIMIT = 1 << 31
# matched row pairs built at once; larger reductions go in blocks
_PAIR_BLOCK = 1 << 20
# counting takes a few array steps per (subset, term) pair; below this many
# pairs it is cheaper than recognising a code and reading its short words
_CODE_MIN_PAIRS = 1 << 16


class _Encoded(NamedTuple):
    """A state as arrays, rows in the order of its amplitudes dict."""

    idx: np.ndarray  # (terms, N) int64 indices
    re: np.ndarray  # numerator parts a, b: int64 or Python ints if exact,
    im: np.ndarray  # physical float parts otherwise
    bound: int | None  # largest |a| or |b| of an exact encoding, None for floats


def _encode(state: PureState, floats: bool) -> _Encoded:
    """Views of the state's arrays; an exact state becomes physical floats
    when `floats` is set, as it must when stacked with a float state."""
    if floats or not state.exact:
        return _Encoded(state._idx, *_amplitude_parts(state), None)
    return _Encoded(state._idx, state._values[:, 0], state._values[:, 1], state._bound)


def _row_keys(a: np.ndarray, d: int, limit: int):
    """Integer keys of the rows of a, equal exactly when the rows are, and a
    bound above every key: radix keys while d^width <= limit, ids of the
    distinct rows otherwise."""
    width = a.shape[1]
    if d**width <= limit:
        return a @ d ** np.arange(width - 1, -1, -1, dtype=np.int64), d**width
    distinct, ids = np.unique(a, axis=0, return_inverse=True)
    return ids.reshape(-1), len(distinct)


def _blocks(keys: np.ndarray, counts: np.ndarray) -> list:
    """s1 rows grouped by kept key and cut between groups into blocks of
    about _PAIR_BLOCK matched pairs.  No entry spans two blocks, and a block
    exceeds the budget by at most one group, whose pairs number at most the
    terms of s2."""
    order = np.argsort(keys, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(keys[order])) + 1, len(order))
    cum = np.cumsum(counts[order])
    cum_at_ends = cum[ends - 1]
    blocks, start = [], 0
    while start < len(order):
        done = cum[start - 1] if start else 0
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(cum_at_ends, done + _PAIR_BLOCK, side="right") - 1
        stop = ends[max(first, last)]
        blocks.append(order[start:stop])
        start = stop
    return blocks


def _reduce(e: _Encoded, parties: tuple, d: int, r: int = 1) -> SparseOperator:
    """Trace of |psi><psi| over the complement of `parties`, on arrays,
    exact ones over the denominator r."""
    kept = list(parties)
    others = [p for p in range(e.idx.shape[1]) if p not in parties]
    kept_idx = e.idx[:, kept]
    keys, n_kept = _row_keys(kept_idx, d, _KEPT_KEY_LIMIT)
    comp, _ = _row_keys(e.idx[:, others], d, _INT64_LIMIT)

    # rows sharing the complement of row i: order[lo[i] : lo[i] + counts[i]];
    # searching with sorted keys is several times faster than with unsorted ones
    order = np.argsort(comp, kind="stable")
    ordered = comp[order]
    lo, counts = np.empty_like(order), np.empty_like(order)
    lo[order] = np.searchsorted(ordered, ordered, side="left")
    counts[order] = np.searchsorted(ordered, ordered, side="right") - lo[order]

    a, b = e.re, e.im
    floats = e.bound is None
    # an entry sums at most one product per row, each below 2 * bound^2
    if not floats and 2 * e.bound**2 * len(comp) >= _INT64_LIMIT:
        a, b = a.astype(object), b.astype(object)

    if counts.sum() <= _PAIR_BLOCK:
        blocks = [np.arange(len(comp))]
    else:
        blocks = _blocks(keys, counts)
    parts = []
    for rows in blocks:
        n = counts[rows]
        i1 = np.repeat(rows, n)
        i2 = order[np.repeat(lo[rows] - (np.cumsum(n) - n), n) + np.arange(len(i1))]
        # (a1 + b1 i)(a2 - b2 i)
        re = a[i1] * a[i2] + b[i1] * b[i2]
        im = b[i1] * a[i2] - a[i1] * b[i2]
        pair_keys, first, inv = np.unique(keys[i1] * n_kept + keys[i2], return_index=True, return_inverse=True)
        if floats:
            # bincount adds in pair order, as a running sum over the rows would
            re_sum = np.bincount(inv, re, len(pair_keys))
            im_sum = np.bincount(inv, im, len(pair_keys))
        else:
            re_sum = np.zeros(len(pair_keys), dtype=re.dtype)
            im_sum = np.zeros(len(pair_keys), dtype=im.dtype)
            np.add.at(re_sum, inv, re)
            np.add.at(im_sum, inv, im)
            nonzero = (re_sum != 0) | (im_sum != 0)
            first, re_sum, im_sum = first[nonzero], re_sum[nonzero], im_sum[nonzero]
        rows_out, cols_out = i1[first], i2[first]
        diagonal = keys[rows_out] == keys[cols_out]
        parts.append((kept_idx[rows_out], kept_idx[cols_out], diagonal, re_sum, im_sum))
    return _sparse(d, *(np.concatenate(column) for column in zip(*parts)), r, r, not floats)


def _stack(family: list) -> tuple[_Encoded, int]:
    """The encoding of Psi = sum_s |s>_a |psi_s> over a family of states on
    one system, and the number m of its leading ancilla columns.

    Member s keeps its numerators as they are, so block (s, t) of a
    reduction of Psi is the reduction of |psi_s><psi_t| over the
    denominator sqrt(r_s r_t).  The family is exact only when every member
    is; otherwise every member is encoded as physical floats.  The index s
    takes m = ceil(log K) digits of base max(d, 2), none for one state.
    """
    base, K = max(family[0].d, 2), len(family)
    floats = not all(state.exact for state in family)
    parts = [_encode(state, floats) for state in family]
    m = next(n for n in count() if base**n >= K)
    member = np.repeat(np.arange(K), [len(e.idx) for e in parts])
    ancilla = member[:, None] // base ** np.arange(m - 1, -1, -1) % base
    idx = np.hstack([ancilla, np.concatenate([e.idx for e in parts])])
    re = np.concatenate([e.re for e in parts])
    im = np.concatenate([e.im for e in parts])
    return _Encoded(idx, re, im, None if floats else max(e.bound for e in parts)), m


def _member(digits: np.ndarray, base: int) -> np.ndarray:
    """The member index s that each row of a stack's ancilla digits spells."""
    return digits @ base ** np.arange(digits.shape[1] - 1, -1, -1)


def _block_reduction(e: _Encoded, m: int, family: list, parties: tuple):
    """block(s, t): |psi_s><psi_t| traced down to `parties`, over the
    denominator sqrt(r_s r_t) when exact, for the stack e of `family` with
    m ancilla columns.

    Psi is reduced once onto the ancilla and `parties`, and its entries are
    split by one stable argsort on the ancilla (row, column) key, which
    keeps each block in lexicographic order.  Each block gathers its own
    arrays, so a block kept does not keep the whole reduction alive.
    """
    d, K = family[0].d, len(family)
    exact = e.bound is not None
    r = [state.r if exact else 1 for state in family]
    base = max(d, 2)
    red = _reduce(e, tuple(range(m)) + tuple(p + m for p in parties), base)
    key = _member(red.rows[:, :m], base) * K + _member(red.cols[:, :m], base)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(K * K + 1)).tolist()

    def block(s: int, t: int) -> SparseOperator:
        at = order[bounds[s * K + t] : bounds[s * K + t + 1]]
        return _sparse(d, red.rows[at, m:], red.cols[at, m:], red.diagonal[at], red.re[at], red.im[at], r[s], r[t], exact)

    return block


def _inner_products(e: _Encoded, m: int, family: list) -> list:
    """(s, t, <psi_s|psi_t>) for the pairs s < t of `family`, stacked as e
    with m ancilla columns, that are not shown orthogonal, in combinations
    order, each value an InnerProduct.

    Entry (s, t) of the reduction of Psi onto its ancilla alone is
    <psi_t|psi_s>, summed over the terms of psi_s in their order.  An exact
    reduction stores nonzero entries only, so its entries above the
    diagonal, in lexicographic order, are the candidate pairs; a float one
    stores every pair that shares an index.  Two exact members of a family
    that mixes modes are read exactly, from a stack of its exact members.
    One state makes no reduction.
    """
    if len(family) < 2:
        return []
    base = max(family[0].d, 2)
    red = _reduce(e, tuple(range(m)), base)
    bra, ket = _member(red.rows, base), _member(red.cols, base)
    found = []
    for s, t, re, im in zip(*(x[bra < ket].tolist() for x in (bra, ket, red.re, red.im))):
        if e.bound is not None:
            found.append((s, t, InnerProduct((re, -im), family[t].r, family[s].r, True)))
        elif not (family[s].exact and family[t].exact):
            # 0.0 - im, not -im: a zero sum keeps the sign of a sum from 0.0
            found.append((s, t, InnerProduct(complex(re, 0.0 - im), 1, 1, False)))
    own = [s for s, state in enumerate(family) if state.exact]
    if 1 < len(own) < len(family):
        sub = [family[s] for s in own]
        found += [(own[s], own[t], ip) for s, t, ip in _inner_products(*_stack(sub), sub)]
        found.sort(key=lambda pair: pair[:2])
    return found


def _same_operator(a: SparseOperator, b: SparseOperator) -> bool:
    """Whether exact self-reductions a, over the denominator ra, and b, over
    rb, are the same operator: the same entries, and a rb == b ra.  Entries
    of a trace-1 positive operator are at most 1, so |a| <= ra and
    |b| <= rb, and the products stay below ra rb."""
    ra, rb = a.r_ket, b.r_ket
    if not (np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)):
        return False
    wide = object if ra * rb >= _INT64_LIMIT else None
    pairs = ((a.re, b.re), (a.im, b.im))
    return all(np.array_equal(np.asarray(x, wide) * rb, np.asarray(y, wide) * ra) for x, y in pairs)


def _counting_check(e: _Encoded, d: int, k: int):
    """A predicate on a (B, k) block of k-subsets S whose bool mask holds
    only where the reduction onto S is exactly I / d^k, decided by counting
    rows; None when it can pass nothing.

    It applies to exact encodings whose T terms all have one squared
    modulus m, with d^k dividing T; the norm invariant makes r = T m.  When
    the rows take each of the d^k values on S exactly T / d^k times
    (oa._balanced) and no two rows agree off S, the reduction is diagonal
    with entries (T / d^k) m / r = 1 / d^k.  A block holds one row of T
    keys per subset; squared moduli must fit int64.
    """
    T, N = e.idx.shape
    dim = d**k
    if e.bound is None or T % dim or 2 * e.bound**2 >= _INT64_LIMIT:
        return None
    modulus = e.re * e.re + e.im * e.im
    if (modulus != modulus[0]).any():
        return None
    # radix weights mod 2^64: full keys wrap, but a full key less the keys
    # of S is the complement's radix key, exact whenever it is below 2^63
    radix = d ** (N - k) < _INT64_LIMIT
    weights = np.array([pow(d, N - 1 - p, 1 << 64) for p in range(N)], dtype=np.uint64).view(np.int64)

    @cache
    def arrays():
        """Columns and full keys, made at the first block a caller asks for."""
        return np.ascontiguousarray(e.idx.T), e.idx @ weights

    def passes(block: np.ndarray) -> np.ndarray:
        columns, full = arrays()
        ok = _balanced(columns, d, block)
        # complements are keyed only for the subsets whose counts passed
        counted = block[ok]
        if radix:
            complement = np.tile(full, (len(counted), 1))
            for j in range(k):
                complement -= columns[counted[:, j]] * weights[counted[:, j], None]
        else:
            # distinct-row ids of each complement, one subset at a time
            complement = np.zeros((len(counted), T), dtype=np.int64)
            for row, subset in zip(complement, counted.tolist()):
                rest = e.idx[:, [p for p in range(N) if p not in subset]]
                row[:] = _row_keys(rest, d, _INT64_LIMIT)[0]
        complement.sort(axis=1)
        ok[ok] = (complement[:, 1:] != complement[:, :-1]).all(axis=1)
        return ok

    return passes


def _avoiding(supports: np.ndarray):
    """A predicate on a (B, k) block of column sets, as _counting_check's:
    its bool mask holds where a set contains none of the supports."""

    def passes(block: np.ndarray) -> np.ndarray:
        outside = np.ones((len(block), supports.shape[1]), dtype=bool)
        np.put_along_axis(outside, block, False, axis=1)
        # a support lies inside a set exactly when none of its columns is outside
        return (outside @ supports.T).all(axis=1)

    return passes


def _undecided(e: _Encoded, m: int, d: int, N: int, k: int):
    """The k-subsets S of the N parties of the stack e, its first m columns
    the ancilla, whose reduction onto the ancilla and S is not shown to be
    I / d^(k + m) by the two stages below, lazily in lexicographic order.

    Such a reduction has every block (s, t) equal to delta_st I / d^k, so a
    subset left out here is decided for a state (m = 0), a masker and a
    pure code alike.  Both stages need an exact stack whose T terms share
    one squared modulus, with d^(k + m) dividing T.  The reduction onto a
    set U of columns is then I / d^|U| exactly when the rows take every
    value on U equally often and no two rows agree off U.  On a coset of a
    linear code C, the first holds exactly when no nonzero word of C-perp
    lies inside U, and the second when no nonzero word of C does
    (Delsarte; Hedayat, Sloane & Stufken, Thm 3.29).

    1. Code.  When C(N, k) T >= _CODE_MIN_PAIRS, the rows are a coset of
       a linear code C and w(C-perp) > k + m, the subsets left are those
       whose ancilla columns and S hold the support of a nonzero word of
       weight at most k + m of C (codes._supports_within).  With no such
       word, as when w(C) > k + m too, no subset is walked.
    2. Counting.  Otherwise the ancilla columns and S are counted in blocks
       (_counting_check) whose arrays hold at most max(T, oa._COUNT_BLOCK)
       entries each.

    Both stages leave the same subsets.  The matrix_dim cap bounds the
    d^k-wide reductions of what is left, so it is checked before the first
    subset yielded, and at once, before any subset is listed, when counting
    cannot apply.
    """
    dim = d**k
    passes = _counting_check(e, d, k + m)
    if passes is None:
        check_cap("matrix_dim", dim, what=f"reductions of dimension {dim}")
        yield from combinations(range(N), k)
        return
    width = len(e.idx)
    code = code_of_rows(d, e.idx) if math.comb(N, k) * width >= _CODE_MIN_PAIRS else None
    supports = None if code is None else _supports_within(code, e.idx, k + m)
    if supports is not None:
        if not len(supports):
            return
        passes, width = _avoiding(supports), len(supports)
    capped = False
    for block in _in_blocks(combinations(range(N), k), width):
        columns = np.hstack([np.broadcast_to(np.arange(m), (len(block), m)), np.array(block) + m])
        for subset, ok in zip(block, passes(columns).tolist()):
            if ok:
                continue
            if not capped:
                check_cap("matrix_dim", dim, what=f"reductions of dimension {dim}")
                capped = True
            yield subset


def reduction(state: PureState, parties) -> SparseOperator:
    """Reduced density operator of `state` on `parties`, exact when the
    state is exact."""
    parties = _validate_parties(state.N, parties)
    dim = state.d ** len(parties)
    check_cap("matrix_dim", dim, what=f"reduction onto {len(parties)} parties of dimension {state.d}")
    return _reduce(_encode(state, not state.exact), parties, state.d, state.r)


def inner_product(s1: PureState, s2: PureState) -> InnerProduct:
    """<s1|s2>, exact when both states are exact: the conjugate of entry
    (0, 1) of the reduction of their stack onto its ancilla, so float sums
    run over the shared indices in s1's term order."""
    if (s1.N, s1.d) != (s2.N, s2.d):
        raise ValueError("states live on different systems")
    pair = [s1, s2]
    for _, _, ip in _inner_products(*_stack(pair), pair):
        return ip
    if s1.exact and s2.exact:
        return InnerProduct(num=(0, 0), r_ket=s2.r, r_bra=s1.r, exact=True)
    return InnerProduct(num=0j, r_ket=1, r_bra=1, exact=False)


@dataclass(frozen=True)
class InnerProduct:
    num: object  # (a, b) Gaussian integer when exact, complex otherwise
    r_ket: int
    r_bra: int
    exact: bool

    @property
    def value(self) -> complex:
        if self.exact:
            R, a, b = _floats(self.r_ket * self.r_bra, *self.num)
            return complex(a, b) / math.sqrt(R)
        return complex(self.num)

    def is_zero(self) -> bool:
        """Exactly zero when exact, within FLOAT_TOL in floats."""
        if self.exact:
            return self.num == (0, 0)
        return abs(self.num) <= FLOAT_TOL


@dataclass
class UniformityReport:
    N: int
    d: int
    k: int
    verdict: str  # "pass", "fail", or "impossible"
    subsets_checked: int
    failures: list
    max_deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.verdict == "pass"


def verify_k_uniform(state: PureState, k: int, tol: float = FLOAT_TOL) -> UniformityReport:
    """Check every reduction onto k parties against I / d^k.

    Exact states are checked exactly (tol only enters deviation reporting);
    k = 0 passes trivially and k above floor(N / 2) is impossible for any
    pure state, reported without checking.  The state is the m = 0 case of
    _undecided: when its T terms share one squared modulus and d^k divides
    T, a subset S passes if the rows take each value on S exactly T / d^k
    times and no two rows agree off S (the irredundant-array criterion).
    On a coset of a linear [N, t]_d code C that holds exactly when no
    nonzero word of C or C-perp lies inside S (Delsarte; Hedayat, Sloane &
    Stufken, Thm 3.29), so when w(C-perp) > k the short words of C name
    the subsets left, none when w(C) > k too; other rows are counted.  Every
    subset left, and every subset of a float state, goes through the
    reduction kernel, which alone reports failures; an exact state's
    deviations are read off the kernel's arrays.  A pass from any stage
    gives the same report.
    """
    if not 0 <= k <= state.N:
        raise ValueError(f"k = {k} outside [0, {state.N}]")
    if k == 0:
        return UniformityReport(state.N, state.d, 0, "pass", 0, [])
    if k > state.N // 2:
        return UniformityReport(state.N, state.d, k, "impossible", 0, [])
    e = _encode(state, not state.exact)
    failures = []
    max_dev = 0.0
    for subset in _undecided(e, 0, state.d, state.N, k):
        rho = _reduce(e, subset, state.d, state.r)
        if state.exact and rho.is_maximally_mixed():
            continue  # deviation exactly 0.0
        dev = rho.maximally_mixed_deviation()
        max_dev = max(max_dev, dev)
        if state.exact or not dev <= tol:
            failures.append((subset, f"reduction deviates from I/{state.d ** k} by {dev:.3e}"))
    verdict = "pass" if not failures else "fail"
    return UniformityReport(state.N, state.d, k, verdict, math.comb(state.N, k), failures, max_dev)


def from_vector(vec, N: int, d: int) -> PureState:
    """Float-mode state from a dense amplitude vector in radix order, its
    squared norm within NORM_TOL of 1."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != d**N:
        raise ValueError(f"vector length {vec.size} is not d^N = {d ** N}")
    norm = float(np.sum(np.abs(vec) ** 2))
    if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
        raise NormError(f"squared norm {norm!r} deviates from 1 beyond {NORM_TOL}")
    pos = np.flatnonzero(vec)
    idx = pos[:, None] // d ** np.arange(N - 1, -1, -1) % d
    return _from_arrays(N, d, idx.astype(np.int64), vec[pos], exact=False, provenance="from_vector")


# ---------------------------------------------------------------------------
# file I/O: header `state N d r mode`, then one term per line, its N indices
# and its amplitude pair (integers a b when exact, floats re im when float),
# in the conventions of textio; terms saved in index order.  Numerators past
# int64 are read as Python ints, never through floats.


def load_state(path: str | Path) -> PureState:
    path = Path(path)
    return parse_state(path.read_text(), source=str(path))


def parse_state(text: str, source: str = "<string>") -> PureState:
    lineno, (N, d, r, mode), body = textio.read_header(text, source, "state", "state N d r mode", ints=3)
    if mode not in ("exact", "float"):
        raise ParseError(f"{source}:{lineno}: mode must be 'exact' or 'float'")
    exact = mode == "exact"
    terms = textio.read_blocks(body, N + 2, partial(_read_block, N=N, exact=exact)) if min(N, d, r) >= 1 else None
    try:
        if terms is not None:
            try:
                return _from_arrays(N, d, *terms, r=r, exact=exact, provenance=source)
            except _RowFault:
                pass  # a repeated or out-of-range row: name its line
        terms = textio.read_lines(body, lineno + 1, source, _term_reader(N, d, exact))
        return PureState(N, d, dict(terms), r=r, exact=exact, provenance=source)
    except (NormError, ParseError):
        raise
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def _read_block(body: str, values: np.ndarray, plain: np.ndarray, N: int, exact: bool):
    """(indices, amplitudes) of one block of N + 2 fields per line, or None
    when an index is not plain or an amplitude does not convert."""
    if not plain[:, :N].all():
        return None
    idx = np.ascontiguousarray(values[:, :N])
    if exact and plain[:, N:].all():
        return idx, values[:, N:].copy()
    tokens = body.split()
    try:
        parts = [list(map(int if exact else float, tokens[j :: N + 2])) for j in (N, N + 1)]
    except ValueError:
        return None
    if exact:
        return idx, np.array(parts, dtype=object).T
    return idx, _complex(np.array(parts[0], dtype=float), np.array(parts[1], dtype=float))


def _term_reader(N: int, d: int, exact: bool):
    """A reader of term lines into (index tuple, amplitude), refusing repeats."""
    seen = set()

    def read_term(fields: list):
        if len(fields) != N + 2:
            raise textio.LineFault(f"expected {N} indices and 2 amplitude fields")
        try:
            idx = tuple(int(x) for x in fields[:N])
        except ValueError:
            raise textio.LineFault("non-integer index") from None
        if any(not 0 <= x < d for x in idx):
            raise textio.LineFault(f"index out of range [0, {d})")
        if idx in seen:
            raise textio.LineFault(f"duplicate index {idx}")
        seen.add(idx)
        try:
            return idx, (int(fields[N]), int(fields[N + 1])) if exact else complex(float(fields[N]), float(fields[N + 1]))
        except ValueError:
            raise textio.LineFault("malformed amplitude") from None

    return read_term


def save_state(state: PureState, path: str | Path) -> None:
    """Write `state` in index order, gathering the rows of each block."""
    # repr round-trips floats exactly
    line = " ".join(["%d"] * state.N + ["%d" if state.exact else "%r"] * 2) + "\n"
    order = state._lex_order()

    def block(s: slice) -> np.ndarray:
        rows = order[s]
        values = state._values[rows]
        if not state.exact:
            values = np.stack([values.real, values.imag], axis=1).astype(object)
        return np.hstack([state._idx[rows], values])

    mode = "exact" if state.exact else "float"
    textio.write_rows(path, f"state {state.N} {state.d} {state.r} {mode}", line, len(order), block)


BUNDLED_STATES = ("ame_6_2",)


def load_bundled_state(name: str) -> PureState:
    """One of the shipped states; ame_6_2 is the 16-term 3-uniform state of
    six qubits."""
    if name not in BUNDLED_STATES:
        raise KeyError(f"unknown bundled state {name!r}; have {BUNDLED_STATES}")
    text = resources.files("kuniform.data").joinpath(f"{name}.state").read_text()
    try:
        return parse_state(text, source=f"bundled:{name}")
    except (ParseError, NormError) as exc:
        raise KuniformError(f"bundled state {name!r} is corrupt: {exc}") from exc
