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
from functools import cache, cached_property, partial
from importlib import resources
from itertools import combinations, compress, count
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import oa, textio
from .caps import check_cap
from .codes import _read_coset
from .errors import KuniformError, NormError, ParseError
from .oa import OrthogonalArray, _balanced, _in_blocks, _radix_keys, check_irredundant

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
    "parse_state",
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
            # term by term, so a NormError quotes the norm to the same bits;
            # a modulus or square past float range makes it inf
            try:
                norm = sum(abs(v) ** 2 for v in values.tolist())
            except OverflowError:
                norm = math.inf
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
    keys, size = _row_keys(idx, d, _INT64_LIMIT)
    order = _stable_order(keys, size)
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
        return _physical(self.r_ket * self.r_bra, self.re, self.im)

    def _alone(self) -> tuple:
        """The arguments that make this operator a block of one for
        _deviations and _maximally_mixed_mask, its denominators left out."""
        return self.dim, *_split(np.array([0, len(self.re)]), self.diagonal, self.re, self.im)

    def maximally_mixed_deviation(self) -> float:
        """Largest entrywise distance from I / d^n_parties, exactly 0 for an
        exact match (_deviations, on a block of one)."""
        return float(_deviations(*self._alone(), self.r_ket, self.r_bra, self.exact)[0])

    def is_maximally_mixed(self) -> bool:
        """Whether an exact operator is exactly I / d^n_parties; ValueError
        for a float operator."""
        if not self.exact:
            raise ValueError("is_maximally_mixed decides exact operators only")
        return self.r_ket == self.r_bra and bool(_maximally_mixed_mask(*self._alone(), [self.r_ket])[0])

    def deviation(self, other: SparseOperator) -> float:
        """Largest entrywise |self - other| of the physical operators, taken
        over the entries either one stores (_differences, on a block of
        one)."""
        return float(_differences(self.d, _stacked([self]), _stacked([other]))[0])


def _physical(R: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The values re + im i over sqrt(R), with the bits of a Python
    complex(a, b) * (1 / sqrt(R)) product."""
    R, x, y = _floats(R, re, im)
    scale = 1.0 / math.sqrt(R)
    out = np.empty(x.shape, dtype=complex)
    real, imag = out.real, out.imag
    # x * scale - y * 0.0 and y * scale + x * 0.0, formed in place: x and y
    # are _floats' own copies
    np.multiply(x, scale, out=real)
    np.multiply(y, scale, out=imag)
    real -= np.multiply(y, 0.0, out=y)
    imag += np.multiply(x, 0.0, out=x)
    return out


def _segment_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The largest of values[starts[j] : starts[j + 1]] for each j, 0 for
    an empty segment, in the dtype of values; NaN propagates."""
    out = np.zeros(len(starts) - 1, dtype=values.dtype)
    filled = np.flatnonzero(starts[1:] > starts[:-1])
    if len(filled):
        out[filled] = np.maximum.reduceat(values, starts[filled])
    return out


def _segment_count(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The number of set entries of mask[starts[j] : starts[j + 1]] for each j."""
    cum = np.concatenate([[0], np.cumsum(mask)])
    return cum[starts[1:]] - cum[starts[:-1]]


class _Segments(NamedTuple):
    """Operators on one system as segments of shared arrays: segment j holds
    the entries starts[j] : starts[j + 1] in lexicographic (row, column)
    order, as a SparseOperator holds them, their values re + im i over
    sqrt(R[j]), R[j] being r_ket r_bra, 1 for a float operator."""

    rows: np.ndarray  # (entries, n_parties) int64
    cols: np.ndarray
    re: np.ndarray
    im: np.ndarray
    starts: np.ndarray  # (segments + 1,) int64
    R: list


def _stacked(ops: list) -> _Segments:
    """SparseOperators on one system as the segments of one block."""
    starts = np.concatenate([[0], np.cumsum([len(op.re) for op in ops])])
    parts = (np.concatenate([getattr(op, name) for op in ops]) for name in ("rows", "cols", "re", "im"))
    return _Segments(*parts, starts, [op.r_ket * op.r_bra for op in ops])


def _by_denominator(R: list, starts: np.ndarray):
    """(value, segments, entries) for each distinct value of R: masks of
    the segments over it and of their entries, both None when every
    segment is."""
    distinct = set(R)
    if len(distinct) <= 1:
        yield next(iter(distinct), 1), None, None
        return
    sizes = np.diff(starts)
    for value in distinct:
        segments = np.array([x == value for x in R])
        yield value, segments, np.repeat(segments, sizes)


def _segment_physical(seg: _Segments) -> np.ndarray:
    """Each entry's physical value, with the bits _physical gives it over
    its segment's denominator."""
    out = None
    for R, _, on in _by_denominator(seg.R, seg.starts):
        if on is None:
            return _physical(R, seg.re, seg.im)
        if out is None:
            out = np.empty(len(seg.re), dtype=complex)
        out[on] = _physical(R, seg.re[on], seg.im[on])
    return out


def _entry_keys(d: int, first: _Segments, second: _Segments) -> tuple:
    """Keys of both blocks' entries by segment, row and column: equal
    exactly when two entries of one segment index share row and column, and
    ascending within each block, its entries being in order.  Radix keys
    while every key fits int64, the ids of the distinct (segment, row,
    column) rows of one np.unique otherwise."""
    k, n, sides = first.rows.shape[1], len(first.starts) - 1, (first, second)
    segs = [np.repeat(np.arange(n), np.diff(side.starts)) for side in sides]
    if n * d ** (2 * k) <= _INT64_LIMIT:
        size, place = d**k, d ** np.arange(k - 1, -1, -1, dtype=np.int64)
        return tuple((seg * size + side.rows @ place) * size + side.cols @ place for seg, side in zip(segs, sides))
    every = np.vstack([np.hstack([seg[:, None], side.rows, side.cols]) for seg, side in zip(segs, sides)])
    ids = np.unique(every, axis=0, return_inverse=True)[1].reshape(-1)
    return ids[: len(segs[0])], ids[len(segs[0]) :]


def _differences(d: int, first: _Segments, second: _Segments) -> np.ndarray:
    """The largest entrywise |a - b| of each segment j, a its operator in
    first and b in second, over the entries either one stores: every other
    entry is 0 in both.  The values are _physical's, and np.abs gives the
    bits of the same difference of dense matrices; two empty segments give
    0.0, and NaN propagates.

    Each entry of first finds its match in second, whose keys ascend, by
    one np.searchsorted (_entry_keys).  The matched values of first are
    put at their slots of second, which alone are differenced, and the
    entries that first alone stores are a - 0, that is a itself."""
    ka, kb = _entry_keys(d, first, second)
    TB = len(kb)
    slot = np.searchsorted(kb, ka)
    alone = np.take(kb, slot, mode="clip") != ka if TB else np.ones(len(ka), dtype=bool)
    del ka, kb
    a = _segment_physical(first)
    dev = _segment_max(np.abs(a[alone]), np.searchsorted(np.flatnonzero(alone), first.starts))
    # the entries of first alone land on a spare slot past second's
    slot[alone] = TB
    diff = np.zeros(TB + 1, dtype=complex)
    diff[slot] = a
    del a, slot, alone
    diff = diff[:TB]
    diff -= _segment_physical(second)
    return np.maximum(dev, _segment_max(np.abs(diff), second.starts), out=dev)


# an exact operator's entries whose integer squared moduli lie within this
# share of its largest one are taken to floats: at most 2^62, they are then
# within 2^-45 of the largest modulus, while the float formula of _largest is
# off by a few units in the last place, under 2^-50
_NEAR_SHIFT = 44


def _near_top(square: np.ndarray, starts: np.ndarray, *parts: np.ndarray) -> tuple:
    """(starts, *parts) cut down to the entries whose int64 squared
    distance lies at or within _NEAR_SHIFT of their segment's largest, ties
    included: no other entry's float distance can round above theirs."""
    top = _segment_max(square, starts)
    pick = np.flatnonzero(square >= np.repeat(top - (top >> _NEAR_SHIFT), np.diff(starts)))
    return np.searchsorted(pick, starts), *(part[pick] for part in parts)


def _largest(starts: np.ndarray, a: np.ndarray, b: np.ndarray, R: int) -> np.ndarray:
    """The largest |a + b i| / sqrt(R) of each segment, 0.0 for an empty
    one, with the bits of abs() of a Python complex times 1 / sqrt(R).
    While the squares of integer parts fit int64, each segment's largest
    is found in integers, and only its entries at that largest or near it
    (_near_top), ties included, are taken to floats; no other entry can
    round to a larger float."""
    if a.dtype.kind != "f" and len(a):
        bound = max(abs(int(v)) for part in (a, b) for v in (part.min(), part.max()))
        if 2 * bound * bound < _INT64_LIMIT:
            a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
            starts, a, b = _near_top(a * a + b * b, starts, a, b)
    R, a, b = _floats(R, a, b)
    # np.hypot gives abs() of a Python complex bit for bit
    return _segment_max(np.hypot(a, b) * (1.0 / math.sqrt(R)), starts)


def _split(starts: np.ndarray, diagonal: np.ndarray, re: np.ndarray, im: np.ndarray) -> tuple:
    """A block of operators, operator j holding the entries starts[j] :
    starts[j + 1], in the layout its readers take: (starts, re, im) of the
    entries off the diagonal, then of those on it."""
    return tuple((np.searchsorted(at, starts), re[at], im[at]) for at in map(np.flatnonzero, (~diagonal, diagonal)))


def _deviations(dim: int, off: tuple, on: tuple, r_ket: int, r_bra: int, exact: bool) -> np.ndarray:
    """The largest entrywise distance from I / dim of each operator of a
    block: off and on are (starts, re, im) of its entries off the diagonal
    and on it, operator j holding entries starts[j] : starts[j + 1] of
    each, and im is None on a diagonal whose values are all real.

    Exact operators over one denominator r are compared in integers, so
    exact matches report exactly 0: an off-diagonal entry deviates by
    |a + b i| / r and a diagonal one by |a dim - r + b dim i| / (r dim),
    its parts formed in integers (_largest).  On a real diagonal that is
    |a dim - r| / (r dim), a float that rounds monotonically in the
    integer, so each operator's largest is taken to floats alone.  Other
    operators are read as their physical values.  Every value is
    elementwise, so an operator reports the same bits in any block.
    """
    (starts, re, im), (on_starts, x, y) = off, on
    if exact and r_ket == r_bra:
        r = r_ket
        dev = _largest(starts, re, im, r * r)
        bound = max(abs(int(v)) for part in (x, y) if part is not None for v in (part.min(), part.max())) if len(x) else 0
        x = x.astype(object if bound * dim + r >= _INT64_LIMIT else np.int64, copy=False) * dim - r
        if y is None:
            R, top = _floats(r * r, _segment_max(np.abs(x), on_starts))
            np.maximum(dev, top * (1.0 / math.sqrt(R)) / dim, out=dev)
        else:
            np.maximum(dev, _largest(on_starts, x, y.astype(x.dtype) * dim, r * r) / dim, out=dev)
    else:
        R = r_ket * r_bra
        v, w = _physical(R, re, im), _physical(R, x, np.zeros_like(x) if y is None else y)
        dev = np.maximum(_largest(starts, v.real, v.imag, 1), _largest(on_starts, w.real - 1.0 / dim, w.imag, 1))
    # an operator missing some diagonal entry entirely is 1 / dim off there
    return np.where(np.diff(on_starts) < dim, np.maximum(dev, 1.0 / dim), dev)


def _members(ids: np.ndarray, K: int) -> tuple:
    """The s and t of segments ids (j, s, t) of a block for a family of K
    states."""
    return np.divmod(ids % K**2, K)


def _maximally_mixed_mask(dim: int, off: tuple, on: tuple, r) -> np.ndarray:
    """Which exact operators of a block, given as for _deviations, are
    exactly I / dim, operator j being segment (s, t) = (j // K % K, j % K)
    of a family of K = len(r) states over the denominator sqrt(r_s r_t):
    an (s, s) with no entry off the diagonal and dim on it, each of value
    r_s / dim.  Every (s, t) with s != t reads False."""
    (starts, _, _), (on_starts, x, y) = off, on
    size = np.diff(on_starts)
    ok = (np.diff(starts) == 0) & (size == dim)
    if not ok.any():
        return ok
    s, t = _members(np.arange(len(size)), len(r))
    ok &= (s == t) & np.array([v % dim == 0 for v in r])[s]
    want = np.array([v // dim for v in r], dtype=object if max(r) // dim >= _INT64_LIMIT else np.int64)
    wrong = x != np.repeat(want[s], size)
    if y is not None:
        wrong |= y != 0
    return ok & (_segment_count(wrong, on_starts) == 0)


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
# the reduction kernel: states as arrays, radix-keyed sorts per block of
# subsets
#
# Entry (kept1, kept2) of tr_others |psi><psi| sums amp1 * conj(amp2) over
# the row pairs that agree on the traced-out parties.  One call reduces a
# block of equal-sized subsets, one run of the T rows per subset: each row
# gets integer keys of its kept and of its complement columns, summed radix
# digit by digit over the transposed index array and offset by run, so rows
# are matched on their complement keys within their own subset only, and the
# pair products are summed per (subset, kept1, kept2) key.  A reduction is
# Hermitian, so a call sums only the pairs above the diagonal and finds the
# diagonal from the rows alone: its result is those two halves (_Half), and
# every verdict is read off them, in integers when exact.  The entries below
# the diagonal are the conjugates of those above; they are mirrored in
# (_mirrored) only for the segments that a caller reads as operators.  Float
# sums are added in pair order, as one subset alone would give them, so they
# keep their bits.  Keys are bounded, so every sort is _stable_order's, by
# radix while the bound is below 2^32.  An entry's kept row and column are
# gathered only for the segments mirrored.
# Exact states stay in int64 only where every product and sum provably
# fits, and in Python ints otherwise, so no result ever wraps.
#
# A family of states psi_s is reduced as one purified state (_Purified)
# Psi = sum_s |s>_a |psi_s>: block (s, t) of its reduction onto the ancilla
# and S is |psi_s><psi_t| traced down to S, segment (j, s, t) of a
# _Reductions.  The ancilla digits lead the kept key, so every entry above
# Psi's diagonal has s <= t.  Grouped by segment, those entries hold each
# (s, t) with s < t whole and the half above the diagonal of each (s, s),
# and the diagonal sums hold the diagonal of each (s, s); (t, s) is the
# conjugate transpose of (s, t).

_INT64_LIMIT = 1 << 63
# kept keys stay below this, so a (row, col) key pair fits one int64
_KEPT_KEY_LIMIT = 1 << 31
# counting takes a few array steps per (subset, term) pair; below this many
# pairs it is cheaper than recognising a code and reading its short words.
# verify_k_uniform medians, code stage forced against skipped, on the bench's
# seed-5 states: 0.21 against 0.11 ms for the 125-term 3-uniform state over
# GF(5) at k = 3 (2500 pairs), 2.3 against 2.0 ms for the 64-term one over
# GF(4) (5120 pairs), and 0.67 against 4.6 ms for the 729-term 4-uniform
# state on 11 parties at k = 4 (240570 pairs)
_CODE_MIN_PAIRS = 1 << 16


class _Encoded(NamedTuple):
    """A state as arrays, rows in the order of its amplitudes dict."""

    idx: np.ndarray  # (terms, N) int64 indices
    re: np.ndarray  # numerator parts a, b: int64 or Python ints if exact,
    im: np.ndarray  # physical float parts otherwise
    bound: int | None  # largest |a| or |b| of an exact encoding, None for floats


def _encode(state: PureState, floats: bool) -> _Encoded:
    """Views of the state's arrays; an exact state becomes physical floats
    when `floats` is set, as it must be in a family with a float state."""
    if floats or not state.exact:
        return _Encoded(state._idx, *_amplitude_parts(state), None)
    return _Encoded(state._idx, state._values[:, 0], state._values[:, 1], state._bound)


def _row_keys(a: np.ndarray, d: int, limit: int):
    """Integer keys of the rows of a: equal exactly when two rows are and
    ordered as the rows are; and a bound above every key.  A row's key is
    its radix key while d^width <= limit, and the id of its distinct row,
    from one np.unique of the rows, otherwise."""
    width = a.shape[1]
    if d**width <= limit:
        return a @ d ** np.arange(width - 1, -1, -1, dtype=np.int64), d**width
    distinct, ids = np.unique(a, axis=0, return_inverse=True)
    return ids.reshape(-1), len(distinct)


def _runs(columns: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The rows of an index array, given as its (N, T) transpose, seen
    through each column list of a (B, w) block: a (B T, w) array, run j the
    T rows on block[j]."""
    return np.swapaxes(columns[block], 1, 2).reshape(len(block) * columns.shape[1], block.shape[1])


def _complements(block: np.ndarray, N: int) -> np.ndarray:
    """The columns of range(N) outside each row of a (B, w) block, in
    order: a (B, N - w) array."""
    outside = np.ones((len(block), N), dtype=bool)
    outside[np.arange(len(block))[:, None], block] = False
    return np.nonzero(outside)[1].reshape(len(block), N - block.shape[1])


def _run_keys(columns: np.ndarray, block: np.ndarray, d: int, limit: int):
    """Each row's key within its run, as _row_keys gives it, for the rows of
    an index array, given as its (N, T) transpose, on each column list of a
    (B, w) block: a (B T,) array read run by run, run j the T rows on
    block[j]; and a bound above every key.  Radix keys are summed over the
    columns (oa._radix_keys) while d^w <= limit; the ids of _row_keys
    replace them otherwise."""
    if d ** block.shape[1] <= limit:
        return _radix_keys(columns, d, block).reshape(-1), d ** block.shape[1]
    return _row_keys(_runs(columns, block), d, limit)


def _by_run(keys: np.ndarray, size: int, runs: int, limit: int):
    """Keys of `runs` equal runs of rows from each row's key within its run,
    below size: equal exactly when two rows of one run have the same key,
    ordered by run and then by key; and a bound above every key.  The run
    offsets the key while runs times size stays within limit, and ids of
    distinct (run, key) pairs replace it otherwise."""
    if runs == 1:
        return keys, size
    if runs * size <= limit:
        return (keys.reshape(runs, -1) + np.arange(runs)[:, None] * size).reshape(-1), runs * size
    run = np.repeat(np.arange(runs), len(keys) // runs)
    distinct, ids = np.unique(np.stack([run, keys], axis=1), axis=0, return_inverse=True)
    return ids.reshape(-1), len(distinct)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for int64 keys in [0, bound): keys
    below 2^16 sort as uint16, which numpy sorts stably by radix, keys below
    2^32 in two such passes, low digit first, and wider keys by comparison.
    Radix passes run several times faster than the comparison sort."""
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        # astype keeps the low 16 bits
        order = np.argsort(keys.astype(np.uint16), kind="stable")
        high = keys[order]
        high >>= 16
        high = high.astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def _heads(ordered: np.ndarray) -> np.ndarray:
    """Where each group of equal values of a sorted array starts."""
    head = np.empty(len(ordered), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return head


def _partners(keys: np.ndarray, bound: int, within: np.ndarray) -> tuple:
    """(order, lo, counts) for keys below bound: the rows sorted by key,
    rows of equal keys in the order `within` lists them.  Row i's partners
    are order[lo[i] : lo[i] + counts[i]], the rows after it in its group of
    equal keys."""
    order = within[_stable_order(keys[within], bound)]
    head = _heads(keys[order])
    end = np.append(np.flatnonzero(head)[1:], len(order))[np.cumsum(head) - 1]
    start = np.arange(1, len(order) + 1)
    lo, counts = np.empty_like(order), np.empty_like(order)
    lo[order] = start
    counts[order] = end - start
    return order, lo, counts


def _blocks(keys: np.ndarray, order: np.ndarray, counts: np.ndarray) -> list:
    """The rows in (subset, kept) key order, as `order` lists them, cut
    between groups of equal keys into blocks of about oa._COUNT_BLOCK
    matched pairs, counts[i] of them for row i (the pairs above the
    diagonal), the budget that _call_width keeps a call's row arrays
    within.  No entry spans two blocks, and a block exceeds the budget by
    at most one group, whose pairs number at most the terms of the
    state."""
    ends = np.append(np.flatnonzero(np.diff(keys[order])) + 1, len(order))
    cum = np.cumsum(counts[order])
    cum_at_ends = cum[ends - 1]
    blocks, start = [], 0
    while start < len(order):
        done = cum[start - 1] if start else 0
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(cum_at_ends, done + oa._COUNT_BLOCK, side="right") - 1
        stop = ends[max(first, last)]
        blocks.append(order[start:stop])
        start = stop
    return blocks


class _Half(NamedTuple):
    """The reductions of one _reduce call as the kernel sums them, before
    any mirror, cut into segments: the entries above the diagonal, nonzero
    ones only when exact, and the diagonal ones, exact ones over the
    denominator r.  Segment i holds entries starts[0][i] : starts[0][i + 1]
    above the diagonal, each segment's in (kept1, kept2) key order, and
    starts[1][i] : starts[1][i + 1] on it, in key order.  Its readers decide
    each segment from those halves, as they decide the mirrored operator,
    whose entries below the diagonal are as far off as their mirrors above
    it."""

    keys: np.ndarray  # each row's (subset, kept) key of the runs, below bound
    bound: int
    upper: tuple  # (rows, cols) of the runs
    re: np.ndarray
    im: np.ndarray
    on: np.ndarray  # one row of each (subset, kept) key
    sums: np.ndarray  # the diagonal entry of that key: its rows' a^2 + b^2
    starts: tuple  # (segments + 1,) int64 each, above the diagonal and on it

    def split(self) -> tuple:
        """The halves as _maximally_mixed_mask and _deviations read a block,
        its diagonal real."""
        return (self.starts[0], self.re, self.im), (self.starts[1], self.sums, None)


def _ranges(starts: np.ndarray, ids: np.ndarray) -> tuple:
    """The positions of the entries of segments ids, segment i holding
    starts[i] : starts[i + 1], in order; and where each segment starts among
    them."""
    lo, size = starts[ids], starts[ids + 1] - starts[ids]
    within = np.concatenate([[0], np.cumsum(size)])
    return np.repeat(lo - within[:-1], size) + np.arange(within[-1]), within


def _mirrored(h: _Half, ids: np.ndarray, K: int) -> tuple:
    """Segments ids (j, s, t) of the Hermitian reductions of a family of K
    states whose halves h holds, as ((rows, cols), re, im, starts): each
    entry's row and column as rows of the runs, in lexicographic (row,
    column) order within its segment, and where each segment starts.

    A segment (j, s, t) with s < t lies above the diagonal whole, and
    (j, t, s) holds the conjugates (re, -im) of its entries, transposed.
    Row x of (j, s, s) holds, in column order, the conjugates of the entries
    (y, x) above the diagonal, which come in the order of y; its diagonal
    entry; and its own entries above the diagonal.  So those three lists,
    taken in that order, are put in place by one stable sort by the key of
    their rows (_stable_order) and one by their segment."""
    s, t = _members(ids, K)
    upper, on = h.starts
    pieces = []
    for take, starts, src in ((s >= t, upper, ids + (t - s) * (K - 1)), (s == t, on, ids), (s <= t, upper, ids)):
        at, within = _ranges(starts, src[take])
        pieces.append((at, np.repeat(np.flatnonzero(take), np.diff(within))))
    (flip, p1), (diag, p2), (own, p3) = pieces
    (rows, cols), sums = h.upper, h.sums[diag]
    row = np.concatenate([cols[flip], h.on[diag], rows[own]])
    col = np.concatenate([rows[flip], h.on[diag], cols[own]])
    re = np.concatenate([h.re[flip], sums, h.re[own]])
    im = np.concatenate([-h.im[flip], np.zeros_like(sums), h.im[own]])
    pos = np.concatenate([p1, p2, p3])
    order = _stable_order(h.keys[row], h.bound)
    order = order[_stable_order(pos[order], len(ids))]
    return (row[order], col[order]), re[order], im[order], np.searchsorted(pos[order], np.arange(len(ids) + 1))


@dataclass(eq=False)
class _Reductions:
    """The reductions of one kernel call onto a block of k-subsets, as the
    segments of its halves (_Half): segment (j, s, t), at index
    (j K + s) K + t, is |psi_s><psi_t| traced down to subset j for a family
    of K = len(r) states, over the denominator sqrt(r_s r_t) when exact.  A
    state is the family of one, whose segments are its reductions onto the
    subsets.

    Every verdict is read off the halves.  Only operator, operators and
    segments read whole segments, mirrored (_mirrored) from the halves for
    the segments asked for alone, with each entry's kept row and column."""

    d: int
    columns: np.ndarray  # (N, T) transpose of the reduced index array
    kept: np.ndarray  # (B, k) int64, the columns kept for each subset
    r: tuple  # each member's r, 1 for floats
    exact: bool
    half: _Half

    @property
    def k(self) -> int:
        return self.kept.shape[1]

    @cached_property
    def _kept_rows(self) -> np.ndarray:
        return _runs(self.columns, self.kept)

    def _denominators(self, ids: np.ndarray) -> list:
        """r_s r_t of each of segments ids."""
        s, t = _members(ids, len(self.r))
        return [self.r[a] * self.r[b] for a, b in zip(s.tolist(), t.tolist())]

    def segments(self, ids: np.ndarray) -> _Segments:
        """Segments ids of the call, mirrored from its halves, for
        _differences."""
        (rows, cols), re, im, starts = _mirrored(self.half, ids, len(self.r))
        # np.take is several times faster here than fancy indexing
        rows, cols = (np.take(self._kept_rows, x, axis=0) for x in (rows, cols))
        return _Segments(rows, cols, re, im, starts, self._denominators(ids))

    def operators(self, ids: np.ndarray) -> list:
        """Segments ids as SparseOperators, views of one mirror of them."""
        seg = self.segments(ids)
        parts = seg.rows, seg.cols, (seg.rows == seg.cols).all(axis=1), seg.re, seg.im
        bounds, (s, t) = seg.starts.tolist(), _members(ids, len(self.r))
        return [
            _sparse(self.d, *(x[lo:hi] for x in parts), self.r[a], self.r[b], self.exact)
            for a, b, lo, hi in zip(s.tolist(), t.tolist(), bounds, bounds[1:])
        ]

    def operator(self, j: int, s: int = 0, t: int = 0) -> SparseOperator:
        """Segment (j, s, t)."""
        K = len(self.r)
        return self.operators(np.array([(j * K + s) * K + t]))[0]

    def largest(self, ids: np.ndarray) -> np.ndarray:
        """The largest |value| of each of segments ids (j, s, t) with s < t,
        which lie above the diagonal whole, 0.0 for an empty one: abs() of
        each stored numerator or float, as np.hypot gives it, over the
        segment's sqrt(r_s r_t)."""
        at, starts = _ranges(self.half.starts[0], ids)
        out = np.empty(len(ids))
        for value, segments, on in _by_denominator(self._denominators(ids), starts):
            if on is None:
                segments, entries, within = slice(None), at, starts
            else:
                entries, within = at[on], np.concatenate([[0], np.cumsum(np.diff(starts)[segments])])
            scale, x, y = _floats(value, self.half.re[entries], self.half.im[entries])
            out[segments] = _segment_max(np.hypot(x, y), within) / math.sqrt(scale)
        return out

    def left(self, own) -> np.ndarray:
        """Which segments the halves leave undecided: every segment of a
        float call; of an exact one, each (s, s) where own() does not hold
        and each (s, t) with s != t whose entries, or their mirrors in
        (t, s), are not all zero."""
        K = len(self.r)
        if not self.exact:
            return np.ones(len(self.kept) * K * K, dtype=bool)
        left = ~own().reshape(-1, K, K)
        filled = np.diff(self.half.starts[0]).reshape(-1, K, K) > 0
        cross = ~np.eye(K, dtype=bool)
        left[:, cross] = (filled | filled.transpose(0, 2, 1))[:, cross]
        return left.reshape(-1)

    def maximally_mixed(self) -> np.ndarray:
        """Which exact segments (j, s, s) are exactly I / d^k over r_s; every
        (j, s, t) with s != t reads False."""
        return _maximally_mixed_mask(self.d**self.k, *self.half.split(), self.r)

    def deviations(self) -> np.ndarray:
        """Each reduction's largest entrywise distance from I / d^k, for a
        state (a family of one)."""
        return _deviations(self.d**self.k, *self.half.split(), self.r[0], self.r[0], self.exact)

    def same_as_first(self) -> np.ndarray:
        """Which exact segments (j, s, s) with s >= 1 are the same operator
        as (j, 0, 0): the same entries above the diagonal and on it, with
        x r_0 == y r_s for their values x over r_s and y over r_0; every
        other segment reads False.  Entries of a trace-1 positive operator
        are at most 1, so |x| <= r_s and |y| <= r_0, and the products stay
        below r_s r_0."""
        h, K = self.half, len(self.r)
        s, t = _members(np.arange(len(h.starts[0]) - 1), K)
        first = np.arange(len(s)) // K**2 * K**2
        halves = (h.starts[0], h.upper, (h.re, h.im)), (h.starts[1], (h.on,), (h.sums,))
        sizes = [np.diff(starts) for starts, _, _ in halves]
        ok = (s == t) & (s > 0) & (sizes[0] == sizes[0][first]) & (sizes[1] == sizes[1][first])
        r = np.array(self.r, dtype=object if max(self.r) ** 2 >= _INT64_LIMIT else np.int64)
        for (starts, at, values), size in zip(halves, sizes):
            # the entries of those segments, each paired with its (j, 0, 0) one
            ia = np.flatnonzero(np.repeat(ok, size))
            seg = np.repeat(np.arange(len(s)), size)[ia]
            ib = ia - starts[seg] + starts[first[seg]]
            differ = np.zeros(len(ia), dtype=bool)
            for x in at:
                xa, xb = (np.take(self._kept_rows, x[i], axis=0) for i in (ia, ib))
                # a bool matmul tells whether any column differs, faster than any(axis=1)
                differ |= (xa != xb) @ np.ones(self.k, dtype=bool)
            for part in values:
                differ |= part[ia] * r[:1] != part[ib] * r[s[seg]]
            ok &= np.bincount(seg[differ], minlength=len(s)) == 0
        return ok


def _reduce(e: _Encoded, subsets: list, d: int, r: int = 1) -> _Reductions:
    """Traces of |psi><psi| over the complement of each of a block of
    equal-sized party subsets, in one pass over arrays, exact ones over the
    denominator r.

    Two rows of a run that agree off the subset make the entry at their
    kept keys.  Only the pairs above the diagonal are summed: each row with
    the later rows of its complement group, ordered by kept key, which
    differ from it on the subset.  The diagonal entries are sums of
    a^2 + b^2 over the rows of one kept key.  Those two halves are the
    result (_Half), segment j holding subset j's entries; each entry below
    the diagonal is the conjugate of its mirror, put in place (_mirrored)
    only for the segments read as operators.  An
    exact encoding keeps its nonzero entries only.  A float one keeps every
    entry, each summed in row order (_sums), the order that one subset
    alone would give, so float sums keep their bits."""
    T, N = e.idx.shape
    B = len(subsets)
    kept = np.array(subsets, dtype=np.int64).reshape(B, -1)
    columns = np.ascontiguousarray(e.idx.T)
    # each row's kept key within its run, below size, and offset by run
    own, size = _run_keys(columns, kept, d, _KEPT_KEY_LIMIT)
    keys, n_kept = _by_run(own, size, B, _KEPT_KEY_LIMIT)
    by_kept = _stable_order(keys, n_kept)
    floats = e.bound is None
    # rows sharing the complement of row i in its run, in kept key order
    others = _complements(kept, N)
    order, lo, counts = _partners(*_by_run(*_run_keys(columns, others, d, _INT64_LIMIT), B, _INT64_LIMIT), by_kept)

    a, b = e.re, e.im
    # an entry sums at most one product per row, each below 2 * bound^2
    if not floats and 2 * e.bound**2 * T >= _INT64_LIMIT:
        a, b = a.astype(object), b.astype(object)
    # row i of the runs is term i mod T
    a, b = np.concatenate([a] * B), np.concatenate([b] * B)

    def entries(rows: np.ndarray) -> tuple:
        """The entries that a block of rows makes, its temporaries freed as
        soon as they are read: each entry's row, column and sums."""
        n = counts[rows]
        i2 = np.repeat(lo[rows] - (np.cumsum(n) - n), n)
        i2 += np.arange(len(i2))
        i2 = order[i2]
        # pairs grouped by entry key, below n_kept * size as both rows of a
        # pair share a run, and in their order above within an entry; any
        # pair of an entry names its rows
        pair_keys = np.repeat(keys[rows] * size, n)
        pair_keys += own[i2]
        perm = _stable_order(pair_keys, n_kept * size)
        head = _heads(pair_keys[perm])
        del pair_keys
        i1 = np.repeat(rows, n)[perm]
        i2 = i2[perm]
        del perm, n
        heads = np.flatnonzero(head)
        # (a1 + b1 i)(a2 - b2 i), each part gathered once and the products
        # formed in place
        a2, b2 = a[i2], b[i2]
        i2 = i2[heads]
        a1, b1 = a[i1], b[i1]
        i1 = i1[heads]
        re = a1 * a2
        np.multiply(b1, a2, out=a2)
        np.multiply(b1, b2, out=b1)
        re += b1
        del b1
        np.multiply(a1, b2, out=a1)
        del b2
        im = np.subtract(a2, a1, out=a2)
        del a1
        re, im = _sums(head, heads, re, im)
        if floats:
            return i1, i2, re, im
        nonzero = (re != 0) | (im != 0)
        return i1[nonzero], i2[nonzero], re[nonzero], im[nonzero]

    blocks = [by_kept] if counts.sum() <= oa._COUNT_BLOCK else _blocks(keys, by_kept, counts)
    parts = [entries(rows) for rows in blocks]
    del order, lo, counts
    rows_out, cols_out, re, im = parts[0] if len(parts) == 1 else (np.concatenate(column) for column in zip(*parts))
    del parts
    head = _heads(keys[by_kept])
    first = np.flatnonzero(head)
    (sums,) = _sums(head, first, (a * a + b * b)[by_kept])
    on = by_kept[first]
    # entries and diagonal rows come in (subset, kept) key order, so run by
    # run, and rows >= j T holds from the first of subset j on: one segment
    # per subset
    starts = tuple(np.searchsorted(x, np.arange(0, (B + 1) * T, T)) for x in (rows_out, on))
    return _Reductions(d, columns, kept, (r,), not floats, _Half(keys, n_kept, (rows_out, cols_out), re, im, on, sums, starts))


def _sums(head: np.ndarray, heads: np.ndarray, *parts: np.ndarray) -> list:
    """The sum of each run of every part, the runs starting where head is
    set, at the positions heads.  Floats are added in order, as np.bincount
    adds them, a running sum: np.add.reduceat may add floats pairwise,
    which changes their bits."""
    if parts[0].dtype.kind == "f":
        run = np.cumsum(head) - 1
        return [np.bincount(run, part, len(heads)) for part in parts]
    return [np.add.reduceat(part, heads) for part in parts]


def _call_width(e: _Encoded) -> int:
    """The entries that one subset adds to each row array of a _reduce call
    on e, one per term: its kept and complement keys, their order and
    counts, its copy of the amplitudes.  Calls sized by it keep those arrays
    within oa._COUNT_BLOCK int64 entries, 128 KiB, a size whose freed
    memory the allocator reuses, unless one subset's rows exceed it; the
    pair arrays are cut at the same budget by _blocks."""
    return len(e.idx)


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
    # every complement key is below d^N; while that is at most 2^32 the keys
    # are kept mod 2^32, in int32, which numpy sorts several times faster
    # than int64: weights, columns and every product and sum wrap mod 2^32,
    # and distinct keys stay distinct
    if d**N <= 1 << 32:
        weights = weights.astype(np.int32)

    @cache
    def arrays():
        """Columns, as int64 and in the keys' type, and full keys, made at
        the first block a caller asks for."""
        columns = np.ascontiguousarray(e.idx.T)
        keyed = columns.astype(weights.dtype, copy=False)
        return columns, keyed, weights @ keyed

    def passes(block: np.ndarray) -> np.ndarray:
        columns, keyed, full = arrays()
        ok = _balanced(columns, d, block)
        # complements are keyed only for the subsets whose counts passed
        counted = block[ok]
        if radix:
            complement = np.tile(full, (len(counted), 1))
            for j in range(k):
                complement -= keyed[counted[:, j]] * weights[counted[:, j], None]
        else:
            # distinct-row ids of the complements, one run per subset
            complement = _run_keys(columns, _complements(counted, N), d, _INT64_LIMIT)[0].reshape(len(counted), T)
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


class _Purified:
    """Psi = sum_s |s>_a |psi_s> over a family of K states on one system,
    encoded once as e: its first m columns are the ancilla, holding s in
    m = ceil(log K) digits of base max(d, 2).  A state is the family of
    one, with m = 0, and e is then views of the state's own arrays.

    Member s keeps its numerators as they are, so block (s, t) of a
    reduction of Psi is the reduction of |psi_s><psi_t| over the
    denominator sqrt(r_s r_t): segment (j, s, t) of what reductions gives
    for subset j, the one gather that the three verifiers share.  The
    family is exact only when every member is; otherwise every member is
    encoded as physical floats.
    """

    def __init__(self, family: list):
        K, d = len(family), family[0].d
        self.family, self.K, self.d, self.N = family, K, d, family[0].N
        self.exact = all(state.exact for state in family)
        self.r = [state.r if self.exact else 1 for state in family]
        parts = [_encode(state, not self.exact) for state in family]
        # a family of one has no ancilla digit; its reductions are over d
        self.base = max(d, 2) if K > 1 else d
        self.m = next(n for n in count() if self.base**n >= K)
        if K == 1:
            self.e = parts[0]
            return
        ancilla = self.member[:, None] // self.base ** np.arange(self.m - 1, -1, -1) % self.base
        idx = np.hstack([ancilla, np.concatenate([e.idx for e in parts])])
        re = np.concatenate([e.re for e in parts])
        im = np.concatenate([e.im for e in parts])
        self.e = _Encoded(idx, re, im, max(e.bound for e in parts) if self.exact else None)

    def undecided(self, k: int):
        """The k-subsets S of the N parties whose reduction of Psi onto the
        ancilla and S is not shown to be I / d^(k + m) by the two stages
        below, lazily in lexicographic order, in lists for one kernel call
        each: oa._in_blocks over _call_width, so that a call's row arrays
        stay within oa._COUNT_BLOCK entries unless one subset's exceed it;
        _blocks cuts its pair arrays at the same budget.

        Such a reduction has every block (s, t) equal to delta_st I / d^k, so a
        subset left out here is decided for a state (m = 0), a masker and a
        pure code alike.  Both stages need an exact Psi whose T terms share
        one squared modulus, with d^(k + m) dividing T.  The reduction onto a
        set U of columns is then I / d^|U| exactly when the rows take every
        value on U equally often and no two rows agree off U.  On a coset of a
        linear code C, the first holds exactly when no nonzero word of C-perp
        lies inside U, and the second when no nonzero word of C does
        (Delsarte; Hedayat, Sloane & Stufken, Thm 3.29).

        1. Code.  When C(N, k) T >= _CODE_MIN_PAIRS, the rows are a coset of
           an additive code C over the base-p digits of GF(d), which
           every GF(d)-linear code is, and w(C-perp) > k + m, the subsets
           left are those whose ancilla columns and S hold the support of a
           nonzero word of symbol weight at most k + m of C, all of which
           one read of the rows finds (codes._read_coset).  With no such
           word, as when w(C) > k + m too, no subset is walked.
        2. Counting.  Otherwise the ancilla columns and S are counted in blocks
           (_counting_check) whose arrays hold at most max(T, oa._COUNT_BLOCK)
           entries each.

        Both stages leave the same subsets.  The matrix_dim cap bounds the
        d^k-wide reductions of what is left, so it is checked before the first
        subset left is found, and at once, before any subset is listed, when
        counting cannot apply.
        """
        e, m, d, N = self.e, self.m, self.d, self.N
        dim = d**k
        passes = _counting_check(e, d, k + m)
        if passes is None:
            check_cap("matrix_dim", dim, what=f"reductions of dimension {dim}")
            yield from _in_blocks(combinations(range(N), k), _call_width(e))
            return
        width = len(e.idx)
        supports = _read_coset(d, e.idx, k + m) if math.comb(N, k) * width >= _CODE_MIN_PAIRS else None
        if supports is not None:
            if not len(supports):
                return
            passes, width = _avoiding(supports), len(supports)

        def left():
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

        yield from _in_blocks(left(), _call_width(e))

    def reductions(self, subsets: list) -> _Reductions:
        """Psi reduced onto its ancilla and each of a block of equal-sized
        party subsets S in one kernel call, as the segments (j, s, t):
        |psi_s><psi_t| traced down to subset j, over the denominator
        sqrt(r_s r_t) when exact.  For a family of one, the state's own
        reductions, as the kernel gives them.

        Otherwise the call's halves are grouped by segment.  Every entry
        above Psi's diagonal has s <= t, and one stable sort
        (_stable_order) on its (subset, s, t) key keeps each segment's in
        key order: every (s, t) with s < t whole and the half above the
        diagonal of each (s, s).  The diagonal sums already come in
        (subset, s, row) order.  The ancilla columns are then dropped from
        the kept ones.
        """
        m, K = self.m, self.K
        red = _reduce(self.e, [tuple(range(m)) + tuple(p + m for p in S) for S in subsets], self.base, self.r[0])
        if K == 1:
            return red
        h, T, n = red.half, len(self.e.idx), len(subsets) * K * K
        rows, cols = h.upper
        key = (rows // T * K + self.member[rows % T]) * K + self.member[cols % T]
        order = _stable_order(key, n)
        diagonal = h.on // T * K * K + self.member[h.on % T] * (K + 1)
        starts = tuple(np.searchsorted(x, np.arange(n + 1)) for x in (key[order], diagonal))
        half = h._replace(upper=(rows[order], cols[order]), re=h.re[order], im=h.im[order], starts=starts)
        return _Reductions(self.d, red.columns, red.kept[:, m:], tuple(self.r), self.exact, half)

    @cached_property
    def member(self) -> np.ndarray:
        """The member s of each term of Psi."""
        return np.repeat(np.arange(self.K), [state.num_terms for state in self.family])

    def inner_products(self) -> list:
        """(s, t, <psi_s|psi_t>) for the pairs s < t of the family that are
        not shown orthogonal, in combinations order, each value an
        InnerProduct.

        Segment (s, t) of the reduction of Psi onto its ancilla alone holds
        one entry at most, <psi_t|psi_s>, summed over the terms of psi_s in
        their order.  The pairs s < t are exactly the entries above its
        diagonal.  An exact reduction stores nonzero entries only, so those
        are the candidate pairs; a float one stores every pair that shares
        an index.  Two exact members of a
        family that mixes modes are read exactly, from the family of its
        exact members.  One state makes no reduction.
        """
        if self.K < 2:
            return []
        h = self.reductions([()]).half
        bra, ket = (self.member[x] for x in h.upper)
        found = []
        for s, t, re, im in zip(*(x.tolist() for x in (bra, ket, h.re, h.im))):
            if self.exact:
                found.append((s, t, InnerProduct((re, -im), self.r[t], self.r[s], True)))
            elif not (self.family[s].exact and self.family[t].exact):
                # 0.0 - im, not -im: a zero sum keeps the sign of a sum from 0.0
                found.append((s, t, InnerProduct(complex(re, 0.0 - im), 1, 1, False)))
        own = [s for s, state in enumerate(self.family) if state.exact]
        if 1 < len(own) < self.K:
            found += [(own[s], own[t], ip) for s, t, ip in _Purified([self.family[s] for s in own]).inner_products()]
            found.sort(key=lambda pair: pair[:2])
        return found

    @cached_property
    def _terms(self) -> tuple:
        """The members' terms, for superpositions: each term's member and
        physical parts (_amplitude_parts), its slot among the distinct
        indices in order of first appearance, and those indices."""
        idx = self.e.idx[:, self.m :]
        x, y = (np.concatenate(parts) for parts in zip(*map(_amplitude_parts, self.family)))
        _, first, inv = np.unique(_row_keys(idx, self.d, _INT64_LIMIT)[0], return_index=True, return_inverse=True)
        order = np.argsort(first)
        return self.member, x, y, np.argsort(order)[inv], idx[first[order]]

    def superposed(self, coeffs: np.ndarray, k: int):
        """(subsets, reductions) for the k-subsets in lexicographic order,
        of sum_s coeffs[s] |psi_s> in floats, its terms added member by
        member in order: one kernel call per list of subsets sized by
        _call_width, whose segment j is the reduction onto subset j, read
        off its arrays and never built as an operator.  It is reduced as
        encoded: a superposition of members that are orthonormal within
        FLOAT_TOL need not meet NORM_TOL."""
        member, x, y, slot, support = self._terms
        cx, cy = coeffs.real[member], coeffs.imag[member]
        re, im = np.zeros(len(support)), np.zeros(len(support))
        np.add.at(re, slot, cx * x - cy * y)
        np.add.at(im, slot, cx * y + cy * x)
        keep = (re != 0) | (im != 0)
        e = _Encoded(support[keep], re[keep], im[keep], None)
        for subsets in _in_blocks(combinations(range(self.N), k), _call_width(e)):
            yield subsets, _reduce(e, subsets, self.d)


def reduction(state: PureState, parties) -> SparseOperator:
    """Reduced density operator of `state` on `parties`, exact when the
    state is exact."""
    parties = _validate_parties(state.N, parties)
    dim = state.d ** len(parties)
    check_cap("matrix_dim", dim, what=f"reduction onto {len(parties)} parties of dimension {state.d}")
    return _Purified([state]).reductions([parties]).operator(0)


def inner_product(s1: PureState, s2: PureState) -> InnerProduct:
    """<s1|s2>, exact when both states are exact: the conjugate of entry
    (0, 1) of the reduction of their purified state onto its ancilla, so
    float sums run over the shared indices in s1's term order."""
    if (s1.N, s1.d) != (s2.N, s2.d):
        raise ValueError("states live on different systems")
    for _, _, ip in _Purified([s1, s2]).inner_products():
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
    pure state, reported without checking.  The state is a _Purified
    family of one, with m = 0: when its T terms share one squared modulus
    and d^k divides T, a subset S passes if the rows take each value on S
    exactly T / d^k times and no two rows agree off S (the
    irredundant-array criterion).  On a coset of a linear [N, t]_d code C
    that holds exactly when no nonzero word of C or C-perp lies inside S
    (Delsarte; Hedayat, Sloane & Stufken, Thm 3.29), so when w(C-perp) > k
    the short words of C name the subsets left, none when w(C) > k too;
    other rows are counted.  Every subset left, and every subset of a float
    state, goes through the reduction kernel, one call per list that
    undecided yields, which alone reports failures.  A call's result is the
    two halves the kernel summed, the entries above each diagonal and the
    diagonal itself (_Half): whether each subset's reduction is exactly
    I / d^k, and its deviation, are read off those halves, in integers when
    the state is exact, and no operator is ever mirrored whole.  A pass
    from any stage gives the same report.
    """
    if not 0 <= k <= state.N:
        raise ValueError(f"k = {k} outside [0, {state.N}]")
    if k == 0:
        return UniformityReport(state.N, state.d, 0, "pass", 0, [])
    if k > state.N // 2:
        return UniformityReport(state.N, state.d, k, "impossible", 0, [])
    psi = _Purified([state])
    failures = []
    max_dev = 0.0
    for subsets in psi.undecided(k):
        red = psi.reductions(subsets)
        # deviations exactly 0.0 where an exact reduction is I / d^k
        mixed = red.maximally_mixed() if state.exact else np.zeros(len(subsets), dtype=bool)
        if mixed.all():
            continue
        for subset, dev in zip(compress(subsets, ~mixed), red.deviations()[~mixed].tolist()):
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
    with np.errstate(over="ignore"):
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
