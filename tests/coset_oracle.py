"""Cosets of codes by brute force, for small row sets.

codes._read_coset reads rows over GF(q) = GF(p^m) as a coset of an
additive code: each symbol is split into its m base-p digits (the
coefficients of its polynomial, constant term first), a row-reduced sample
gives a basis, parity checks in floats test every row, radix keys test
that the rows are distinct, and the dual's distance comes from the
MacWilliams transform of symbol weights.  The tests hold it to this
oracle, which uses none of those steps:

- oracle_coset splits symbols by divmod, reduces every difference from the
  first row at once with oracle_rref, enumerates the span, and takes the
  dual's distance from its definition: the rows take every value equally
  often on each set of w parties exactly when the dual has no nonzero word
  of weight at most w (Delsarte);
- oracle_linear_code reduces the symbol differences, formed by scalar
  field calls, over GF(q), for the tests that must tell a GF(q)-linear
  coset from a coset of an additive code only.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import numpy as np
from rref_oracle import oracle_rref

from kuniform.codes import LinearCode
from kuniform.gf import field_for_order, field_new, is_prime_power


def _valid(q: int, rows: np.ndarray, field_cap: int) -> bool:
    """A prime power q within the cap, symbols in range, rows distinct."""
    if q > field_cap or is_prime_power(q) is None or rows.min() < 0 or rows.max() >= q:
        return False
    return len({tuple(row) for row in rows.tolist()}) == len(rows)


def oracle_digits(q: int, rows: np.ndarray) -> np.ndarray:
    """(T, N m): each symbol of GF(p^m) as its m base-p digits, constant
    term first, one symbol at a time."""
    p, m = is_prime_power(q)
    out = []
    for row in rows.tolist():
        digits = []
        for x in row:
            for _ in range(m):
                x, digit = divmod(x, p)
                digits.append(digit)
        out.append(digits)
    return np.array(out, dtype=np.int64).reshape(len(rows), -1)


def _strength(rows: np.ndarray, q: int, w: int) -> bool:
    """The rows take each of the q^w values on every set of w columns
    equally often."""
    T, N = rows.shape
    if T % q**w:
        return False
    for cols in combinations(range(N), w):
        counts = Counter(tuple(row) for row in rows[:, cols].tolist())
        if len(counts) != q**w or set(counts.values()) != {T // q**w}:
            return False
    return True


def oracle_coset(q: int, rows: np.ndarray, w: int, field_cap: int) -> set | None:
    """The supports, as a set of bool tuples, of the words of C with 1 to
    w parties where some digit is nonzero, when the rows are a coset
    rows[0] + C of an additive code C over the base-p digits and an array
    of strength w; None otherwise.  The rows are a coset when they are
    T = p^r distinct rows whose digit differences from rows[0], reduced all
    at once, span r dimensions."""
    if not _valid(q, rows, field_cap):
        return None
    T, N = rows.shape
    p, m = is_prime_power(q)
    digits = oracle_digits(q, rows)
    differences = (digits - digits[0]) % p
    R, pivots = oracle_rref(field_new(p), differences)
    r = len(pivots)
    if p**r != T:
        return None
    # T distinct differences in a span of p^r = T words are all of it
    span = {tuple(np.array(c) @ R[:r] % p) for c in product(range(p), repeat=r)}
    assert span == {tuple(word) for word in differences.tolist()}
    if not _strength(rows, q, w):
        return None
    supports = {tuple(bool(x) for x in np.reshape(word, (N, m)).any(axis=1)) for word in span}
    return {s for s in supports if 0 < sum(s) <= w}


def oracle_linear_code(q: int, rows: np.ndarray, field_cap: int) -> LinearCode | None:
    """The GF(q)-linear code C with rows = rows[0] + C, or None: the rows
    are T = q^t distinct rows whose symbol differences from rows[0],
    reduced all at once over GF(q), span t dimensions."""
    if not _valid(q, rows, field_cap):
        return None
    T, N = rows.shape
    t = next(t for t in range(T + 1) if q**t >= T)
    F = field_for_order(q)
    base = rows[0].tolist()
    differences = np.array([[F.sub(x, y) for x, y in zip(row, base)] for row in rows.tolist()], dtype=np.int64)
    R, pivots = oracle_rref(F, differences.reshape(T, N))
    # T distinct differences in a span of q^t = T words are all of it
    return LinearCode(F, R[:t]) if q**t == T and len(pivots) == t else None
