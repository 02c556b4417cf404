"""GF(p^m) arithmetic from its definition, for whole operation tables.

gf.FiniteField multiplies through log/antilog tables with a zero sentinel
and adds in odd-characteristic extension fields through a digit table.  The
tests hold it to this oracle, which uses none of its tables: an element's
base-p digits are the coefficients of its polynomial, constant term first;
a product is the polynomial product reduced mod the field's modulus; a sum
and a negation act on each digit mod p.  Each function returns the whole
table, the (q, q) grid of a binary operation or the q entries of negation,
as an int64 array indexed by the operands.
"""

from __future__ import annotations

import numpy as np


def _digits(p: int, m: int) -> np.ndarray:
    """(p^m, m) base-p digits of every element, constant term first."""
    out = np.zeros((p**m, m), dtype=np.int64)
    rest = np.arange(p**m)
    for i in range(m):
        rest, out[:, i] = np.divmod(rest, p)
    return out


def _elements(digits: np.ndarray, p: int) -> np.ndarray:
    """The elements whose digits (last axis, constant term first) these are."""
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for i in range(digits.shape[-1] - 1, -1, -1):
        out = out * p + digits[..., i]
    return out


def oracle_add(p: int, m: int) -> np.ndarray:
    """(q, q) sums: digit by digit mod p."""
    d = _digits(p, m)
    return _elements((d[:, None, :] + d[None, :, :]) % p, p)


def oracle_neg(p: int, m: int) -> np.ndarray:
    """(q,) negatives: each digit d to (p - d) mod p."""
    return _elements((p - _digits(p, m)) % p, p)


def oracle_mul(p: int, m: int, modulus) -> np.ndarray:
    """(q, q) products: schoolbook polynomial product of the two digit
    vectors, then long division by the monic modulus (m + 1 coefficients,
    constant term first), highest degree first."""
    assert len(modulus) == m + 1 and modulus[-1] == 1
    d = _digits(p, m)
    q = p**m
    prod = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod[:, :, i + j] += d[:, None, i] * d[None, :, j]
    prod %= p
    for top in range(2 * m - 2, m - 1, -1):
        lead = prod[:, :, top].copy()
        for k, c in enumerate(modulus):
            prod[:, :, top - m + k] = (prod[:, :, top - m + k] - lead * c) % p
    return _elements(prod[:, :, :m], p)
