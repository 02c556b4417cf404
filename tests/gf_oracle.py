"""GF(p^m) arithmetic from its definition, for whole operation tables.

gf.FiniteField multiplies through log/antilog tables with a zero sentinel
and adds in odd-characteristic extension fields through a digit table.  The
tests hold it to this oracle, which uses none of its tables: an element's
base-p digits are the coefficients of its polynomial, constant term first;
a product is the polynomial product reduced mod the field's modulus; a sum
and a negation act on each digit mod p.  Each function returns the whole
table, the (q, q) grid of a binary operation or the q entries of negation,
as an int64 array indexed by the operands.  oracle_power_tables walks the
powers of a generator one polynomial product at a time, as gf once built
its exp and log tables, and oracle_least_generator finds the least element
of order q - 1 by the same walk.
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


def _times_x(p: int, v: list, modulus) -> list:
    """The digits of v x mod the monic modulus."""
    return [(a - v[-1] * f) % p for a, f in zip([0] + v[:-1], modulus)]


def _walk(p: int, m: int, modulus, g: int, steps: int) -> list:
    """g^0, g^1, ... up to g^steps or the first power after g^0 that is 1,
    each the last times g: the sum of the last's products with x^j,
    weighted by the digits of g."""
    weights = [p**i for i in range(m)]
    # g's digits up to its top nonzero one
    g_digits = [g // w % p for w in weights if w <= g]
    acc, out = [1] + [0] * (m - 1), [1]
    while len(out) <= steps and (len(out) == 1 or out[-1] != 1):
        shifted, nxt = acc, [0] * m
        for j, c in enumerate(g_digits):
            if j:
                shifted = _times_x(p, shifted, modulus)
            if c:
                nxt = [(a + c * b) % p for a, b in zip(nxt, shifted)]
        acc = nxt
        out.append(sum(a * w for a, w in zip(acc, weights)))
    return out


def _is_generator(walk: list, q: int) -> bool:
    """Whether a walk of up to q - 1 steps reached 1 first at step q - 1."""
    return len(walk) == q and walk[-1] == 1


def oracle_power_tables(p: int, m: int, modulus, g: int) -> tuple:
    """(exp, log) over the generator g: exp[i] = g^i for i < q - 1, and
    log[x] the i with g^i = x for x != 0, -1 for 0, as int64 arrays.  g
    must have order q - 1, so that its powers below q - 1 are distinct."""
    q = p**m
    walk = _walk(p, m, modulus, g, q - 1)
    assert _is_generator(walk, q)
    log = np.full(q, -1, dtype=np.int64)
    log[walk[:-1]] = np.arange(q - 1)
    return np.array(walk[:-1], dtype=np.int64), log


def oracle_least_generator(p: int, m: int, modulus) -> int:
    """The least element of order q - 1; 1 for GF(2)."""
    q = p**m
    if q == 2:
        return 1
    return next(g for g in range(2, q) if _is_generator(_walk(p, m, modulus, g, q - 1), q))
