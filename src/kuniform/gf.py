"""Exact arithmetic in Galois fields GF(p^m).

Field elements are plain Python integers in [0, p^m).  The base-p digits of
an element are the coefficients of its polynomial representative, constant
term least significant, so for GF(4) the element 2 is the polynomial x and
3 is x+1.  The reducing modulus is canonical: the lexicographically smallest
monic irreducible polynomial of degree m over Z_p, coefficients compared from
the constant term upward.  Two fields built from equal (p, m) therefore have
identical multiplication tables, on every run.

Arithmetic on numpy arrays costs a few numpy calls per call, whatever the
array size, because each operation is one table gather (two for addition
in an odd-characteristic extension field) or plain integer arithmetic:

- products go through log/antilog tables over a fixed multiplicative
  generator, with a zero sentinel as the log of 0, so no mask is needed;
  over a prime field they are a * b mod p, with no table;
- negation is a lookup in a length-q table;
- addition is (a + b) mod p in a prime field, XOR in characteristic 2,
  and otherwise the digit-wise sum mod p of two rows of the (q, m) digit
  table, read back as an element.

The scalar methods read the same tables.  FiniteField describes the layout.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .caps import check_cap, get_cap
from .errors import KuniformError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n = p^m and p prime, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p:
            continue
        m, rest = 0, n
        while rest % p == 0:
            rest //= p
            m += 1
        return (p, m) if rest == 1 else None
    return (n, 1)  # no factor <= sqrt(n): n is prime


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z_p; a polynomial is a list of coefficients,
# constant term first, no trailing zeros (except [0] for the zero polynomial)


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(p: int, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(p: int, a: list[int], mod: list[int]) -> list[int]:
    a = list(a)
    inv_lead = pow(mod[-1], -1, p)
    while len(a) >= len(mod) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(mod)
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = _poly_trim(a)
    return _poly_trim(a)


def _is_irreducible(p: int, poly: list[int]) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_mod(p, poly, divisor)):
                return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # the polynomial x
    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        if _is_irreducible(p, cand):
            return tuple(cand)
    raise KuniformError(f"no irreducible polynomial of degree {m} over Z_{p}")


class FiniteField:
    """GF(p^m) with canonical modulus; every array operation is a table gather.

    Tables, built once at construction (read-only):

    - ``_exp``: the antilog table g^0 .. g^(q-2), written twice so that
      ``_exp[la + lb]`` needs no modulo, then a zero tail of length 2q-1.
    - ``_log``: discrete logs of 1 .. q-1; ``_log[0]`` is the zero sentinel
      2(q-1), the first index of the zero tail.  Any sum of two logs that
      involves a sentinel lands in the tail, so a product is
      ``_exp[_log[a] + _log[b]]`` with no test for zero.
    - ``_neg``: the additive inverse of every element.
    - ``_digits``: the (q, m) base-p digits of every element, constant
      term first, in the narrowest unsigned type that holds 2(p-1);
      odd-characteristic extension fields add digit-wise mod p and read
      the sum back through ``_powers`` (p^0 .. p^(m-1)).

    ``_exp``, ``_log``, ``_neg`` and ``_powers`` are int64.

    Prime fields multiply and add as integers mod p, characteristic 2 adds
    by XOR.

    The array methods take numpy integer arrays (or anything np.asarray
    turns into int64) whose entries lie in [0, q), and broadcast them.
    Entries are not range-checked: a negative entry wraps around a table
    and silently gives a wrong element, so callers check their inputs (as
    LinearCode and codes._read_coset do).  Each result is a fresh, writable
    int64 array that the caller may modify.

    Instances are immutable after construction, so any number of callers
    may share one.  Use field_new() rather than the constructor: it validates,
    applies the field_order cap and caches one instance per (p, m).
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus: tuple[int, ...] = _canonical_modulus(p, m)
        self._powers = p ** np.arange(m, dtype=np.int64)
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _encode(self, coeffs) -> int:
        return sum(int(c) * int(w) for c, w in zip(coeffs, self._powers))

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial multiply mod the modulus; used only to find the
        generator."""
        prod = _poly_mul(self.p, self._digits[a].tolist(), self._digits[b].tolist())
        return self._encode(_poly_mod(self.p, prod, list(self.modulus)))

    def _times(self, c: list) -> list:
        """Multiplication by the element with digits c, as m rows of digits
        over GF(p): row i holds the digits of c x^i, so a row of digits of a,
        times them mod p, is the digits of c a."""
        p, low = self.p, self.modulus[:-1]
        rows = [c]
        for _ in range(self.m - 1):
            # v x, less its top digit times the monic modulus
            v = rows[-1]
            rows.append([(a - v[-1] * f) % p for a, f in zip([0] + v[:-1], low)])
        return rows

    def _build_tables(self) -> None:
        q, p = self.order, self.p
        # digits in the narrowest type that holds the sum of two: the adds
        # and the % p of add_arr then move a fraction of the bytes
        digits = np.arange(q, dtype=np.int64)[:, None] // self._powers % p
        self._digits = digits.astype(np.min_scalar_type(2 * (p - 1)))
        self._neg = (p - digits) % p @ self._powers
        g = self._find_generator()
        # the digits of g^0 .. g^(q-2) by doubling: with g^0 .. g^(n-1)
        # known, g^n .. g^(2n-1) are their products with c = g^n, one linear
        # map of their digit rows, and c times itself is g^2n
        powers = np.zeros((q - 1, self.m), dtype=np.int64)
        powers[0, 0] = 1
        n, c = 1, self._digits[g].tolist()
        while n < q - 1:
            times = self._times(c)
            powers[n : 2 * n] = powers[: min(n, q - 1 - n)] @ np.array(times) % p
            c = [sum(x * row[j] for x, row in zip(c, times)) % p for j in range(self.m)]
            n *= 2
        exp = np.zeros(4 * q - 3, dtype=np.int64)
        exp[: q - 1] = powers @ self._powers
        log = np.full(q, 2 * (q - 1), dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        # the powers of a generator are the q - 1 nonzero elements, so each
        # gets a log; a repeated or zero power leaves one without
        if (log[1:] == 2 * (q - 1)).any():
            raise KuniformError("generator order mismatch while building tables")
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        self.generator = g
        self._exp, self._log = exp, log
        for table in (self._powers, self._digits, self._neg, exp, log):
            table.setflags(write=False)

    def _find_generator(self) -> int:
        q = self.order
        if q == 2:
            return 1
        need = [(q - 1) // f for f in prime_factors(q - 1)]
        for g in range(2, q):
            if all(self._raw_pow(g, e) != 1 for e in need):
                return g
        raise KuniformError("no multiplicative generator found")

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            e >>= 1
            if e:
                base = self._raw_mul(base, base)
        return out

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return int((self._digits[a] + self._digits[b]) % self.p @ self._powers)

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._exp[self.order - 1 - self._log[a]])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 1 if e == 0 else 0
        la = int(self._log[a])
        return int(self._exp[(la * e) % (self.order - 1)])

    # -- vectorized arithmetic over numpy integer arrays ---------------------

    def add_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        D = self._digits  # take, not D[a]: a row gather is several times faster
        return (D.take(a, axis=0) + D.take(b, axis=0)) % self.p @ self._powers

    def neg_arr(self, a):
        return self._neg[np.asarray(a, dtype=np.int64)]

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    # -- misc ----------------------------------------------------------------

    def element_to_coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, constant term first."""
        return tuple(self._digits[a].tolist())

    def coeffs_to_element(self, coeffs) -> int:
        return self._encode(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.order})=GF({self.p}^{self.m})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


def field_new(p: int, m: int = 1) -> FiniteField:
    """Build (or fetch the cached) GF(p^m).

    Raises ValueError for non-prime p or m < 1, CapExceeded when p^m is
    larger than the field_order cap.  Since p >= 2, p^m exceeds the cap
    whenever m exceeds its bit length, so the power is taken only up to
    that exponent: a huge m is refused without computing p^m.  The cap is
    checked before p is tested for primality, so a huge p is refused
    without trial division.
    """
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"m = {m} must be positive")
    bound = get_cap("field_order").bit_length() + 1
    what = f"field order {p}^{m}" if m <= bound else f"field order {p}^{m} >= {p}^{bound}"
    check_cap("field_order", p ** min(m, bound), what=what)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return _cached_field(p, m)


def field_for_order(q: int) -> FiniteField:
    """GF(q) for a prime power q; ValueError otherwise.  A q above the
    field_order cap is refused before it is factored."""
    check_cap("field_order", q, what=f"field order {q}")
    pm = is_prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return field_new(*pm)
