"""Field arithmetic tests.

The oracles here are independent of the implementation's log tables: axioms
are checked exhaustively, inverses by brute-force search, the canonical
modulus against a from-scratch irreducibility filter, and whole operation
tables against polynomial and digit-wise arithmetic (gf_oracle).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gf_oracle import oracle_add, oracle_least_generator, oracle_mul, oracle_neg, oracle_power_tables

from kuniform import CapExceeded, gf
from kuniform.cli import run
from kuniform.errors import KuniformError
from kuniform.gf import (
    FiniteField,
    field_for_order,
    field_new,
    is_prime,
    is_prime_power,
    prime_factors,
)

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIME_POWERS_64 = PRIME_POWERS_16 + [17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
ORACLE_ORDERS = PRIME_POWERS_64 + [81, 125, 243, 256]
PRIME_POWERS_1024 = [q for q in range(2, 1025) if is_prime_power(q)]


def test_is_prime_basics():
    primes = [n for n in range(100) if is_prime(n)]
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(91)


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(1) is None
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None
    assert is_prime_power(2**16) == (2, 16)


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(7) == [7]


def test_field_new_validation():
    with pytest.raises(ValueError):
        field_new(4)  # not prime
    with pytest.raises(ValueError):
        field_new(2, 0)
    with pytest.raises(CapExceeded):
        field_new(2, 17)  # 2^17 over the default cap
    with pytest.raises(ValueError):
        field_for_order(6)


def test_canonical_moduli():
    # reference values: unique/smallest irreducibles for small degrees
    assert field_new(2).modulus == (0, 1)  # x
    assert field_new(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    # constant-term-first comparison puts x^3+x^2+1 before x^3+x+1
    assert field_new(2, 3).modulus == (1, 0, 1, 1)
    assert field_new(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert field_new(2, 4).modulus == (1, 0, 0, 1, 1)  # x^4+x^3+1


def _modulus_oracle(p: int, m: int) -> tuple[int, ...]:
    """Smallest (constant-term-first lexicographic) monic irreducible of
    degree m over Z_p, by filtering against all lower-degree monic products."""

    def divides(d, poly):
        # long division, remainder == 0?
        poly = list(poly)
        while len(poly) >= len(d):
            if poly[-1] != 0:
                shift = len(poly) - len(d)
                c = poly[-1] * pow(d[-1], -1, p) % p
                for i, dc in enumerate(d):
                    poly[shift + i] = (poly[shift + i] - c * dc) % p
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
            if len(poly) < len(d):
                break
        return not any(poly)

    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        reducible = False
        for deg in range(1, m // 2 + 1):
            for dt in itertools.product(range(p), repeat=deg):
                if divides(list(dt) + [1], cand):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_modulus_matches_oracle(p, m):
    assert field_new(p, m).modulus == _modulus_oracle(p, m)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity, identities over all
    triples; exhaustive for every p^m <= 16."""
    F = field_for_order(q)
    els = range(q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_inverses_exhaustive(q):
    """field_mul(a, field_inv(a)) == 1 for every nonzero a, p^m <= 64."""
    F = field_for_order(q)
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_known_products():
    F3 = field_new(3)
    assert F3.mul(2, 2) == 1
    F4 = field_new(2, 2)
    # element 2 is x; x*x = x+1 = element 3 under x^2+x+1
    assert F4.mul(2, 2) == 3
    assert F4.mul(2, 3) == 1  # x(x+1) = x^2+x = 1
    F2 = field_new(2)
    assert F2.add(1, 1) == 0


def test_pow_and_div():
    F = field_new(3, 2)
    for a in range(1, 9):
        assert F.pow(a, 8) == 1  # q-1 = 8
        assert F.pow(a, -1) == F.inv(a)
        assert F.div(F.mul(a, 5), 5) == a
    assert F.pow(0, 0) == 1
    assert F.pow(0, 3) == 0


def test_determinism_same_tables():
    """Two constructions with equal (p, m) give identical tables."""
    a = FiniteField(3, 2)
    b = FiniteField(3, 2)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert np.array_equal(a._exp, b._exp)
    assert field_new(3, 2) is field_new(3, 2)  # cached singleton


def _assert_power_tables(F: FiniteField) -> None:
    """F's exp and log tables are the walk's over F.generator, laid out as
    FiniteField describes: exp written twice, then its zero tail, and the
    sentinel 2(q - 1) as the log of 0."""
    q = F.order
    exp, log = oracle_power_tables(F.p, F.m, F.modulus, F.generator)
    assert np.array_equal(F._exp[: q - 1], exp) and np.array_equal(F._exp[q - 1 : 2 * (q - 1)], exp)
    assert len(F._exp) == 4 * q - 3 and not F._exp[2 * (q - 1) :].any()
    assert F._log[0] == 2 * (q - 1) and np.array_equal(F._log[1:], log[1:])


def test_power_tables_match_the_walk():
    """Tables built by doubling the powers of the generator are the ones a
    walk of one polynomial product per power gives, for every prime power
    up to 1024, whose generator is the least element of order q - 1."""
    for q in PRIME_POWERS_1024:
        F = FiniteField(*is_prime_power(q))
        assert F.generator == oracle_least_generator(F.p, F.m, F.modulus)
        _assert_power_tables(F)


@pytest.mark.parametrize("p,m", [(2, 16), (3, 9), (5, 6)])
def test_large_power_tables_match_the_walk(p, m):
    """The same for the largest fields the default field_order cap allows
    and two odd-characteristic ones of 15625 and 19683 elements."""
    _assert_power_tables(FiniteField(p, m))


@pytest.fixture(scope="module", params=ORACLE_ORDERS)
def oracle_field(request):
    """(F, sums, negatives, products) with the oracle's tables, reduced mod
    the modulus found by the from-scratch irreducibility filter."""
    F = field_for_order(request.param)
    p, m = F.p, F.m
    modulus = _modulus_oracle(p, m)
    assert F.modulus == modulus
    return F, oracle_add(p, m), oracle_neg(p, m), oracle_mul(p, m, modulus)


def test_array_ops_match_the_oracle(oracle_field):
    """The full q x q grid in one broadcast row-by-column call, zeros
    included; every result a fresh, writable int64 array."""
    F, add, neg, mul = oracle_field
    col = np.arange(F.order)[:, None]
    row = col.T
    results = [(F.add_arr(col, row), add), (F.mul_arr(col, row), mul), (F.neg_arr(row[0]), neg)]
    for got, want in results:
        assert got.dtype == np.int64 and got.flags.writeable and got.flags.owndata
        assert np.array_equal(got, want)


def test_scalar_ops_match_the_oracle(oracle_field):
    F, add, neg, mul = oracle_field
    els = range(F.order)
    assert [F.neg(a) for a in els] == neg.tolist()
    for a in els:
        assert [F.add(a, b) for b in els] == add[a].tolist()
        assert [F.sub(a, b) for b in els] == add[a, neg].tolist()
        assert [F.mul(a, b) for b in els] == mul[a].tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_vectorized_ops_match_scalar(q):
    F = field_for_order(q)
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, size=200)
    b = rng.integers(0, q, size=200)
    add = F.add_arr(a, b)
    mul = F.mul_arr(a, b)
    neg = F.neg_arr(a)
    for i in range(len(a)):
        assert add[i] == F.add(int(a[i]), int(b[i]))
        assert mul[i] == F.mul(int(a[i]), int(b[i]))
        assert neg[i] == F.neg(int(a[i]))


@given(data=st.data(), q=st.sampled_from([2, 3, 5, 7, 4, 8, 9]))
def test_mul_arr_matches_scalar_mul(data, q):
    """Products of whole arrays, one of them broadcast and zeros drawn
    often, are the scalar products: a * b mod p on a prime field, the log
    tables otherwise."""
    F = field_for_order(q)
    symbols = st.integers(0, q - 1) | st.just(0)
    a = data.draw(st.lists(symbols, min_size=1, max_size=20))
    b = data.draw(st.lists(symbols, min_size=len(a), max_size=len(a)))
    got = F.mul_arr(np.array(a), np.array(b))
    assert got.dtype == np.int64 and got.tolist() == [F.mul(x, y) for x, y in zip(a, b)]
    c = data.draw(symbols)
    assert F.mul_arr(np.array(a), c).tolist() == [F.mul(x, c) for x in a]


def test_element_coeff_roundtrip():
    F = field_new(2, 3)
    for a in range(8):
        assert F.coeffs_to_element(F.element_to_coeffs(a)) == a
    assert F.element_to_coeffs(6) == (0, 1, 1)  # x + x^2


def test_kuf_caps_env(monkeypatch):
    from kuniform.caps import check_cap, get_cap

    monkeypatch.setenv("KUF_CAPS", "codewords=123, oa_pairs=456")
    assert get_cap("codewords") == 123
    assert get_cap("oa_pairs") == 456
    assert get_cap("matrix_dim") == 4096
    unknown = ["bogus=1", "codewords", "codewords=x"]
    for bad in unknown + ["matrix_dim=0", "matrix_dim=-1", "matrix_dim=-1,matrix_dim=0", "oa_rows=5, oa_rows=5"]:
        monkeypatch.setenv("KUF_CAPS", bad)
        with pytest.raises(KuniformError, match="KUF_CAPS"):
            get_cap("codewords")
        with pytest.raises(KuniformError, match="KUF_CAPS"):
            check_cap("codewords", 1)
    monkeypatch.setenv("KUF_CAPS", " , matrix_dim = 1 ,")
    assert get_cap("matrix_dim") == 1
    with pytest.raises(KeyError):
        get_cap("bogus")


def test_huge_field_refused_without_its_order():
    with pytest.raises(CapExceeded, match=r"field order 2\^1000000 >= 2\^18 needs 262144 > cap 65536 \(field_order"):
        field_new(2, 10**6)
    # at and just past the bit length of the cap the order is exact
    with pytest.raises(CapExceeded, match=r"field order 2\^17 needs 131072 > cap 65536 \(field_order, default\)"):
        field_new(2, 17)
    with pytest.raises(CapExceeded, match=r"field order 3\^18 needs 387420489 "):
        field_new(3, 18)
    with pytest.raises(CapExceeded, match=r"field order 3\^19 >= 3\^18 needs 387420489 "):
        field_new(3, 19)


HUGE_PRIME = 100000000000031  # trial division to its square root takes seconds


def _refuse_factoring(monkeypatch):
    def fail(n):
        raise AssertionError(f"{n} factored before the field_order cap was checked")

    monkeypatch.setattr(gf, "is_prime", fail)
    monkeypatch.setattr(gf, "is_prime_power", fail)


def test_huge_orders_refused_before_factoring(monkeypatch):
    _refuse_factoring(monkeypatch)
    with pytest.raises(CapExceeded, match=rf"field order {HUGE_PRIME}\^1 needs"):
        field_new(HUGE_PRIME)
    with pytest.raises(CapExceeded, match=rf"field order {HUGE_PRIME} needs"):
        field_for_order(HUGE_PRIME)
    with pytest.raises(CapExceeded, match=r"field order 65537 needs"):
        field_for_order(65537)  # one above the default cap


def test_huge_orders_refused_by_the_cli_before_factoring(tmp_path, capsys, monkeypatch):
    _refuse_factoring(monkeypatch)
    path = tmp_path / "huge.code"
    path.write_text(f"code {HUGE_PRIME} 1 3 1\n1 0 1\n")
    assert run(["verify", "code", str(path)]) == (1, None)
    assert run(["construct", "mds", "--q", str(HUGE_PRIME), "--t", "2"]) == (1, None)
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    assert all(line.startswith("error:") and "field_order" in line for line in errors)
