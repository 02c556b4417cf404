"""Linear-code tests: constructions, duals, exact distances, file round-trips.

Distance oracles are independent of the weight-enumerator path: pairwise
row distances and weight counts over codebooks materialized by scalar field
operations, and the closed-form weight distribution of MDS codes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rref_oracle import oracle_rref

from kuniform import CapExceeded, FieldMismatch, KuniformError, ParseError, RankDeficient, codes
from kuniform.codes import (
    LinearCode,
    _weight_distributions,
    codeword_matrix,
    direct_sum,
    dual,
    dual_distance,
    is_self_dual,
    load_bundled_code,
    load_code,
    mds_code,
    min_distance,
    parity_check,
    parse_code,
    save_code,
)
from kuniform.gf import field_for_order, field_new

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F5 = field_new(5)

# the 9 x 4 strength-2 array over Z_3 used throughout the corpus
EXAMPLE_ROWS = {
    (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2),
    (1, 0, 2, 1), (1, 1, 0, 2), (1, 2, 1, 0),
    (2, 0, 1, 2), (2, 1, 2, 0), (2, 2, 0, 1),
}


def brute_codewords(C: LinearCode) -> set[tuple[int, ...]]:
    """Oracle enumeration: every message through scalar field ops."""
    F, q = C.field, C.q
    out = set()
    for msg in product(range(q), repeat=C.t):
        cw = [0] * C.N
        for i, c in enumerate(msg):
            if c:
                for j in range(C.N):
                    cw[j] = F.add(cw[j], F.mul(c, int(C.G[i, j])))
        out.add(tuple(cw))
    return out


def test_constructor_validation():
    with pytest.raises(RankDeficient):
        LinearCode(F3, np.array([[1, 2, 0], [2, 4 % 3, 0]]))  # row 2 = 2*row 1
    with pytest.raises(ValueError):
        LinearCode(F2, np.array([[0, 2]]))  # symbol out of range
    with pytest.raises(ValueError):
        LinearCode(F2, np.array([[1, 0], [0, 1], [1, 1]]))  # t > N


def test_mds_small_examples():
    c = mds_code(F5, 1)
    assert (c.N, c.t) == (6, 1)
    assert min_distance(c) == 6
    # codewords are the constant vectors c * (1,1,1,1,1,1)
    assert brute_codewords(c) == {tuple([v] * 6) for v in range(5)}

    full = mds_code(F2, 3)
    assert (full.N, full.t) == (3, 3)
    assert min_distance(full) == 1


def test_mds_gf3_t2_matches_example_rows():
    """The span of (0,1,1,1) and (1,0,2,1) is the corpus 9x4 array, and the
    canonical MDS generator reproduces exactly that row set."""
    span = brute_codewords(LinearCode(F3, np.array([[0, 1, 1, 1], [1, 0, 2, 1]])))
    assert span == EXAMPLE_ROWS

    assert brute_codewords(mds_code(F3, 2)) == EXAMPLE_ROWS


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mds_property_all_t(q):
    """[q+1, t] extended RS has w = q-t+2 and dual distance t+1 for every t.

    For t above (q+1)/2 the dual is the smaller side, so the minimum
    distance comes through the MacWilliams transform of its enumeration.
    """
    F = field_for_order(q)
    for t in range(1, q + 2):
        C = mds_code(F, t)
        assert dual_distance(C) == (t + 1 if t < q + 1 else math.inf)
        assert min_distance(C) == q - t + 2


def test_parity_check_annihilates():
    C = mds_code(F5, 2)
    H = parity_check(C).H
    assert H.shape == (4, 6)
    assert len(codes._rref(F5, H)[1]) == 4
    for h in H:
        for g in C.G:
            acc = 0
            for a, b in zip(h, g):
                acc = F5.add(acc, F5.mul(int(a), int(b)))
            assert acc == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matmul_matches_scalar_products(q):
    """The array product over GF(q) against sums of scalar products."""
    F = field_for_order(q)
    rng = np.random.default_rng(q)
    for n, k, m in [(1, 1, 1), (3, 5, 4), (6, 11, 5), (2, 0, 3)]:
        A, B = rng.integers(q, size=(n, k)), rng.integers(q, size=(k, m))
        want = np.zeros((n, m), dtype=np.int64)
        for i, j, s in product(range(n), range(m), range(k)):
            want[i, j] = F.add(int(want[i, j]), F.mul(int(A[i, s]), int(B[s, j])))
        assert np.array_equal(codes._matmul(F, A, B), want)


def test_dual_involution_and_zero_code():
    C = mds_code(F3, 2)
    DD = dual(dual(C))
    assert brute_codewords(DD) == brute_codewords(C)

    full = LinearCode(F2, np.eye(4, dtype=np.int64))
    Z = dual(full)
    assert Z.t == 0
    assert min_distance(Z) == math.inf
    assert dual(Z).t == 4  # dual of zero code is the full space


def test_golay_self_dual_same_codeword_set():
    C = load_bundled_code("golay12_3")
    assert is_self_dual(C)
    D = dual(C)
    assert brute_codewords(D) == brute_codewords(C)


def test_bundled_codes_verified():
    for name in ("golay12_3", "sd12_gf4"):
        C = load_bundled_code(name)
        assert (C.N, C.t) == (12, 6)
        assert is_self_dual(C)
        assert min_distance(C) == 6
        assert dual_distance(C) == 6
    with pytest.raises(KeyError):
        load_bundled_code("nope")


def test_min_distance_matches_pairwise_oracle():
    """Random [6,3]_2 codes against the all-pairs row-distance oracle."""
    rng = np.random.default_rng(11)
    done = 0
    while done < 5:
        G = rng.integers(0, 2, size=(3, 6))
        try:
            C = LinearCode(F2, G)
        except RankDeficient:
            continue
        done += 1
        words = sorted(brute_codewords(C))
        oracle = min(
            sum(x != y for x, y in zip(u, v))
            for u, v in combinations(words, 2)
        )
        assert min_distance(C) == oracle


def test_min_distance_cap_refusal(monkeypatch):
    # [17,8]_16: 16^8 codewords and 16^9 dual codewords, both over the cap
    for distance in (min_distance, dual_distance):
        with pytest.raises(CapExceeded, match="codewords"):
            distance(mds_code(field_for_order(16), 8))
    # a tiny cap refuses even small codes
    monkeypatch.setenv("KUF_CAPS", "codewords=5")
    with pytest.raises(CapExceeded, match="codewords"):
        min_distance(mds_code(F3, 2))


def test_distances_are_derived_never_passed_in():
    """Distances are computed from G, never taken from the caller, and a
    code replaced with another G computes them afresh."""
    C = mds_code(F5, 2)
    assert (min_distance(C), dual_distance(C)) == (5, 3)
    for cache in ("_w", "_w_dual"):
        with pytest.raises(TypeError):
            LinearCode(F5, C.G, **{cache: 6})
    D = replace(C, G=[[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert (min_distance(D), dual_distance(D)) == (1, 1)
    assert (min_distance(C), dual_distance(C)) == (5, 3)


def test_codes_compare_by_value():
    """Equal codes compare equal whatever their caches; the field and G decide."""
    C, D = mds_code(F5, 2), mds_code(F5, 2)
    min_distance(C)
    assert C == D and not C != D and C is not D
    assert C != mds_code(F5, 3) and C != mds_code(F3, 2)
    assert C != LinearCode(F5, C.G[::-1]) and C != LinearCode(field_for_order(7), C.G)
    assert C != repr(C)


def brute_weights(C: LinearCode) -> list[int]:
    """Weight distribution (A_0, ..., A_N) of the oracle enumeration."""
    words = brute_codewords(C)
    assert len(words) == C.q**C.t
    counts = Counter(sum(1 for x in w if x) for w in words)
    return [counts[w] for w in range(C.N + 1)]


@st.composite
def full_rank_codes(draw, q):
    """[N, t]_q codes with N <= 7, every t from 0 to N, and both sides small
    enough for the oracle: an identity on t drawn pivot columns, free symbols
    elsewhere, then row additions that keep the rank."""
    shapes = [(N, t) for N in range(1, 8) for t in range(N + 1) if q ** max(t, N - t) <= 2401]
    N, t = draw(st.sampled_from(shapes))
    F = field_for_order(q)
    pivots = draw(st.lists(st.integers(0, N - 1), min_size=t, max_size=t, unique=True))
    symbols = st.integers(0, q - 1)
    G = np.array([[draw(symbols) for _ in range(N)] for _ in range(t)], dtype=np.int64).reshape(t, N)
    G[:, pivots] = np.eye(t, dtype=np.int64)
    for _ in range(draw(st.integers(0, 2 * t))):
        i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        c = draw(symbols)
        if i != j:
            G[j] = [F.add(int(g), F.mul(c, int(h))) for g, h in zip(G[j], G[i])]
    return LinearCode(F, G)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@settings(max_examples=30)
@given(data=st.data())
def test_weight_distributions_match_enumeration(q, data):
    """Both distributions, one of them transformed, against brute enumeration
    of C and of its dual; distances are their first nonzero weights."""
    C = data.draw(full_rank_codes(q))
    A, B = _weight_distributions(C)
    assert A == brute_weights(C)
    assert B == brute_weights(dual(C))
    assert min_distance(C) == min((w for w in range(1, C.N + 1) if A[w]), default=math.inf)
    assert dual_distance(C) == min((w for w in range(1, C.N + 1) if B[w]), default=math.inf)


@st.composite
def matrices(draw):
    """(field, matrix): up to 6 x 8 over GF(2, 3, 4, 5, 7, 8, 9), built as
    a product of two random factors through an inner dimension that may be
    below both sides, so rank-deficient matrices, zero ones included, are
    drawn often."""
    F = field_for_order(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    rows, inner, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 8))
    symbols = st.integers(0, F.order - 1)
    A = np.array(draw(st.lists(symbols, min_size=rows * inner, max_size=rows * inner)), dtype=np.int64).reshape(rows, inner)
    B = np.array(draw(st.lists(symbols, min_size=inner * cols, max_size=inner * cols)), dtype=np.int64).reshape(inner, cols)
    return F, codes._matmul(F, A, B)


@settings(max_examples=200)
@given(case=matrices())
def test_rref_matches_row_by_row_oracle(case):
    F, M = case
    R, pivots = codes._rref(F, M)
    want, want_pivots = oracle_rref(F, M)
    assert np.array_equal(R, want) and pivots == want_pivots
    # a generator in that form, as code_of_rows returns, is its own
    if len(pivots) == len(M):
        echelon, echelon_pivots = LinearCode(F, R)._echelon
        assert np.array_equal(echelon, R) and echelon_pivots == pivots


PAIRS_2 = LinearCode(F2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]))  # [4,2,2]_2


def _lighten_one_word(block):
    """Drop one symbol of one nonzero codeword: no longer a linear code."""
    block = block.copy()
    row, col = np.argwhere(block)[0]
    block[row, col] = 0
    return block


def _all_but_zero_full_weight(block):
    """Every nonzero word of weight N: for [4,2]_2 the transform is
    integral but negative at odd weights."""
    block = block.copy()
    block[1:] = 1
    return block


@pytest.mark.parametrize(
    "C, corrupt, message",
    [
        (mds_code(F5, 2), lambda b: b[1:], "counts 24 codewords"),
        (mds_code(F5, 2), lambda b: np.concatenate([b, b[:1]]), "counts 26 codewords"),
        (mds_code(F5, 2), _lighten_one_word, "non-count at weight"),
        (PAIRS_2, _all_but_zero_full_weight, "non-count"),
        # {0, 1100, 0011, 0000} transforms to the counts (1, 2, 2, 2, 1)
        (PAIRS_2, lambda b: b * (b.sum(1) < 4)[:, None], "sums to 8, not 4"),
    ],
)
def test_transform_rejects_inconsistent_counts(monkeypatch, C, corrupt, message):
    """A miscounted enumeration cannot pass as a weight distribution."""
    chunks = codes._chunked_codewords
    monkeypatch.setattr(codes, "_chunked_codewords", lambda C: (corrupt(b) for b in chunks(C)))
    with pytest.raises(KuniformError, match=message):
        _weight_distributions(C)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_chunked_codewords_are_the_enumeration(monkeypatch, q):
    """Blocks of every size concatenate to the message-order enumeration,
    and none exceeds _CHUNK_ROWS."""
    F = field_for_order(q)
    for t in range(1, min(4, q + 1) + 1):
        C = mds_code(F, t)
        want = codes._enumerate(F, C.G)
        for rows in (1, q, q * q, codes._CHUNK_ROWS):
            monkeypatch.setattr(codes, "_CHUNK_ROWS", rows)
            blocks = list(codes._chunked_codewords(C))
            assert max(map(len, blocks)) <= rows
            assert np.array_equal(np.concatenate(blocks), want)


def mds_weights(n: int, t: int, q: int) -> list[int]:
    """Closed-form weight distribution of an [n, t, n-t+1]_q MDS code."""
    d = n - t + 1
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = math.comb(n, w) * sum(
            (-1) ** j * math.comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return out


@pytest.mark.parametrize("q, t_max", [(8, 5), (9, 5), (16, 5), (25, 3)])
def test_mds_weight_distribution_closed_form(q, t_max):
    F = field_for_order(q)
    for t in range(1, t_max + 1):
        A, B = _weight_distributions(mds_code(F, t))
        assert A == mds_weights(q + 1, t, q)
        assert B == mds_weights(q + 1, q + 1 - t, q)


def test_direct_sum_example():
    """[6,2,5]_5 (+) [4,2,3]_5: distance 3 and dual distance 3, against the
    exhaustive enumeration of all 5^4 sums."""
    C1 = mds_code(F5, 2)
    C2 = LinearCode(F5, mds_code(F5, 2).G[:, :4])  # punctured to [4,2,3]
    assert min_distance(C2) == 3
    S = direct_sum(C1, C2)
    assert (S.N, S.t) == (10, 4)
    words = brute_codewords(S)
    assert len(words) == 5**4
    oracle_w = min(sum(1 for x in w if x) for w in words if any(w))
    assert oracle_w == 3
    assert min_distance(S) == 3
    assert min_distance(S) == min(min_distance(C1), min_distance(C2))
    assert dual_distance(S) == min(dual_distance(C1), dual_distance(C2)) == 3


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum(mds_code(F3, 1), mds_code(F5, 1))


def _random_code(rng, F, N, t):
    while True:
        G = rng.integers(0, F.order, size=(t, N))
        try:
            return LinearCode(F, G)
        except RankDeficient:
            continue


@pytest.mark.parametrize("q", [2, 3, 4])
def test_direct_sum_law_random(q):
    """Distance laws on random pairs, verified by exhaustive enumeration."""
    F = field_for_order(q)
    rng = np.random.default_rng(q)
    for _ in range(4):
        C1 = _random_code(rng, F, 5, 2)
        C2 = _random_code(rng, F, 6, 3)
        S = direct_sum(C1, C2)
        words = brute_codewords(S)
        oracle = min(sum(1 for x in w if x) for w in words if any(w))
        assert oracle == min(min_distance(C1), min_distance(C2))
        assert min_distance(S) == oracle
        dwords = brute_codewords(dual(S))
        doracle = min(sum(1 for x in w if x) for w in dwords if any(w))
        assert doracle == min(dual_distance(C1), dual_distance(C2))
        assert dual_distance(S) == doracle


def test_is_self_dual_cases():
    assert is_self_dual(mds_code(F3, 2))  # the tetracode
    assert not is_self_dual(mds_code(F3, 1))  # N != 2t
    C = LinearCode(F2, np.array([[1, 0, 1, 0], [0, 1, 0, 0]]))
    assert not is_self_dual(C)  # rows not self-orthogonal


def test_codeword_matrix_matches_brute():
    C = mds_code(F4, 2)
    rows = {tuple(int(x) for x in r) for r in codeword_matrix(C)}
    assert rows == brute_codewords(C)


def test_code_file_roundtrip(tmp_path):
    C = load_bundled_code("golay12_3")
    p = tmp_path / "g.code"
    save_code(C, p)
    C2 = load_code(p)
    assert np.array_equal(C.G, C2.G)
    assert C2.field == F3
    # byte-stable: saving again produces identical bytes
    p2 = tmp_path / "g2.code"
    save_code(C2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_code_parse_errors_name_lines():
    with pytest.raises(ParseError, match="header"):
        parse_code("codex 2 1 3 1\n1 1 1\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_code("code 2 1 3 1\n1 1\n")  # short row on line 2
    with pytest.raises(ParseError, match=":3:"):
        parse_code("# comment\ncode 2 1 3 1\n1 2 1\n")  # bad symbol, line 3
    with pytest.raises(ParseError, match="generator rows"):
        parse_code("code 2 1 3 2\n1 1 1\n")
    with pytest.raises(RankDeficient):
        parse_code("code 3 1 4 2\n1 2 0 1\n2 1 0 2\n")
    # header faults name the header line, and no array is sized from N
    for text, message in (
        ("code 2 1 -1 1\n1\n", "<string>:1: negative row length -1"),
        ("code 2 1 1000000000000 1\n1 1\n", "<string>:2: row has 2 symbols, expected 1000000000000"),
        ("code 4 1 2 1\n1 1\n", "<string>:1: p = 4 is not prime"),
        ("code 2 1 1 2\n1\n1\n", "<string>:1: dimension 2 exceeds length 1"),
        ("code 2 1 0 0\n", "<string>:1: code length must be positive"),
    ):
        with pytest.raises(ParseError) as caught:
            parse_code(text)
        assert str(caught.value) == message


def test_comments_and_blanks_ignored():
    C = parse_code("# a code\n\ncode 3 1 4 2  # header\n0 1 1 1\n1 0 2 1\n")
    assert brute_codewords(C) == EXAMPLE_ROWS


# ---------------------------------------------------------------------------
# recognising cosets of codes


def _coset(C: LinearCode, shift, order) -> np.ndarray:
    """The codewords of C plus shift, over C's field, in the given order."""
    return C.field.add_arr(codeword_matrix(C), np.asarray(shift, dtype=np.int64))[order]


RECOGNISED = [
    mds_code(F5, 3),  # [6,3]_5
    mds_code(F4, 2),  # [5,2]_4
    mds_code(field_new(3, 2), 2),  # [10,2]_9: odd p with m > 1
    PAIRS_2,
    LinearCode(F3, np.array([[0, 1, 1, 1], [1, 0, 2, 1]])),
]


@pytest.mark.parametrize("chunk", [1 << 16, 7])
@pytest.mark.parametrize("C", RECOGNISED, ids=repr)
def test_code_of_rows_recognises_translated_shuffled_cosets(monkeypatch, C, chunk):
    """Message order, where the first q^(t-1) rows span one dimension less,
    a translated coset and a shuffled one all give C back; blocks of 7 rows
    grow the basis across blocks."""
    monkeypatch.setattr(codes, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(C.q * C.N)
    T = C.q**C.t
    for shift, order in [
        (np.zeros(C.N), np.arange(T)),
        (rng.integers(C.q, size=C.N), np.arange(T)),
        (rng.integers(C.q, size=C.N), rng.permutation(T)),
    ]:
        rows = _coset(C, shift, order)
        got = codes.code_of_rows(C.q, rows)
        assert got is not None and (got.N, got.t, got.q) == (C.N, C.t, C.q)
        assert brute_codewords(got) == brute_codewords(C)
        assert min_distance(got) == min_distance(C) and dual_distance(got) == dual_distance(C)
        # the generator is in reduced row echelon form
        assert np.array_equal(got.G, codes._rref(C.field, got.G)[0])


@pytest.mark.parametrize("chunk", [1 << 16, 7])
def test_code_of_rows_refuses_what_is_not_a_coset(monkeypatch, chunk):
    monkeypatch.setattr(codes, "_CHUNK_ROWS", chunk)
    C = mds_code(F5, 3)
    rows = _coset(C, [1, 2, 3, 4, 0, 1], np.random.default_rng(3).permutation(125))
    assert codes.code_of_rows(5, rows) is not None
    changed = rows.copy()
    changed[-1, 2] = (changed[-1, 2] + 1) % 5  # one symbol, in the last block
    assert codes.code_of_rows(5, changed) is None
    repeated = rows.copy()
    repeated[-1] = repeated[0]  # still inside the coset, but not all of it
    assert codes.code_of_rows(5, repeated) is None
    # swapping the symbols 0 and 1 of one party is not affine over GF(5)
    swapped = rows.copy()
    swapped[:, 0] = np.array([1, 0, 2, 3, 4])[swapped[:, 0]]
    assert codes.code_of_rows(5, swapped) is None
    assert codes.code_of_rows(5, rows[:124]) is None  # T is not 5^t
    assert codes.code_of_rows(6, rows) is None  # no field of order 6
    assert codes.code_of_rows(25, rows) is None  # 125 is not 25^t
    out_of_range = rows.copy()
    out_of_range[0, 0] = 5
    assert codes.code_of_rows(5, out_of_range) is None
    # one row is the zero code's coset
    zero = codes.code_of_rows(5, rows[:1])
    assert zero is not None and zero.t == 0 and zero.N == 6


def test_code_of_rows_leaves_fields_above_the_cap_alone(monkeypatch):
    monkeypatch.setenv("KUF_CAPS", "field_order=4")
    rows = codeword_matrix(mds_code(F5, 2))
    assert codes.code_of_rows(5, rows) is None  # and no CapExceeded
    assert codes.code_of_rows(4, codeword_matrix(mds_code(F4, 2))) is not None
