"""Orthogonal array construction, strength, irredundancy, trimming, I/O."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oa_oracle import oracle_is_irredundant, oracle_scan_strength
from test_codes import full_rank_codes

from kuniform import codes, field_new
from kuniform import oa as oa_module
from kuniform.catalog import construct_k_uniform
from kuniform.cli import run
from kuniform.codes import (
    LinearCode,
    direct_sum,
    dual_distance,
    load_bundled_code,
    mds_code,
    min_distance,
)
from kuniform.errors import KuniformError, NotIrredundant, ParseError
from kuniform.oa import (
    OrthogonalArray,
    delete_columns,
    is_irredundant,
    load_oa,
    oa_from_code,
    oa_min_distance,
    parse_oa,
    save_oa,
    trim_to_iroa,
    verify_strength,
)
from kuniform.states import state_from_iroa

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)

# strength-2 array over GF(3) on 4 columns: span of (0,1,1,1) and (1,0,2,1)
EXAMPLE_ROWS = [
    (0, 0, 0, 0),
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 2, 1),
    (1, 1, 0, 2),
    (1, 2, 1, 0),
    (2, 0, 1, 2),
    (2, 1, 2, 0),
    (2, 2, 0, 1),
]


def example_array() -> OrthogonalArray:
    return OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=2)


def strength_oracle(rows: np.ndarray, d: int, k: int) -> bool:
    """Independent check: every k-tuple appears r / d^k times in every
    column subset, counted with a plain Counter."""
    r = rows.shape[0]
    if k == 0:
        return True
    if r % d**k:
        return False
    lam = r // d**k
    for cols in combinations(range(rows.shape[1]), k):
        counts = Counter(tuple(int(x) for x in row[list(cols)]) for row in rows)
        if len(counts) != d**k or set(counts.values()) != {lam}:
            return False
    return True


def pairwise_min_distance(rows: np.ndarray) -> int | float:
    best: int | float = math.inf
    for i, j in combinations(range(rows.shape[0]), 2):
        best = min(best, int(np.count_nonzero(rows[i] != rows[j])))
    return best


# ---------------------------------------------------------------------------
# construction from codes


def test_repetition_code_gives_index_one_array():
    A = oa_from_code(mds_code(F5, 1))
    assert (A.r, A.N, A.d, A.k) == (5, 6, 5, 1)
    assert A.index == 1
    assert verify_strength(A, 1)
    assert strength_oracle(A.rows, 5, 1)
    assert oa_min_distance(A) == 6


def test_direct_sum_array_strength_two():
    C = mds_code(F3, 2)  # [4,2,3]_3, dual distance 3
    A = oa_from_code(direct_sum(C, C))
    assert (A.r, A.N, A.d, A.k) == (81, 8, 3, 2)
    assert A.index == 9
    assert strength_oracle(A.rows, 3, 2)
    # divisibility holds for k = 3 (27 | 81) but the counts do not
    assert verify_strength(A, 2)
    assert not verify_strength(A, 3)


def test_example_array_strength():
    A = example_array()
    assert verify_strength(A, 2)
    assert strength_oracle(A.rows, 3, 2)
    assert not verify_strength(A, 3)


def test_strength_detects_corruption():
    rows = np.array(EXAMPLE_ROWS)
    rows[1] = (0, 1, 1, 2)
    A = OrthogonalArray(d=3, rows=rows, k=0)
    assert not verify_strength(A, 2)
    assert not strength_oracle(rows, 3, 2)


def test_strength_monotone():
    C = mds_code(F3, 2)
    for A in (example_array(), oa_from_code(direct_sum(C, C))):
        top = A.k
        for j in range(top + 1):
            assert verify_strength(A, j)


def test_strength_matches_dual_distance():
    for C in (mds_code(F3, 2), mds_code(F5, 2), mds_code(F2, 1), load_bundled_code("golay12_3")):
        A = oa_from_code(C)
        wd = dual_distance(C)
        assert A.k == (C.N if wd == math.inf else min(int(wd) - 1, C.N))
        assert verify_strength(A, A.k)
        if A.k < A.N:
            assert not verify_strength(A, A.k + 1)


def test_full_space_strength_saturates():
    C = LinearCode(F2, np.array([[1, 0], [0, 1]]))
    A = oa_from_code(C)
    assert A.k == A.N == 2
    assert verify_strength(A, 2)


def test_oa_from_zero_code_rejected():
    C = LinearCode(F3, np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        oa_from_code(C)


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_reuses_source_code():
    C = mds_code(F5, 2)
    A = oa_from_code(C)
    assert oa_min_distance(A) == min_distance(C) == 5
    assert oa_min_distance(A) == pairwise_min_distance(A.rows)


def test_min_distance_pairwise_path():
    A = example_array()  # no source code attached
    assert A.source_code is None
    assert oa_min_distance(A) == 3
    assert pairwise_min_distance(A.rows) == 3


def test_min_distance_duplicates_and_single_row():
    dup = OrthogonalArray(d=3, rows=np.array([(0, 1, 2), (0, 1, 2)]), k=0)
    assert oa_min_distance(dup) == 0
    single = OrthogonalArray(d=2, rows=np.array([[0, 1]]), k=0)
    assert oa_min_distance(single) == math.inf


def test_min_distance_pair_cap(monkeypatch):
    from kuniform.errors import CapExceeded

    A = example_array()
    monkeypatch.setenv("KUF_CAPS", "oa_pairs=4")
    with pytest.raises(CapExceeded, match="oa_pairs"):
        oa_min_distance(A)


# ---------------------------------------------------------------------------
# irredundancy


def test_example_array_is_irredundant():
    A = example_array()
    assert is_irredundant(A, 2)
    assert oracle_is_irredundant(A, 2)


def test_full_factorial_not_irredundant():
    rows = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    A = OrthogonalArray(d=2, rows=rows, k=2)
    assert verify_strength(A, 2)
    assert not is_irredundant(A, 2)
    assert not oracle_is_irredundant(A, 2)


def test_irredundant_methods_agree():
    corpus = [
        example_array(),
        oa_from_code(mds_code(F5, 1)),
        oa_from_code(mds_code(F5, 2)),
        oa_from_code(mds_code(F3, 2)),
        OrthogonalArray(d=2, rows=np.array([(0, 0), (0, 1), (1, 0), (1, 1)]), k=2),
        oa_from_code(LinearCode(F2, np.array([[1, 0], [0, 1]]))),
    ]
    for A in corpus:
        assert A.r <= 2**12
        for k in range(A.N + 1):
            assert is_irredundant(A, k) == oracle_is_irredundant(A, k)


def _outcome(call):
    """What a call returns, or the message of the NotIrredundant it raises."""
    try:
        return call()
    except NotIrredundant as exc:
        return f"NotIrredundant: {exc}"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@settings(max_examples=25)
@given(data=st.data())
def test_code_answers_match_the_scans(q, data):
    """Strength and distance read off a code, and everything decided from
    them, agree with the scans of the same rows with no code attached; the
    column slices include rank-losing ones, which drop their code."""
    C = data.draw(full_rank_codes(q))
    assume(C.t >= 1 and q**C.t <= 729)
    cols = data.draw(st.lists(st.integers(0, C.N - 1), max_size=C.N - 1, unique=True))
    A = delete_columns(oa_from_code(C), cols) if cols else oa_from_code(C)
    if A.source_code is not None:  # the invariant the coded constructors keep
        assert np.array_equal(A.rows, codes._enumerate(A.source_code.field, A.source_code.G))
    B = replace(A)
    assert B.source_code is None and B == A
    for k in range(A.N + 1):
        assert verify_strength(A, k) == verify_strength(B, k), k
        assert is_irredundant(A, k) == is_irredundant(B, k), k
        assert _outcome(lambda: state_from_iroa(A, k)) == _outcome(lambda: state_from_iroa(B, k)), k
    assert oa_min_distance(A) == oa_min_distance(B)


def test_source_code_is_derived_never_passed_in():
    """The constructor takes no source code, and a replaced array has none:
    its rows, reordered here, are counted rather than read off a code they
    are no longer the message-order codewords of."""
    C = mds_code(F3, 2)  # [4, 2]_3: 9 rows over 3 symbols
    A = oa_from_code(C)
    with pytest.raises(TypeError):
        OrthogonalArray(d=3, rows=A.rows.copy(), k=2, source_code=C)
    B = replace(A, rows=A.rows[::-1])
    assert A.source_code is C and B.source_code is None
    assert B != A and (B.r, B.N, B.d, B.k) == (A.r, A.N, A.d, A.k)
    assert [verify_strength(B, k) for k in range(5)] == [True, True, True, False, False]
    assert oa_min_distance(B) == 3


def test_arrays_compare_by_value():
    """Equal arrays compare equal whatever their provenance and source code;
    d, k and the rows decide."""
    A = oa_from_code(mds_code(F3, 2))
    B = OrthogonalArray(d=3, rows=A.rows.copy(), k=A.k, provenance="a copy")
    assert A == B and not A != B and A.source_code is not None and B.source_code is None
    assert A != replace(A, k=1)
    assert A != replace(A, rows=A.rows[::-1])
    assert replace(A, k=0) != replace(A, d=4, k=0)
    assert A != replace(A, rows=A.rows[:, :3])
    assert A != repr(A)


def test_only_arrays_without_a_code_are_scanned(monkeypatch, tmp_path):
    calls = []
    balanced = oa_module._balanced
    monkeypatch.setattr(oa_module, "_balanced", lambda cols, d, block: calls.append(block.shape) or balanced(cols, d, block))
    assert construct_k_uniform(4, 9, 10).num_terms == 9**4
    assert calls == []
    path = tmp_path / "mds.oa"
    save_oa(oa_from_code(mds_code(F3, 2)), path)
    code, report = run(["verify", "oa", str(path), "--k", "2"])
    assert code == 0 and report["details"]["strength_ok"] is True
    assert calls == [(6, 2)]  # the C(4, 2) subsets in one block


@st.composite
def codeless_arrays(draw):
    """(A, k): code-less arrays at or near strength k.  Codebooks of random
    codes, shuffled, some stacked twice (duplicate rows), some with one
    symbol changed or one row dropped (r no longer divisible by d^k); or
    random rows.  k runs from 0 to N."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    if draw(st.booleans()):
        C = draw(full_rank_codes(q))
        assume(C.t >= 1 and q**C.t <= 243)
        rows = codes._enumerate(C.field, C.G)
    else:
        N, r = draw(st.integers(1, 5)), q * draw(st.integers(1, 12))
        rows = np.array(draw(st.lists(st.integers(0, q - 1), min_size=r * N, max_size=r * N))).reshape(r, N)
    rows = rows[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(rows))]
    if draw(st.booleans()):
        rows = np.vstack([rows, rows])
    fault = draw(st.sampled_from(("none", "symbol", "row")))
    if fault == "symbol":
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, rows.shape[1] - 1))
        rows[i, j] = (rows[i, j] + draw(st.integers(1, q - 1))) % q
    elif fault == "row" and len(rows) > 1:
        rows = rows[1:]
    return OrthogonalArray(d=q, rows=rows, k=0), draw(st.integers(0, rows.shape[1]))


@settings(max_examples=200)
@given(case=codeless_arrays(), size=st.sampled_from((1, 7, None)))
def test_counted_strength_matches_the_scan(case, size):
    """verify_strength counts code-less arrays in blocks of 1, 7 or the
    default number of subsets, and agrees with the subset-by-subset scan."""
    A, k = case
    assert A.source_code is None
    with pytest.MonkeyPatch.context() as env:
        if size is not None:
            env.setattr(oa_module, "_COUNT_BLOCK", size * A.r)
        assert verify_strength(A, k) == oracle_scan_strength(A, k)


# ---------------------------------------------------------------------------
# column deletion and trimming


def test_delete_columns_keeps_strength():
    C = mds_code(F5, 2)
    A = oa_from_code(C)
    B = delete_columns(A, [5])
    assert (B.r, B.N, B.d, B.k) == (25, 5, 5, 2)
    assert verify_strength(B, 2)
    assert B.source_code is not None
    assert oa_min_distance(B) == 4  # distance drops by at most one per column


def test_delete_columns_drops_rank_deficient_source():
    C = LinearCode(F2, np.array([[1, 0], [0, 1]]))
    A = oa_from_code(C)
    B = delete_columns(A, [0])
    assert B.source_code is None
    assert oa_min_distance(B) == 0  # duplicate residual rows


def test_delete_columns_validation():
    A = example_array()
    with pytest.raises(ValueError):
        delete_columns(A, [4])
    with pytest.raises(ValueError):
        delete_columns(A, [0, 1, 2, 3])


def test_trim_window():
    A = oa_from_code(mds_code(F5, 2))  # OA(25,6,5,2), min distance 5
    # admissible targets: 6 - 5 + 2 + 1 = 4 up to 6
    B = trim_to_iroa(A, 2, 4)
    assert (B.r, B.N, B.d, B.k) == (25, 4, 5, 2)
    assert is_irredundant(B, 2)
    assert np.array_equal(B.rows, A.rows[:, :4])
    full = trim_to_iroa(A, 2, 6)
    assert full.N == 6 and is_irredundant(full, 2)
    with pytest.raises(KuniformError):
        trim_to_iroa(A, 2, 3)
    with pytest.raises(KuniformError):
        trim_to_iroa(A, 2, 7)


def test_trim_requires_strength_and_distance():
    rows = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    A = OrthogonalArray(d=2, rows=rows, k=2)
    with pytest.raises(NotIrredundant):
        trim_to_iroa(A, 2, 2)  # min distance 1 <= k
    B = example_array()
    with pytest.raises(NotIrredundant):
        trim_to_iroa(B, 3, 4)  # no strength 3


def test_trim_does_not_mutate_input():
    A = oa_from_code(mds_code(F5, 2))
    k_before = A.k
    trim_to_iroa(A, 2, 4)
    assert A.N == 6 and A.k == k_before


# ---------------------------------------------------------------------------
# validation and file I/O


def test_row_count_index_validation():
    with pytest.raises(ValueError):
        OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=3)  # 9 not multiple of 27
    with pytest.raises(ValueError):
        OrthogonalArray(d=2, rows=np.array(EXAMPLE_ROWS), k=1)  # symbol 2 out of range
    with pytest.raises(ValueError):
        OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=5)  # k > N


def test_save_load_round_trip(tmp_path):
    A = example_array()
    path = tmp_path / "example.oa"
    save_oa(A, path)
    B = load_oa(path)
    assert (B.r, B.N, B.d, B.k) == (A.r, A.N, A.d, A.k)
    assert np.array_equal(B.rows, A.rows)
    save_oa(B, tmp_path / "again.oa")
    assert path.read_text() == (tmp_path / "again.oa").read_text()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="header"):
        parse_oa("array 9 4 3 2\n")
    with pytest.raises(ParseError, match="expected 2 rows"):
        parse_oa("oa 2 3 2 0\n0 0 0\n")
    with pytest.raises(ParseError, match=":3:"):
        parse_oa("oa 2 3 2 0\n0 0 0\n0 2 0\n")  # symbol out of range
    with pytest.raises(ParseError, match=":2:"):
        parse_oa("oa 1 3 2 0\n0 x 0\n")
    with pytest.raises(ParseError, match="multiple"):
        parse_oa("oa 3 2 2 1\n0 0\n0 1\n1 0\n")  # 3 rows, d^1 = 2
    with pytest.raises(ParseError, match="empty"):
        parse_oa("# nothing here\n")
    # header faults: a negative N names the header, an N the rows do not
    # hold names the first row, and neither allocates N columns
    with pytest.raises(ParseError, match=r"^<string>:1: negative row length -1$"):
        parse_oa("oa 1 -1 2 0\n0\n")
    with pytest.raises(ParseError, match=r"^<string>:2: row has 2 symbols, expected 1000000000000$"):
        parse_oa("oa 1 1000000000000 2 0\n0 1\n")


def test_parse_ignores_comments_and_blanks():
    text = "# strength-1 pair\noa 2 2 2 1\n\n0 0  # first\n1 1\n"
    A = parse_oa(text)
    assert (A.r, A.N, A.d, A.k) == (2, 2, 2, 1)
    assert verify_strength(A, 1)
