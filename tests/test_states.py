"""Sparse exact states: construction, reductions, uniformity, I/O."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reduction_oracle import (
    DictOperator,
    oracle_counting_passes,
    oracle_cross_reduction,
    oracle_deviation,
    oracle_deviations,
    oracle_is_maximally_mixed,
    oracle_is_zero,
    oracle_maximally_mixed_deviation,
    oracle_to_matrix,
    oracle_trace,
    oracle_verify_k_uniform,
)

from kuniform import oa as oa_module
from kuniform import states as states_module
from kuniform.caps import check_cap
from kuniform.catalog import construct_k_uniform
from kuniform.cli import run
from kuniform.codes import LinearCode, code_of_rows, dual_distance, min_distance
from kuniform.errors import CapExceeded, NormError, NotIrredundant, ParseError
from kuniform.gf import field_for_order
from kuniform.oa import OrthogonalArray, oa_from_code
from kuniform.states import (
    FLOAT_TOL,
    InnerProduct,
    PureState,
    from_vector,
    ghz,
    inner_product,
    load_bundled_state,
    load_state,
    parse_state,
    reduction,
    save_state,
    state_from_iroa,
    tensor_parties,
    verify_k_uniform,
)

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


def example_state() -> PureState:
    A = OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=2)
    return state_from_iroa(A, 2)


def cross_block(s1: PureState, s2: PureState, parties):
    """|s1><s2| traced down to `parties`: block (0, 1) of the reduction of
    the two states' purified state, in floats unless both are exact."""
    return states_module._Purified([s1, s2]).reductions([tuple(sorted(parties))]).operator(0, 0, 1)


def dense_reduction(vec: np.ndarray, N: int, d: int, parties) -> np.ndarray:
    """Brute-force partial trace through dense tensors."""
    parties = tuple(sorted(parties))
    others = tuple(p for p in range(N) if p not in parties)
    T = vec.reshape((d,) * N)
    rho = np.tensordot(T, T.conj(), axes=(others, others))
    dim = d ** len(parties)
    return rho.reshape(dim, dim)


# ---------------------------------------------------------------------------
# construction and validation


def test_ghz_shape():
    s = ghz(3, 2)
    assert s.num_terms == 2 and s.r == 2
    assert s.amplitudes == {(0, 0, 0): (1, 0), (1, 1, 1): (1, 0)}


def test_norm_validation_exact():
    with pytest.raises(NormError):
        PureState(N=1, d=2, amplitudes={(0,): (1, 0)}, r=2)
    with pytest.raises(ValueError):
        PureState(N=1, d=2, amplitudes={(0,): (0, 0)}, r=1)
    with pytest.raises(ValueError):
        PureState(N=2, d=2, amplitudes={(0, 2): (1, 0)}, r=1)
    with pytest.raises(ValueError):
        PureState(N=2, d=2, amplitudes={(0,): (1, 0)}, r=1)


def test_norm_validation_float():
    with pytest.raises(NormError):
        PureState(N=1, d=2, amplitudes={(0,): 0.5 + 0j}, exact=False)
    ok = PureState(
        N=1, d=2, amplitudes={(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)}, exact=False
    )
    assert not ok.exact
    with pytest.raises(ValueError):
        PureState(N=1, d=2, amplitudes={(0,): 1.0 + 0j}, r=2, exact=False)


def test_state_from_iroa_criteria_named():
    A = OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=2)
    with pytest.raises(NotIrredundant, match="strength"):
        state_from_iroa(A, 3)
    full = OrthogonalArray(d=2, rows=np.array([(0, 0), (0, 1), (1, 0), (1, 1)]), k=2)
    with pytest.raises(NotIrredundant, match="distance"):
        state_from_iroa(full, 2)


def test_gaussian_amplitudes():
    s = PureState(N=1, d=2, amplitudes={(0,): (1, 0), (1,): (0, 1)}, r=2)
    v = s.to_vector()
    assert np.allclose(v, [1 / math.sqrt(2), 1j / math.sqrt(2)])


# ---------------------------------------------------------------------------
# reductions, exact and against the dense oracle


def test_bell_reduction_exact():
    bell = ghz(2, 2)
    rho = reduction(bell, [0])
    assert rho.exact and rho.r_ket == rho.r_bra == 2
    assert rho.entries == {(((0,), (0,))): (1, 0), (((1,), (1,))): (1, 0)}
    assert rho.is_maximally_mixed()
    assert rho.trace() == (2, 0)  # trace times r


def test_example_state_reductions_are_exact_identity():
    s = example_state()
    for subset in combinations(range(4), 2):
        rho = reduction(s, subset)
        assert rho.is_maximally_mixed()
        assert rho.entries == {((a, b), (a, b)): (1, 0) for a in range(3) for b in range(3)}


def test_reduction_matches_dense_oracle_exact_states():
    cases = [ghz(3, 2), ghz(2, 5), example_state(), load_bundled_state("ame_6_2")]
    for s in cases:
        vec = s.to_vector()
        for k in (1, 2):
            if k > s.N - 1:
                continue
            for subset in combinations(range(s.N), k):
                got = reduction(s, subset).to_matrix()
                want = dense_reduction(vec, s.N, s.d, subset)
                assert np.allclose(got, want, atol=1e-12)


def test_reduction_matches_dense_oracle_random_float(seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        N, d = 4, 2
        vec = rng.normal(size=d**N) + 1j * rng.normal(size=d**N)
        vec /= np.linalg.norm(vec)
        s = from_vector(vec, N, d)
        for subset in [(0,), (2,), (0, 3), (1, 2)]:
            got = reduction(s, subset).to_matrix()
            want = dense_reduction(vec, N, d, subset)
            assert np.allclose(got, want, atol=1e-12)


def test_reduction_cap(monkeypatch):
    s = ghz(4, 4)
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=8")
    with pytest.raises(CapExceeded, match="matrix_dim"):
        reduction(s, [0, 1])


def test_uniformity_cap_checked_once_per_call(monkeypatch):
    with monkeypatch.context() as env:
        env.setenv("KUF_CAPS", "matrix_dim=8")
        with pytest.raises(CapExceeded, match="matrix_dim"):
            verify_k_uniform(ghz(4, 4), 2)
    calls = []
    monkeypatch.setattr(
        states_module, "check_cap", lambda *args, **kw: calls.append(args) or check_cap(*args, **kw)
    )
    assert verify_k_uniform(load_bundled_state("ame_6_2"), 3).verdict == "pass"
    assert [args[:2] for args in calls] == [("matrix_dim", 8)]


def test_uniformity_cap_refuses_before_listing_subsets(monkeypatch):
    # 2^20 does not divide the 2 terms, so no subset can pass by counting
    # and matrix_dim refuses before any of the C(40, 20) subsets is made
    state = ghz(40, 2)
    monkeypatch.setattr(states_module, "combinations", mock.Mock(side_effect=AssertionError("subsets listed")))
    with pytest.raises(CapExceeded, match=r"reductions of dimension 1048576 .*\(matrix_dim"):
        verify_k_uniform(state, 20)


def test_uniformity_cap_checked_at_the_first_subset_left_for_the_kernel(monkeypatch):
    # (0, 1) passes by counting, (0, 2) does not: the cap is checked there,
    # inside the first block of two subsets, before the next block is asked
    rows = [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]
    state = PureState(N=4, d=2, amplitudes={row: (1, 0) for row in rows}, r=4)
    asked = []
    counting_check = states_module._counting_check

    def recording_check(*args):
        passes = counting_check(*args)

        def recorded(block):
            asked.append([tuple(subset) for subset in block.tolist()])
            return passes(block)

        return recorded

    monkeypatch.setattr(states_module, "_counting_check", recording_check)
    monkeypatch.setattr(oa_module, "_COUNT_BLOCK", 2 * state.num_terms)
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    with monkeypatch.context() as env:
        env.setenv("KUF_CAPS", "matrix_dim=3")
        with pytest.raises(CapExceeded, match=r"reductions of dimension 4 .*\(matrix_dim"):
            verify_k_uniform(state, 2)
    assert asked == [[(0, 1), (0, 2)]] and reduced == []
    asked.clear()
    report = verify_k_uniform(state, 2)
    assert asked == [[(0, 1), (0, 2)], [(0, 3), (1, 2)], [(1, 3), (2, 3)]]
    assert report.verdict == "fail" and report.subsets_checked == 6
    assert [subset for subset, _ in report.failures] == [(0, 2), (1, 3)]
    assert reduced == [(0, 2), (1, 3)]


def test_cross_reduction_orthogonal_product_terms():
    s1 = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)})
    s2 = PureState(N=2, d=2, amplitudes={(1, 1): (1, 0)})
    assert cross_block(s1, s2, [0]).is_zero()
    full = cross_block(s1, s2, [0, 1])
    assert full.entries == {((0, 0), (1, 1)): (1, 0)}
    assert not full.is_zero()


def test_cross_reduction_vs_dense(seed=11):
    rng = np.random.default_rng(seed)
    N, d = 3, 3
    v1 = rng.normal(size=d**N) + 1j * rng.normal(size=d**N)
    v2 = rng.normal(size=d**N) + 1j * rng.normal(size=d**N)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    s1, s2 = from_vector(v1, N, d), from_vector(v2, N, d)
    for subset in [(0,), (1, 2), (0, 1, 2)]:
        got = cross_block(s1, s2, subset).to_matrix()
        parties = tuple(sorted(subset))
        others = tuple(p for p in range(N) if p not in parties)
        T1 = v1.reshape((d,) * N)
        T2 = v2.reshape((d,) * N)
        want = np.tensordot(T1, T2.conj(), axes=(others, others)).reshape(got.shape)
        assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# the array kernel against the dict-loop oracle


def assert_same_operator(got, want):
    assert (got.n_parties, got.d, got.r_ket, got.r_bra, got.exact) == (
        want.n_parties,
        want.d,
        want.r_ket,
        want.r_bra,
        want.exact,
    )
    assert np.array_equal(got.diagonal, (got.rows == got.cols).all(axis=1))
    if want.exact:
        assert got.entries == want.entries
        assert got.trace() == oracle_trace(want)
    else:
        assert got.entries.keys() == want.entries.keys()
        for key, val in want.entries.items():
            assert abs(got.entries[key] - val) <= 1e-12
        assert abs(got.trace() - oracle_trace(want)) <= 1e-12 * max(1, len(want.entries))


@st.composite
def sparse_exact_states(draw, N, d):
    """Random Gaussian-integer amplitudes on a random support.  Drawing the
    indices from two symbols per party makes terms share their complements
    on most subsets."""
    top = draw(st.sampled_from((1, d - 1)))
    indices = st.tuples(*[st.integers(0, top)] * N)
    support = draw(st.lists(indices, min_size=1, max_size=12, unique=True))
    part = st.integers(-6, 6)
    amps = {idx: draw(st.tuples(part, part).filter(any)) for idx in support}
    r = sum(a * a + b * b for a, b in amps.values())
    return PureState(N=N, d=d, amplitudes=amps, r=r)


@st.composite
def sparse_float_states(draw, N, d):
    """from_vector states: random complex amplitudes on an exact state's support."""
    support = [np.ravel_multi_index(idx, (d,) * N) for idx in draw(sparse_exact_states(N, d)).amplitudes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.zeros(d**N, dtype=complex)
    v[support] = (1, 1j) @ rng.normal(size=(2, len(support)))
    return from_vector(v / np.linalg.norm(v), N, d)


@st.composite
def reduction_cases(draw):
    """(s1, s2, parties) with N <= 6, d in {2, 3, 4, 5}: one state paired
    with itself, or two states of either mode, exact ones with different r."""
    N = draw(st.integers(1, 6))
    d = draw(st.sampled_from((2, 3, 4, 5)))
    states = st.one_of(sparse_exact_states(N, d), sparse_float_states(N, d))
    s1 = draw(states)
    s2 = s1 if draw(st.booleans()) else draw(states)
    parties = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    return s1, s2, parties


@settings(max_examples=200)
@given(case=reduction_cases(), block=st.sampled_from((1, 5, oa_module._COUNT_BLOCK)))
def test_kernel_matches_dict_oracle(case, block):
    s1, s2, parties = case
    with mock.patch.object(oa_module, "_COUNT_BLOCK", block):
        got = cross_block(s1, s2, parties)
    assert_same_operator(got, oracle_cross_reduction(s1, s2, parties))


@st.composite
def families(draw):
    """(family, parties): K <= 5 states on N <= 4 parties with d in
    {2, 3}, each exact or float, so the stack's index may take one to
    three ancilla digits and leave some of their values unused."""
    N = draw(st.integers(1, 4))
    d = draw(st.sampled_from((2, 3)))
    states = st.one_of(sparse_exact_states(N, d), sparse_float_states(N, d))
    family = draw(st.lists(states, min_size=1, max_size=5))
    parties = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    return family, parties


@settings(max_examples=150)
@given(case=families(), block=st.sampled_from((1, 5, oa_module._COUNT_BLOCK)))
def test_stack_blocks_match_dict_oracle(case, block):
    """Block (s, t) of one reduction of the family's purified state is the
    reduction of |psi_s><psi_t|, in floats unless every member is exact,
    with its entries in order."""
    family, parties = case
    d, K = family[0].d, len(family)
    floats = not all(s.exact for s in family)
    psi = states_module._Purified(family)
    m = psi.m
    assert d**m >= K and (m == 0 or d ** (m - 1) < K)
    with mock.patch.object(oa_module, "_COUNT_BLOCK", block):
        red = psi.reductions([tuple(sorted(parties))])
    for s, t in np.ndindex(K, K):
        got = red.operator(0, s, t)
        # entries in lexicographic (row, column) order
        keys = [row + col for row, col in zip(got.rows.tolist(), got.cols.tolist())]
        assert keys == sorted(keys)
        assert_same_operator(got, oracle_cross_reduction(family[s], family[t], parties, floats))


@st.composite
def segment_families(draw):
    """(family, k): one to four states on one system, random sparse ones or
    copies of the 2-uniform example state with a phase i^m on each term,
    whose self-segments are I / 9 for k <= 2.  Each is kept, doubled (over
    4r) or times 1 + i (over 2r), so exact members' r's differ; then all
    stay exact, all go to floats, or one float state joins them."""
    if draw(st.booleans()):
        N, d = 4, 3
        states = st.lists(st.integers(0, 3), min_size=9, max_size=9).map(lambda e: with_phases(example_state(), e))
    else:
        N, d = draw(st.integers(1, 4)), draw(st.sampled_from((2, 3)))
        states = sparse_exact_states(N, d)
    factor = st.sampled_from(((1, 0), (2, 0), (1, 1)))
    states = st.tuples(states, factor).map(lambda sf: transformed(sf[0], range(N), [range(d)] * N, [sf[1]] * sf[0].num_terms))
    family = draw(st.lists(states, min_size=1, max_size=4))
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    if kind == "float":
        family = [from_vector(s.to_vector(), N, d) for s in family]
    elif kind == "mixed":
        family.insert(draw(st.integers(0, len(family))), draw(sparse_float_states(N, d)))
    return family, draw(st.integers(0, N))


def _same_physical(a, b) -> bool:
    """Whether exact self-reductions a, over a.r_ket, and b, over b.r_ket,
    hold the same operator, entry by entry."""
    if a.entries.keys() != b.entries.keys():
        return False
    return all(x * b.r_ket == y * a.r_ket for key in a.entries for x, y in zip(a.entries[key], b.entries[key]))


@settings(max_examples=100)
@given(case=segment_families())
def test_segments_match_cross_reduction_oracle(case):
    """Segment (j, s, t) of one call is the oracle's |psi_s><psi_t| traced
    down to subset j, over sqrt(r_s r_t), entries in order; and the call's
    masks read maximally mixed segments, (s, s) segments with s >= 1 that
    are the same operator as (0, 0), and the segments an exact call leaves
    (an (s, s) not I / d^k, an (s, t) that is not zero) as the oracle's
    operators do."""
    family, k = case
    psi = states_module._Purified(family)
    K, floats = len(family), not psi.exact
    subsets = list(combinations(range(family[0].N), k))
    red = psi.reductions(subsets)
    assert len(red.starts) == len(subsets) * K * K + 1
    want = {}
    for (j, S), (s, t) in product(enumerate(subsets), np.ndindex(K, K)):
        got = red.operator(j, s, t)
        want[j, s, t] = oracle_cross_reduction(family[s], family[t], S, floats)
        keys = [row + col for row, col in zip(got.rows.tolist(), got.cols.tolist())]
        assert keys == sorted(keys)
        assert_same_operator(got, want[j, s, t])
    left = red.left(red.maximally_mixed).reshape(-1).tolist()
    if floats:
        assert left == [True] * len(want)
        return
    mixed, same = red.maximally_mixed().tolist(), red.same_as_first().tolist()
    for i, (j, s, t) in enumerate(want):
        is_mixed = s == t and oracle_is_maximally_mixed(want[j, s, t])
        assert mixed[i] == is_mixed and left[i] == (not is_mixed if s == t else bool(want[j, s, t].entries))
        assert same[i] == (s == t > 0 and _same_physical(want[j, s, s], want[j, 0, 0]))


def test_cross_segments_flag_their_diagonal():
    """A cross segment's diagonal flags are read off the system columns,
    not the ancilla's, so its trace is <psi_t|psi_s>."""
    a = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0), (1, 1): (1, 0)}, r=2)
    c = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0), (0, 1): (1, 0)}, r=2)
    op = states_module._Purified([a, c]).reductions([(0,)]).operator(0, 1, 0)
    assert op.entries == {((0,), (0,)): (1, 0), ((0,), (1,)): (1, 0)}
    assert op.diagonal.tolist() == [True, False]
    assert op.trace() == (1, 0) == inner_product(a, c).num


@pytest.mark.parametrize("exact", [True, False])
def test_family_of_one_copies_nothing(exact):
    """A state is the purified family of one, with no ancilla, whose
    encoding is views of the state's own index and value arrays: verifying
    a large state makes no stacked copy of it."""
    state = example_state() if exact else from_vector(example_state().to_vector(), 4, 3)
    psi = states_module._Purified([state])
    assert psi.m == 0 and psi.exact == exact
    assert np.shares_memory(psi.e.idx, state._idx)
    assert np.shares_memory(psi.e.re, state._values) and np.shares_memory(psi.e.im, state._values)


def test_kernel_blocks_keep_entries_whole():
    # onto every party each pair of terms is its own entry; onto party 2 all
    # nine terms meet in one entry, so no block may split their group
    s = PureState(
        N=3,
        d=3,
        amplitudes={(x, y, 0): (x + 1, y - 1) for x in range(3) for y in range(3)},
        r=sum((x + 1) ** 2 + (y - 1) ** 2 for x in range(3) for y in range(3)),
    )
    for block in (1, 2, 4, 100):
        with mock.patch.object(oa_module, "_COUNT_BLOCK", block):
            for parties in [(0,), (1,), (2,), (0, 2), (0, 1, 2)]:
                assert_same_operator(cross_block(s, s, parties), oracle_cross_reduction(s, s, parties))


@st.composite
def block_families(draw):
    """(family, k): one to three states on N <= 5 parties with d in {2, 3},
    all exact with int64 numerators, all exact with numerators past 2^63,
    all float, or exact ones joined by a float one; k the size of the
    subsets reduced."""
    N = draw(st.integers(1, 5))
    d = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("int64", "wide", "float", "mixed")))
    members = sparse_float_states(N, d) if kind == "float" else sparse_exact_states(N, d)
    if kind == "wide":
        big = draw(st.sampled_from((2**63, 3**41 + 2)))
        members = members.map(lambda s: transformed(s, range(N), [range(d)] * N, [(big, 0)] * s.num_terms))
    family = draw(st.lists(members, min_size=1, max_size=3))
    if kind == "mixed":
        family.insert(draw(st.integers(0, len(family))), draw(sparse_float_states(N, d)))
    return family, draw(st.integers(1, N))


def _recorded(name: str, calls: list):
    """A patch of states.<name> that appends (args, result) of each call."""
    fn = getattr(states_module, name)
    return mock.patch.object(states_module, name, lambda *args: calls.append((args, out := fn(*args))) or out)


def _assert_pair_blocks(keys, counts, blocks, terms: int) -> None:
    """The pair blocks of one kernel call split its rows in (subset, kept)
    key order between groups of equal keys, and each block exceeds the
    budget by at most its last group, whose pairs number at most the terms
    of the state."""
    rows = np.concatenate(blocks)
    assert sorted(rows.tolist()) == list(range(len(keys)))
    assert (np.diff(keys[rows]) >= 0).all()
    for block, after in zip(blocks, blocks[1:]):
        assert keys[block[-1]] != keys[after[0]]
    for block in blocks:
        ends = np.append(np.flatnonzero(np.diff(keys[block])) + 1, len(block))
        pairs = np.diff(np.cumsum(counts[block])[ends - 1], prepend=0)
        assert pairs.sum() - pairs[-1] <= oa_module._COUNT_BLOCK and pairs.max() <= terms


def _matched_pairs(e, subsets: list) -> int:
    """The pairs a _reduce call on e matches, counted group by group of rows
    that agree off a subset: the pairs of distinct rows, each once, for an
    exact encoding; every ordered pair, each row with itself included, for
    a float one."""
    total = 0
    for S in subsets:
        others = [p for p in range(e.idx.shape[1]) if p not in S]
        _, sizes = np.unique(e.idx[:, others], axis=0, return_counts=True)
        total += int((sizes * sizes).sum() if e.bound is None else (sizes * (sizes - 1) // 2).sum())
    return total


@settings(max_examples=150)
@given(case=block_families(), size=st.sampled_from((1, 7, None)), pair_block=st.sampled_from((5, oa_module._COUNT_BLOCK)))
def test_block_calls_match_oracle_and_blocks_of_one(case, size, pair_block):
    """Every subset's blocks from a kernel call over many subsets are the
    dict oracle's, and bit for bit what the subset alone gives, for blocks
    of one, of seven and of the walk's default size, with pair blocks of 5
    that cut through subsets or of the default budget.  Calls of the walk's
    size keep their row arrays within the budget, every pair block exceeds
    its budget by at most one group, and an exact call matches each pair of
    distinct rows that agree off a subset once, a float one every ordered
    pair."""
    family, k = case
    psi = states_module._Purified(family)
    e, m = psi.e, psi.m
    d, N, K = family[0].d, family[0].N, len(family)
    T = len(e.idx)
    floats = e.bound is None
    assert floats == (not all(s.exact for s in family))
    subsets = list(combinations(range(N), k))
    if size is None:
        calls = list(oa_module._in_blocks(iter(subsets), states_module._call_width(e)))
    else:
        calls = [subsets[i : i + size] for i in range(0, len(subsets), size)]
    reduced, cut, pair_counts = [], [], []
    with (
        mock.patch.object(oa_module, "_COUNT_BLOCK", pair_block),
        _recorded("_reduce", reduced),
        _recorded("_blocks", cut),
        _recorded("_partners", pair_counts),
    ):
        reductions = [psi.reductions(call) for call in calls]
        for (keys, _, counts), blocks in cut:
            _assert_pair_blocks(keys, counts, blocks, T)
        cut.clear()
        alone = [psi.reductions([S]) for S in subsets]
    # an exact call matches the pairs above the diagonal, a float one all
    assert all(counts.sum() == _matched_pairs(args[0], args[1]) for (args, _), (_, (_, _, counts)) in zip(reduced, pair_counts))
    assert [len(args[1]) for args, _ in reduced[: len(calls)]] == [len(call) for call in calls]
    if size is None:
        # each row array of a call holds one entry per term and subset
        assert all(len(args[1]) * T <= max(T, oa_module._COUNT_BLOCK) for args, _ in reduced[: len(calls)])
    got = [functools.partial(red.operator, j) for call, red in zip(calls, reductions) for j in range(len(call))]
    for S, blocks, single in zip(subsets, got, alone):
        for s, t in np.ndindex(K, K):
            op, one = blocks(s, t), single.operator(0, s, t)
            keys = [row + col for row, col in zip(op.rows.tolist(), op.cols.tolist())]
            assert keys == sorted(keys)
            assert_same_operator(op, oracle_cross_reduction(family[s], family[t], S, floats))
            for x, y in ((getattr(op, name), getattr(one, name)) for name in ("rows", "cols", "diagonal", "re", "im")):
                assert x.dtype == y.dtype and _bits(x.tolist()) == _bits(y.tolist())
    # one state: the call's own decisions, per subset, are its operators'
    for call, red in zip(calls, reductions if K == 1 else []):
        assert len(red.starts) == len(call) + 1
        for j, S in enumerate(call):
            op = red.operator(j)
            assert_same_operator(op, oracle_cross_reduction(family[0], family[0], S, floats))
            assert red.deviations()[j].tobytes() == np.float64(op.maximally_mixed_deviation()).tobytes()
            if not floats:
                assert red.maximally_mixed()[j] == op.is_maximally_mixed() == oracle_is_maximally_mixed(op)


def test_pair_blocks_cut_through_subsets():
    """With a pair budget of 4, the kernel's pair blocks hold rows of two
    subsets at once, each exceeding the budget by at most one group, and
    every reduction is still the oracle's: the example state's rows agree
    off a 3-subset in groups of three, 9 pairs above the diagonal per
    subset.  So do they with a budget of 48 on calls sized by _call_width,
    whose row arrays then stay within it: the 16 terms of |+>^4 match 24
    pairs above the diagonal per 2-subset, 12, 8, 4 and 0 per group."""
    state = example_state()
    subsets = list(combinations(range(4), 3))
    cuts = []
    with mock.patch.object(oa_module, "_COUNT_BLOCK", 4), _recorded("_blocks", cuts):
        red = states_module._reduce(states_module._encode(state, False), subsets, 3, state.r)
        (keys, _, counts), blocks = cuts[0]
        _assert_pair_blocks(keys, counts, blocks, state.num_terms)
    assert counts.sum() == 9 * len(subsets)
    assert any(len(set((rows // state.num_terms).tolist())) > 1 for rows in blocks)
    for j, S in enumerate(subsets):
        assert_same_operator(red.operator(j), oracle_cross_reduction(state, state, S))
    assert red.maximally_mixed().tolist() == [oracle_is_maximally_mixed(oracle_cross_reduction(state, state, S)) for S in subsets]

    plus = PureState(N=4, d=2, amplitudes={x: (1, 0) for x in product(range(2), repeat=4)}, r=16)
    subsets = list(combinations(range(4), 2))
    reduced, cuts = [], []
    with mock.patch.object(oa_module, "_COUNT_BLOCK", 48), _recorded("_reduce", reduced), _recorded("_blocks", cuts):
        report = verify_k_uniform(plus, 2)
        for (keys, _, counts), blocks in cuts:
            _assert_pair_blocks(keys, counts, blocks, 16)
    assert [args[1] for args, _ in reduced] == [subsets[:3], subsets[3:]]
    assert all(len(args[1]) * 16 <= 48 for args, _ in reduced)
    assert any(len(set((rows // 16).tolist())) > 1 for (_, blocks) in cuts for rows in blocks)
    assert report == oracle_verify_k_uniform(plus, 2) and report.verdict == "fail"


UNIT_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))
NORM_25 = ((5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (-4, 3), (-3, -4), (4, -3))


def transformed(state: PureState, parties, symbols, factors) -> PureState:
    """state with party p moved to parties[p] and its symbols relabelled by
    symbols[p], and its terms, in dict order, multiplied by the Gaussian
    integers in factors; a factor (0, 0) drops its term."""
    amps = {}
    for (idx, (a, b)), (c, e) in zip(state.amplitudes.items(), factors):
        if c or e:
            moved = [0] * state.N
            for p, x in enumerate(idx):
                moved[parties[p]] = symbols[p][x]
            amps[tuple(moved)] = (a * c - b * e, a * e + b * c)
    return PureState(N=state.N, d=state.d, amplitudes=amps, r=sum(a * a + b * b for a, b in amps.values()))


def with_phases(state: PureState, exponents) -> PureState:
    """state with its terms, in dict order, multiplied by i^m for m in exponents."""
    return transformed(state, range(state.N), [range(state.d)] * state.N, [UNIT_PHASES[m] for m in exponents])


@st.composite
def uniformity_cases(draw):
    """(state, k): random sparse exact states, which mostly fail, or known
    k-uniform states with a phase i^m drawn for each term, which pass."""
    if draw(st.booleans()):
        N = draw(st.integers(2, 6))
        state = draw(sparse_exact_states(N, draw(st.sampled_from((2, 3, 4, 5)))))
    else:
        base = draw(st.sampled_from((ghz(4, 3), example_state(), load_bundled_state("ame_6_2"))))
        state = with_phases(base, [draw(st.integers(0, 3)) for _ in range(base.num_terms)])
    return state, draw(st.integers(1, state.N // 2))


@settings(max_examples=80)
@given(case=uniformity_cases())
def test_uniformity_reports_match_oracle(case):
    state, k = case
    assert verify_k_uniform(state, k) == oracle_verify_k_uniform(state, k)


def phased_four_uniform() -> PureState:
    """The 11-qutrit 4-uniform state with a seeded phase i^m on each term."""
    s = construct_k_uniform(4, 3, 11, verify=False)
    return with_phases(s, np.random.default_rng(5).integers(4, size=s.num_terms))


def test_reports_match_oracle_bit_for_bit():
    phased = phased_four_uniform()
    product = PureState(N=3, d=2, amplitudes={(0, 1, 0): (1, 0)})
    for state, k, verdict in [(phased, 4, "pass"), (phased, 5, "fail"), (product, 1, "fail")]:
        report = verify_k_uniform(state, k)
        assert report.verdict == verdict
        # dataclass equality: verdict, failures in order with their text,
        # and max_deviation as the same float
        assert report == oracle_verify_k_uniform(state, k)
    assert report.failures and report.max_deviation == 0.5


def test_float_report_matches_oracle():
    rng = np.random.default_rng(17)
    v = rng.normal(size=3**4) + 1j * rng.normal(size=3**4)
    s = from_vector(v / np.linalg.norm(v), 4, 3)
    for k in (1, 2):
        report, want = verify_k_uniform(s, k), oracle_verify_k_uniform(s, k)
        assert (report.verdict, [f[0] for f in report.failures]) == ("fail", [f[0] for f in want.failures])
        assert report.max_deviation == pytest.approx(want.max_deviation, abs=1e-12)


# ---------------------------------------------------------------------------
# exact reductions from the pairs above the diagonal; deviations found in
# integers; the kernel's memory


@st.composite
def exact_families(draw):
    """(family, k): one to three exact states on N <= 5 parties with d in
    {2, 3}, whose rows agree off a subset in groups of one, two or more,
    with int64 numerators or numerators past 2^63; k the size of the
    subsets reduced."""
    N = draw(st.integers(1, 5))
    d = draw(st.sampled_from((2, 3)))
    members = sparse_exact_states(N, d)
    if draw(st.booleans()):
        big = draw(st.sampled_from((2**63, 3**41 + 2)))
        members = members.map(lambda s: transformed(s, range(N), [range(d)] * N, [(big, 0)] * s.num_terms))
    return draw(st.lists(members, min_size=1, max_size=3)), draw(st.integers(0, N))


# rows agreeing off a subset in groups of one (the 2-uniform example at
# k = 2), of two (onto party 0), and of three or four (the example at
# k = 3, |+>^3 at k = 2), numerators past 2^63, and a family of two
_PAIR_OF_TWO = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0), (1, 0): (0, 1)}, r=2)
_PLUS_3 = PureState(N=3, d=2, amplitudes={x: (1, 0) for x in product(range(2), repeat=3)}, r=8)
_WIDE_EXAMPLE = transformed(example_state(), range(4), [range(3)] * 4, [(2**63 + 1, 0), (0, 2**63)] * 5)


@settings(max_examples=150)
@example(case=([example_state()], 2), pair_block=5)
@example(case=([_PAIR_OF_TWO], 1), pair_block=5)
@example(case=([example_state()], 3), pair_block=5)
@example(case=([_PLUS_3], 2), pair_block=oa_module._COUNT_BLOCK)
@example(case=([_WIDE_EXAMPLE], 3), pair_block=5)
@example(case=([example_state(), with_phases(example_state(), [1, 2, 3] * 3)], 2), pair_block=5)
@given(case=exact_families(), pair_block=st.sampled_from((5, oa_module._COUNT_BLOCK)))
def test_exact_reductions_are_hermitian_and_the_oracles(case, pair_block):
    """Every exact reduction, of a state or of a family's purified state, is
    the dict oracle's, and Hermitian entry for entry: entry (x, y) of
    segment (j, s, t) is the conjugate of entry (y, x) of (j, t, s).  The
    kernel sums one of each such pair of entries and mirrors the other, for
    pair blocks of 5 or of the default budget."""
    family, k = case
    psi = states_module._Purified(family)
    K, subsets = len(family), list(combinations(range(family[0].N), k))
    with mock.patch.object(oa_module, "_COUNT_BLOCK", pair_block):
        red = psi.reductions(subsets)
    for (j, S), (s, t) in product(enumerate(subsets), np.ndindex(K, K)):
        op = red.operator(j, s, t)
        assert_same_operator(op, oracle_cross_reduction(family[s], family[t], S))
        mirror = red.operator(j, t, s).entries
        assert op.entries == {(col, row): (a, -b) for (row, col), (a, b) in mirror.items()}


@st.composite
def deviation_blocks(draw):
    """Arguments (dim, starts, diagonal, re, im, r) of _deviations for a
    block of exact operators over one r: segments of entries, empty ones
    included, each entry diagonal or not, so that some diagonal entries are
    missing.  Small numerators and r make diagonal and off-diagonal maxima
    tie; or r puts bound dim + r at the guards of the integer maximum
    (2^31, where squares reach 2^63) and of the numerators' parts (2^63);
    or the numerators pass 2^63, in object arrays."""
    dim = draw(st.sampled_from((1, 2, 3, 4, 9)))
    scale = draw(st.sampled_from(("small", "square_guard", "part_guard", "object")))
    bound = 2**64 if scale == "object" else 6
    part = st.integers(-bound, bound)
    segments = draw(st.lists(st.lists(st.tuples(st.booleans(), part, part), max_size=6), min_size=1, max_size=5))
    entries = [entry for segment in segments for entry in segment]
    top = max((max(abs(a), abs(b)) for _, a, b in entries), default=0)
    if scale == "small":
        r = draw(st.integers(1, 40))
    elif scale == "object":
        r = draw(st.integers(1, 2**70))
    else:
        r = max(1, (1 << (31 if scale == "square_guard" else 63)) - top * dim + draw(st.integers(-2, 1)))
    starts = np.cumsum([0] + [len(segment) for segment in segments])
    dtype = object if top >= 1 << 63 else np.int64
    diagonal = np.array([on for on, _, _ in entries], dtype=bool)
    re, im = (np.array([entry[i] for entry in entries], dtype=dtype) for i in (1, 2))
    return dim, starts, diagonal, re, im, r


@settings(max_examples=300)
# |3 + 4i| * 2 off the diagonal ties |10 * 2 - 10| on it: both 0.5
@example(block=(2, np.array([0, 2]), np.array([False, True]), np.array([3, 10]), np.array([4, 0]), 10), other=0)
@example(block=(4, np.array([0, 0, 1, 1]), np.array([True]), np.array([1]), np.array([0]), 4), other=0)
@given(block=deviation_blocks(), other=st.sampled_from((0, 1)))
def test_deviations_match_the_all_entries_oracle(block, other):
    """Each exact operator's deviation, its maximum found in integers and
    only the entries at or near it taken to floats, has the bits of every
    entry's float distance maximised segment by segment; over two
    denominators, r and r + 1, every entry goes to floats as before."""
    dim, starts, diagonal, re, im, r = block
    args = dim, starts, diagonal, re, im, r, r + other, True
    assert states_module._deviations(*args).tobytes() == oracle_deviations(*args).tobytes()


@st.composite
def half_blocks(draw):
    """(dim, r, halves): what the readers of a _Half read, for B subsets:
    each subset's entries (a, b) above the diagonal and at most dim
    diagonal sums in [0, r], some of them r / dim.  Small values make
    diagonal and off-diagonal maxima tie; or |a| and |b| sit at the guard of
    the integer maximum (2^31, where a^2 + b^2 reaches 2^63); or r dim or
    r (dim - 1), the reach of a diagonal entry's integer, sits at or past
    2^63 with r below it; or the values pass 2^63, in object arrays."""
    dim = draw(st.sampled_from((1, 2, 3, 4, 9)))
    scale = draw(st.sampled_from(("small", "square_guard", "diagonal_guard", "object")))
    if scale == "small":
        r, part = draw(st.integers(1, 40)), st.integers(-6, 6)
    elif scale == "square_guard":
        r, part = 1 << 40, st.sampled_from((0, 1, -5, (1 << 31) - 1, 1 << 31, -(1 << 31) - 1))
    elif scale == "diagonal_guard":
        edge = (1 << 63) // draw(st.sampled_from((dim, max(dim - 1, 1))))
        r = draw(st.integers(edge - 1, edge + 1) | st.integers(edge, max(edge, (1 << 63) - 1)))
        part = st.integers(-6, 6)
    else:
        r, part = draw(st.integers(1 << 64, 1 << 70)), st.integers(-(1 << 64), 1 << 64)
    sums = st.sampled_from((r // dim, 0, r)) | st.integers(0, r)
    subsets = draw(
        st.lists(
            st.tuples(st.lists(st.tuples(part, part).filter(any), max_size=5), st.lists(sums, max_size=dim)),
            min_size=1,
            max_size=4,
        )
    )
    return dim, r, subsets


@settings(max_examples=300)
@given(block=half_blocks())
def test_half_readers_match_the_all_entries_oracle(block):
    """A _Half's verdicts are those of the mirrored operators it stands
    for, subset j holding its diagonal sums, its entries above the diagonal
    and their conjugates below it: maximally_mixed as
    _maximally_mixed_mask reads them, deviations bit for bit as the
    all-entries oracle computes them."""
    dim, r, subsets = block
    values = [v for upper, sums in subsets for v in [*sums, *(x for pair in upper for x in pair)]]
    dtype = object if max(map(abs, values), default=0) >= 1 << 63 else np.int64
    a, b = (np.array([pair[i] for upper, _ in subsets for pair in upper], dtype=dtype) for i in (0, 1))
    sums = np.array([s for _, diagonal in subsets for s in diagonal], dtype=dtype)
    # one row per run: each entry's row is its subset
    rows, on = (np.repeat(np.arange(len(subsets)), [len(part[i]) for part in subsets]) for i in (0, 1))
    half = states_module._Half(None, 0, (rows, None), a, b, on, sums, np.arange(len(subsets) + 1))
    entries = [
        [(True, s, 0) for s in diagonal] + [(False, x, y) for x, y in upper] + [(False, x, -y) for x, y in upper]
        for upper, diagonal in subsets
    ]
    flat = [entry for segment in entries for entry in segment]
    diagonal = np.array([on for on, _, _ in flat], dtype=bool)
    re, im = (np.array([entry[i] for entry in flat], dtype=dtype) for i in (1, 2))
    full = dim, np.cumsum([0] + [len(segment) for segment in entries]), diagonal, re, im
    assert half.maximally_mixed(dim, r).tolist() == states_module._maximally_mixed_mask(*full, (r,)).tolist()
    assert half.deviations(dim, r).tobytes() == oracle_deviations(*full, r, r, True).tobytes()


def test_walk_sized_reduce_peaks_within_its_arrays():
    """One walk-sized _reduce call on the 729-term phased 4-uniform state at
    k = 5, 22 subsets whose rows agree off a subset in groups of three,
    peaks within the arrays its design holds at once, 8 bytes an entry:

    - row arrays, one entry per term and subset: the kept keys within and
      across runs, the rows in key order, the partners' order, starts and
      counts, the two tiled amplitude parts, and a block's pair counts;
      the (N, T) index columns are smaller than one;
    - pair arrays, oa._COUNT_BLOCK pairs and one group of at most T more:
      before the pair sort the partner index and the pair keys, the sort's
      order, its high digits and its second order; after it the four
      gathered amplitude parts and one product, the rest formed in place.

    The entries (2 U + D of them, for U pairs above the diagonal and D
    groups) and the mirrored sort over them stay within what the pair
    arrays held, as U <= 16038 <= oa._COUNT_BLOCK here."""
    state = phased_four_uniform()
    psi = states_module._Purified([state])
    subsets = next(psi.undecided(5))
    T = state.num_terms
    assert len(subsets) == oa_module._COUNT_BLOCK // T == 22
    row_arrays, pair_arrays = 10, 6
    bound = 8 * (row_arrays * len(subsets) * T + pair_arrays * (oa_module._COUNT_BLOCK + T))
    states_module._reduce(psi.e, subsets, state.d, state.r)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        red = states_module._reduce(psi.e, subsets, state.d, state.r)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(red.re) == 16038 and peak <= bound



def test_half_form_readers_hold_within_their_arrays():
    """The twin of the test above: one walk-sized call on the same subsets
    read through maximally_mixed and deviations mirrors nothing, and the
    readers' temporaries, above what the call's halves hold, stay within
    the arrays their design makes, 8 bytes an entry, for U entries above
    the diagonals and D on them:

    - six of U entries: the squared moduli, the picked positions, their two
      parts as floats, their moduli and those scaled;
    - three of D entries: the diagonal sums times dim, less r, and their
      absolute values (or the running count of maximally_mixed);
    - and per subset a few more, within 4 KiB at 22 subsets.

    Mirroring the 16038 entries instead would hold their keys, the sort's
    order and four columns twice over, well past this."""
    state = phased_four_uniform()
    psi = states_module._Purified([state])
    subsets = next(psi.undecided(5))
    states_module._reduce(psi.e, subsets, state.d, state.r).deviations()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        red = states_module._reduce(psi.e, subsets, state.d, state.r)
        call_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        mixed, dev = red.maximally_mixed(), red.deviations()
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    half = red.summed
    U, D = len(half.re), len(half.sums)
    assert (U, D) == (5346, 5346) and "re" not in vars(red)
    assert not mixed.any() and (dev > 0).all()
    T = state.num_terms
    assert call_peak <= 8 * (10 * len(subsets) * T + 6 * (oa_module._COUNT_BLOCK + T))
    assert read_peak <= 8 * (6 * U + 3 * D) + 4096


def _no_mirror(*args):
    raise AssertionError("the operators were mirrored")


@settings(max_examples=150)
@example(case=([example_state()], 2), pair_block=5, limit=states_module._KEPT_KEY_LIMIT)
@example(case=([_PLUS_3], 2), pair_block=oa_module._COUNT_BLOCK, limit=1)
@example(case=([_WIDE_EXAMPLE], 3), pair_block=5, limit=1)
@example(case=([_WIDE_EXAMPLE], 2), pair_block=5, limit=states_module._KEPT_KEY_LIMIT)
@given(
    case=exact_families(),
    pair_block=st.sampled_from((5, oa_module._COUNT_BLOCK)),
    limit=st.sampled_from((states_module._KEPT_KEY_LIMIT, 1)),
)
def test_half_form_reads_the_mirrored_operators(case, pair_block, limit):
    """An exact state's call decides, from its two halves and without
    mirroring them, what _maximally_mixed_mask and the all-entries oracle
    read off its mirrored operators, bit for bit; after those reads its
    operators are the dict oracle's, in lexicographic order.  Numerators
    are int64 or past 2^63; kept keys are radix keys or, with a limit of 1
    in place of _KEPT_KEY_LIMIT, ids of distinct rows from np.unique; pair
    blocks of 5 are cut by _blocks."""
    family, k = case
    state = family[0]
    subsets = list(combinations(range(state.N), k))
    e = states_module._encode(state, False)
    with (
        mock.patch.object(oa_module, "_COUNT_BLOCK", pair_block),
        mock.patch.object(states_module, "_KEPT_KEY_LIMIT", limit),
        mock.patch.object(states_module, "_mirrored", _no_mirror),
    ):
        red = states_module._reduce(e, subsets, state.d, state.r)
        mixed, dev = red.maximally_mixed(), red.deviations()
    block = state.d**k, red.starts, red.diagonal, red.re, red.im
    assert mixed.tolist() == states_module._maximally_mixed_mask(*block, (state.r,)).tolist()
    assert dev.tobytes() == oracle_deviations(*block, state.r, state.r, True).tobytes()
    for j, S in enumerate(subsets):
        op = red.operator(j)
        keys = [row + col for row, col in zip(op.rows.tolist(), op.cols.tolist())]
        assert keys == sorted(keys)
        assert_same_operator(op, oracle_cross_reduction(state, state, S))


def bench_shaped_cases() -> list:
    """(name, state, k) for the states that the benchmark verifies, built as
    it builds them: catalog states under a seeded party permutation and
    symbol relabelling, and the phased 11-qutrit state at k = 4 (a pass)
    and k = 5 (66 subsets left to the kernel, all failing)."""
    rng = np.random.default_rng(90210)
    cases = []
    for k, d, N in ((4, 3, 11), (4, 3, 12), (2, 8, 10), (3, 2, 6)):
        s = construct_k_uniform(k, d, N, verify=False)
        parties, symbols = rng.permutation(N).tolist(), [rng.permutation(d).tolist() for _ in range(N)]
        cases.append((f"u{k}_d{d}_n{N}", transformed(s, parties, symbols, [(1, 0)] * s.num_terms), k))
    phased = phased_four_uniform()
    return cases + [("ph4_d3_n11", phased, 4), ("ph4_d3_n11", phased, 5)]


# sha256 of each `verify state` report's details as json.dumps gives them,
# as the mirrored operators' readers (_maximally_mixed_mask, _deviations)
# decided them
BENCH_SHAPED_DIGESTS = {
    "u4_d3_n11@4": "e3ed8af222731c2338d317df0ca57ec3815bbc26f2879c532788822566e1c5c6",
    "u4_d3_n12@4": "c34f789f5bfadfbdc96ac928bd6b86cad538e0a19163e28c3caa22fccd5970cb",
    "u2_d8_n10@2": "8bd9573aa19ad15ac5e49e4e5a88f34663d5891b06a05c29d5fa4d7a3531f4f6",
    "u3_d2_n6@3": "bb2f2cc957b7d6036b2d239de7473943247627fe0c2c3c9a711fe3eddcc9e824",
    "ph4_d3_n11@4": "e3ed8af222731c2338d317df0ca57ec3815bbc26f2879c532788822566e1c5c6",
    "ph4_d3_n11@5": "01cf1d6ee02067ac2a44af3805366b779f2816738879e022449e94c2c1e4ed09",
}


def test_verify_state_reports_never_mirror(tmp_path, capsys, monkeypatch):
    """`verify state` on the benchmark's state shapes never mirrors an
    operator, and prints the bytes that it prints when every verdict is
    read off the mirrored operators instead; the details of each report
    have the digests that those readers gave."""
    runs = []
    for name, state, k in bench_shaped_cases():
        path = tmp_path / f"{name}.state"
        save_state(state, path)
        argv = ["verify", "state", str(path), "--k", str(k)]
        with monkeypatch.context() as m:
            m.setattr(states_module, "_mirrored", _no_mirror)
            code, report = run(argv)
            half = capsys.readouterr().out
        with monkeypatch.context() as m:
            red = states_module._Reductions
            m.setattr(red, "maximally_mixed", lambda self: states_module._maximally_mixed_mask(*self._block(), self.r))
            m.setattr(red, "deviations", lambda self: states_module._deviations(*self._block(), self.r[0], self.r[0], True))
            run(argv)
            mirrored = capsys.readouterr().out
        assert half == mirrored
        details = json.dumps(report["details"]).encode()
        runs.append((f"{name}@{k}", report["details"]["verdict"], hashlib.sha256(details).hexdigest()))
    assert [verdict for _, verdict, _ in runs] == ["pass"] * 5 + ["fail"]
    assert {key: digest for key, _, digest in runs} == BENCH_SHAPED_DIGESTS


# |+>|+>|0...0>
PLUS_70 = PureState(N=70, d=2, amplitudes={(a, b) + (0,) * 68: (1, 0) for a in (0, 1) for b in (0, 1)}, r=4)


# the 256 rows (x, y, 0, ..., 0) over d = 16: each party-0 and party-1
# value 16 times, but complements shared by 16 rows
PLUS_16 = PureState(N=16, d=16, amplitudes={(x, y) + (0,) * 14: (1, 0) for x in range(16) for y in range(16)}, r=256)


RADIX_BOUNDS = (1, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1)


@st.composite
def bounded_keys(draw):
    """(keys, bound): int64 keys below a bound on either side of the radix
    limits, drawn from a few values that share one 16-bit digit and differ
    in the other, so that ties and digit order both show."""
    bound = draw(st.sampled_from(RADIX_BOUNDS))
    digits = st.sampled_from((0, 1, 2, 0xFFFE, 0xFFFF))
    values = st.builds(lambda hi, lo: (hi << 16 | lo) % bound, digits, digits) | st.integers(0, bound - 1)
    pool = draw(st.lists(values, min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=400))
    return np.array(keys, dtype=np.int64), bound


@settings(max_examples=300)
@given(case=bounded_keys())
@example(case=(np.zeros(0, dtype=np.int64), 1))
@example(case=(np.zeros(0, dtype=np.int64), 2**32 + 1))
@example(case=(np.array([2**16], dtype=np.int64), 2**16 + 1))
@example(case=(np.full(300, 2**16 - 1, dtype=np.int64), 2**16))
@example(case=(np.full(300, 2**32 - 1, dtype=np.int64), 2**32))
@example(case=(np.array([0x10000, 0x0FFFF, 0x1FFFF, 0x10000, 0x00001] * 40, dtype=np.int64), 2**32))
def test_stable_order_is_the_stable_argsort(case):
    """_stable_order is np.argsort(kind="stable") for keys below each bound
    around 2^16 and 2^32, empty, of length one and all equal included."""
    keys, bound = case
    got = states_module._stable_order(keys, bound)
    assert got.dtype == np.intp
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()


def test_complement_keys_beyond_int64():
    # the complement of one party has 2^69 radix keys
    report = verify_k_uniform(ghz(70, 2), 1)
    assert report.verdict == "pass" and report.max_deviation == 0.0
    assert report == oracle_verify_k_uniform(ghz(70, 2), 1)
    # complements of the last party of PLUS_70 differ only in the two
    # parties whose radix weights 2^68 and 2^67 would wrap in int64
    for parties in [(69,), (0,), (1, 69)]:
        assert_same_operator(cross_block(PLUS_70, PLUS_70, parties), oracle_cross_reduction(PLUS_70, PLUS_70, parties))


def test_kept_keys_beyond_pair_key_range():
    # 2^34 kept radix keys: row key * 2^34 + col key would wrap in int64 and
    # merge entries whose row keys differ by 2^30, as these two terms' do
    s = PureState(N=34, d=2, amplitudes={(0,) * 34: (1, 0), (0, 0, 0, 1) + (0,) * 30: (0, 1)}, r=2)
    rho = cross_block(s, s, range(34))
    assert_same_operator(rho, oracle_cross_reduction(s, s, range(34)))
    assert len(rho.entries) == 4  # |s><s| itself


@pytest.mark.parametrize("big", [1 << 40, 1 << 70])
def test_numerators_whose_products_overflow_int64(big):
    amps = {(0, 0, 0): (big, 3), (1, 1, 0): (5, -big), (0, 1, 1): (big + 1, 7), (1, 0, 1): (-2, big - 1)}
    s = PureState(N=3, d=2, amplitudes=amps, r=sum(a * a + b * b for a, b in amps.values()))
    t = PureState(N=3, d=2, amplitudes={(0, 0, 1): (big, 0), (1, 1, 0): (0, big)}, r=2 * big * big)
    for parties in [(0,), (1,), (0, 1), (1, 2), (0, 1, 2)]:
        for s1, s2 in [(s, s), (s, t), (t, s)]:
            assert_same_operator(cross_block(s1, s2, parties), oracle_cross_reduction(s1, s2, parties))
    assert verify_k_uniform(s, 1) == oracle_verify_k_uniform(s, 1)


# ---------------------------------------------------------------------------
# the counting pre-check of verify_k_uniform

def graph_state(N: int, edges) -> PureState:
    """The qubit graph state: every index, sign (-1)^(number of edges with
    both ends 1).  Every complement is shared by many terms, so the signs
    alone decide uniformity."""
    amps = {x: ((-1) ** sum(x[i] * x[j] for i, j in edges), 0) for x in np.ndindex((2,) * N)}
    return PureState(N=N, d=2, amplitudes=amps, r=2**N)


@functools.cache
def array_states() -> tuple:
    """Uniform superpositions of irredundant arrays; the example array with
    party 0 copied, uniform on some pairs only; ame_6_2, whose complements
    collide."""
    copied = PureState(N=5, d=3, amplitudes={row + row[:1]: (1, 0) for row in EXAMPLE_ROWS}, r=9)
    arrays = (ghz(4, 3), example_state(), construct_k_uniform(2, 4, 5), construct_k_uniform(3, 4, 6))
    return arrays + (copied, load_bundled_state("ame_6_2"))


@st.composite
def counting_cases(draw):
    """(state, k), 1 <= k <= N / 2: an array state or a random graph state
    under a party permutation and per-party symbol relabelling, its terms
    times one common factor, unit phases, Gaussian integers of norm 25, or
    ones with some terms dropped or one doubled; exact or float."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(array_states()))
    else:
        N = draw(st.integers(2, 6))
        base = graph_state(N, draw(st.lists(st.sampled_from(list(combinations(range(N), 2))), unique=True)))
    N, d, T = base.N, base.d, base.num_terms
    parties = draw(st.permutations(range(N)))
    symbols = [draw(st.permutations(range(d))) for _ in range(N)]
    kind = draw(st.sampled_from(("common", "unit", "norm 25", "dropped", "doubled")))
    if kind == "common":
        factors = [draw(st.sampled_from(UNIT_PHASES + NORM_25))] * T
    elif kind in ("unit", "norm 25"):
        values = st.sampled_from(UNIT_PHASES if kind == "unit" else NORM_25)
        factors = draw(st.lists(values, min_size=T, max_size=T))
    else:
        factors = [(1, 0)] * T
        if kind == "dropped":
            for t in draw(st.sets(st.integers(0, T - 1), min_size=1, max_size=T - 1)):
                factors[t] = (0, 0)
        else:
            factors[draw(st.integers(0, T - 1))] = (2, 0)
    state = transformed(base, parties, symbols, factors)
    if draw(st.integers(0, 3)) == 0:
        state = from_vector(state.to_vector(), N, d)
    return state, draw(st.integers(1, N // 2))


@settings(max_examples=150)
@given(case=counting_cases())
def test_counting_reports_match_oracle(case):
    state, k = case
    # dataclass equality: max_deviation bit for bit, failure texts in order
    assert verify_k_uniform(state, k) == oracle_verify_k_uniform(state, k)


@settings(max_examples=150)
@given(case=counting_cases(), size=st.integers(1, 3))
def test_batched_counting_matches_oracle(case, size):
    state, k = case
    subsets = list(combinations(range(state.N), k))
    want = [oracle_counting_passes(state, subset) for subset in subsets]
    passes = states_module._counting_check(states_module._encode(state, not state.exact), state.d, k)
    if passes is None:
        assert not any(want)
    else:
        assert passes(np.array(subsets)).tolist() == want
    # blocks of `size` subsets split the walk of verify_k_uniform
    reduced = []
    reduce = states_module._reduce
    with (
        mock.patch.object(oa_module, "_COUNT_BLOCK", size * state.num_terms),
        mock.patch.object(states_module, "_reduce", lambda *args: reduced.extend(args[1]) or reduce(*args)),
    ):
        report = verify_k_uniform(state, k)
    assert reduced == [subset for subset, ok in zip(subsets, want) if not ok]
    assert report == oracle_verify_k_uniform(state, k)


# two rows whose complements of party 33 differ only in party 1, whose
# radix weight is 2^32: their complement keys differ by 2^32 alone
_KEY_GAP_2_32 = PureState(N=34, d=2, amplitudes={(0,) * 34: (1, 0), (0, 1) + (0,) * 31 + (1,): (1, 0)}, r=2)


@pytest.mark.parametrize("state", [ghz(32, 2), ghz(33, 2), _KEY_GAP_2_32], ids=["2^32 keys", "2^33 keys", "gap 2^32"])
def test_counting_keys_on_either_side_of_int32(state):
    """Complement keys are below d^N, kept mod 2^32 in int32 while d^N is
    at most 2^32 (GHZ on 32 qubits) and in int64 past it (on 33); in int64
    the two rows of the third state, whose keys differ by 2^32 alone, stay
    apart, so counting passes party 33, as the oracle does."""
    subsets = list(combinations(range(state.N), 1))
    passes = states_module._counting_check(states_module._encode(state, False), state.d, 1)
    want = [oracle_counting_passes(state, S) for S in subsets]
    assert passes(np.array(subsets)).tolist() == want
    assert want[-1] and verify_k_uniform(state, 1) == oracle_verify_k_uniform(state, 1)


def test_counting_on_complement_ids(monkeypatch):
    # 2^64 complements of 2 of 66 parties: keys are ids of distinct rows;
    # the rows (x, y, x ^ y, x, y, x ^ y, 0, ...) pass by counting on pairs that
    # see x and y, and fail on the others
    state = PureState(
        N=66, d=2, amplitudes={(x, y, x ^ y) * 2 + (0,) * 60: (1, 0) for x in (0, 1) for y in (0, 1)}, r=4
    )
    rows = list(state.amplitudes)

    def counts(subset):
        kept = [tuple(row[p] for p in subset) for row in rows]
        complements = {tuple(x for p, x in enumerate(row) if p not in subset) for row in rows}
        return len(set(kept)) == 4 and len(complements) == 4

    monkeypatch.setattr(oa_module, "_COUNT_BLOCK", 7 * state.num_terms)
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    report = verify_k_uniform(state, 2)
    kept = [subset for subset in combinations(range(66), 2) if counts(subset)]
    assert len(kept) == 12 and report.subsets_checked == 2145
    assert reduced == [s for s in combinations(range(66), 2) if s not in kept]
    assert report == oracle_verify_k_uniform(state, 2)


# ---------------------------------------------------------------------------
# the code stage of verify_k_uniform


def _record_counting(monkeypatch) -> list:
    """Every subset the counting predicate of verify_k_uniform is asked."""
    asked = []
    counting_check = states_module._counting_check

    def recording_check(*args):
        passes = counting_check(*args)
        if passes is None:
            return None

        def recorded(block):
            asked.extend(tuple(subset) for subset in block.tolist())
            return passes(block)

        return recorded

    monkeypatch.setattr(states_module, "_counting_check", recording_check)
    return asked


def test_code_built_states_pass_without_counting_or_kernel(monkeypatch):
    """A coset of a code with both distances above k is decided by its code,
    and one with shorter words leaves the kernel only the subsets holding
    them; a copy relabelled off the affine maps still goes through
    counting, and so does a state too small for recognising its code to
    pay."""
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    asked = _record_counting(monkeypatch)
    recognised = _record_calls(monkeypatch, "_read_coset")
    # the [6,3]_5 extended Reed-Solomon support, w = w-perp = 4: 20 subsets
    # of 125 terms
    state = construct_k_uniform(3, 5, 6, verify=False)
    report = verify_k_uniform(state, 3)
    assert report == oracle_verify_k_uniform(state, 3)
    assert recognised == [] and reduced == [] and asked == list(combinations(range(6), 3))
    asked.clear()
    monkeypatch.setattr(states_module, "_CODE_MIN_PAIRS", 20 * 125)
    assert verify_k_uniform(state, 3) == report
    assert len(recognised) == 1 and reduced == [] and asked == []
    # swapping the symbols 0 and 1 of party 0 is not affine over GF(5)
    moved = transformed(state, range(6), [[1, 0, 2, 3, 4]] + [range(5)] * 5, [(1, 0)] * 125)
    assert code_of_rows(5, moved._idx) is None
    assert verify_k_uniform(moved, 3) == report
    assert reduced == [] and asked == list(combinations(range(6), 3))
    # the seeded relabelling of the phased 11-qutrit state is affine, as
    # every relabelling over GF(3) is: its [11,6,5]_3 coset decides k = 4,
    # and at k = 5 leaves the kernel the 66 subsets that hold a weight-5
    # word of C
    asked.clear()
    rng = np.random.default_rng(9)
    phased = transformed(
        phased_four_uniform(), rng.permutation(11).tolist(), [rng.permutation(3).tolist() for _ in range(11)], [(1, 0)] * 729
    )
    assert verify_k_uniform(phased, 4).verdict == "pass" and asked == [] and reduced == []
    report = verify_k_uniform(phased, 5)
    assert report.verdict == "fail" and len(report.failures) == 66 and asked == []
    assert reduced == [subset for subset, _ in report.failures]


def test_largest_mds_trim_is_decided_by_its_code(monkeypatch):
    """The 371293-term (5,13,14) state: 2002 subsets, no counting."""
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    asked = _record_counting(monkeypatch)
    state = construct_k_uniform(5, 13, 14, verify=False)
    report = verify_k_uniform(state, 5)
    assert (report.verdict, report.subsets_checked, report.failures, report.max_deviation) == ("pass", 2002, [], 0.0)
    assert reduced == [] and asked == []


def test_code_stage_never_refuses_where_counting_passes(monkeypatch):
    """A field above the field_order cap, or a C-perp with words of weight
    at most k, leaves the state to counting.  C's words and both distances
    come from the rows, under no codewords cap."""
    state = construct_k_uniform(4, 3, 11, verify=False)  # [11,6,5]_3, w-perp = 6
    asked = _record_counting(monkeypatch)
    want = verify_k_uniform(state, 4)
    assert want.verdict == "pass" and asked == []
    with monkeypatch.context() as env:
        env.setenv("KUF_CAPS", "field_order=2")
        assert verify_k_uniform(state, 4) == want
    assert asked == list(combinations(range(11), 4))
    asked.clear()
    with monkeypatch.context() as env:
        env.setenv("KUF_CAPS", "codewords=1")
        assert verify_k_uniform(state, 4) == want and asked == []
    # the self-dual [12,6,6]_3 code at k = 6: C-perp has words of weight 6,
    # so counting decides, failing the 132 subsets that hold one
    state = construct_k_uniform(4, 3, 12, verify=False)
    report = verify_k_uniform(state, 6)
    assert report.verdict == "fail" and len(report.failures) == 132
    assert asked == list(combinations(range(12), 6))


CODE_FIELDS = {2: 6, 3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}  # q: largest t with q^t <= 81


@st.composite
def code_state_cases(draw, intact: bool = False):
    """(state, k, coset): the state_from_iroa state of a random [N, t]_q
    code over GF(2, 3, 4, 5, 7, 8, 9), translated or relabelled per party
    by affine maps or by any permutation, its rows shuffled, with unit
    phases or not, and intact or with one symbol changed or one term
    doubled; k one of w - 1, w, w-perp - 1, w-perp.  coset says whether
    the rows are still a coset of a code: intact and affinely moved, as
    they always are when `intact` is set."""
    q = draw(st.sampled_from(sorted(CODE_FIELDS)))
    F = field_for_order(q)
    t = draw(st.integers(1, CODE_FIELDS[q]))
    N = draw(st.integers(t + 1, 8))
    symbols = st.integers(0, q - 1)
    G = np.array(draw(st.lists(symbols, min_size=t * N, max_size=t * N)), dtype=np.int64).reshape(t, N)
    G[:, draw(st.lists(st.integers(0, N - 1), min_size=t, max_size=t, unique=True))] = np.eye(t, dtype=np.int64)
    C = LinearCode(F, G)
    w, w_dual = min_distance(C), dual_distance(C)
    assume(min(w, w_dual) >= 2)
    idx = state_from_iroa(oa_from_code(C), min(w, w_dual) - 1)._idx.copy()
    T = len(idx)
    affine = intact or draw(st.booleans())
    for p in range(N):
        if affine:
            a, b = draw(st.integers(1, q - 1)), draw(symbols)
            idx[:, p] = F.add_arr(F.mul_arr(idx[:, p], a), b)
        else:
            idx[:, p] = np.array(draw(st.permutations(range(q))))[idx[:, p]]
    idx = idx[draw(st.permutations(range(T)))]
    values = np.array([UNIT_PHASES[m] for m in draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))])
    if not draw(st.booleans()):
        values[:] = (1, 0)
    fault = "none" if intact else draw(st.sampled_from(("none", "none", "changed", "doubled")))
    i = draw(st.integers(0, T - 1))
    if fault == "changed":
        p = draw(st.integers(0, N - 1))
        idx[i, p] = (idx[i, p] + draw(st.integers(1, q - 1))) % q
        assume(not (idx[i] == np.delete(idx, i, axis=0)).all(axis=1).any())
    elif fault == "doubled":
        values[i] *= 2
    amps = dict(zip(map(tuple, idx.tolist()), map(tuple, values.tolist())))
    state = PureState(N=N, d=q, amplitudes=amps, r=int((values**2).sum()))
    # k past the default matrix_dim cap would refuse failing subsets
    ks = sorted(k for k in {w - 1, w, w_dual - 1, w_dual} if 1 <= k <= N and q**k <= 4096)
    assume(ks)
    return state, draw(st.sampled_from(ks)), fault == "none" and affine


def _coset_case(q: int, G, k: int) -> tuple:
    """An intact case: the state_from_iroa state of the code generated by G."""
    C = LinearCode(field_for_order(q), np.array(G))
    return state_from_iroa(oa_from_code(C), min(min_distance(C), dual_distance(C)) - 1), k, True


@settings(max_examples=80)
@given(case=code_state_cases())
# w = k = 2 < w-perp = 3, with N - t = 2 leaving the Singleton bound room:
# a [6,4]_2 code, not 2-uniform
@example(case=_coset_case(2, [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 1]], 2))
# w-perp = k = 2 < w = 3: two equal columns, not 2-uniform
@example(case=_coset_case(3, [[0, 1, 1, 1, 1], [1, 0, 2, 1, 1]], 2))
def test_code_stage_reports_match_oracle(case):
    state, k, coset = case
    with mock.patch.object(states_module, "_CODE_MIN_PAIRS", 0):
        assert verify_k_uniform(state, k) == oracle_verify_k_uniform(state, k)
    if coset:
        assert code_of_rows(state.d, state._idx) is not None


def _split_rows(state: PureState, j: int) -> list:
    """The family whose stack is state with its first j parties as the
    ancilla: member s holds the terms whose first j symbols spell s in
    radix d, for each s that has terms, in order of s."""
    keys = state._idx[:, :j] @ state.d ** np.arange(j - 1, -1, -1)
    family = []
    for s in np.unique(keys):
        rows = keys == s
        values = state._values[rows]
        family.append(states_module._from_arrays(state.N - j, state.d, state._idx[rows, j:], values, r=int((values**2).sum())))
    return family


@st.composite
def stack_cases(draw):
    """(family, k): a code_state_cases state, whole or split by its first
    j = 1 or 2 parties into a masker's or a pure code's family, and k one
    with d^(k + j) dividing its T terms.  Three in four states are intact
    cosets, which the code stage decides when w(C-perp) > k + j."""
    state, _, _ = draw(code_state_cases(intact=draw(st.integers(0, 3)) > 0))
    j = draw(st.sampled_from([j for j in (0, 1, 2) if state.N - j >= 2]))
    family = _split_rows(state, j) if j else [state]
    d, T = state.d, state.num_terms
    ks = [k for k in range(1, state.N - j + 1) if T % d ** (k + j) == 0 and d**k <= 4096]
    assume(ks)
    return family, draw(st.sampled_from(ks))


# w-perp = 2 < w = 3, through two equal columns: C-perp's short words send
# the state at k = 2 and, as the columns are parties 0 and 1, the split
# family at k = 1 to counting
EQUAL_COLUMNS = _coset_case(3, [[1, 1, 0, 1, 1], [0, 0, 1, 1, 2]], 2)[0]


@settings(max_examples=150, derandomize=True)
@given(case=stack_cases(), block=st.sampled_from((1, 7, oa_module._COUNT_BLOCK)))
@example(case=([EQUAL_COLUMNS], 2), block=1)
@example(case=(_split_rows(EQUAL_COLUMNS, 1), 1), block=1)
def test_code_stage_leaves_what_counting_leaves(case, block):
    """The subsets the code stage leaves are those counting leaves, in the
    same order, for states, maskers and codes alike; where C-perp has
    words of weight at most k + m, counting decides."""
    family, k = case
    psi = states_module._Purified(family)
    e, m = psi.e, psi.m
    d, N = family[0].d, family[0].N
    supports = []
    read_coset = states_module._read_coset

    def recording(*args):
        found = read_coset(*args)
        if found is not None:
            supports.append(found[2])
        return found

    with pytest.MonkeyPatch.context() as env:
        env.setattr(oa_module, "_COUNT_BLOCK", block)
        env.setattr(states_module, "_read_coset", recording)
        env.setattr(states_module, "_CODE_MIN_PAIRS", 0)
        got = list(psi.undecided(k))
        env.setattr(states_module, "_CODE_MIN_PAIRS", math.inf)
        assert got == list(psi.undecided(k))
    C = code_of_rows(d, e.idx)
    if states_module._counting_check(e, d, k + m) is None or C is None:
        assert supports == []
    elif dual_distance(C) <= k + m:
        assert supports == [None]
    else:
        assert len(supports) == 1 and supports[0] is not None


@st.composite
def deviation_cases(draw):
    """(state, parties): sparse exact states times one common Gaussian
    factor, which keeps reductions in int64 or takes their squared
    deviations, or the reductions themselves, to Python ints."""
    N = draw(st.integers(1, 5))
    base = draw(sparse_exact_states(N, draw(st.sampled_from((2, 3, 4, 5)))))
    factor = draw(st.sampled_from(((1, 0), (3, 4), (1 << 20, 1), (1 << 33, 5))))
    state = transformed(base, range(N), [range(base.d)] * N, [factor] * base.num_terms)
    return state, tuple(sorted(draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))))


# onto party 0: diagonal deviation and off-diagonal entry tie exactly at
# 18 / 45, yet evaluate to 0.39999999999999997 and 0.4; party-0 value 2 is
# missing from the diagonal
TIED = PureState(N=2, d=3, amplitudes={(0, 0): (3, 0), (0, 1): (1, 1), (1, 0): (2, 0)}, r=15)


@st.composite
def dict_operators(draw, n, d):
    """DictOperators on n parties of dimension d, entries in lexicographic
    order: exact ones with numerators up to 6 * 2^70 and r_ket != r_bra at
    times, or float ones with signed zeros and subnormals.  Half hold every
    diagonal entry I / d^n before the drawn entries; most others miss some."""
    dim = d**n
    index = st.tuples(*[st.integers(0, d - 1)] * n)
    keys = draw(st.lists(st.tuples(index, index), max_size=8, unique=True))
    exact = draw(st.booleans())
    if exact:
        big = draw(st.sampled_from((1, 1 << 20, 1 << 62, 1 << 70)))
        lam = draw(st.integers(1, 4)) * big * big
        r_ket = lam * dim
        r_bra = r_ket if draw(st.booleans()) else draw(st.integers(1, 60)) * big * big
        part = st.integers(-6, 6).map(lambda x: x * big)
        unit = (lam, 0)
        values = st.tuples(part, part)
    else:
        r_ket, r_bra = draw(st.sampled_from(((1, 1), (1, 1), (2, 3))))
        unit = complex(1 / dim)
        values = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    entries = {}
    if draw(st.booleans()):
        entries = {(i, i): unit for i in np.ndindex((d,) * n)}
    entries.update((key, draw(values)) for key in keys)
    return DictOperator(n, d, dict(sorted(entries.items())), r_ket, r_bra, exact)


def _kernel_case(state, parties):
    """A state's reduction from the kernel and from the oracle, the oracle's
    entries put in lexicographic order."""
    ref = oracle_cross_reduction(state, state, parties)
    return reduction(state, parties), dataclasses.replace(ref, entries=dict(sorted(ref.entries.items())))


def _dict_case(ref):
    """A DictOperator converted once, and the DictOperator itself."""
    return ref.sparse(), ref


@st.composite
def operator_cases(draw):
    """(operator, reference, other): a SparseOperator, the DictOperator it
    must agree with, and a second DictOperator on the same system.  The
    operator is a kernel reduction of a deviation case or a drawn
    DictOperator converted once."""
    if draw(st.booleans()):
        op, ref = _kernel_case(*draw(deviation_cases().filter(lambda c: c[0].d ** len(c[1]) <= 256)))
    else:
        op, ref = _dict_case(draw(dict_operators(draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 3))))))
    return op, ref, draw(dict_operators(ref.n_parties, ref.d))


def _bits(x):
    """A value with every float spelled by its hex."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return x.hex() if isinstance(x, float) else x


def _near_ties(d: int, r: int, unit: int) -> DictOperator:
    """An exact one-party operator over r whose diagonal deviations and
    off-diagonal entries all have magnitude unit / r, or nearly: squared
    numerators one apart, or off by a half when d does not divide r."""
    lam, half = r // d, 1 << (unit.bit_length() // 2)
    off = [(unit, 0), (0, -unit), (unit - 1, half), (-unit, 1)]
    entries = {((i,), (j,)): off[(i * d + j) % 4] for i in range(d) for j in range(d) if i != j}
    entries.update({((i,), (i,)): (lam + (-1) ** i * unit, 0) for i in range(d)})
    return DictOperator(1, d, dict(sorted(entries.items())), r, r)


@settings(max_examples=300)
@given(case=operator_cases())
@example(case=(*_kernel_case(TIED, (0,)), DictOperator(1, 3, {})))
@example(case=(*_kernel_case(transformed(TIED, range(2), [range(3)] * 2, [(1 << 33, 5)] * 3), (0,)), DictOperator(1, 3, {})))
@example(case=(*_kernel_case(ghz(3, 3), (0,)), DictOperator(1, 3, {((0,), (0,)): 0.5j}, exact=False)))
# -0.0 - 0.5i times 1.0, as a Python complex * float product: 0.0 - 0.5i
@example(case=(*_dict_case(DictOperator(1, 2, {((0,), (0,)): complex(-0.0, -0.5)}, exact=False)), DictOperator(1, 2, {})))
# near ties among int64 entries whose squares are near 2^62, among
# numerators past 2^63, and over r = 2^70 + 1
@example(case=(*_dict_case(_near_ties(4, 4 << 40, 1 << 31)), DictOperator(1, 4, {})))
@example(case=(*_dict_case(_near_ties(3, 3 << 80, 1 << 71)), DictOperator(1, 3, {})))
@example(case=(*_dict_case(_near_ties(2, (1 << 70) + 1, 1 << 40)), DictOperator(1, 2, {})))
def test_sparse_operator_matches_dict_oracle(case):
    """Every SparseOperator method gives the bits of the per-entry loop it
    replaced."""
    op, ref, other = case
    assert (op.n_parties, op.d, op.r_ket, op.r_bra, op.exact) == (ref.n_parties, ref.d, ref.r_ket, ref.r_bra, ref.exact)
    assert list(op.entries) == list(ref.entries)
    assert _bits(list(op.entries.values())) == _bits(list(ref.entries.values()))
    assert op.to_matrix().tobytes() == oracle_to_matrix(ref).tobytes()
    assert _bits(op.trace()) == _bits(oracle_trace(ref))
    assert op.maximally_mixed_deviation().hex() == oracle_maximally_mixed_deviation(ref).hex()
    if op.exact:
        assert op.is_zero() == oracle_is_zero(ref)
        assert op.is_maximally_mixed() == oracle_is_maximally_mixed(ref)
    else:
        for method in (op.is_zero, op.is_maximally_mixed):
            with pytest.raises(ValueError, match="exact operators only"):
                method()
    assert op.deviation(other.sparse()).hex() == oracle_deviation(ref, other).hex()
    assert other.sparse().deviation(op).hex() == oracle_deviation(other, ref).hex()
    assert op == ref.sparse() and (op == other.sparse()) == (ref == other)


@st.composite
def operator_pairs(draw):
    """Blocks of (a, b) DictOperator pairs on one system, one segment each:
    exact pairs over unequal denominators, float pairs and mixed ones.  b
    stores some of a's keys, with a's value or its own, and keys of its
    own, so that entries are stored by both sides or by one; either side
    may store nothing."""
    n, d = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 3)))
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = draw(dict_operators(n, d)), draw(dict_operators(n, d))
        value = st.tuples(*[st.integers(-6, 6)] * 2) if b.exact else st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
        shared = {}
        for key in draw(st.lists(st.sampled_from(sorted(a.entries)), unique=True)) if a.entries else []:
            keep = a.exact == b.exact and draw(st.booleans())
            shared[key] = a.entries[key] if keep else draw(value)
        b = dataclasses.replace(b, entries=dict(sorted({**b.entries, **shared}.items())))
        empty = draw(st.sampled_from(("", "a", "b")))
        a = dataclasses.replace(a, entries={}) if empty == "a" else a
        b = dataclasses.replace(b, entries={}) if empty == "b" else b
        pairs.append((a, b))
    return pairs


@settings(max_examples=300)
@given(pairs=operator_pairs(), limit=st.sampled_from((states_module._INT64_LIMIT, 1)))
def test_differences_match_the_dense_oracle(pairs, limit):
    """The segmented reader gives each pair's largest entrywise |a - b|
    with the bits of the dense matrices' difference, over radix keys or,
    with no key range, over the ids of one np.unique."""
    d = pairs[0][0].d
    first, second = (states_module._stacked([op.sparse() for op in side]) for side in zip(*pairs))
    with mock.patch.object(states_module, "_INT64_LIMIT", limit):
        got = states_module._differences(d, first, second)
    assert [x.hex() for x in got.tolist()] == [oracle_deviation(a, b).hex() for a, b in pairs]


def _record_calls(monkeypatch, name: str, each: int | None = None) -> list:
    """The argument tuples of every call of states.<name>, or, with `each`
    set, the elements of argument `each` of every call, one entry per
    element: every subset of each block call."""
    calls = []
    fn = getattr(states_module, name)
    record = calls.append if each is None else (lambda args: calls.extend(args[each]))
    monkeypatch.setattr(states_module, name, lambda *args: record(args) or fn(*args))
    return calls


def test_kernel_runs_only_where_counting_cannot_pass(monkeypatch):
    rng = np.random.default_rng(9)
    phased = phased_four_uniform()
    moved = transformed(
        phased, rng.permutation(11).tolist(), [rng.permutation(3).tolist() for _ in range(11)], [(1, 0)] * 729
    )
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    encoded = _record_calls(monkeypatch, "_encode")
    report = verify_k_uniform(moved, 4)
    assert report.verdict == "pass" and report.subsets_checked == 330
    assert reduced == [] and encoded == [(moved, False)]
    encoded.clear()
    report = verify_k_uniform(moved, 5)
    assert report.verdict == "fail" and 0 < len(report.failures) < report.subsets_checked
    assert reduced == [subset for subset, _ in report.failures]
    assert encoded == [(moved, False)]
    # colliding complements and float amplitudes: every subset
    ame = load_bundled_state("ame_6_2")
    for state, k in [(ame, 3), (from_vector(ame.to_vector(), 6, 2), 3), (from_vector(example_state().to_vector(), 4, 3), 2)]:
        reduced.clear()
        encoded.clear()
        report = verify_k_uniform(state, k)
        assert report.verdict == "pass" and reduced == list(combinations(range(state.N), k))
        assert encoded == [(state, not state.exact)]


def _scaled_example(big: int) -> PureState:
    """example_state with terms big and big * i in turn: one squared modulus big^2."""
    return transformed(example_state(), range(4), [range(3)] * 4, [(big, 0), (0, big)] * 5)


# six rows over 70 qubits, column j one at the rows of the (j mod 20)-th
# 3-subset of the six: each column balanced, any two rows 12 or more apart
TRIPLES = list(combinations(range(6), 3))
SIX_70 = PureState(N=70, d=2, amplitudes={tuple(int(row in TRIPLES[j % 20]) for j in range(70)): (1, 0) for row in range(6)}, r=6)
# ghz(16, 16) with the symbols 0 and 1 of party 0 swapped, which is not
# affine over GF(16): no longer the coset of a code
GHZ_16_SWAPPED = transformed(ghz(16, 16), range(16), [[1, 0, *range(2, 16)]] + [range(16)] * 15, [(1, 0)] * 16)


@pytest.mark.parametrize(
    "state, k, counted",
    [
        (ghz(70, 2), 1, True),  # d^(N-k) >= 2^63: complements keyed by distinct-row ids
        (SIX_70, 1, True),  # the same keys, on rows that are no coset
        (PLUS_70, 1, False),
        (ghz(16, 16), 1, True),  # d^N = 2^64, d^(N-k) = 2^60: wrapped full keys
        (GHZ_16_SWAPPED, 1, True),  # the same keys, on rows that are no coset
        (PLUS_16, 1, False),
        (_scaled_example(2**31 - 1), 2, True),  # 2 big^2 just below 2^63
        (_scaled_example(2**31), 2, False),
        (_scaled_example(2**40 + 1), 2, False),
        (_scaled_example(2**70 - 3), 2, False),
        (ghz(4, 3), 2, False),  # 3 terms, d^k = 9
        (ghz(4, 100), 2, False),  # d^k = 10^4 above the default matrix_dim
    ],
    ids=["ghz70", "six70", "plus70", "ghz16_16", "ghz16_16_swapped", "plus16_16", "big31-1", "big31", "big40", "big70", "ghz4_3", "ghz4_100"],
)
def test_counting_steps_aside(monkeypatch, state, k, counted):
    reduced = _record_calls(monkeypatch, "_reduce", each=1)
    asked = _record_counting(monkeypatch)
    lengths = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: lengths.append(len(out := bincount(*a, **kw))) or out)
    monkeypatch.setenv("KUF_CAPS", f"matrix_dim={10**4}")
    report = verify_k_uniform(state, k)
    assert len(reduced) == (0 if counted else report.subsets_checked)
    if counted and code_of_rows(state.d, state._idx) is None:
        assert asked == list(combinations(range(state.N), k))
    # counts stay within one block, and no array of length d^k > T is made
    assert max(lengths, default=0) <= max(state.num_terms, oa_module._COUNT_BLOCK)
    if state.d**k > state.num_terms:
        assert lengths == []
    assert report == oracle_verify_k_uniform(state, k)


# ---------------------------------------------------------------------------
# uniformity verdicts


def test_bundled_state_is_three_uniform():
    s = load_bundled_state("ame_6_2")
    assert (s.N, s.d, s.r, s.num_terms) == (6, 2, 16, 16)
    assert all(amp in ((1, 0), (-1, 0)) for amp in s.amplitudes.values())
    report = verify_k_uniform(s, 3)
    assert report.verdict == "pass"
    assert report.subsets_checked == 20
    assert report.max_deviation == 0.0


def test_example_state_is_two_uniform():
    report = verify_k_uniform(example_state(), 2)
    assert report.verdict == "pass" and report.subsets_checked == 6


def test_ghz_uniformity():
    assert verify_k_uniform(ghz(4, 2), 1).verdict == "pass"
    report = verify_k_uniform(ghz(4, 2), 2)
    assert report.verdict == "fail"
    assert len(report.failures) == 6  # every pair reduction is diagonal but not mixed
    assert report.max_deviation == pytest.approx(0.25)


def test_product_state_fails_naming_subset():
    s = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)})
    report = verify_k_uniform(s, 1)
    assert report.verdict == "fail"
    assert {f[0] for f in report.failures} == {(0,), (1,)}


def test_trivial_and_impossible_verdicts():
    s = ghz(4, 2)
    assert verify_k_uniform(s, 0).verdict == "pass"
    assert verify_k_uniform(s, 3).verdict == "impossible"
    with pytest.raises(ValueError):
        verify_k_uniform(s, 5)


def test_float_state_uniformity():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    s = from_vector(vec, 2, 2)
    assert verify_k_uniform(s, 1).verdict == "pass"


# ---------------------------------------------------------------------------
# tensor composition


def test_tensor_parties_dimensions_multiply():
    s = tensor_parties(ghz(2, 2), ghz(2, 3))
    assert (s.N, s.d, s.r) == (2, 6, 6)
    assert s.amplitudes == {(i * 3 + j,) * 2: (1, 0) for i in range(2) for j in range(3)}
    assert verify_k_uniform(s, 1).verdict == "pass"


def test_tensor_of_uniform_states_stays_uniform():
    t = tensor_parties(example_state(), ghz(4, 2))  # 2-uniform times 1-uniform
    assert (t.N, t.d, t.r) == (4, 6, 18)
    assert verify_k_uniform(t, 1).verdict == "pass"
    assert verify_k_uniform(t, 2).verdict == "fail"  # ghz factor is only 1-uniform


def test_tensor_trivial_dimension():
    one = PureState(N=2, d=1, amplitudes={(0, 0): (1, 0)})
    s = tensor_parties(one, ghz(2, 3))
    assert (s.d, s.r) == (3, 3)
    assert s.amplitudes == ghz(2, 3).amplitudes


def test_tensor_party_count_mismatch():
    with pytest.raises(ValueError):
        tensor_parties(ghz(2, 2), ghz(3, 2))


def test_tensor_float_mixed_mode():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    s = tensor_parties(from_vector(vec, 2, 2), ghz(2, 2))
    assert not s.exact
    assert verify_k_uniform(s, 1).verdict == "pass"


# ---------------------------------------------------------------------------
# inner products


def test_inner_product_exact():
    s = ghz(3, 2)
    ip = inner_product(s, s)
    assert ip.exact and ip.num == (2, 0) and ip.value == pytest.approx(1.0)
    t = PureState(N=3, d=2, amplitudes={(0, 0, 0): (1, 0), (1, 1, 1): (-1, 0)}, r=2)
    assert inner_product(s, t).is_zero()


def test_inner_product_conjugate_side():
    a = PureState(N=1, d=2, amplitudes={(0,): (0, 1)})  # i|0>
    b = PureState(N=1, d=2, amplitudes={(0,): (1, 0)})  # |0>
    assert inner_product(a, b).num == (0, -1)  # <a|b> = conj(i) = -i
    assert inner_product(b, a).num == (0, 1)


def test_inner_product_float():
    vec = np.zeros(2, dtype=complex)
    vec[0] = 1.0
    s = from_vector(vec, 1, 2)
    ip = inner_product(s, ghz(1, 2))
    assert not ip.exact and ip.value == pytest.approx(1 / math.sqrt(2))
    assert not ip.is_zero()
    # float products are zero within FLOAT_TOL, the one tolerance they take
    near = [InnerProduct(num=complex(x, 0.0), r_ket=1, r_bra=1, exact=False) for x in (FLOAT_TOL, 2 * FLOAT_TOL)]
    assert near[0].is_zero() and not near[1].is_zero()
    with pytest.raises(TypeError):
        near[0].is_zero(tol=1.0)


# ---------------------------------------------------------------------------
# file round-trips


def test_save_load_exact_round_trip(tmp_path):
    s = load_bundled_state("ame_6_2")
    path = tmp_path / "copy.state"
    save_state(s, path)
    t = load_state(path)
    assert (t.N, t.d, t.r, t.exact) == (s.N, s.d, s.r, s.exact)
    assert t.amplitudes == s.amplitudes
    save_state(t, tmp_path / "again.state")
    assert path.read_text() == (tmp_path / "again.state").read_text()


def test_save_load_float_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    s = from_vector(vec, 3, 2)
    path = tmp_path / "f.state"
    save_state(s, path)
    t = load_state(path)
    assert not t.exact
    assert t.amplitudes == s.amplitudes  # repr round-trips floats exactly


def test_parse_state_errors():
    with pytest.raises(ParseError, match="header"):
        parse_state("psi 2 2 2 exact\n")
    with pytest.raises(ParseError, match="mode"):
        parse_state("state 2 2 2 rational\n0 0 1 0\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_state("state 2 2 2 exact\n0 0 1 0\n0 0 1 0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_state("state 2 2 1 exact\n0 3 1 0\n")
    with pytest.raises(NormError):
        parse_state("state 2 2 3 exact\n0 0 1 0\n1 1 1 0\n")
    with pytest.raises(ParseError, match="empty"):
        parse_state("# nothing\n")


@pytest.mark.parametrize("bad", ["nan 0", "0 nan", "inf 0", "nan nan"])
def test_parse_state_refuses_non_finite_norm(bad):
    with pytest.raises(NormError):
        parse_state(f"state 2 2 1 float\n0 0 1.0 0.0\n1 1 {bad}\n")


def test_from_vector_norm_check():
    with pytest.raises(NormError):
        from_vector(np.array([1.0, 1.0]), 1, 2)
    for bad in (math.nan, math.inf):
        with pytest.raises(NormError):
            from_vector(np.array([1.0, 0.0, 0.0, bad]), 2, 2)
    with pytest.raises(ValueError):
        from_vector(np.zeros(3), 1, 2)


def test_to_vector_from_vector_round_trip():
    s = example_state()
    t = from_vector(s.to_vector(), s.N, s.d)
    assert set(t.amplitudes) == set(s.amplitudes)
    assert np.allclose(t.to_vector(), s.to_vector())
