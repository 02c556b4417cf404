"""Maskers, the cross-reduction criterion, Pauli checks, pure codes."""

from __future__ import annotations

import json
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pauli_oracle import (
    error_operators,
    oracle_pure_qecc,
    pauli_element_exact,
    pauli_element_float,
)
from reduction_oracle import oracle_verify_masker
from state_oracle import oracle_inner_product

from kuniform import field_new, masking
from kuniform import oa as oa_module
from kuniform import states as states_module
from kuniform.codes import LinearCode, mds_code
from kuniform.errors import CapExceeded, KuniformError, MaskingError, ParseError
from kuniform.masking import (
    ErrorOperator,
    Masker,
    build_masker,
    load_masker,
    pauli_matrix,
    save_masker,
    singleton_check,
    strong_masking_feasible,
    verify_masker,
    verify_pure_qecc,
)
from kuniform.catalog import construct_k_uniform
from kuniform.cli import run
from kuniform.oa import OrthogonalArray, oa_from_code, trim_to_iroa
from kuniform.states import (
    PureState,
    from_vector,
    ghz,
    inner_product,
    load_bundled_state,
    load_state,
    reduction,
    state_from_iroa,
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

# the two 5-qubit images of the bundled 6-qubit state, split at party 0
IMAGE_0 = {
    (0, 0, 0, 0, 0): (-1, 0),
    (0, 1, 1, 1, 1): (1, 0),
    (1, 0, 0, 1, 1): (-1, 0),
    (1, 1, 1, 0, 0): (1, 0),
    (0, 0, 1, 1, 0): (1, 0),
    (0, 1, 0, 0, 1): (1, 0),
    (1, 0, 1, 0, 1): (1, 0),
    (1, 1, 0, 1, 0): (1, 0),
}
IMAGE_1 = {
    (1, 1, 1, 1, 1): (-1, 0),
    (1, 0, 0, 0, 0): (1, 0),
    (0, 1, 1, 0, 0): (1, 0),
    (0, 0, 0, 1, 1): (-1, 0),
    (1, 1, 0, 0, 1): (1, 0),
    (1, 0, 1, 1, 0): (1, 0),
    (0, 1, 0, 1, 0): (-1, 0),
    (0, 0, 1, 0, 1): (-1, 0),
}


def qutrit_state() -> PureState:
    A = OrthogonalArray(d=3, rows=np.array(EXAMPLE_ROWS), k=2)
    return state_from_iroa(A, 2)


def qubit_masker():
    return build_masker(load_bundled_state("ame_6_2"), split_party=0, k=2)


def hamming_state() -> PureState:
    """The 3-uniform state of 8 qubits on the 16 codewords of the extended
    Hamming [8, 4, 4] code, which is self-dual."""
    G = np.array([[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]])
    return state_from_iroa(oa_from_code(LinearCode(field_new(2, 1), G)), 3)


def hamming_masker():
    """Two 7-qubit images that mask at k = 2.  Unlike ame_6_2, whose 16
    terms share their complements on every 3 parties, the stacked images
    pass by counting on every subset."""
    return build_masker(hamming_state(), split_party=0, k=2)


def _record(monkeypatch, module, name: str, each: int | None = None) -> list:
    """Record the arguments of every call of module.name, or, with `each`
    set, the elements of argument `each` of every call, one entry per
    element: every subset of each block call."""
    calls = []
    original = getattr(module, name)
    record = calls.append if each is None else (lambda args: calls.extend(args[each]))
    monkeypatch.setattr(module, name, lambda *args, **kw: record(args) or original(*args, **kw))
    return calls


def _record_cap_checks(monkeypatch) -> list:
    """Record the cap names that masking and states check."""
    calls = []
    check_cap = masking.check_cap
    for module in (masking, states_module):
        monkeypatch.setattr(module, "check_cap", lambda *a, **kw: calls.append(a[0]) or check_cap(*a, **kw))
    return calls


# ---------------------------------------------------------------------------
# masker construction


def test_qubit_masker_images_sign_for_sign():
    m = qubit_masker()
    assert (m.d, m.N, m.verified_k) == (2, 5, 2)
    assert m.images[0].amplitudes == IMAGE_0 and m.images[0].r == 8
    assert m.images[1].amplitudes == IMAGE_1 and m.images[1].r == 8


def test_qutrit_masker_images():
    m = build_masker(qutrit_state(), split_party=0, k=1)
    assert (m.d, m.N, m.verified_k) == (3, 3, 1)
    assert m.images[0].amplitudes == {(0, 0, 0): (1, 0), (1, 1, 1): (1, 0), (2, 2, 2): (1, 0)}
    assert m.images[1].amplitudes == {(0, 2, 1): (1, 0), (1, 0, 2): (1, 0), (2, 1, 0): (1, 0)}
    assert m.images[2].amplitudes == {(0, 1, 2): (1, 0), (1, 2, 0): (1, 0), (2, 0, 1): (1, 0)}


def test_ghz_gives_trivial_masker():
    m = build_masker(ghz(4, 3), split_party=2, k=0)
    assert (m.d, m.N, m.verified_k) == (3, 3, 0)
    for j, img in enumerate(m.images):
        assert img.amplitudes == {(j, j, j): (1, 0)} and img.r == 1


def test_build_masker_rejects_bad_input():
    product = PureState(N=3, d=2, amplitudes={(0, 0, 0): (1, 0)})
    with pytest.raises(MaskingError, match="uniform"):
        build_masker(product, 0, 0)
    with pytest.raises(MaskingError, match="uniform"):
        build_masker(ghz(4, 2), 0, 1)  # ghz is only 1-uniform, k=1 needs 2
    with pytest.raises(MaskingError, match="range"):
        build_masker(ghz(4, 2), 7, 0)
    with pytest.raises(MaskingError, match="uniform"):
        build_masker(ghz(2, 2), 0, 1)  # k+1 = 2 impossible on 2 parties


def test_build_masker_float_input():
    vec = load_bundled_state("ame_6_2").to_vector()
    m = build_masker(from_vector(vec, 6, 2), split_party=0, k=2)
    assert not m.images[0].exact
    got = sorted(m.images[0].amplitudes)
    assert got == sorted(IMAGE_0)


# ---------------------------------------------------------------------------
# masking verification


def test_qubit_masker_strong_masking():
    m = qubit_masker()
    report = verify_masker(m, 2)
    assert report.verdict == "pass"
    assert report.subsets_checked == 10
    assert not report.failures
    for subset, rho in report.common.items():
        assert rho.is_maximally_mixed()  # images are themselves 2-uniform


def test_qutrit_masker_collusion():
    m = build_masker(qutrit_state(), split_party=0, k=1)
    assert verify_masker(m, 1).verdict == "pass"
    report = verify_masker(m, 2)
    assert report.verdict == "fail"
    diag = {
        0: {(0, 0), (1, 1), (2, 2)},
        1: {(0, 2), (1, 0), (2, 1)},
        2: {(0, 1), (1, 2), (2, 0)},
    }
    for s in range(3):
        rho = reduction(m.images[s], (0, 1))
        assert rho.entries == {(pair, pair): (1, 0) for pair in diag[s]}
        assert rho.r_ket == rho.r_bra == 3  # each diagonal weight is exactly 1/3
    failing = {(f[1], f[2]) for f in report.failures if f[0] == (0, 1)}
    assert (1, 1) in failing and (2, 2) in failing


def test_masker_zero_k_is_orthonormality():
    m = qubit_masker()
    report = verify_masker(m, 0)
    assert report.verdict == "pass" and report.subsets_checked == 1


def test_sampling_mode_agrees():
    m = build_masker(qutrit_state(), split_party=0, k=1)
    report = verify_masker(m, 1, samples=32, seed=5)
    assert report.verdict == "pass"
    assert report.samples_checked == 32
    assert report.max_deviation <= 1e-10


def _float_copy(state: PureState) -> PureState:
    return from_vector(state.to_vector(), state.N, state.d)


def _count_encodes(monkeypatch) -> list:
    """Record (id(state), floats) for every state the reduction kernel encodes."""
    encodes = []
    encode = states_module._encode
    monkeypatch.setattr(
        states_module, "_encode", lambda s, floats: encodes.append((id(s), floats)) or encode(s, floats)
    )
    return encodes


@pytest.mark.parametrize("mode", ["exact", "float", "mixed"])
@pytest.mark.parametrize("k, samples", [(1, 0), (2, 0), (1, 3)])
def test_masker_encodes_each_state_once(monkeypatch, mode, k, samples):
    """Each image is encoded once, in floats unless every image is exact;
    samples are reduced from their arrays, never built and encoded as
    states; the report is the one the per-pair oracle gives."""
    images = build_masker(qutrit_state(), split_party=0, k=1).images
    if mode == "float":
        images = [_float_copy(s) for s in images]
    elif mode == "mixed":
        images = [_float_copy(images[0])] + images[1:]
    m = Masker(d=3, N=images[0].N, images=images)

    encodes = _count_encodes(monkeypatch)
    report = verify_masker(m, k, samples=samples, seed=3)
    assert report.samples_checked == samples
    assert encodes == [(id(s), mode != "exact") for s in images]
    assert report == oracle_verify_masker(m, k, samples=samples, seed=3)


def test_verify_masker_takes_samples_and_seed_by_keyword():
    """A tolerance passed by position, as the signature once allowed, is
    refused rather than read as a sample count."""
    with pytest.raises(TypeError):
        verify_masker(qubit_masker(), 2, 1e-10)


def test_masker_cap_checked_once(monkeypatch):
    """matrix_dim bounds the reductions made in the kernel: checked once, at
    the first subset left for it, never for a masker counted on every
    subset, at once for its float copy, which counting cannot decide, and
    once before the first sample, which is reduced onto every subset."""
    m, qubit = hamming_masker(), qubit_masker()
    floats = Masker(d=2, N=m.N, images=[_float_copy(s) for s in m.images])
    calls = _record_cap_checks(monkeypatch)
    reduced = _record(monkeypatch, states_module, "_reduce", each=1)
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=3")
    assert verify_masker(m, 2).verdict == "pass" and calls == [] and reduced == []
    with pytest.raises(CapExceeded, match=r"reductions of dimension 4 .*\(matrix_dim"):
        verify_masker(m, 2, samples=4)
    with pytest.raises(CapExceeded, match=r"reductions of dimension 4 .*\(matrix_dim"):
        verify_masker(floats, 2)
    assert reduced == []
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=4")
    for masker, samples in [(m, 4), (floats, 0), (qubit, 0)]:
        calls.clear()
        assert verify_masker(masker, 2, samples=samples).verdict == "pass"
        assert calls == ["matrix_dim"]


def test_kernel_reduces_each_block_of_subsets_in_one_call(monkeypatch):
    """The kernel takes the subsets left a block at a time: ame_6_2's 20
    subsets at k = 3, none decided by counting, make one call, and its
    one-party split at k = 2 makes one call per block of subsets, not one
    per subset."""
    calls = _record(monkeypatch, states_module, "_reduce")
    ame = load_bundled_state("ame_6_2")
    assert verify_k_uniform(ame, 3).verdict == "pass"
    assert [args[1] for args in calls] == [list(combinations(range(6), 3))]
    m = qubit_masker()
    pairs = list(combinations(range(5), 2))
    calls.clear()
    assert verify_masker(m, 2).verdict == "pass"
    assert [args[1] for args in calls] == [[(0,) + tuple(p + 1 for p in S) for S in pairs]]
    # blocks of three subsets of the images' 16 stacked terms
    monkeypatch.setattr(oa_module, "_COUNT_BLOCK", 3 * 16)
    calls.clear()
    assert verify_masker(m, 2).verdict == "pass"
    assert [len(args[1]) for args in calls] == [3, 3, 3, 1]
    assert [S for args in calls for S in args[1]] == [(0,) + tuple(p + 1 for p in S) for S in pairs]


def test_passing_segments_build_no_operators(monkeypatch):
    """An exact call decides its segments from its arrays: a passing masker
    builds one operator per subset left, its common entry, and a passing
    pure code builds none.  The ame_6_2 split leaves all 10 subsets at
    k = 2 to the kernel, and the code's orthonormality takes one more
    reduction, onto the ancilla alone."""
    m = qubit_masker()
    reduced = _record(monkeypatch, states_module, "_reduce", each=1)
    built = _record(monkeypatch, states_module, "_sparse")
    report = verify_masker(m, 2)
    assert report.verdict == "pass" and len(reduced) == 10
    assert len(built) == len(report.common) == 10
    reduced.clear(), built.clear()
    assert verify_pure_qecc(m.images, 3).verdict == "pass"
    assert len(reduced) == 11 and built == []


def _no_mirror(*args):
    raise AssertionError("segments were mirrored")


def test_passing_families_mirror_only_their_common_operators(monkeypatch):
    """Each kernel call of a passing exact masker mirrors its (j, 0, 0)
    segments, the common operators, in one _mirrored call and nothing
    more; a passing exact pure code mirrors nothing.  The ame_6_2 split
    leaves all 10 subsets at k = 2 to the kernel, in blocks of three."""
    m, K = qubit_masker(), 2
    monkeypatch.setattr(oa_module, "_COUNT_BLOCK", 3 * 16)
    calls = _record(monkeypatch, states_module._Purified, "reductions")
    mirrored, original = [], states_module._mirrored

    def recorded(h, ids, K):
        mirrored.append((ids.tolist(), out := original(h, ids, K)))
        return out

    monkeypatch.setattr(states_module, "_mirrored", recorded)
    report = verify_masker(m, 2)
    assert report.verdict == "pass" and [len(args[1]) for args in calls] == [3, 3, 3, 1]
    assert [ids for ids, _ in mirrored] == [list(range(0, len(args[1]) * K * K, K * K)) for args in calls]
    for (_, (_, re, _, starts)), args in zip(mirrored, calls):
        assert starts[-1] == len(re) == sum(len(report.common[S].re) for S in args[1])
    monkeypatch.setattr(states_module, "_mirrored", _no_mirror)
    calls.clear()
    assert verify_pure_qecc(m.images, 3).verdict == "pass"
    # the inner products' call onto the ancilla alone, then the subsets'
    assert [len(args[1]) for args in calls] == [1, 3, 3, 3, 1]


def _no_deviation(self, other):
    raise AssertionError("deviation read through an operator")


def test_failures_and_samples_build_no_operators(monkeypatch):
    """Deviations and cross magnitudes are read off each call's arrays: a
    failing masker builds the common operator of each subset it reduces
    and nothing more, and a passing one with samples builds none per
    sample; neither calls SparseOperator.deviation.  The ame_6_2 split
    leaves all 10 subsets at k = 3 to the kernel, and fails on each."""
    m = qubit_masker()
    reduced = _record(monkeypatch, states_module._Purified, "reductions", each=1)
    built = _record(monkeypatch, states_module, "_sparse")
    monkeypatch.setattr(states_module.SparseOperator, "deviation", _no_deviation)
    report = verify_masker(m, 3)
    assert report.verdict == "fail" and len(reduced) == 10
    assert {f[0] for f in report.failures} == set(report.common)
    assert len(built) == len(report.common) == 10
    reduced.clear(), built.clear()
    report = verify_masker(m, 2, samples=3)
    assert report.verdict == "pass" and report.samples_checked == 3
    assert len(built) == len(reduced) == 10


@pytest.mark.parametrize("mode", ["exact", "float", "mixed"])
def test_deviations_keep_to_their_calls(mode):
    """Segments of different kernel calls and of different (s, t) kinds are
    never mixed: with calls and pair blocks of one subset and one pair
    (oa._COUNT_BLOCK = 1), of seven pairs, or at their usual size, a
    four-image masker gives the per-pair oracle's report, max_deviation bit
    for bit, at k = 2, where it passes and samples run, and at k = 3, where
    it fails; so does the masker with one term of image 1 times i, which
    fails at both.  The images are those of the 3-uniform state on six
    parties of dimension 4, each with a sixth party in (|0> + |1>) / sqrt 2,
    so that the common operators differ from subset to subset."""
    source = build_masker(construct_k_uniform(3, 4, 6, verify=False), split_party=0, k=2).images
    images = [
        PureState(N=6, d=4, amplitudes={idx + (x,): amp for idx, amp in s.amplitudes.items() for x in (0, 1)}, r=2 * s.r)
        for s in source
    ]
    idx, (a, b) = next(iter(images[1].amplitudes.items()))
    phased = PureState(N=6, d=4, amplitudes={**images[1].amplitudes, idx: (-b, a)}, r=images[1].r)
    for family, passes in [(images, True), ([images[0], phased, *images[2:]], False)]:
        if mode == "float":
            family = [_float_copy(s) for s in family]
        elif mode == "mixed":
            family = [_float_copy(family[0])] + family[1:]
        m = Masker(d=4, N=6, images=family)
        for k, samples in [(2, 0), (2, 2), (3, 0), (3, 2)]:
            want = oracle_verify_masker(m, k, samples=samples, seed=5)
            assert want.verdict == ("pass" if passes and k == 2 else "fail")
            for block in (1, 7, oa_module._COUNT_BLOCK):
                with pytest.MonkeyPatch.context() as env:
                    env.setattr(oa_module, "_COUNT_BLOCK", block)
                    report = verify_masker(m, k, samples=samples, seed=5)
                assert report == want and report.max_deviation.hex() == want.max_deviation.hex()


def test_walk_sized_differences_peak_within_their_arrays():
    """One walk-sized reader call on the failing (s, s) blocks of the
    four-image masker split off the 3-uniform state on six parties of
    dimension 4, at k = 3, all ten subsets in one kernel call,
    peaks within the arrays its design holds, for E entries in its two
    blocks and U in their union:

    - matching: both blocks' keys, and the slot of each entry of the first
      with the key found there, 8 bytes each, 2 E as the blocks are of one
      size here, and a one-byte mask;
    - values: one block's two float parts and complex values, 32 bytes an
      entry of at most U, beside the first's slots and mask or the complex
      differences on the second's slots, 16 bytes an entry of at most U;
    - a few arrays per segment, within 4 KiB at 30 segments.

    The stages do not overlap, so 8 bytes times 2 E + 6 U (union keys,
    slots, unique keys, two complex value arrays and magnitudes), plus
    4 KiB, bounds both."""
    m = build_masker(construct_k_uniform(3, 4, 6, verify=False), split_party=0, k=2)
    psi = states_module._Purified(m.images)
    K, (subsets,) = psi.K, list(psi.undecided(3))
    red = psi.reductions(subsets)
    left = red.left(red.same_as_first).reshape(-1, K, K) & np.diag(np.arange(K) > 0)
    same = np.flatnonzero(left)
    first, second = red.segments(same), red.segments(same // K**2 * K**2)
    states_module._differences(m.d, first, second)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dev = states_module._differences(m.d, first, second)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    E = len(first.re) + len(second.re)
    U = len(np.union1d(*states_module._entry_keys(m.d, first, second)))
    assert (len(subsets), len(same), len(first.re), len(second.re)) == (10, 30, 6240, 6240)
    assert (dev > 0).all() and peak <= 8 * (2 * E + 6 * U) + 4096


def _scaled(state: PureState) -> PureState:
    """The same physical state with every numerator doubled."""
    amps = {idx: (2 * a, 2 * b) for idx, (a, b) in state.amplitudes.items()}
    return PureState(N=state.N, d=state.d, amplitudes=amps, r=4 * state.r)


def _times_one_plus_i(state: PureState) -> PureState:
    """The same physical state: numerators times 1 + i, over 2r."""
    amps = {idx: (a - b, a + b) for idx, (a, b) in state.amplitudes.items()}
    return PureState(N=state.N, d=state.d, amplitudes=amps, r=2 * state.r)


def _masker_sources() -> list:
    """States whose split at party 0 masks every k below their uniformity:
    k = 0 for the ghz state, up to k = 1 or 2 for the others."""
    F4 = field_new(2, 2)
    mds4 = state_from_iroa(trim_to_iroa(oa_from_code(mds_code(F4, 2)), 2, 4), 2)
    return [ghz(4, 3), qutrit_state(), load_bundled_state("ame_6_2"), mds4]


@st.composite
def maskers(draw):
    """Maskers of d images with N <= 5 and d <= 4: a split uniform state
    under one local unitary, or d random sparse exact states, which mostly
    fail.  Each image is then kept exact, copied to floats, or kept exact
    with doubled numerators, so a masker may mix modes and denominators."""
    if draw(st.integers(0, 2)):
        images = build_masker(draw(st.sampled_from(_masker_sources())), 0, k=0).images
        N, d = images[0].N, images[0].d
        perms = [draw(st.permutations(range(d))) for _ in range(N)]
        phases = [draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)) for _ in range(N)]
        images = [_local_unitary(s, perms, phases) for s in images]
    else:
        d, N = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
        indices = st.tuples(*[st.integers(0, d - 1)] * N)
        images = []
        for _ in range(d):
            support = draw(st.lists(indices, min_size=1, max_size=5, unique=True))
            amps = {idx: draw(st.sampled_from(AMPLITUDES)) for idx in support}
            r = sum(a * a + b * b for a, b in amps.values())
            images.append(PureState(N=N, d=d, amplitudes=amps, r=r))
    mode = st.sampled_from((lambda s: s, _float_copy, _scaled))
    modes = [draw(mode)] * d if draw(st.booleans()) else [draw(mode) for _ in range(d)]
    return Masker(d=d, N=N, images=[copy(s) for copy, s in zip(modes, images)])


@settings(max_examples=80)
@given(m=maskers(), data=st.data())
def test_masker_reports_match_oracle(m, data):
    # most split uniform states pass at k = 1 and only there
    k = data.draw(st.one_of(st.just(1), st.integers(0, m.N)), label="k")
    samples = data.draw(st.sampled_from((0, 3)), label="samples")
    report = verify_masker(m, k, samples=samples, seed=11)
    want = oracle_verify_masker(m, k, samples=samples, seed=11)
    assert report == want
    assert report.max_deviation.hex() == want.max_deviation.hex()


def _uniformity(psi: PureState) -> int:
    return max(k for k in range(psi.N // 2 + 1) if verify_k_uniform(psi, k))


@settings(max_examples=60)
@given(data=st.data())
def test_built_maskers_pass(data):
    """build_masker checks only its input's (k+1)-uniformity; every masker
    it builds, from a source or its float copy, passes the full criterion
    at k, exactly for exact sources."""
    psi = data.draw(st.sampled_from(_masker_sources()), label="source")
    if data.draw(st.booleans(), label="float copy"):
        psi = _float_copy(psi)
    split = data.draw(st.integers(0, psi.N - 1), label="split party")
    k = data.draw(st.integers(0, _uniformity(psi) - 1), label="k")
    m = build_masker(psi, split, k)
    report = verify_masker(m, k)
    assert report.verdict == "pass" and m.verified_k == k
    assert report == oracle_verify_masker(m, k)
    if psi.exact:
        assert report.max_deviation == 0.0


def test_image_with_other_denominator_masks():
    # image 1 times the global phase 1 + i: numerators (a - b, a + b) over
    # 2r; its reductions equal image 0's as operators, not as numerators
    m = qubit_masker()
    m = Masker(d=2, N=m.N, images=[m.images[0], _times_one_plus_i(m.images[1])])
    report = verify_masker(m, 2)
    assert report.verdict == "pass" and report.max_deviation == 0.0
    assert report == oracle_verify_masker(m, 2)


def test_masker_deviation_spans_entries_of_either_image():
    # onto party 0, image 0 reduces to |0><0| and image 1 to diag(0, 1/2, 1/2):
    # the largest deviation, 1, sits where only image 0 has an entry
    images = [
        PureState(N=2, d=3, amplitudes={(0, 0): (1, 0)}),
        PureState(N=2, d=3, amplitudes={(1, 1): (1, 0), (2, 2): (1, 0)}, r=2),
        PureState(N=2, d=3, amplitudes={(0, 1): (1, 0)}),
    ]
    m = Masker(d=3, N=2, images=images)
    report = verify_masker(m, 1)
    assert report == oracle_verify_masker(m, 1)
    assert report.max_deviation == 1.0


def test_even_party_masker_fails_at_half():
    # 2-uniform state on 5 parties of dimension 4 gives a masker into 4
    # parties; masking half of them (k = 2) must fail
    F4 = field_new(2, 2)
    psi = state_from_iroa(oa_from_code(mds_code(F4, 2)), 2)
    assert verify_k_uniform(psi, 2).verdict == "pass"
    m = build_masker(psi, 0, k=1)
    assert m.N == 4
    assert verify_masker(m, 2).verdict == "fail"


def test_masker_type_validation():
    with pytest.raises(MaskingError, match="images"):
        Masker(d=3, N=2, images=[ghz(2, 3)])
    with pytest.raises(MaskingError, match="disagree"):
        Masker(d=2, N=2, images=[ghz(2, 2), ghz(3, 2)])
    with pytest.raises(MaskingError, match="local dimension"):
        Masker(d=0, N=3, images=[])


# ---------------------------------------------------------------------------
# strong masking feasibility (even case; odd delegates to the catalog)


def test_strong_masking_even_is_infeasible():
    for N in range(2, 13, 2):
        verdict = strong_masking_feasible(N)
        assert verdict.status == "infeasible"
        assert "no-masking" in verdict.reason
    with pytest.raises(ValueError):
        strong_masking_feasible(1)
    with pytest.raises(ValueError):
        strong_masking_feasible(5)  # odd N needs d


# ---------------------------------------------------------------------------
# generalized Paulis


def test_pauli_matrix_basics():
    X = pauli_matrix(2, 1, 0)
    Z = pauli_matrix(2, 0, 1)
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    assert np.allclose(pauli_matrix(2, 1, 1), X @ Z)


def test_pauli_orthogonality():
    for d in (2, 3):
        paulis = [pauli_matrix(d, a, b) for a in range(d) for b in range(d)]
        for i, e in enumerate(paulis):
            for j, f in enumerate(paulis):
                want = d if i == j else 0
                assert abs(np.trace(e.conj().T @ f) - want) < 1e-12


def test_pauli_matrix_element_against_dense(seed=13):
    rng = np.random.default_rng(seed)
    for d, N in ((2, 3), (3, 2)):
        vecs = []
        for _ in range(2):
            v = rng.normal(size=d**N) + 1j * rng.normal(size=d**N)
            vecs.append(v / np.linalg.norm(v))
        states = [from_vector(v, N, d) for v in vecs]
        for op in [
            ErrorOperator((0,), ((1, 0),)),
            ErrorOperator((1,), ((0, 1),)),
            ErrorOperator((0, N - 1), ((1, 1), (d - 1, 1))),
        ]:
            E = [np.eye(d, dtype=complex)] * N
            for p, (a, b) in zip(op.positions, op.locals):
                E[p] = pauli_matrix(d, a, b)
            dense = E[0]
            for M in E[1:]:
                dense = np.kron(dense, M)
            for i in range(2):
                for j in range(2):
                    want = vecs[i].conj() @ dense @ vecs[j]
                    got = pauli_element_float(states[i], states[j], op, d)
                    assert abs(got - want) < 1e-12


def test_pauli_exact_matches_float():
    s = load_bundled_state("ame_6_2")
    for op in [
        ErrorOperator((0,), ((1, 1),)),
        ErrorOperator((2, 4), ((0, 1), (1, 0))),
        ErrorOperator((1, 3, 5), ((1, 1), (1, 0), (0, 1))),
    ]:
        re, im = pauli_element_exact(s, s, op)
        want = pauli_element_float(s, s, op, 2)
        assert abs(complex(re, im) / s.r - want) < 1e-12


# ---------------------------------------------------------------------------
# pure code verification


def test_bundled_state_is_pure_distance_four_code():
    report = verify_pure_qecc([load_bundled_state("ame_6_2")], 4)
    assert report.verdict == "pass"
    assert report.ops_checked == 6 * 3 + 15 * 9 + 20 * 27
    assert report.worst == 0.0  # exact path


def test_masker_images_are_pure_five_qubit_code():
    m = qubit_masker()
    report = verify_pure_qecc(m.images, 3)
    assert report.verdict == "pass"
    assert (report.N, report.d, report.K, report.delta) == (5, 2, 2, 3)
    assert report.ops_checked == 5 * 3 + 10 * 9


def test_product_basis_fails_distance_two():
    basis = [
        PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)}),
        PureState(N=2, d=2, amplitudes={(1, 1): (1, 0)}),
    ]
    report = verify_pure_qecc(basis, 2)
    assert report.verdict == "fail"
    assert any("Z" in f[0] for f in report.failures)
    assert report.worst == pytest.approx(1.0)


def test_nonorthogonal_basis_reported():
    plus = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0), (1, 1): (1, 0)}, r=2)
    report = verify_pure_qecc([plus, ghz(2, 2)], 2)
    assert report.verdict == "fail" and not report.orthonormal


def test_delta_one_vacuous():
    basis = [
        PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)}),
        PureState(N=2, d=2, amplitudes={(1, 1): (1, 0)}),
    ]
    report = verify_pure_qecc(basis, 1)
    assert report.verdict == "pass" and report.ops_checked == 0


def test_qecc_qutrit_exact_path():
    m = build_masker(qutrit_state(), split_party=0, k=1)
    report = verify_pure_qecc(m.images, 2)
    assert report.verdict == "pass"
    assert report.ops_checked == 3 * 8
    assert report.worst == 0.0


def test_qecc_exact_for_every_d():
    # the 2-uniform state of 4 qutrits is a ((4, 1, 3))_3 code
    report = verify_pure_qecc([qutrit_state()], 3)
    assert report.verdict == "pass" and report.ops_checked == 4 * 8 + 6 * 64
    assert report.worst == 0.0
    # masker images of 3-uniform 6-party states are ((5, d, 3))_d codes
    for d in (4, 5):
        m = build_masker(construct_k_uniform(3, d, 6), 0, k=2)
        report = verify_pure_qecc(m.images, 3)
        assert report.verdict == "pass" and not report.failures
        assert report.ops_checked == 5 * (d * d - 1) + 10 * (d * d - 1) ** 2
        assert report.worst == 0.0


def test_qecc_ops_cap(monkeypatch):
    # ame_6_2 at delta = 4 needs C(6, 3) = 20 pair reductions
    ame = load_bundled_state("ame_6_2")
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=19")
    with pytest.raises(CapExceeded, match="qecc_ops"):
        verify_pure_qecc([ame], 4)
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=20")
    assert verify_pure_qecc([ame], 4).verdict == "pass"
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=100")
    report = verify_pure_qecc([ame], 4)  # 693 errors covered by 20 reductions
    assert report.verdict == "pass" and report.ops_checked == 693


def test_qecc_ops_cap_checked_where_blocks_are_reduced(monkeypatch):
    """A basis decided on Psi alone builds no block, so qecc_ops never
    refuses it; a basis left to the kernel is refused before any block
    reduction.  Either one is first reduced onto its ancilla alone, for its
    inner products."""
    counted, qubit = hamming_masker().images, qubit_masker().images
    reduced = _record(monkeypatch, states_module, "_reduce", each=1)
    # the Hamming images at delta = 3: C(7, 2) x 3 = 63 blocks, all counted
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=62")
    assert verify_pure_qecc(counted, 3).verdict == "pass" and reduced == [(0,)]
    # the ame_6_2 images: C(5, 2) x 3 = 30 blocks, left to the kernel
    reduced.clear()
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=29")
    with pytest.raises(CapExceeded, match=r"10 x 3 pair reductions onto 2 parties needs 30 > cap 29 \(qecc_ops"):
        verify_pure_qecc(qubit, 3)
    assert reduced == [(0,)]
    reduced.clear()
    monkeypatch.setenv("KUF_CAPS", "qecc_ops=30")
    assert verify_pure_qecc(qubit, 3).verdict == "pass"
    assert reduced == [(0,)] + [(0,) + tuple(p + 1 for p in S) for S in combinations(range(5), 2)]


def test_pure_code_encodes_once_and_checks_caps_once(monkeypatch):
    """Each basis state is encoded once.  qecc_ops and matrix_dim are each
    checked once per call, at the first subset left for the kernel: never
    for a basis counted on every subset, at once for a float one."""
    counted, qubit = hamming_masker().images, qubit_masker().images
    mixed, counted_floats = [qubit[0], _float_copy(qubit[1])], [_float_copy(s) for s in counted]
    encodes = _count_encodes(monkeypatch)
    calls = _record_cap_checks(monkeypatch)
    reduced = _record(monkeypatch, states_module, "_reduce", each=1)
    # a basis with a float state is encoded in floats throughout
    kernel = ["matrix_dim", "qecc_ops"]
    for basis, floats, checks in [(counted, False, []), (qubit, False, kernel), (mixed, True, kernel)]:
        encodes.clear()
        calls.clear()
        assert verify_pure_qecc(basis, 3).verdict == "pass"
        assert len(encodes) == len(set(encodes)) == 2
        assert {mode for _, mode in encodes} == {floats}
        assert sorted(calls) == checks
    reduced.clear()
    with monkeypatch.context() as env:
        env.setenv("KUF_CAPS", "matrix_dim=3")
        # the reduction onto the ancilla alone, for the inner products
        assert verify_pure_qecc(counted, 3).verdict == "pass" and reduced == [(0,)]
        with pytest.raises(CapExceeded, match=r"reductions of dimension 4 .*\(matrix_dim"):
            verify_pure_qecc(counted_floats, 3)
    # 2^13 > 4096: one reduction, whose two terms counting cannot decide,
    # refused before it is made; one state has no inner products to read
    reduced.clear()
    with pytest.raises(CapExceeded, match="matrix_dim"):
        verify_pure_qecc([ghz(13, 2)], 14)
    assert reduced == []


# ---------------------------------------------------------------------------
# pair reductions against the Pauli oracle

# Gaussian-integer amplitudes: the four unit phases and two off-axis values
AMPLITUDES = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, -1))


def _uniform_states(d: int) -> list:
    """At least 1-uniform exact states of local dimension d on 3 to 5 parties."""
    out = [ghz(N, d) for N in (3, 4, 5)]
    if d == 3:
        out.append(qutrit_state())
    if d == 4:
        A = oa_from_code(mds_code(field_new(2, 2), 2))
        out.append(state_from_iroa(trim_to_iroa(A, 2, 4), 2))
    return out


def _local_unitary(state: PureState, perms, phases) -> PureState:
    """Permute each party's symbols and multiply by i^phases[p][x] per party."""
    amps = {}
    for idx, amp in state.amplitudes.items():
        for p, x in enumerate(idx):
            for _ in range(phases[p][x]):
                amp = (-amp[1], amp[0])
        amps[tuple(perms[p][x] for p, x in enumerate(idx))] = amp
    return PureState(N=state.N, d=state.d, amplitudes=amps, r=state.r)


@st.composite
def small_bases(draw):
    """Bases with N <= 4, d in {2, 3, 4} and K <= 2: split uniform states
    under local unitaries (often codes), or random sparse states, exact
    with Gaussian-integer phases or float; K = 2 random states are
    orthogonal through disjoint supports unless drawn to overlap."""
    d = draw(st.sampled_from((2, 3, 4)))
    K = draw(st.integers(1, 2))
    if draw(st.booleans()):
        psi = draw(st.sampled_from(_uniform_states(d)))
        basis = [psi] if K == 1 and psi.N <= 4 else build_masker(psi, 0, k=0).images[:K]
        N = basis[0].N
        perms = [draw(st.permutations(range(d))) for _ in range(N)]
        phases = [draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)) for _ in range(N)]
        basis = [_local_unitary(s, perms, phases) for s in basis]
    else:
        N = draw(st.integers(1, 4))
        indices = st.tuples(*[st.integers(0, d - 1)] * N)
        support = draw(st.lists(indices, min_size=K, max_size=6, unique=True))
        if K == 1:
            parts = [support]
        elif draw(st.booleans()):
            cut = draw(st.integers(1, len(support) - 1))
            parts = [support[:cut], support[cut:]]
        else:
            parts = [support, draw(st.lists(indices, min_size=1, max_size=6, unique=True))]
        basis = []
        for part in parts:
            amps = {idx: draw(st.sampled_from(AMPLITUDES)) for idx in part}
            r = sum(a * a + b * b for a, b in amps.values())
            basis.append(PureState(N=N, d=d, amplitudes=amps, r=r))
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            vectors = []
            for s in basis:
                v = np.zeros(d**N, dtype=complex)
                v[np.flatnonzero(s.to_vector())] = (1, 1j) @ rng.normal(size=(2, s.num_terms))
                vectors.append(v / np.linalg.norm(v))
            return [from_vector(v, N, d) for v in vectors]
    if draw(st.booleans()):
        basis = [from_vector(s.to_vector(), N, d) for s in basis]
    return basis


def _assert_matches_oracle(basis, delta):
    report = verify_pure_qecc(basis, delta)
    verdict, failures, worst = oracle_pure_qecc(basis, delta)
    assert report.verdict == verdict
    assert bool(report.failures) == bool(failures)
    assert report.worst == pytest.approx(worst, abs=1e-12)
    if report.orthonormal:
        N, d = basis[0].N, basis[0].d
        assert report.ops_checked == sum(1 for _ in error_operators(N, d, delta))
    # each witness is one of the failing errors, with the oracle's magnitude
    oracle = {(op, i, j): mag for op, i, j, mag in failures}
    for op, i, j, mag in report.failures:
        assert oracle[(op, i, j)] == pytest.approx(mag, abs=1e-12)


@settings(max_examples=80)
@given(basis=small_bases(), delta=st.integers(1, 3))
def test_pair_reductions_match_pauli_oracle(basis, delta):
    _assert_matches_oracle(basis, delta)


@st.composite
def wide_bases(draw):
    """Bases of K > d states with disjoint supports on N <= 3 parties, so
    the stack's index takes two or three ancilla digits; each state exact
    or float."""
    d = draw(st.sampled_from((2, 3)))
    N = draw(st.integers(2, 3))
    K = draw(st.integers(d + 1, 5))
    indices = st.tuples(*[st.integers(0, d - 1)] * N)
    support = draw(st.lists(indices, min_size=K, max_size=2 * K, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(support) - 1), min_size=K - 1, max_size=K - 1)))
    basis = []
    for part in np.split(np.arange(len(support)), cuts):
        amps = {support[i]: draw(st.sampled_from(AMPLITUDES)) for i in part}
        s = PureState(N=N, d=d, amplitudes=amps, r=sum(a * a + b * b for a, b in amps.values()))
        basis.append(_float_copy(s) if draw(st.booleans()) else s)
    return basis


@settings(max_examples=60)
@given(basis=wide_bases(), delta=st.integers(1, 3))
def test_wide_bases_match_pauli_oracle(basis, delta):
    _assert_matches_oracle(basis, delta)


def test_witness_names_the_failing_pauli():
    # <0| X^a Z^b |1> is nonzero only for a = 2 on a qutrit; a witness taken
    # from the adjoint reduction would name a = 1 instead
    basis = [PureState(N=1, d=3, amplitudes={(x,): (1, 0)}) for x in (0, 1)]
    _assert_matches_oracle(basis, 2)
    cross = [f for f in verify_pure_qecc(basis, 2).failures if f[1:3] == (0, 1)]
    assert [f[0] for f in cross] == ["X2Z0[0]"]
    # |<psi| X Z |psi>| > |<psi| X Z^2 |psi>|; a witness read off the
    # complex conjugate of the reduction would name X1Z2
    psi = PureState(N=1, d=3, amplitudes={(0,): (1, 0), (1,): (1, 0), (2,): (0, 1)}, r=3)
    _assert_matches_oracle([psi], 2)
    assert [f[0] for f in verify_pure_qecc([psi], 2).failures] == ["X1Z1[0]"]


def test_pair_reductions_when_delta_exceeds_parties():
    # delta - 1 >= N: the reduction onto all parties is the pure state itself
    _assert_matches_oracle([ghz(2, 2)], 4)
    report = verify_pure_qecc([ghz(2, 2)], 4)
    assert report.verdict == "fail" and report.ops_checked == 2 * 3 + 9
    assert report.worst == pytest.approx(1.0)


def test_float_witnesses_check_caps_once(monkeypatch):
    """Every float pair reduction goes to the witness, which builds its
    matrix from the reduction arrays: still one matrix_dim and one qecc_ops
    check per call, and the witnesses the Pauli oracle names."""
    basis = [_float_copy(s) for s in qubit_masker().images]
    calls = _record_cap_checks(monkeypatch)
    # the five-qubit code has distance 3
    for delta, verdict in [(3, "pass"), (4, "fail")]:
        calls.clear()
        assert verify_pure_qecc(basis, delta).verdict == verdict
        assert sorted(calls) == ["matrix_dim", "qecc_ops"]
        _assert_matches_oracle(basis, delta)


# ---------------------------------------------------------------------------
# families decided on the purified state


def _split(psi: PureState, m: int) -> list:
    """The d^m states left by splitting parties 0 to m - 1 off psi, in the
    order of those parties' symbols: Psi of the family is psi itself."""
    family = [psi]
    for _ in range(m):
        family = [image for state in family for image in build_masker(state, 0, k=0).images]
    return family


def _with_copy(state: PureState, party: int) -> PureState:
    """state with a copy of `party` appended as a last party."""
    amps = {idx + (idx[party],): amp for idx, amp in state.amplitudes.items()}
    return PureState(N=state.N + 1, d=state.d, amplitudes=amps, r=state.r)


def _split_source(name: str) -> tuple[PureState, int]:
    """(state, t): a code-built t-uniform state, whose rows are a coset of
    a code with both distances above t, or the ghz state, t = 1."""
    if name == "mds4":
        return state_from_iroa(trim_to_iroa(oa_from_code(mds_code(field_new(2, 2), 2)), 2, 4), 2), 2
    return {"qutrit": (qutrit_state(), 2), "hamming": (hamming_state(), 3), "ghz": (ghz(4, 3), 1)}[name]


def _relabelled(state: PureState, perms, exponents) -> PureState:
    """state with the symbols of party p relabelled by perms[p] and its
    terms, in dict order, multiplied by i^m for m in exponents."""
    amps = {}
    for (idx, amp), e in zip(state.amplitudes.items(), exponents):
        for _ in range(e):
            amp = (-amp[1], amp[0])
        amps[tuple(perms[p][x] for p, x in enumerate(idx))] = amp
    return PureState(N=state.N, d=state.d, amplitudes=amps, r=state.r)


@st.composite
def split_families(draw, K_is_d: bool, share: str, source: str):
    """(family, k, verdict): the d^m states split off a source under
    random symbol permutations and unit phases, m = 1 when K must be d (a
    masker) and 1 or 2 otherwise, the share of k-subsets that Psi decides,
    and the verdict due.  "every" as built, at k <= t - m; "some" with a
    copy of a kept party appended, so that the subsets holding both go to
    the kernel, where a masker passes, since the copy is a local isometry,
    and a code fails; "none" with one state taken in floats or times 1 + i,
    which leaves two squared moduli, or for a ghz split, whose d terms
    counting cannot divide and whose images are told apart by one party."""
    low = 2 if share == "some" else 1
    psi, t = _split_source(source)
    m = 1 if K_is_d else draw(st.integers(1, max(1, t - low)))
    k = draw(st.integers(low, max(low, t - m)))
    perms = [draw(st.permutations(range(psi.d))) for _ in range(psi.N)]
    psi = _relabelled(psi, perms, [draw(st.integers(0, 3)) for _ in range(psi.num_terms)])
    if share == "some":
        psi = _with_copy(psi, draw(st.integers(m, psi.N - 1)))
    family = _split(psi, m)
    if share == "none" and psi.num_terms > psi.d:
        s = draw(st.integers(0, len(family) - 1))
        family[s] = draw(st.sampled_from((_float_copy, _times_one_plus_i)))(family[s])
    verdict = "fail" if k > t - m or (share == "some" and not K_is_d) else "pass"
    return family, k, verdict


def _assert_share(family: list, k: int, share: str) -> None:
    """The k-subsets left for the kernel are none, some or all of them."""
    psi = states_module._Purified(family)
    left, n = sum(map(len, psi.undecided(k))), math.comb(psi.N, k)
    assert {"every": left == 0, "some": 0 < left < n, "none": left == n}[share]


# (share, source): "some" needs a source of t >= 3 and a ghz split decides
# no subset
SPLIT_CASES = [
    *[("every", name) for name in ("qutrit", "hamming", "mds4")],
    ("some", "hamming"),
    *[("none", name) for name in ("qutrit", "hamming", "mds4", "ghz")],
]


@pytest.mark.parametrize("share, source", SPLIT_CASES)
@settings(max_examples=10)
@given(data=st.data(), samples=st.sampled_from((0, 2)), code_min=st.sampled_from((0, None)))
def test_masker_decided_on_psi_matches_oracle(share, source, data, samples, code_min):
    """Reports, the common operators of counted subsets included, are the
    oracle's, with the code stage asked on every family or at its usual size."""
    images, k, verdict = data.draw(split_families(True, share, source), label="case")
    m = Masker(d=images[0].d, N=images[0].N, images=images)
    _assert_share(images, k, share)
    with pytest.MonkeyPatch.context() as env:
        if code_min is not None:
            env.setattr(states_module, "_CODE_MIN_PAIRS", code_min)
        report = verify_masker(m, k, samples=samples, seed=7)
    want = oracle_verify_masker(m, k, samples=samples, seed=7)
    assert report == want and report.max_deviation.hex() == want.max_deviation.hex()
    assert report.verdict == verdict


@pytest.mark.parametrize("share, source", SPLIT_CASES)
@settings(max_examples=10)
@given(data=st.data(), code_min=st.sampled_from((0, None)))
def test_pure_code_decided_on_psi_matches_oracle(share, source, data, code_min):
    """Witnesses and verdicts are the Pauli oracle's, with the code stage
    asked on every family or at its usual size."""
    basis, k, verdict = data.draw(split_families(False, share, source), label="case")
    _assert_share(basis, k, share)
    with pytest.MonkeyPatch.context() as env:
        if code_min is not None:
            env.setattr(states_module, "_CODE_MIN_PAIRS", code_min)
        _assert_matches_oracle(basis, k + 1)
    assert verify_pure_qecc(basis, k + 1).verdict == verdict


def test_split_codes_pass_without_the_kernel(monkeypatch):
    """Splits of the code-built (4, 9, 10) state are decided on Psi, the
    source state itself, by its code: the masker at k = 3 and the
    ((8, 81, 3))_9 basis of its first two parties reach no block
    reduction.  With image 1 times 1 + i the masker has two squared moduli
    and reaches the kernel, and still passes."""
    psi = construct_k_uniform(4, 9, 10, verify=False)
    masker, basis = build_masker(psi, 0, k=3), _split(psi, 2)
    phased = Masker(d=9, N=9, images=[_times_one_plus_i(s) if s is masker.images[1] else s for s in masker.images])
    blocks = _record(monkeypatch, states_module._Purified, "reductions", each=1)
    assert verify_masker(masker, 3).verdict == "pass"
    # the basis's orthonormality is read off one reduction onto its two
    # ancilla columns, with no pairwise inner product
    pairs = _record(monkeypatch, masking, "inner_product") + _record(monkeypatch, states_module, "inner_product")
    reduced = _record(monkeypatch, states_module, "_reduce", each=1)
    report = verify_pure_qecc(basis, 3)
    assert (report.verdict, report.K, report.N) == ("pass", 81, 8) and singleton_check(8, 81, 2, 9)
    # that reduction, onto no party, is the only one of Psi
    assert blocks == [()] and pairs == [] and reduced == [(0, 1)]
    assert verify_masker(phased, 3).verdict == "pass" and len(blocks) == 1 + math.comb(9, 3)


# ---------------------------------------------------------------------------
# orthonormality read off the reduction onto the ancilla, against pairwise
# dict-oracle inner products


@st.composite
def _numerators(draw) -> tuple:
    """A nonzero Gaussian integer whose parts are small, units or past 2^63."""
    parts = st.one_of(
        st.integers(-9, 9),
        st.integers(-1, 1),
        st.builds(lambda sign, x: sign * (2**63 + x), st.sampled_from((-1, 1)), st.integers(-1, 2**70)),
    )
    return draw(st.tuples(parts, parts).filter(any))


def _family_state(draw, N: int, d: int, rows: list, exact: bool) -> PureState:
    if exact:
        values = [draw(_numerators()) for _ in rows]
        return PureState(N, d, dict(zip(rows, values)), r=sum(a * a + b * b for a, b in values))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = (1, 1j) @ rng.normal(size=(2, len(rows)))
    return PureState(N, d, dict(zip(rows, (v / np.linalg.norm(v)).tolist())), exact=False)


@st.composite
def families(draw) -> list:
    """Families of states on one system: exact, float or mixed members on
    rows drawn from one pool, shared or split disjointly, with K = 1, K not
    a power of d and K > d; or a split of ame_6_2 or the qutrit state by
    m = 1 or 2 parties, some members as floats."""
    if draw(st.integers(0, 3)) == 0:
        source = draw(st.sampled_from(("ame", "qutrit")))
        psi = load_bundled_state("ame_6_2") if source == "ame" else qutrit_state()
        family = _split(psi, draw(st.integers(1, 2)))
        return [_float_copy(s) if draw(st.integers(0, 3)) == 0 else s for s in family]
    N, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    K = draw(st.sampled_from((1, 2, 3, d, d + 1, 5, 9)))
    mode = draw(st.sampled_from(("exact", "float", "mixed")))
    pool = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * N), min_size=1, max_size=12, unique=True))
    if len(pool) >= K > 1 and draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, len(pool) - 1), min_size=K - 1, max_size=K - 1, unique=True)))
        supports = [pool[a:b] for a, b in zip([0] + cuts, cuts + [len(pool)])]
    else:
        supports = [draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)) for _ in range(K)]
    exact = [mode == "exact" or (mode == "mixed" and draw(st.booleans())) for _ in range(K)]
    return [_family_state(draw, N, d, rows, e) for rows, e in zip(supports, exact)]


def _bits(ip) -> tuple:
    num = ip.num if ip.exact else (ip.num.real.hex(), ip.num.imag.hex())
    return ip.exact, ip.r_ket, ip.r_bra, num


@settings(max_examples=150)
@given(family=families())
def test_orthonormality_matches_pairwise_oracle(family, tmp_path_factory):
    """The pairs read off one reduction onto the ancilla, inner_product bit
    for bit, verify_pure_qecc's orthonormality, verify_masker at k = 0 and
    load_masker's refusal all agree with oracle_inner_product pair by pair."""
    K, N, d = len(family), family[0].N, family[0].d
    want = {(s, t): oracle_inner_product(family[s], family[t]) for s, t in combinations(range(K), 2)}
    found = states_module._Purified(family).inner_products()
    assert [(s, t) for s, t, _ in found] == sorted({(s, t) for s, t, _ in found})
    listed = {(s, t): ip for s, t, ip in found}
    for pair, ip in want.items():
        if pair in listed:
            assert _bits(listed[pair]) == _bits(ip)
        else:  # orthogonal: exactly, or with no shared index
            assert ip.num == (0, 0) if ip.exact else _bits(ip)[3] == ((0.0).hex(),) * 2
        s, t = pair
        assert _bits(inner_product(family[s], family[t])) == _bits(ip)
        assert _bits(inner_product(family[t], family[s])) == _bits(oracle_inner_product(family[t], family[s]))

    if d >= 2:
        bad = [(s, t, abs(ip.value)) for (s, t), ip in want.items() if (not ip.is_zero() if ip.exact else abs(ip.value) > masking.PAULI_TOL)]
        report = verify_pure_qecc(family, 1)
        assert report.orthonormal == (not bad) and report.verdict == ("fail" if bad else "pass")
        assert report.failures == [("<i|j>", s, t, dev) for s, t, dev in bad]
        assert report.worst.hex() == max((dev for _, _, dev in bad), default=0.0).hex()
    if K == d:
        masker = Masker(d=d, N=N, images=family)
        refused = [((), s, t, f"images not orthogonal, <s|t> = {ip.value:.3e}") for (s, t), ip in want.items() if not ip.is_zero()]
        report = verify_masker(masker, 0)
        assert (report.verdict, report.failures) == ("fail" if refused else "pass", refused)
        bundle = tmp_path_factory.mktemp("bundle")
        save_masker(masker, bundle)
        # saved images come back in index order, so their float sums may differ
        loaded = [load_state(bundle / f"image_{s}.state") for s in range(d)]
        first = next(((s, t) for s, t in combinations(range(d), 2) if not oracle_inner_product(loaded[s], loaded[t]).is_zero()), None)
        if first is None:
            assert load_masker(bundle).images == loaded
        else:
            with pytest.raises(KuniformError, match=rf"bundle images {first[0]}, {first[1]} not orthogonal"):
                load_masker(bundle)


# ---------------------------------------------------------------------------
# singleton bound and subspace checks


def test_singleton_check():
    assert not singleton_check(4, 2, 2, 2)  # no ((4,2,3))_2
    assert singleton_check(5, 2, 2, 2)  # 2 <= 2
    assert singleton_check(6, 1, 3, 2)  # trivial K = 1 at half
    assert not singleton_check(3, 2, 2, 3)  # negative exponent
    with pytest.raises(ValueError):
        singleton_check(0, 1, 1, 2)


def test_subspace_check_matches_qecc():
    m = qubit_masker()
    product = [
        PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)}),
        PureState(N=2, d=2, amplitudes={(1, 1): (1, 0)}),
    ]
    cases = [
        (m.images, 2),
        ([load_bundled_state("ame_6_2")], 3),
        (product, 1),
        ([qutrit_state()], 2),
    ]
    # every combination of the basis is k-uniform iff it is a pure code of
    # distance k + 1; the Pauli enumeration decides the latter directly
    for basis, k in cases:
        report = verify_pure_qecc(basis, k + 1)
        verdict, failures, worst = oracle_pure_qecc(basis, k + 1)
        assert report.verdict == verdict
        assert report.worst == pytest.approx(worst, abs=1e-12)


def test_subspace_check_details():
    m = qubit_masker()
    assert verify_pure_qecc(m.images, 3)
    assert not verify_pure_qecc(m.images, 4)  # would exceed Schmidt bound
    assert verify_pure_qecc([qutrit_state()], 3)  # K = 1 case
    assert verify_pure_qecc(m.images, 1)  # orthonormality only
    nonorth = [ghz(2, 2), ghz(2, 2)]
    report = verify_pure_qecc(nonorth, 2)
    assert not report and not report.orthonormal


# ---------------------------------------------------------------------------
# Schmidt-orthonormality lemma, both directions


def _schmidt_state(rng, d, rest_dim, partners):
    lam = rng.uniform(0.2, 1.0, size=d)
    lam /= lam.sum()
    vec = np.zeros(d * rest_dim, dtype=complex)
    for j in range(d):
        vec[j * rest_dim : (j + 1) * rest_dim] = math.sqrt(lam[j]) * partners[j]
    return lam, vec


def test_schmidt_lemma_both_directions(seed=23):
    rng = np.random.default_rng(seed)
    d, rest = 2, 8  # party 0 of dimension 2 against three more qubits
    for _ in range(20):
        raw = rng.normal(size=(rest, d)) + 1j * rng.normal(size=(rest, d))
        ortho, _ = np.linalg.qr(raw)
        partners = [ortho[:, j] for j in range(d)]
        lam, vec = _schmidt_state(rng, d, rest, partners)
        rho = reduction(from_vector(vec, 4, 2), [0]).to_matrix()
        assert np.allclose(rho, np.diag(lam), atol=1e-10)

        skew = partners[0] + 0.5 * partners[1]
        skew /= np.linalg.norm(skew)
        lam, vec = _schmidt_state(rng, d, rest, [partners[0], skew])
        rho = reduction(from_vector(vec, 4, 2), [0]).to_matrix()
        assert not np.allclose(rho, np.diag(lam), atol=1e-10)


# ---------------------------------------------------------------------------
# bundles


def test_masker_bundle_round_trip(tmp_path):
    m = build_masker(qutrit_state(), split_party=0, k=1)
    save_masker(m, tmp_path / "bundle")
    loaded = load_masker(tmp_path / "bundle")
    assert (loaded.d, loaded.N, loaded.verified_k) == (m.d, m.N, 1)
    for a, b in zip(loaded.images, m.images):
        assert a.amplitudes == b.amplitudes and a.r == b.r
    assert verify_masker(loaded, 1).verdict == "pass"


MALFORMED_MANIFESTS = {
    "no_images": {"format": "masker", "d": 3, "N": 3},
    "list": ["format", "masker"],
    "images_int": {"format": "masker", "d": 3, "N": 3, "images": 5},
    "images_of_ints": {"format": "masker", "d": 3, "N": 3, "images": [0, 1, 2]},
    "d_string": {"format": "masker", "d": "3", "N": 3, "images": []},
    "N_missing": {"format": "masker", "d": 3, "images": []},
    "verified_k_float": {"format": "masker", "d": 3, "N": 3, "verified_k": 1.5, "images": []},
    "d_bool": {"format": "masker", "d": True, "N": 3, "images": []},
}


@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_malformed_manifest_is_a_parse_error(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="manifest.json"):
        load_masker(tmp_path)


def test_masker_bundle_errors(tmp_path):
    with pytest.raises(ParseError, match="manifest"):
        load_masker(tmp_path)
    bundle = tmp_path / "b"
    m = build_masker(qutrit_state(), split_party=0, k=1)
    save_masker(m, bundle)
    (bundle / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(ParseError, match="not a masker"):
        load_masker(bundle)


# image entries that would load a file outside the bundle, or no file at all;
# "outside" stands for a copy of image 0 next to the bundle directory
OUTSIDE_IMAGE_NAMES = {
    "parent": "../outside.state",
    "absolute": "{outside}",
    "nested": "sub/image_0.state",
    "dot_dot": "..",
    "dot": ".",
    "empty": "",
}


def _bundle_with_image_name(tmp_path, name: str) -> Path:
    """A valid bundle whose manifest names image 0 by `name`, with the file
    that name points at present, so only the name itself can be refused."""
    bundle = tmp_path / "b"
    save_masker(build_masker(qutrit_state(), split_party=0, k=1), bundle)
    outside = tmp_path / "outside.state"
    outside.write_bytes((bundle / "image_0.state").read_bytes())
    (bundle / "sub").mkdir()
    (bundle / "sub" / "image_0.state").write_bytes(outside.read_bytes())
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["images"][0] = name.format(outside=outside)
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    return bundle


@pytest.mark.parametrize("name", OUTSIDE_IMAGE_NAMES.values(), ids=OUTSIDE_IMAGE_NAMES)
def test_masker_images_must_be_bare_file_names(tmp_path, name):
    bundle = _bundle_with_image_name(tmp_path, name)
    with pytest.raises(ParseError, match="not a bare file name"):
        load_masker(bundle)


@pytest.mark.parametrize("name", ["../outside.state", "{outside}"], ids=["parent", "absolute"])
def test_mask_verify_refuses_images_outside_the_bundle(tmp_path, capsys, name):
    bundle = _bundle_with_image_name(tmp_path, name)
    assert run(["mask", "verify", str(bundle), "--k", "1"]) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a bare file name" in err
