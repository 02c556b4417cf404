"""Sparse exact states: construction, reductions, uniformity, I/O."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from kuniform.errors import CapExceeded, NormError, NotIrredundant, ParseError
from kuniform.oa import OrthogonalArray
from kuniform.states import (
    PureState,
    cross_reduction,
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


def test_reduction_cap():
    s = ghz(4, 4)
    with pytest.raises(CapExceeded):
        reduction(s, [0, 1], cap=8)


def test_cross_reduction_orthogonal_product_terms():
    s1 = PureState(N=2, d=2, amplitudes={(0, 0): (1, 0)})
    s2 = PureState(N=2, d=2, amplitudes={(1, 1): (1, 0)})
    assert cross_reduction(s1, s2, [0]).is_zero()
    full = cross_reduction(s1, s2, [0, 1])
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
        got = cross_reduction(s1, s2, subset).to_matrix()
        parties = tuple(sorted(subset))
        others = tuple(p for p in range(N) if p not in parties)
        T1 = v1.reshape((d,) * N)
        T2 = v2.reshape((d,) * N)
        want = np.tensordot(T1, T2.conj(), axes=(others, others)).reshape(got.shape)
        assert np.allclose(got, want, atol=1e-12)


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


def test_from_vector_norm_check():
    with pytest.raises(NormError):
        from_vector(np.array([1.0, 1.0]), 1, 2)
    with pytest.raises(ValueError):
        from_vector(np.zeros(3), 1, 2)


def test_to_vector_from_vector_round_trip():
    s = example_state()
    t = from_vector(s.to_vector(), s.N, s.d)
    assert set(t.amplitudes) == set(s.amplitudes)
    assert np.allclose(t.to_vector(), s.to_vector())
