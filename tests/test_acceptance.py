"""Acceptance suite: one test per criterion, one printed line each.

Each test prints "criterion N (...): PASS" or ": FAIL" so a plain
pytest run documents the acceptance status line by line.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
from oa_oracle import oracle_is_irredundant

from kuniform.catalog import construct_k_uniform, emit_table, standard_rows
from kuniform.codes import (
    LinearCode,
    direct_sum,
    dual_distance,
    load_bundled_code,
    mds_code,
    min_distance,
)
from kuniform.errors import RankDeficient
from kuniform.gf import field_for_order, is_prime_power
from kuniform.masking import (
    build_masker,
    inner_product,
    singleton_check,
    strong_masking_feasible,
    verify_masker,
    verify_pure_qecc,
)
from kuniform.oa import is_irredundant, oa_from_code, oa_min_distance, trim_to_iroa, verify_strength
from kuniform.states import (
    PureState,
    from_vector,
    ghz,
    load_bundled_state,
    reduction,
    state_from_iroa,
    tensor_parties,
    verify_k_uniform,
)

# 9-row, 4-column strength-2 array over three symbols; the worked
# example the whole pipeline is anchored to
EXAMPLE_ROWS = {
    (0, 0, 0, 0),
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 2, 1),
    (1, 1, 0, 2),
    (1, 2, 1, 0),
    (2, 0, 1, 2),
    (2, 1, 2, 0),
    (2, 2, 0, 1),
}

# the two printed 5-qubit masker images of the bundled 6-qubit state,
# split at its first party
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

# per-image two-party reductions of the qutrit masker on parties (0, 1):
# three orthogonal diagonal states, so two colluding parties learn s
COLLUSION_DIAGONALS = [
    {(0, 0), (1, 1), (2, 2)},
    {(0, 2), (1, 0), (2, 1)},
    {(0, 1), (1, 2), (2, 0)},
]

# published existence grids; see test_catalog for the same constants
EXPECTED_K4 = {
    "2": ["×", "×", "×", "?", "√", "√", "√", "√", "√"],
    "3": ["×", "√", "√", "√", "√", "√", "√", "√", "√"],
    "4,12": ["?", "√", "√", "√", "√", "√", "√", "√", "√"],
    "6,10": ["?", "?", "?", "?", "√", "√", "√", "√", "√"],
    "prime power d>=5": ["√"] * 9,
    "non prime power d>=14": ["?", "?", "?", "?", "√", "√", "√", "√", "√"],
}
EXPECTED_K5 = {
    "2": ["×", "×", "?", "?", "?", "?", "√", "?", "√"],
    "3,15": ["√", "?", "√", "?", "√", "√", "√", "√", "√"],
    "4,12": ["√", "?", "√", "?", "√", "?", "√", "√", "√"],
    "5": ["√", "?", "√", "√", "√", "√", "√", "√", "√"],
    "6,10,14": ["?", "?", "?", "?", "?", "?", "√", "?", "√"],
    "prime power d>=7": ["√"] * 9,
    "non prime power d>=18": ["?", "?", "?", "?", "?", "?", "√", "?", "√"],
}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def example_state() -> PureState:
    return state_from_iroa(oa_from_code(mds_code(field_for_order(3), 2)), 2)


def test_criterion_1_example_pipeline():
    with criterion(1, "worked-example pipeline, exact reductions"):
        start = time.perf_counter()
        C = mds_code(field_for_order(3), 2)
        A = oa_from_code(C)
        assert {tuple(row) for row in A.rows} == EXAMPLE_ROWS
        assert verify_strength(A, 2)
        assert oa_min_distance(A) == 3
        assert is_irredundant(A, 2)

        state = state_from_iroa(A, 2)
        for subset in combinations(range(4), 2):
            rho = reduction(state, subset)
            assert rho.exact and rho.is_maximally_mixed()
            assert rho.maximally_mixed_deviation() == 0.0
            # exactly I/9: nine diagonal cells, each 1/9
            assert len(rho.entries) == 9
            assert all(val == (1, 0) for val in rho.entries.values())
        report = verify_k_uniform(state, 2)
        assert report and report.subsets_checked == 6
        assert report.max_deviation == 0.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_six_qubit_state():
    with criterion(2, "bundled 6-qubit state, reductions and distance 4"):
        start = time.perf_counter()
        state = load_bundled_state("ame_6_2")
        assert state.exact and state.r == 16 and state.num_terms == 16
        assert all(val in ((1, 0), (-1, 0)) for val in state.amplitudes.values())

        checked = 0
        for subset in combinations(range(6), 3):
            rho = reduction(state, subset)
            assert rho.is_maximally_mixed()
            assert rho.maximally_mixed_deviation() == 0.0
            checked += 1
        assert checked == 20

        report = verify_pure_qecc([state], delta=4)
        assert report and report.ops_checked == 693 and report.worst == 0.0
        assert time.perf_counter() - start < 5.0


def test_criterion_3_masker_extraction():
    with criterion(3, "masker split of the 6-qubit state"):
        start = time.perf_counter()
        state = load_bundled_state("ame_6_2")
        masker = build_masker(state, split_party=0, k=2)
        assert len(masker.images) == 2
        assert masker.images[0].amplitudes == IMAGE_0
        assert masker.images[1].amplitudes == IMAGE_1
        assert masker.images[0].r == masker.images[1].r == 8

        ip = inner_product(masker.images[0], masker.images[1])
        assert ip.exact and ip.num == (0, 0)

        report = verify_masker(masker, 2)
        assert report and report.subsets_checked == 10

        qecc = verify_pure_qecc(list(masker.images), delta=3)
        assert qecc and qecc.ops_checked == 105 and qecc.worst == 0.0
        assert time.perf_counter() - start < 10.0


def test_criterion_4_collusion_counterexample():
    with criterion(4, "qutrit masker leaks to two colluding parties"):
        masker = build_masker(example_state(), split_party=0, k=1)
        assert verify_masker(masker, 1).verdict == "pass"

        report = verify_masker(masker, 2)
        assert report.verdict == "fail"

        # the three per-image reductions on parties (0, 1) are exactly
        # the printed orthogonal diagonal states
        for s, diag in enumerate(COLLUSION_DIAGONALS):
            rho = reduction(masker.images[s], [0, 1])
            assert rho.exact and rho.r_ket == rho.r_bra == 3
            assert rho.entries == {(pair, pair): (1, 0) for pair in diag}


def test_criterion_5_constructive_sweep():
    with criterion(5, "MDS construction sweep over prime powers up to 9"):
        cases = []
        for d in (2, 3, 4, 5, 7, 8, 9):
            assert is_prime_power(d)
            k = 1
            while 2 * k - 1 <= d:
                for N in range(2 * k, d + 2):
                    if d**N <= 10**7:
                        cases.append((k, d, N))
                k += 1
        assert len(cases) == 61

        for k, d, N in cases:
            state = construct_k_uniform(k, d, N, verify=False)
            assert state.exact
            report = verify_k_uniform(state, k)
            assert report, (k, d, N, report.failures[:1])
            assert report.max_deviation == 0.0, (k, d, N)


def _random_code(rng, F, n, t):
    while True:
        G = rng.integers(0, F.order, size=(t, n))
        try:
            return LinearCode(F, G)
        except RankDeficient:
            continue


def test_criterion_6_direct_sum_law():
    with criterion(6, "direct-sum distance law on 50 random pairs"):
        rng = np.random.default_rng(606)
        orders = (2, 3, 4, 5, 7, 8, 9)
        fields = {q: field_for_order(q) for q in orders}
        done = 0
        while done < 50:
            q = int(rng.choice(orders))
            t1, t2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            if q ** (t1 + t2) > 2**16:
                continue
            n1 = t1 + int(rng.integers(0, 4))
            n2 = t2 + int(rng.integers(0, 4))
            C1 = _random_code(rng, fields[q], n1, t1)
            C2 = _random_code(rng, fields[q], n2, t2)
            S = direct_sum(C1, C2)
            assert min_distance(S) == min(min_distance(C1), min_distance(C2))
            assert dual_distance(S) == min(dual_distance(C1), dual_distance(C2))
            done += 1


def test_criterion_7_table_regeneration():
    with criterion(7, "published 4- and 5-uniform grids regenerate"):
        for k, N_values, expected in [
            (4, range(8, 17), EXPECTED_K4),
            (5, range(10, 19), EXPECTED_K5),
        ]:
            grid = emit_table(k, standard_rows(k), N_values)
            got = {
                row.label: [cell.symbol for cell in row.cells] for row in grid.rows
            }
            assert got == expected

            for row in grid.rows:
                for cell in row.cells:
                    if cell.symbol == "√":
                        assert cell.recipe is not None or cell.citation
                    elif cell.symbol == "×":
                        assert cell.citation
                    else:
                        assert cell.citation is None and cell.recipe is None

        # large constructive cells stay recipe-only: nothing is executed
        # here, the witness recipe is the deliverable
        grid = emit_table(4, [16], [8])
        cell = grid.rows[0].cells[0]
        assert cell.status == "Exists(constructive)"
        assert cell.recipe == {"rule": "mds_trim", "k": 4, "d": 16, "N": 8}
        assert 16**8 > 10**7
        # and cells beyond constructive reach carry citations instead
        grid = emit_table(4, [5], [8])
        cell = grid.rows[0].cells[0]
        assert cell.status == "Exists(cited)" and cell.citation


def test_criterion_8_property_suites():
    with criterion(8, "field axioms, irredundancy, monotonicity, closure, lemma"):
        # finite-field axioms, exhaustive for every order up to 16
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            F = field_for_order(q)
            els = range(q)
            for a in els:
                assert F.add(a, 0) == a and F.mul(a, 1) == a
                assert F.add(a, F.neg(a)) == 0
                if a:
                    assert F.mul(a, F.inv(a)) == 1
                for b in els:
                    assert F.add(a, b) == F.add(b, a)
                    assert F.mul(a, b) == F.mul(b, a)
                    for c in els:
                        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                        assert F.mul(a, F.add(b, c)) == F.add(
                            F.mul(a, b), F.mul(a, c)
                        )

        # irredundancy: distance and residual criteria agree on the corpus
        F3, F4, F5 = (field_for_order(q) for q in (3, 4, 5))
        golay = oa_from_code(load_bundled_code("golay12_3"))
        corpus = [
            (oa_from_code(mds_code(F3, 2)), range(4)),
            (oa_from_code(mds_code(F5, 2)), range(4)),
            (oa_from_code(mds_code(F4, 3)), range(4)),
            (golay, range(5)),
            (trim_to_iroa(golay, 3, 10), range(4)),
            (oa_from_code(load_bundled_code("sd12_gf4")), range(3)),
        ]
        for A, ks in corpus:
            for k in ks:
                assert is_irredundant(A, k) == oracle_is_irredundant(A, k), (A.provenance, k)

        # k-uniformity is downward monotone in k
        for state in [
            load_bundled_state("ame_6_2"),
            example_state(),
            ghz(4, 2),
            PureState(4, 2, {(0, 0, 0, 0): (1, 0)}),
        ]:
            passing = [
                k
                for k in range(state.N // 2 + 1)
                if verify_k_uniform(state, k).verdict == "pass"
            ]
            assert passing == list(range(len(passing)))  # a prefix of 0..kmax

        # tensor closure on ten pairs: product is min(k1, k2)-uniform
        m54 = state_from_iroa(
            trim_to_iroa(oa_from_code(mds_code(F5, 2)), 2, 5), 2
        )
        m44 = state_from_iroa(oa_from_code(mds_code(F4, 2)), 2)
        ame = load_bundled_state("ame_6_2")
        ex = example_state()
        pairs = [
            (ex, 2, ghz(4, 2), 1),
            (ex, 2, ex, 2),
            (ghz(4, 2), 1, ghz(4, 3), 1),
            (ame, 3, ame, 3),
            (ame, 3, ghz(6, 2), 1),
            (ghz(2, 2), 1, ghz(2, 3), 1),
            (m54, 2, ghz(5, 2), 1),
            (m54, 2, m54, 2),
            (m44, 2, m54, 2),
            (ghz(3, 3), 1, ghz(3, 4), 1),
        ]
        assert len(pairs) == 10
        for s1, k1, s2, k2 in pairs:
            product = tensor_parties(s1, s2)
            report = verify_k_uniform(product, min(k1, k2))
            assert report and report.max_deviation == 0.0

        # Schmidt-orthonormality lemma, both directions, 100 seeded states
        rng = np.random.default_rng(808)
        for trial in range(100):
            d = int(rng.integers(2, 4))
            rest = int(rng.integers(d, 5)) * 2
            raw = rng.normal(size=(rest, d)) + 1j * rng.normal(size=(rest, d))
            ortho, _ = np.linalg.qr(raw)
            partners = [ortho[:, j] for j in range(d)]
            lam = rng.uniform(0.2, 1.0, size=d)
            lam /= lam.sum()

            vec = np.zeros(d * rest, dtype=complex)
            for j in range(d):
                vec[j * rest : (j + 1) * rest] = math.sqrt(lam[j]) * partners[j]
            T = vec.reshape(d, rest)
            rho = T @ T.conj().T
            assert np.allclose(rho, np.diag(lam), atol=1e-10)
            if d == 2 and rest == 8:
                # same statement through the library's reduction
                via_lib = reduction(from_vector(vec, 4, 2), [0]).to_matrix()
                assert np.allclose(via_lib, np.diag(lam), atol=1e-10)

            skew = partners[0] + 0.5 * partners[1]
            skew /= np.linalg.norm(skew)
            vec = np.zeros(d * rest, dtype=complex)
            for j, b in enumerate([partners[0], skew] + partners[2:]):
                vec[j * rest : (j + 1) * rest] = math.sqrt(lam[j]) * b
            T = vec.reshape(d, rest)
            rho = T @ T.conj().T
            assert not np.allclose(rho, np.diag(lam), atol=1e-10)


def test_criterion_9_singleton_and_parity_gates():
    with criterion(9, "Singleton gate and even-party masking no-go"):
        assert singleton_check(4, 2, 2, 2) is False
        assert singleton_check(5, 2, 2, 2) is True
        for N in (2, 4, 6, 8, 10, 12):
            feas = strong_masking_feasible(N)
            assert feas.status == "infeasible"
            assert "Modi" in feas.reason and "no-masking" in feas.reason
