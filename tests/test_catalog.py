"""Tests for the existence catalog: recipes, cited facts, tables."""

import math

import pytest

from kuniform import catalog
from kuniform.catalog import (
    ExistenceVerdict,
    _direct_sum_parts,
    _matches,
    check_consistency,
    construct_k_uniform,
    emit_table,
    execute_recipe,
    exists_k_uniform,
    fact_table_version,
    facts_for,
    standard_rows,
)
from kuniform.codes import load_bundled_code
from kuniform.errors import CatalogError, ConstructionUnavailable
from kuniform.masking import strong_masking_feasible
from kuniform.states import load_bundled_state, verify_k_uniform

# Expected symbol grids for the published 4- and 5-uniform existence
# tables, frozen from the cited literature.  Columns are N = 8..16 for
# k=4 (16 standing for all N >= 16) and N = 10..18 for k=5.
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


# -- fact table and matchers -------------------------------------------------


def test_fact_table_version():
    assert fact_table_version() == "uniform-tables-2020.1"


def test_matcher_forms():
    assert _matches({}, 7)
    assert _matches({"min": 3}, 3) and not _matches({"min": 3}, 2)
    assert _matches({"max": 5}, 5) and not _matches({"max": 5}, 6)
    assert _matches({"values": [2, 9]}, 9) and not _matches({"values": [2, 9]}, 3)
    assert _matches({"exclude": [6]}, 5) and not _matches({"exclude": [6]}, 6)
    assert _matches({"prime": True}, 13) and not _matches({"prime": True}, 9)
    assert _matches({"prime_power": True}, 9)
    assert not _matches({"prime_power": True}, 12)
    assert _matches({"min": 3, "exclude": [6]}, 10)
    assert not _matches({"min": 3, "exclude": [6]}, 6)


def test_facts_for_lookup():
    found = facts_for(4, 2, 9)
    assert len(found) == 1
    status, citation = found[0]
    assert status == "NotExists" and "Rains" in citation
    found = facts_for(4, 2, 12)
    assert found and all(status == "Exists" for status, _ in found)
    assert facts_for(4, 6, 9) == []


# -- constructive recipes ----------------------------------------------------


def test_ghz_rule_handles_any_k1():
    verdict = exists_k_uniform(1, 6, 3)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness == {"rule": "ghz", "d": 6, "N": 3}
    state = construct_k_uniform(1, 6, 3)
    assert (state.N, state.d, state.num_terms) == (3, 6, 6)
    assert verify_k_uniform(state, 1)


def test_mds_trim_rule():
    verdict = exists_k_uniform(2, 3, 4)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness["rule"] == "mds_trim"
    state = construct_k_uniform(2, 3, 4)
    assert (state.N, state.d, state.r, state.num_terms) == (4, 3, 9, 9)
    assert verify_k_uniform(state, 2)


def test_direct_sum_rule_canonical_instance():
    verdict = exists_k_uniform(2, 7, 9)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness == {
        "rule": "mds_direct_sum",
        "k": 2,
        "d": 7,
        "parts": [5, 4],
    }
    state = construct_k_uniform(2, 7, 9)
    assert (state.N, state.d, state.r) == (9, 7, 2401)
    report = verify_k_uniform(state, 2)
    assert report and report.subsets_checked == 36


def test_direct_sum_parts_properties():
    assert _direct_sum_parts(2, 9) == [5, 4]
    assert _direct_sum_parts(2, 16) == [7, 5, 4]
    assert _direct_sum_parts(3, 30) == [11, 11, 8]
    assert _direct_sum_parts(2, 8) == [4, 4]
    for k in range(2, 6):
        for N in range(2 * k, 41):
            parts = _direct_sum_parts(k, N)
            assert sum(parts) == N
            assert all(2 * k <= p <= 4 * k - 1 for p in parts)
            assert parts == sorted(parts, reverse=True)


def test_bundled_code_rules():
    verdict = exists_k_uniform(4, 3, 11)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness == {
        "rule": "bundled_code_trim",
        "name": "golay12_3",
        "k": 4,
        "N": 11,
    }
    state = construct_k_uniform(4, 3, 11)
    assert (state.N, state.d, state.r) == (11, 3, 729)
    assert verify_k_uniform(state, 4)

    verdict = exists_k_uniform(5, 4, 12)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness["name"] == "sd12_gf4"


def test_bundled_state_rule():
    verdict = exists_k_uniform(3, 2, 6)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness == {"rule": "bundled_state", "name": "ame_6_2"}
    state = construct_k_uniform(3, 2, 6)
    assert (state.N, state.d, state.num_terms) == (6, 2, 16)


def test_tensor_rule():
    verdict = exists_k_uniform(2, 12, 4)
    assert verdict.status == "Exists(constructive)"
    assert verdict.witness["rule"] == "tensor"
    rules = {part["rule"] for part in verdict.witness["parts"]}
    assert rules == {"mds_trim"}
    state = construct_k_uniform(2, 12, 4)
    assert (state.N, state.d, state.num_terms) == (4, 12, 144)
    assert verify_k_uniform(state, 2)


def test_five_uniform_twelve_qutrit_construction():
    state = construct_k_uniform(5, 3, 12)
    assert (state.N, state.d, state.r) == (12, 3, 729)
    report = verify_k_uniform(state, 5)
    assert report and report.subsets_checked == 792
    assert report.max_deviation == 0.0


def test_construction_refusal_names_nearest_rule():
    with pytest.raises(ConstructionUnavailable) as err:
        construct_k_uniform(2, 5, 9)
    assert "direct-sum" in str(err.value) and "6" in str(err.value)
    # existence is still known from the literature
    assert exists_k_uniform(2, 5, 9).status == "Exists(cited)"

    with pytest.raises(ConstructionUnavailable) as err:
        construct_k_uniform(4, 4, 8)
    assert "14" in str(err.value)

    with pytest.raises(ConstructionUnavailable) as err:
        construct_k_uniform(2, 2, 5)
    assert "prime power" in str(err.value)


def test_construct_validates_arguments():
    for bad in [(0, 2, 2), (1, 1, 2), (1, 2, 1)]:
        with pytest.raises(ValueError):
            construct_k_uniform(*bad)
        with pytest.raises(ValueError):
            exists_k_uniform(*bad)


def test_execute_recipe_rejects_unknown_rule():
    with pytest.raises(CatalogError):
        execute_recipe({"rule": "alchemy"})


def test_constructive_preferred_over_citation():
    # these parameters are also covered by cited facts, but a recipe wins
    assert exists_k_uniform(3, 2, 6).status == "Exists(constructive)"
    assert exists_k_uniform(4, 3, 11).status == "Exists(constructive)"


# -- existence verdicts ------------------------------------------------------


def test_schmidt_bound_verdicts():
    for k, d, N in [(2, 2, 3), (3, 5, 5), (5, 2, 9), (1, 2, 1)]:
        if N < 2:
            continue
        verdict = exists_k_uniform(k, d, N)
        assert verdict.status == "NotExists(cited)"
        assert "Schmidt" in verdict.citation
        assert verdict.exists is False


def test_cited_verdicts():
    cases = {
        (4, 2, 10): ("NotExists(cited)", "Rains"),
        (4, 3, 8): ("NotExists(cited)", "shadow"),
        (2, 2, 4): ("NotExists(cited)", "Higuchi"),
        (3, 2, 7): ("NotExists(cited)", "qubits"),
        (4, 5, 8): ("Exists(cited)", "tables"),
        (5, 2, 16): ("Exists(cited)", "OA(256,16,2,5)"),
    }
    for (k, d, N), (status, fragment) in cases.items():
        verdict = exists_k_uniform(k, d, N)
        assert verdict.status == status, (k, d, N)
        assert fragment in verdict.citation


def test_unknown_verdicts():
    for k, d, N in [(4, 6, 9), (4, 2, 11), (5, 6, 11), (2, 6, 4)]:
        verdict = exists_k_uniform(k, d, N)
        assert verdict.status == "Unknown"
        assert verdict.exists is None
        assert verdict.citation is None and verdict.witness is None


def test_tensor_closure_combines_citations():
    verdict = exists_k_uniform(4, 6, 12)
    assert verdict.status == "Exists(cited)"
    assert "tensor" in verdict.citation
    # d = 6 at N = 16 for k = 5 needs the binary OA fact on one side
    verdict = exists_k_uniform(5, 6, 16)
    assert verdict.status == "Exists(cited)"
    assert "2" in verdict.citation and "3" in verdict.citation


def test_verdict_exists_property():
    assert ExistenceVerdict("Exists(constructive)").exists is True
    assert ExistenceVerdict("Exists(cited)").exists is True
    assert ExistenceVerdict("NotExists(cited)").exists is False
    assert ExistenceVerdict("Unknown").exists is None


# -- tables ------------------------------------------------------------------


def test_four_uniform_table():
    grid = emit_table(4, standard_rows(4), range(8, 17))
    assert grid.N_values == tuple(range(8, 17))
    got = {row.label: [cell.symbol for cell in row.cells] for row in grid.rows}
    assert got == EXPECTED_K4


def test_five_uniform_table():
    grid = emit_table(5, standard_rows(5), range(10, 19))
    got = {row.label: [cell.symbol for cell in row.cells] for row in grid.rows}
    assert got == EXPECTED_K5


def test_table_cells_carry_provenance():
    grid = emit_table(4, standard_rows(4), range(8, 17))
    for row in grid.rows:
        for cell in row.cells:
            if cell.status == "Exists(constructive)":
                assert cell.recipe is not None and cell.citation is None
            elif cell.status.endswith("(cited)"):
                assert cell.citation
            else:
                assert cell.status == "Unknown"
                assert cell.citation is None and cell.recipe is None


def test_one_uniform_table_all_exists():
    grid = emit_table(1, [2, 3, 4, 5, 6], range(2, 8))
    for row in grid.rows:
        assert all(cell.symbol == "√" for cell in row.cells)
        assert all(cell.status == "Exists(constructive)" for cell in row.cells)


def test_table_row_disagreement_raises():
    # d=2 has no 2-uniform state of 4 parties but d=3 does
    with pytest.raises(CatalogError) as err:
        emit_table(2, [("bad", [2, 3])], [4])
    assert "disagree" in str(err.value)


def test_table_text_and_json():
    grid = emit_table(4, [2, 5], [8, 9])
    text = grid.to_text()
    assert "×" in text and "√" in text and "d \\ N" in text
    data = grid.to_json()
    assert data["k"] == 4
    assert data["fact_table"] == fact_table_version()
    assert data["N_values"] == [8, 9]
    first = data["rows"][0]["cells"][0]
    assert first == {
        "d": 2,
        "N": 8,
        "symbol": "×",
        "status": "NotExists(cited)",
        "citation": first["citation"],
    }


def test_table_input_validation():
    with pytest.raises(CatalogError):
        emit_table(0, [2], [4])
    with pytest.raises(CatalogError):
        emit_table(2, [2], [])
    with pytest.raises(CatalogError):
        emit_table(2, [("empty", [])], [4])
    with pytest.raises(CatalogError):
        standard_rows(2)


# -- consistency and soundness -----------------------------------------------


def test_catalog_consistency():
    examined = check_consistency(range(1, 7), range(2, 19), range(2, 21))
    assert examined == 6 * 17 * 19


def test_soundness_of_table_recipes():
    # execute and exactly verify every constructive cell in the two
    # standard tables small enough to expand (d^N <= 1e7)
    executed = 0
    for k, N_values in [(4, range(8, 17)), (5, range(10, 19))]:
        grid = emit_table(k, standard_rows(k), N_values)
        for row in grid.rows:
            for cell in row.cells:
                if cell.recipe is None or cell.d**cell.N > 10**7:
                    continue
                state = execute_recipe(cell.recipe)
                assert (state.N, state.d) == (cell.N, cell.d)
                assert verify_k_uniform(state, k), (cell.d, cell.N)
                executed += 1
    assert executed >= 3


def _recipe_terms(recipe: dict) -> int:
    """Terms of the state a recipe builds, read off the recipe alone."""
    rule = recipe["rule"]
    if rule == "ghz":
        return recipe["d"]
    if rule == "mds_trim":
        return recipe["d"] ** recipe["k"]
    if rule == "mds_direct_sum":
        return recipe["d"] ** (recipe["k"] * len(recipe["parts"]))
    if rule == "bundled_code_trim":
        C = load_bundled_code(recipe["name"])
        return C.q**C.t
    if rule == "bundled_state":
        return load_bundled_state(recipe["name"]).num_terms
    assert rule == "tensor", rule
    return math.prod(_recipe_terms(part) for part in recipe["parts"])


def test_table_cells_construct_under_default_caps(monkeypatch):
    # every constructive cell of the two standard tables, over every row
    # member, whose state has at most 15000 terms is built and verified by
    # construct_k_uniform; those with d^k > 4096 pass by exact counting,
    # with no d^k-wide reduction for matrix_dim to refuse
    monkeypatch.delenv("KUF_CAPS", raising=False)
    built = []
    for k, N_values in [(4, range(8, 17)), (5, range(10, 19))]:
        for row in standard_rows(k):
            members = (row,) if isinstance(row, int) else row[1]
            for d in members:
                for N in N_values:
                    recipe = exists_k_uniform(k, d, N).witness
                    if recipe is None or _recipe_terms(recipe) > 15000:
                        continue
                    state = construct_k_uniform(k, d, N)
                    assert (state.N, state.d, state.num_terms) == (N, d, _recipe_terms(recipe))
                    built.append((k, d, N))
    assert len(built) >= 17
    assert sum(d**k > 4096 for k, d, _ in built) >= 8


# -- masking integration -----------------------------------------------------


def test_strong_masking_odd_N_feasible():
    feas = strong_masking_feasible(5, 2)
    assert feas.status == "feasible"
    assert feas.witness == {"rule": "bundled_state", "name": "ame_6_2"}
    feas = strong_masking_feasible(3, 3)
    assert feas.status == "feasible"
    assert feas.witness == {"rule": "mds_trim", "k": 2, "d": 3, "N": 4}
    feas = strong_masking_feasible(9, 4)
    assert feas.status == "feasible"
    assert feas.witness is None and "tables" in feas.reason


def test_strong_masking_odd_N_infeasible():
    for N, d, fragment in [(7, 2, "Rains"), (7, 3, "shadow"), (9, 2, "Rains")]:
        feas = strong_masking_feasible(N, d)
        assert feas.status == "infeasible"
        assert fragment in feas.reason


def test_strong_masking_odd_N_unknown():
    for N, d in [(7, 6), (11, 2)]:
        feas = strong_masking_feasible(N, d)
        assert feas.status == "unknown"
        assert "open" in feas.reason
