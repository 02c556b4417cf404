"""Caps resolve from KUF_CAPS and the defaults alone; each one refuses
at the site that allocates what it bounds."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import kuniform
from kuniform.caps import DEFAULTS
from kuniform.catalog import construct_k_uniform
from kuniform.codes import LinearCode, mds_code, min_distance
from kuniform.errors import CapExceeded
from kuniform.gf import field_for_order, field_new
from kuniform.masking import verify_pure_qecc
from kuniform.oa import OrthogonalArray, oa_from_code, oa_min_distance
from kuniform.states import load_bundled_state, verify_k_uniform

# an OA(9, 4, 3, 2) with no source code, so its distance needs the pair scan
PAIR_ROWS = [(a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)]


def _fresh(C: LinearCode) -> LinearCode:
    """A copy of C with no cached distances."""
    return LinearCode(C.field, C.G.copy())


@pytest.fixture(scope="module")
def sites():
    """cap name -> (its limit, a site needing one more than that).

    Besides its own cap a site needs at most: field_order 9, codewords 81,
    matrix_dim 8, each below the limit of that cap.  The matrix_dim site
    checks k = 3 on a state of strength 2, so its subsets reach the
    reduction kernel: 9^3 does not divide its 81 terms."""
    state = construct_k_uniform(2, 9, 10, verify=False)  # 81 terms
    ame = load_bundled_state("ame_6_2")
    return {
        "field_order": (63, lambda: field_new(2, 6)),
        "codewords": (342, lambda: min_distance(_fresh(mds_code(field_for_order(7), 3)))),
        "oa_rows": (80, lambda: oa_from_code(_fresh(mds_code(field_for_order(9), 2)))),
        "oa_pairs": (8, lambda: oa_min_distance(OrthogonalArray(d=3, rows=np.array(PAIR_ROWS), k=2))),
        "matrix_dim": (728, lambda: verify_k_uniform(state, 3)),
        "qecc_ops": (19, lambda: verify_pure_qecc([ame], 4)),  # C(6, 3) pair reductions
    }


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_each_cap_refuses_at_its_own_site(monkeypatch, sites, name):
    assert sorted(sites) == sorted(DEFAULTS)
    monkeypatch.setenv("KUF_CAPS", f"{name}={sites[name][0]}")
    for other, (_, site) in sites.items():
        if other == name:
            with pytest.raises(CapExceeded, match=rf"\({name}, set in KUF_CAPS\)"):
                site()
        else:
            site()


def test_construct_refuses_at_build_or_at_verification(monkeypatch):
    # the [10, 2]_9 MDS code has 81 codewords, one OA row and one term each
    monkeypatch.setenv("KUF_CAPS", "oa_rows=80")
    with pytest.raises(CapExceeded, match="oa_rows"):
        construct_k_uniform(2, 9, 10)
    # every 2-subset passes the counting check, so no 81-wide reduction is
    # built and matrix_dim does not refuse the state
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=80")
    state = construct_k_uniform(2, 9, 10)
    assert state.num_terms == 81
    with pytest.raises(CapExceeded, match=r"reductions of dimension 729 .*\(matrix_dim"):
        verify_k_uniform(state, 3)  # strength 2 only: the kernel runs
    # 16^16 full radix keys wrap int64, but the complement keys 16^14 do
    # not, so the 256 terms of the [16, 2]_16 trim pass by counting too
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=255")
    assert construct_k_uniform(2, 16, 16).num_terms == 256
    # the complements of the bundled AME(6, 2) state collide, so each of its
    # 3-subsets goes through the kernel and matrix_dim refuses it there
    monkeypatch.setenv("KUF_CAPS", "matrix_dim=7")
    assert construct_k_uniform(3, 2, 6, verify=False).num_terms == 16
    with pytest.raises(CapExceeded, match=r"reductions of dimension 8 .*\(matrix_dim"):
        construct_k_uniform(3, 2, 6)


def _public_callables():
    for info in pkgutil.iter_modules(kuniform.__path__):
        module = importlib.import_module(f"kuniform.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue  # exceptions take a message
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_a_cap():
    checked = dict(_public_callables())
    assert {"kuniform.gf.field_new", "kuniform.states.PureState.to_vector", "kuniform.caps.check_cap"} <= set(checked)
    offenders = [
        name
        for name, obj in checked.items()
        if {"cap", "cap_name", "override"} & set(inspect.signature(obj).parameters)
    ]
    assert offenders == []
