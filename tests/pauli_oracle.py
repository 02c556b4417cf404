"""Reference pure-code check by Pauli enumeration, for small systems.

Enumerates every tensor product E of generalized Paulis with weight below
delta and evaluates <psi_i| E |psi_j> term by term: exactly for qubit
states in exact mode, in floats otherwise.  verify_pure_qecc decides the
same condition from pair reductions; the tests hold it to this oracle.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations, product

from state_oracle import oracle_inner_product

from kuniform.masking import ErrorOperator
from kuniform.states import PureState


def error_operators(N: int, d: int, delta: int):
    """All non-identity errors of weight below delta."""
    non_identity = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    for w in range(1, delta):
        for positions in combinations(range(N), w):
            for locs in product(non_identity, repeat=w):
                yield ErrorOperator(positions, locs)


def pauli_element_exact(si: PureState, sj: PureState, op: ErrorOperator):
    """<si| E |sj> numerator as a Gaussian integer (qubits, exact states)."""
    re = im = 0
    for idx, (a2, b2) in sj.amplitudes.items():
        phase = 0
        shifted = list(idx)
        for p, (a, b) in zip(op.positions, op.locals):
            phase += b * idx[p]
            shifted[p] = (idx[p] + a) % 2
        target = si.amplitudes.get(tuple(shifted))
        if target is None:
            continue
        a1, b1 = target
        sign = 1 if phase % 2 == 0 else -1
        re += sign * (a1 * a2 + b1 * b2)
        im += sign * (a1 * b2 - b1 * a2)
    return re, im


def _amplitudes(state: PureState) -> dict:
    if state.exact:
        scale = 1.0 / math.sqrt(state.r)
        return {idx: complex(a, b) * scale for idx, (a, b) in state.amplitudes.items()}
    return dict(state.amplitudes)


def pauli_element_float(si: PureState, sj: PureState, op: ErrorOperator, d: int) -> complex:
    """<si| E |sj> in complex floats."""
    amps_i = _amplitudes(si)
    amps_j = _amplitudes(sj)
    omega = [cmath.exp(2j * math.pi * t / d) for t in range(d)]
    total = 0j
    for idx, v2 in amps_j.items():
        phase = 0
        shifted = list(idx)
        for p, (a, b) in zip(op.positions, op.locals):
            phase += b * idx[p]
            shifted[p] = (idx[p] + a) % d
        v1 = amps_i.get(tuple(shifted))
        if v1 is None:
            continue
        total += v1.conjugate() * omega[phase % d] * v2
    return total


def oracle_pure_qecc(basis: list, delta: int, tol: float = 1e-9):
    """(verdict, failures, worst) by enumerating every error below delta.

    failures lists (str(E), i, j, magnitude) for every failing error and
    pair; worst is the largest magnitude seen, failing or not.
    """
    N, d, K = basis[0].N, basis[0].d, len(basis)
    failures = []
    worst = 0.0
    for i, j in combinations(range(K), 2):
        ip = oracle_inner_product(basis[i], basis[j])
        dev = abs(ip.value)
        if (not ip.is_zero()) if ip.exact else dev > tol:
            failures.append(("<i|j>", i, j, dev))
            worst = max(worst, dev)
    if failures:
        return "fail", failures, worst
    exact = d == 2 and all(s.exact for s in basis)
    for op in error_operators(N, d, delta):
        for i in range(K):
            for j in range(i, K):
                if exact:
                    re, im = pauli_element_exact(basis[i], basis[j], op)
                    mag = abs(complex(re, im)) / math.sqrt(basis[i].r * basis[j].r)
                    bad = (re, im) != (0, 0)
                else:
                    mag = abs(pauli_element_float(basis[i], basis[j], op, d))
                    bad = mag > tol
                worst = max(worst, mag)
                if bad:
                    failures.append((str(op), i, j, mag))
    return ("fail" if failures else "pass"), failures, worst
