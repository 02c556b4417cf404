"""Reference partial traces by a loop over index tuples, for small systems.

Groups the terms of s2 by their complement indices in a dict and sums
amp1 * conj(amp2) term by term: Gaussian integers when both states are
exact, complex floats otherwise.  The array kernel behind
states.cross_reduction and states.verify_k_uniform computes the same
operators; the tests hold it to this oracle.
"""

from __future__ import annotations

import math
from itertools import combinations

from kuniform.states import PureState, SparseOperator, UniformityReport


def oracle_cross_reduction(s1: PureState, s2: PureState, parties) -> SparseOperator:
    """Trace of |s1><s2| over the complement of `parties`."""
    if (s1.N, s1.d) != (s2.N, s2.d):
        raise ValueError("states live on different systems")
    parties = tuple(sorted(set(int(p) for p in parties)))
    others = tuple(p for p in range(s1.N) if p not in parties)
    exact = s1.exact and s2.exact

    groups: dict = {}
    for idx, amp in s2.amplitudes.items():
        comp = tuple(idx[p] for p in others)
        groups.setdefault(comp, []).append((tuple(idx[p] for p in parties), amp))

    entries: dict = {}
    for idx, amp in s1.amplitudes.items():
        comp = tuple(idx[p] for p in others)
        bucket = groups.get(comp)
        if not bucket:
            continue
        kept = tuple(idx[p] for p in parties)
        if exact:
            a1, b1 = amp
            for kept2, (a2, b2) in bucket:
                # (a1 + b1 i)(a2 - b2 i)
                re = a1 * a2 + b1 * b2
                im = b1 * a2 - a1 * b2
                key = (kept, kept2)
                cur = entries.get(key)
                entries[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        else:
            v1 = complex(amp[0], amp[1]) / math.sqrt(s1.r) if s1.exact else amp
            for kept2, amp2 in bucket:
                v2 = complex(amp2[0], amp2[1]) / math.sqrt(s2.r) if s2.exact else amp2
                key = (kept, kept2)
                entries[key] = entries.get(key, 0j) + v1 * v2.conjugate()
    if exact:
        entries = {key: val for key, val in entries.items() if val != (0, 0)}
    return SparseOperator(
        n_parties=len(parties),
        d=s1.d,
        entries=entries,
        r_ket=s1.r if exact else 1,
        r_bra=s2.r if exact else 1,
        exact=exact,
    )


def oracle_verify_k_uniform(state: PureState, k: int, tol: float = 1e-10) -> UniformityReport:
    """The report verify_k_uniform must give, one oracle reduction per subset."""
    if k == 0:
        return UniformityReport(state.N, state.d, 0, "pass", 0, [])
    if k > state.N // 2:
        return UniformityReport(state.N, state.d, k, "impossible", 0, [])
    subsets = list(combinations(range(state.N), k))
    failures = []
    max_dev = 0.0
    for subset in subsets:
        rho = oracle_cross_reduction(state, state, subset)
        dev = rho.maximally_mixed_deviation()
        max_dev = max(max_dev, dev)
        if not rho.is_maximally_mixed(tol=tol):
            failures.append((subset, f"reduction deviates from I/{state.d ** k} by {dev:.3e}"))
    verdict = "pass" if not failures else "fail"
    return UniformityReport(state.N, state.d, k, verdict, len(subsets), failures, max_dev)
