"""Reference partial traces by a loop over index tuples, for small systems.

Groups the terms of s2 by their complement indices in a dict and sums
amp1 * conj(amp2) term by term: Gaussian integers when both states are
exact, complex floats otherwise.  The result is a DictOperator, the
operator as an {(row tuple, col tuple): value} dict, and the oracle_*
operator functions loop over those entries one by one.  The array kernel
behind states._block_reduction, states.reduction and the three verifiers,
and the methods of states.SparseOperator, compute the same things; the
tests hold them to this oracle, which never calls them.  oracle_verify_masker is the masking
criterion with one oracle_cross_reduction call per (subset, pair), in
floats for every pair unless every image is exact, and deviations read off
dense matrices.  oracle_counting_passes is the counting criterion of
verify_k_uniform decided for one subset at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace

import numpy as np
from state_oracle import oracle_inner_product

from kuniform.masking import FLOAT_TOL, Masker, MaskingReport
from kuniform.states import (
    PureState,
    SparseOperator,
    UniformityReport,
)


@dataclass
class DictOperator:
    """An operator as a dict: entries map (row, col) pairs of index tuples
    to Gaussian-integer pairs over sqrt(r_ket * r_bra) when exact, to
    complex values otherwise."""

    n_parties: int
    d: int
    entries: dict
    r_ket: int = 1
    r_bra: int = 1
    exact: bool = True

    @property
    def dim(self) -> int:
        return self.d**self.n_parties

    def sparse(self) -> SparseOperator:
        return SparseOperator(self.n_parties, self.d, self.entries, self.r_ket, self.r_bra, self.exact)


def oracle_is_zero(op, tol: float = 0.0) -> bool:
    if op.exact:
        return not op.entries
    scale = 1.0 / math.sqrt(op.r_ket * op.r_bra)
    return all(abs(v) * scale <= tol for v in op.entries.values())


def oracle_trace(op):
    if op.exact:
        a = sum(v[0] for (r, c), v in op.entries.items() if r == c)
        b = sum(v[1] for (r, c), v in op.entries.items() if r == c)
        return (a, b)
    return sum(v for (r, c), v in op.entries.items() if r == c)


def oracle_to_matrix(op) -> np.ndarray:
    M = np.zeros((op.dim, op.dim), dtype=complex)
    scale = 1.0 / math.sqrt(op.r_ket * op.r_bra)
    for (row, col), val in op.entries.items():
        i = 0
        for x in row:
            i = i * op.d + x
        j = 0
        for x in col:
            j = j * op.d + x
        v = complex(val[0], val[1]) if op.exact else val
        M[i, j] = v * scale
    return M


def oracle_maximally_mixed_deviation(op) -> float:
    """Largest entrywise distance from I / d^n_parties."""
    dim = op.dim
    scale = 1.0 / math.sqrt(op.r_ket * op.r_bra)
    target = 1.0 / dim
    dev = 0.0
    diagonal_hits = 0
    for (row, col), val in op.entries.items():
        if op.exact and op.r_ket == op.r_bra:
            # subtract in integers so exact matches report exactly 0
            if row == col:
                diagonal_hits += 1
                num = complex(val[0] * dim - op.r_ket, val[1] * dim)
                dev = max(dev, abs(num) * scale / dim)
            else:
                dev = max(dev, abs(complex(*val)) * scale)
            continue
        v = complex(*val) * scale if op.exact else val * scale
        if row == col:
            diagonal_hits += 1
            dev = max(dev, abs(v - target))
        else:
            dev = max(dev, abs(v))
    if diagonal_hits < dim:
        dev = max(dev, target)  # some diagonal entry is missing entirely
    return dev


def oracle_is_maximally_mixed(op, tol: float = 0.0) -> bool:
    """Exactly I / d^n_parties for exact operators, within tol otherwise."""
    if not op.exact:
        return oracle_maximally_mixed_deviation(op) <= tol
    if op.r_ket != op.r_bra:
        return False
    r, dim = op.r_ket, op.dim
    if r % dim:
        return False
    lam = r // dim
    if len(op.entries) != dim:
        return False
    return all(row == col and val == (lam, 0) for (row, col), val in op.entries.items())


def oracle_cross_reduction(s1: PureState, s2: PureState, parties, floats: bool = False) -> DictOperator:
    """Trace of |s1><s2| over the complement of `parties`; in floats when
    either state is a float state or `floats` is set."""
    if (s1.N, s1.d) != (s2.N, s2.d):
        raise ValueError("states live on different systems")
    parties = tuple(sorted(set(int(p) for p in parties)))
    others = tuple(p for p in range(s1.N) if p not in parties)
    exact = s1.exact and s2.exact and not floats

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
    return DictOperator(
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
        dev = oracle_maximally_mixed_deviation(rho)
        max_dev = max(max_dev, dev)
        if not oracle_is_maximally_mixed(rho, tol=tol):
            failures.append((subset, f"reduction deviates from I/{state.d ** k} by {dev:.3e}"))
    verdict = "pass" if not failures else "fail"
    return UniformityReport(state.N, state.d, k, verdict, len(subsets), failures, max_dev)


def oracle_counting_passes(state: PureState, subset) -> bool:
    """Whether the reduction onto `subset` is I / d^k by counting alone: an
    exact state whose terms share one squared modulus, rows taking each of
    the d^k values on the subset equally often, and no two rows agreeing
    off it.  Needs d^N < 2^63 for its full radix keys."""
    T, N, d, k = state.num_terms, state.N, state.d, len(subset)
    dim = d**k
    if not state.exact or T % dim or len({a * a + b * b for a, b in state.amplitudes.values()}) > 1:
        return False
    idx = np.array(list(state.amplitudes), dtype=np.int64).reshape(T, N)
    weights = d ** np.arange(N - 1, -1, -1, dtype=np.int64)
    parties = list(subset)
    cols = idx[:, parties]
    if (np.bincount(cols @ weights[N - k :], minlength=dim) != T // dim).any():
        return False
    complement = np.sort(idx @ weights - cols @ weights[parties])
    return bool((complement[1:] != complement[:-1]).all())


def _operators_equal(a: DictOperator, b: DictOperator, tol: float) -> bool:
    if a.exact and b.exact:
        # x / sqrt(ra) == y / sqrt(rb) for every numerator part: same sign,
        # and x^2 rb == y^2 ra
        ra, rb = a.r_ket * a.r_bra, b.r_ket * b.r_bra
        return (
            (a.n_parties, a.d) == (b.n_parties, b.d)
            and a.entries.keys() == b.entries.keys()
            and all(
                x * y >= 0 and x * x * rb == y * y * ra
                for key, val in a.entries.items()
                for x, y in zip(val, b.entries[key])
            )
        )
    return bool(np.allclose(oracle_to_matrix(a), oracle_to_matrix(b), atol=tol, rtol=0.0))


def oracle_deviation(a: DictOperator, b: DictOperator) -> float:
    """Largest entrywise |a - b|, read off dense matrices."""
    return float(np.max(np.abs(oracle_to_matrix(a) - oracle_to_matrix(b)), initial=0.0))


def oracle_verify_masker(
    m: Masker, k: int, tol: float = FLOAT_TOL, samples: int = 0, seed: int = 0
) -> MaskingReport:
    """The report verify_masker must give."""
    failures: list = []
    common: dict = {}
    rho0s: dict = {}  # the common reductions as DictOperators
    max_dev = 0.0

    if k == 0:
        for s, t in combinations(range(m.d), 2):
            ip = oracle_inner_product(m.images[s], m.images[t])
            if not (ip.num == (0, 0) if ip.exact else abs(ip.num) <= tol):
                failures.append(((), s, t, f"images not orthogonal, <s|t> = {ip.value:.3e}"))
        verdict = "pass" if not failures else "fail"
        return MaskingReport(m.N, m.d, 0, verdict, 1, failures, {}, 0.0)

    subsets = list(combinations(range(m.N), k))
    floats = not all(img.exact for img in m.images)
    for subset in subsets:
        rho0 = oracle_cross_reduction(m.images[0], m.images[0], subset, floats)
        rho0s[subset] = rho0
        common[subset] = rho0.sparse()
        for s in range(1, m.d):
            rho_s = oracle_cross_reduction(m.images[s], m.images[s], subset, floats)
            equal = _operators_equal(rho_s, rho0, tol)
            # exactly equal operators deviate by exactly 0
            delta = 0.0 if equal and rho0.exact else oracle_deviation(rho_s, rho0)
            max_dev = max(max_dev, delta)
            if not equal:
                failures.append((subset, s, s, f"reduction differs from image 0 by {delta:.3e}"))
        for s, t in combinations(range(m.d), 2):
            cross = oracle_cross_reduction(m.images[s], m.images[t], subset, floats)
            if cross.exact:
                leaked = not oracle_is_zero(cross)
                mag = float(
                    max((abs(complex(a, b)) for a, b in cross.entries.values()), default=0.0)
                ) / math.sqrt(cross.r_ket * cross.r_bra)
            else:
                mag = float(max((abs(v) for v in cross.entries.values()), default=0.0))
                leaked = mag > tol
            max_dev = max(max_dev, mag)
            if leaked:
                failures.append((subset, s, t, f"cross term does not vanish, max entry {mag:.3e}"))

    samples_checked = 0
    if samples > 0 and not failures:
        rng = np.random.default_rng(seed)
        image_amps = [
            {idx: complex(*amp) / math.sqrt(img.r) for idx, amp in img.amplitudes.items()}
            if img.exact
            else img.amplitudes
            for img in m.images
        ]
        for _ in range(samples):
            coeffs = rng.normal(size=m.d) + 1j * rng.normal(size=m.d)
            coeffs /= np.linalg.norm(coeffs)
            amps: dict = {}
            for c, amp_map in zip(coeffs, image_amps):
                for idx, v in amp_map.items():
                    amps[idx] = amps.get(idx, 0j) + c * v
            # the superposition as it is, unchecked against NORM_TOL
            masked = SimpleNamespace(N=m.N, d=m.d, exact=False, amplitudes={i: v for i, v in amps.items() if v != 0})
            for subset in subsets:
                delta = oracle_deviation(oracle_cross_reduction(masked, masked, subset), rho0s[subset])
                max_dev = max(max_dev, delta)
                if delta > tol:
                    failures.append(
                        (subset, -1, -1, f"sampled superposition leaks, deviation {delta:.3e}")
                    )
            samples_checked += 1

    verdict = "pass" if not failures else "fail"
    return MaskingReport(
        m.N, m.d, k, verdict, len(subsets), failures, common, max_dev, samples_checked
    )
