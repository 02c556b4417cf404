"""Quantum-information masking and pure error-correcting-code checks.

A masker hides a d-valued input among N parties: it is a family of d
orthonormal image states such that every reduction onto k parties is the
same regardless of which image (or superposition of images) was prepared.
Splitting one party off a (k+1)-uniform state of N+1 parties produces
exactly such a family.  The criterion checked is exact: for every party
subset A of size k and every image pair (s, t), the operator obtained by
tracing |psi_s><psi_t| down to A must vanish for s != t and must agree
with a common reduced operator for s == t.  By sesquilinearity that covers
every unit-norm input superposition.

The same machinery checks pure quantum codes: a ((N, K, delta))_d basis is
pure when <psi_i| E |psi_j> vanishes for every non-identity tensor product
E of generalized Paulis with fewer than delta non-identity factors (every
such E is traceless, so the usual right-hand side delta_ij Tr(E)/d^N is
zero).  The Paulis on a party subset span every operator on it (Scott,
PRA 69, 052330 (2004)), so the condition is equivalent to every
(delta - 1)-party reduction of |psi_j><psi_i| being delta_ij I / d^(delta-1),
which exact states decide in integer arithmetic for every d.

Both checks read one purified state, Psi = sum_s |s>_a |psi_s> over the
images or the basis, held as a states._Purified: the reduction of Psi onto
{a} and a party subset S is the block matrix whose (s, t) block is
|psi_s><psi_t| traced down to S.  They walk the subsets with its
undecided, as verify_k_uniform does: a subset on which Psi is decided by
its code or by counting rows has that reduction equal to I / d^(k + m), so
every block (s, t) is delta_st I / d^k and the subset passes both checks,
a masker's common operator there being I / d^k over image 0's r.  The
subsets left come in lists, and each list costs one kernel call that
reduces Psi onto every subset in it (its reductions), with block (s, t)
of subset j as segment (j, s, t) of the call's two halves: the entries
above Psi's diagonal, which hold each (s, t) with s < t whole and the
upper half of each (s, s), and the diagonal of each (s, s).  An exact
call passes segments from those halves at once, in integers: a masker's
(s, t) when it is empty and its (s, s) when it is the same operator as
(0, 0), a code's (s, t) when it is empty and its (s, s) when it is
I / d^k.  The segments left, every one of a float call, are read off the
same halves: a masker's cross-term magnitudes, the largest entry of each
(s, t) with s < t, as stored, and its deviations of (s, s) from (0, 0),
all of a call's in one pass (states._differences) over those segments
mirrored whole.  Only the segments read whole are mirrored: a masker's
common operators, (0, 0) of each subset, in one mirror per call, the
(s, s) left and their (0, 0), and a code's failing block, which becomes
a SparseOperator for its Pauli witness.  The matrix_dim cap is checked
where those reductions are made: by undecided, and before the first
sample of verify_masker, whose superpositions are reduced onto every
subset a list of subsets per kernel call (its superposed) and compared
with the common operators of that call's subsets in one pass, without an
operator per subset.

Orthonormality is the same Psi with no party kept: its reduction onto the
ancilla alone has entry (s, t) = <psi_t|psi_s>, and an exact reduction
stores nonzero entries only, so the entries above its diagonal are the
pairs that may not be orthogonal (its inner_products).  verify_pure_qecc,
verify_masker at k = 0 and load_masker each make that one reduction, none
for a single state, rather than one inner product per pair; a family that
mixes exact and float states makes one more, over its exact members, so
two exact states are always compared exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .caps import check_cap
from .errors import KuniformError, MaskingError, ParseError
from .states import (
    FLOAT_TOL,
    PureState,
    SparseOperator,
    _Purified,
    _complex,
    _differences,
    _from_arrays,
    _maximally_mixed,
    _stacked,
    inner_product,  # noqa: F401 -- public through this module too
    load_state,
    save_state,
    verify_k_uniform,
)

__all__ = [
    "Masker",
    "MaskingReport",
    "MaskingFeasibility",
    "ErrorOperator",
    "QeccReport",
    "pauli_matrix",
    "build_masker",
    "verify_masker",
    "strong_masking_feasible",
    "verify_pure_qecc",
    "singleton_check",
    "save_masker",
    "load_masker",
]

PAULI_TOL = 1e-9


@dataclass
class Masker:
    """d orthonormal images in (C^d)^{tensor N}; image s encodes input |s>.

    verified_k is the highest k for which verify_masker has passed, -1
    before any verification.
    """

    d: int
    N: int
    images: list
    verified_k: int = -1
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise MaskingError(f"need local dimension d >= 1, got {self.d}")
        if len(self.images) != self.d:
            raise MaskingError(f"need {self.d} images, got {len(self.images)}")
        for img in self.images:
            if (img.N, img.d) != (self.N, self.d):
                raise MaskingError("images disagree on (N, d)")


@dataclass
class MaskingReport:
    N: int
    d: int
    k: int
    verdict: str  # "pass" or "fail"
    subsets_checked: int
    failures: list  # (subset, s, t, reason)
    common: dict  # subset -> SparseOperator, the shared reduction when it exists
    max_deviation: float = 0.0
    samples_checked: int = 0

    def __bool__(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class MaskingFeasibility:
    status: str  # "feasible", "infeasible", or "unknown"
    reason: str
    witness: object = None


def build_masker(psi: PureState, split_party: int, k: int) -> Masker:
    """Split one party off a (k+1)-uniform state, yielding a masker whose
    images hide the split symbol from any k parties.

    The input's (k+1)-uniformity is the one check, and it implies the
    rest: the (s, t) blocks of the reduction of psi onto the split party and
    any k others, I / d^(k+1), are the images' k-party cross reductions
    over d.  So every symbol carries terms, an exact r is divisible by d,
    and the images are orthonormal and pass verify_masker at k.
    """
    if psi.N < 2:
        raise MaskingError("need at least two parties to split one off")
    if not 0 <= split_party < psi.N:
        raise MaskingError(f"split party {split_party} out of range for N = {psi.N}")
    if k < 0:
        raise MaskingError("k must be non-negative")
    uni = verify_k_uniform(psi, k + 1)
    if uni.verdict != "pass":
        raise MaskingError(
            f"input is not {k + 1}-uniform (verdict {uni.verdict}); cannot mask k = {k}"
        )

    d, n_out = psi.d, psi.N - 1
    images = []
    for s in range(d):
        rows = psi._idx[:, split_party] == s
        idx = np.delete(psi._idx[rows], split_party, axis=1)
        provenance = f"image {s} of split at party {split_party}"
        if psi.exact:
            img = _from_arrays(n_out, d, idx, psi._values[rows], r=psi.r // d, provenance=provenance)
        else:
            # sqrt(d) times each amplitude, as a Python complex * float product
            scale, amps = math.sqrt(d), psi._values[rows]
            re = amps.real * scale - amps.imag * 0.0
            im = amps.real * 0.0 + amps.imag * scale
            img = _from_arrays(n_out, d, idx, _complex(re, im), exact=False, provenance=provenance)
        images.append(img)

    return Masker(
        d=d,
        N=n_out,
        images=images,
        verified_k=k,
        provenance=f"split party {split_party} of ({psi.provenance})",
    )


def verify_masker(m: Masker, k: int, *, samples: int = 0, seed: int = 0) -> MaskingReport:
    """Run the full masking criterion at k.

    k = 0 reduces to image orthonormality, read off one reduction of the
    images' purified state onto its ancilla; two exact images are compared
    exactly, other pairs within FLOAT_TOL.  Subsets decided on the
    images' purified state are passed without a reduction, with I / d^k
    as their common operator.  Each kernel call over the subsets left
    gives every block (s, t) of each subset as a segment: segment (0, 0)
    is the subset's common operator, all of a call's mirrored at once, and
    an exact call passes an (s, s) that is the same operator and an (s, t)
    that is empty from its halves.  The segments left are read off the
    call too, never built as operators: each (s, s) left is compared with
    its (0, 0) in one _differences pass per call, and each (s, t) left
    reports its largest entry.  With samples > 0 a seeded
    sanity pass additionally prepares that many random input superpositions
    and compares each of their k-party reductions against the common one in
    float arithmetic, one _differences pass per kernel call of a sample;
    the exact criterion never depends on it.  Float
    deviations, cross terms and inner products pass within FLOAT_TOL.
    """
    if not 0 <= k <= m.N:
        raise ValueError(f"k = {k} outside [0, {m.N}]")
    failures: list = []
    common: dict = {}
    max_dev = 0.0
    psi = _Purified(m.images)

    if k == 0:
        pairs = psi.inner_products()
        failures = [((), s, t, f"images not orthogonal, <s|t> = {ip.value:.3e}") for s, t, ip in pairs if not ip.is_zero()]
        return MaskingReport(m.N, m.d, 0, "fail" if failures else "pass", 1, failures, {}, 0.0)

    n_subsets, K = math.comb(m.N, k), psi.K
    # (s, s) for s >= 1, then (s, t) for s < t, of each subset in turn
    kinds = np.stack([np.diag(np.arange(K) > 0), np.less.outer(range(K), range(K))])
    for subsets in psi.undecided(k):
        red = psi.reductions(subsets)
        common.update(zip(subsets, red.operators(np.arange(len(subsets)) * K * K)))
        left = red.left(red.same_as_first).reshape(-1, 1, K, K) & kinds
        # each segment left, (j, s, s) against (j, 0, 0) and (j, s, t) by its
        # largest entry, read off the call's arrays
        deltas = np.zeros(len(left) * K * K)
        same, apart = (np.flatnonzero(left[:, c]) for c in (0, 1))
        if len(same):
            deltas[same] = _differences(m.d, red.segments(same), red.segments(same // K**2 * K**2))
        if len(apart):
            deltas[apart] = red.largest(apart)
        deltas = deltas.tolist()
        for j, cross, s, t in np.argwhere(left).tolist():
            delta = deltas[(j * K + s) * K + t]
            max_dev = max(max_dev, delta)
            if psi.exact or delta > FLOAT_TOL:
                what = "cross term does not vanish, max entry" if cross else "reduction differs from image 0 by"
                failures.append((subsets[j], s, t, f"{what} {delta:.3e}"))
    if len(common) < n_subsets:
        # every subset left out has the blocks delta_st I / d^k
        mixed = _maximally_mixed(m.d, k, m.images[0].r)
        common = {subset: common.get(subset, mixed) for subset in combinations(range(m.N), k)}

    samples_checked = 0
    if samples > 0 and not failures:
        # each sample is reduced in the kernel onto every subset
        check_cap("matrix_dim", m.d**k, what=f"reductions of dimension {m.d**k}")
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            coeffs = rng.normal(size=m.d) + 1j * rng.normal(size=m.d)
            coeffs /= np.linalg.norm(coeffs)
            for subsets, red in psi.superposed(coeffs, k):
                first = red.segments(np.arange(len(subsets)))
                deltas = _differences(m.d, first, _stacked([common[subset] for subset in subsets]))
                for subset, delta in zip(subsets, deltas.tolist()):
                    max_dev = max(max_dev, delta)
                    if delta > FLOAT_TOL:
                        failures.append((subset, -1, -1, f"sampled superposition leaks, deviation {delta:.3e}"))
            samples_checked += 1

    verdict = "pass" if not failures else "fail"
    return MaskingReport(
        m.N, m.d, k, verdict, n_subsets, failures, common, max_dev, samples_checked
    )


def strong_masking_feasible(N: int, d: int | None = None) -> MaskingFeasibility:
    """Can every state of one party be hidden from any floor(N/2) of N parties?

    Even N is impossible outright.  Odd N reduces to the existence of a
    maximally (floor((N+1)/2)-) uniform state on N+1 parties, which the
    catalog answers; without a known construction or citation the honest
    answer is unknown rather than no.
    """
    if N < 2:
        raise ValueError("need at least two parties")
    if N % 2 == 0:
        return MaskingFeasibility(
            status="infeasible",
            reason=(
                f"strong masking needs every {N // 2}-party reduction independent of "
                "the input, which fails for an even party count: the no-masking "
                "no-go (Modi, Pati, Sen De, Sen, Phys. Rev. Lett. 120, 230501 "
                "(2018)) forbids it for N = 2 and splitting N parties into two "
                "halves of N/2 reduces the general even case to that one"
            ),
        )
    if d is None:
        raise ValueError("odd N needs the local dimension d")
    from . import catalog

    k_target = (N + 1) // 2
    verdict = catalog.exists_k_uniform(k_target, d, N + 1)
    if verdict.status in ("Exists(constructive)", "Exists(cited)"):
        return MaskingFeasibility(
            status="feasible",
            reason=(
                f"a maximally entangled ({k_target}-uniform) state on {N + 1} parties "
                f"of dimension {d} exists ({verdict.citation or 'constructive'}); "
                "splitting any one party off it is a strong masker"
            ),
            witness=verdict.witness,
        )
    if verdict.status == "NotExists(cited)":
        return MaskingFeasibility(
            status="infeasible",
            reason=(
                f"no maximally entangled state on {N + 1} parties of dimension {d} "
                f"exists ({verdict.citation})"
            ),
        )
    return MaskingFeasibility(
        status="unknown",
        reason=(
            f"existence of a maximally entangled state on {N + 1} parties of "
            f"dimension {d} is open; no construction or citation applies"
        ),
    )


# ---------------------------------------------------------------------------
# generalized Paulis and pure-code checks


def pauli_matrix(d: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b on C^d: X|j> = |j+1 mod d>, Z|j> = omega^j |j>."""
    if d < 2:
        raise ValueError("need d >= 2")
    M = np.zeros((d, d), dtype=complex)
    for j in range(d):
        M[(j + a) % d, j] = cmath.exp(2j * math.pi * (b * j) / d)
    return M


@dataclass(frozen=True)
class ErrorOperator:
    """Tensor product of generalized Paulis, identity everywhere else."""

    positions: tuple  # strictly increasing party indices
    locals: tuple  # matching (a, b) pairs, none equal to (0, 0)

    @property
    def weight(self) -> int:
        return len(self.positions)

    def __str__(self) -> str:
        return " ".join(
            f"X{a}Z{b}[{p}]" for p, (a, b) in zip(self.positions, self.locals)
        )


def _pauli_witness(rho: SparseOperator, subset: tuple) -> tuple[ErrorOperator, float]:
    """The non-identity Pauli E on `subset` with the largest |Tr(E rho)|.

    For a shift a, Tr(X^a Z^b rho) = sum over y of omega^(b.y) rho[y, y + a],
    so one inverse FFT over the k digits of y gives every b at once.
    """
    d, k, dim = rho.d, len(subset), rho.dim
    digits = np.indices((d,) * k).reshape(k, dim)  # digits[:, n] spell index n
    place = d ** np.arange(k - 1, -1, -1)
    # shifted[a, y] is the index of y + a, digit by digit mod d
    shifted = np.tensordot(place, (digits[:, :, None] + digits[:, None, :]) % d, axes=1)
    diagonals = rho._dense()[np.arange(dim), shifted]  # [a, y] -> rho[y, y + a]
    axes = tuple(range(1, k + 1))
    coeffs = np.fft.ifftn(diagonals.reshape((dim,) + (d,) * k), axes=axes) * dim
    mags = np.abs(coeffs).reshape(dim, dim)
    mags[0, 0] = 0.0  # the identity
    a, b = np.unravel_index(int(np.argmax(mags)), mags.shape)
    locals_ = [
        (p, (int(x), int(z)))
        for p, x, z in zip(subset, digits[:, a], digits[:, b])
        if (x, z) != (0, 0)
    ]
    op = ErrorOperator(tuple(p for p, _ in locals_), tuple(loc for _, loc in locals_))
    return op, float(mags[a, b])


@dataclass
class QeccReport:
    """Outcome of verify_pure_qecc.

    ops_checked counts the Pauli errors of weight 1 to delta - 1 that the
    check covers.  failures holds one (str(E), i, j, |<psi_i|E|psi_j>|)
    witness per failing (subset, i, j), or ("<i|j>", i, j, |<psi_i|psi_j>|)
    per non-orthogonal pair; worst is the largest of those magnitudes.
    """

    N: int
    d: int
    K: int
    delta: int
    verdict: str  # "pass" or "fail"
    ops_checked: int
    failures: list  # (error string, i, j, magnitude)
    worst: float = 0.0
    orthonormal: bool = True

    def __bool__(self) -> bool:
        return self.verdict == "pass"


def verify_pure_qecc(basis: list, delta: int) -> QeccReport:
    """Check that `basis` spans a pure ((N, K, delta))_d code.

    Every tensor product E of generalized Paulis with 1 <= weight < delta is
    traceless, so the pure-code condition is that <psi_i| E |psi_j> vanishes
    for all of them; orthonormality of the basis covers the identity.  Both
    are read off one purified state Psi = sum_i |i>_a |psi_i>.
    Orthonormality comes first, from the reduction of Psi onto its ancilla
    alone, whose entries above the diagonal are the pairs that may not be
    orthogonal; a basis that fails it is reported without checking any
    Pauli, and one state makes no such reduction.  The Paulis on a set S of
    k = min(delta - 1, N) parties span every operator on S, so for each
    k-subset S that the undecided walk of Psi leaves, Psi is reduced once
    onto the ancilla and S, and for each i <= j its block (j, i), which is
    |psi_j><psi_i| traced down to S, must be I / d^k when i == j and zero
    otherwise.  A basis whose states are all exact is decided exactly for
    every d, each call's blocks at once from its segments, and only a
    failing block becomes an operator, for its witness; otherwise every
    state is taken in floats, and a block passes
    when its largest non-identity Pauli coefficient is at most PAULI_TOL;
    two states that are not both exact are orthogonal when |<psi_i|psi_j>|
    is.  The qecc_ops cap bounds the C(N, k) K (K + 1) / 2 blocks, and the
    matrix_dim cap their dimension d^k; both are checked before the first
    subset left is reduced, so a basis decided on Psi alone meets neither.

    ops_checked counts the errors covered, sum over 1 <= w < delta of
    C(N, w) (d^2 - 1)^w, not operators iterated.  failures holds one
    witness per failing (S, i, j): the Pauli on S with the largest
    coefficient.  delta = 1 is vacuous: nothing below weight 1 exists.
    """
    if not basis:
        raise ValueError("need at least one basis state")
    N, d = basis[0].N, basis[0].d
    if any((s.N, s.d) != (N, d) for s in basis):
        raise ValueError("basis states live on different systems")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if d < 2:
        raise ValueError("need local dimension at least 2")
    K = len(basis)

    # unit norms are enforced by the state constructors; only pairwise
    # orthogonality can fail here
    psi = _Purified(basis)
    failures: list = []
    worst = 0.0
    for i, j, ip in psi.inner_products():
        dev = abs(ip.value)
        if (not ip.is_zero()) if ip.exact else dev > PAULI_TOL:
            failures.append(("<i|j>", i, j, dev))
            worst = max(worst, dev)
    if failures:
        return QeccReport(N, d, K, delta, "fail", 0, failures, worst, False)

    ops = sum(math.comb(N, w) * (d * d - 1) ** w for w in range(1, delta))
    k = min(delta - 1, N)
    n_subsets = math.comb(N, k) if k else 0
    n_pairs = K * (K + 1) // 2
    for n, subsets in enumerate(psi.undecided(k) if k else ()):
        if not n:
            # blocks are reduced only for the subsets left, from the first list
            check_cap("qecc_ops", n_subsets * n_pairs, what=f"{n_subsets} x {n_pairs} pair reductions onto {k} parties")
        red = psi.reductions(subsets)
        # (b, i, j) in order for i <= j: segment (b, j, i) is |psi_j><psi_i|
        for b, i, j in np.argwhere(np.triu(red.left(red.maximally_mixed).reshape(-1, K, K).transpose(0, 2, 1))).tolist():
            op, mag = _pauli_witness(red.operator(b, j, i), subsets[b])
            if psi.exact or mag > PAULI_TOL:
                failures.append((str(op), i, j, mag))
                worst = max(worst, mag)

    verdict = "pass" if not failures else "fail"
    return QeccReport(N, d, K, delta, verdict, ops, failures, worst, True)


def singleton_check(N: int, K: int, k: int, d: int) -> bool:
    """K <= d^(N - 2k): necessary for a pure ((N, K, k+1))_d code and hence
    for hiding log_d(K) dimensions from any k of N parties."""
    if min(N, K, d) < 1 or k < 0:
        raise ValueError("parameters must be positive (k non-negative)")
    exponent = N - 2 * k
    if exponent < 0:
        return K <= 0  # never; d^negative < 1
    return K <= d**exponent


# ---------------------------------------------------------------------------
# masker bundles: a directory holding one state file per image plus a JSON
# manifest {format, d, N, verified_k, checks, images, provenance}


def save_masker(m: Masker, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"image_{s}.state" for s in range(len(m.images))]
    for name, img in zip(names, m.images):
        save_state(img, directory / name)
    manifest = {
        "format": "masker",
        "d": m.d,
        "N": m.N,
        "verified_k": m.verified_k,
        "checks": {"orthonormal": True, "images": m.d},
        "images": names,
        "provenance": m.provenance,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_masker(directory: str | Path) -> Masker:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise ParseError(f"{manifest_path}: missing masker manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "masker":
        raise ParseError(f"{manifest_path}: not a masker bundle")
    names = manifest.get("images")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ParseError(f"{manifest_path}: images must be a list of file names")
    for name in names:
        # only files inside the bundle, which are the files its digest covers
        if name in ("", ".", "..") or Path(name).name != name:
            raise ParseError(f"{manifest_path}: image {name!r} is not a bare file name")
    manifest.setdefault("verified_k", -1)
    for key in ("d", "N", "verified_k"):
        value = manifest.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"{manifest_path}: {key} must be an integer, got {value!r}")
    images = [load_state(directory / name) for name in names]
    m = Masker(
        d=manifest["d"],
        N=manifest["N"],
        images=images,
        verified_k=manifest["verified_k"],
        provenance=str(manifest.get("provenance", str(directory))),
    )
    for s, t, ip in _Purified(m.images).inner_products():
        if not ip.is_zero():
            raise KuniformError(f"{directory}: bundle images {s}, {t} not orthogonal")
    return m
