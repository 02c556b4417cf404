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
images or the basis: the reduction of Psi onto {a} and a party subset S is
the block matrix whose (s, t) block is |psi_s><psi_t| traced down to S.
Each subset costs one reduction of Psi (states._block_reduction), whose
blocks are SparseOperators gathered from its arrays: exact blocks are
compared in integers, and a deviation, a cross-term magnitude or a Pauli
witness is read off a block's arrays without building another operator.
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
    _INT64_LIMIT,
    FLOAT_TOL,
    PureState,
    SparseOperator,
    _amplitude_parts,
    _block_reduction,
    _complex,
    _from_arrays,
    _reduce,
    _row_keys,
    _same_operator,
    _stack,
    inner_product,
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

    k = 0 reduces to image orthonormality.  With samples > 0 a seeded
    sanity pass additionally prepares that many random input superpositions
    and compares each of their k-party reductions against the common one in
    float arithmetic; the exact criterion never depends on it.  Float
    deviations, cross terms and inner products pass within FLOAT_TOL.
    """
    if not 0 <= k <= m.N:
        raise ValueError(f"k = {k} outside [0, {m.N}]")
    failures: list = []
    common: dict = {}
    max_dev = 0.0

    if k == 0:
        for s, t in combinations(range(m.d), 2):
            ip = inner_product(m.images[s], m.images[t])
            if not ip.is_zero(tol=FLOAT_TOL):
                failures.append(((), s, t, f"images not orthogonal, <s|t> = {ip.value:.3e}"))
        verdict = "pass" if not failures else "fail"
        return MaskingReport(m.N, m.d, 0, verdict, 1, failures, {}, 0.0)

    check_cap("matrix_dim", m.d**k, what=f"reduction onto {k} parties of dimension {m.d}")
    subsets = list(combinations(range(m.N), k))
    psi, width = _stack(m.images)
    exact = psi.bound is not None
    for subset in subsets:
        block = _block_reduction(psi, width, m.images, subset)
        rho0 = common[subset] = block(0, 0)
        for s in range(1, m.d):
            rho = block(s, s)
            if exact and _same_operator(rho, rho0):
                continue  # the same operator as image 0's
            delta = rho.deviation(rho0)
            max_dev = max(max_dev, delta)
            if exact or delta > FLOAT_TOL:
                failures.append((subset, s, s, f"reduction differs from image 0 by {delta:.3e}"))
        for s, t in combinations(range(m.d), 2):
            cross = block(s, t)
            if exact and cross.is_zero():
                continue  # the cross term vanishes exactly
            # abs() of each stored value, as np.hypot gives it, then the denominator
            mag = float(np.max(np.hypot(cross.re.astype(float), cross.im.astype(float)), initial=0.0))
            if exact:
                mag /= math.sqrt(cross.r_ket * cross.r_bra)
            max_dev = max(max_dev, mag)
            if exact or mag > FLOAT_TOL:
                failures.append((subset, s, t, f"cross term does not vanish, max entry {mag:.3e}"))

    samples_checked = 0
    if samples > 0 and not failures:
        rng = np.random.default_rng(seed)
        # the images' terms, and each one's slot among the distinct indices
        # in order of first appearance
        idx = np.concatenate([img._idx for img in m.images])
        member = np.repeat(np.arange(m.d), [img.num_terms for img in m.images])
        x, y = (np.concatenate(parts) for parts in zip(*map(_amplitude_parts, m.images)))
        _, first, inv = np.unique(_row_keys(idx, m.d, _INT64_LIMIT)[0], return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        slot, support = rank[inv], idx[np.sort(first)]
        for _ in range(samples):
            coeffs = rng.normal(size=m.d) + 1j * rng.normal(size=m.d)
            coeffs /= np.linalg.norm(coeffs)
            cx, cy = coeffs.real[member], coeffs.imag[member]
            # sum over images of c * amplitude, added term by term in order
            re, im = np.zeros(len(first)), np.zeros(len(first))
            np.add.at(re, slot, cx * x - cy * y)
            np.add.at(im, slot, cx * y + cy * x)
            keep = (re != 0) | (im != 0)
            masked = _from_arrays(
                m.N, m.d, support[keep], _complex(re[keep], im[keep]), exact=False, provenance="sampled superposition"
            )
            e, _ = _stack([masked])
            for subset in subsets:
                delta = _reduce(e, subset, m.d).deviation(common[subset])
                max_dev = max(max_dev, delta)
                if delta > FLOAT_TOL:
                    failures.append(
                        (subset, -1, -1, f"sampled superposition leaks, deviation {delta:.3e}")
                    )
            samples_checked += 1

    verdict = "pass" if not failures else "fail"
    return MaskingReport(
        m.N, m.d, k, verdict, len(subsets), failures, common, max_dev, samples_checked
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
    for all of them; orthonormality of the basis covers the identity.  The
    Paulis on a set S of k = min(delta - 1, N) parties span every operator
    on S, so the check runs on the blocks of one purified state
    Psi = sum_i |i>_a |psi_i>: for each k-subset S, Psi is reduced once onto
    the ancilla and S, and for each i <= j its block (j, i), which is
    |psi_j><psi_i| traced down to S, must be I / d^k when i == j and zero
    otherwise.  A basis whose states are all exact is decided exactly for
    every d; otherwise every state is taken in floats, and a block passes
    when its largest non-identity Pauli coefficient is at most PAULI_TOL;
    two states that are not both exact are orthogonal when |<psi_i|psi_j>|
    is.  The qecc_ops cap bounds the C(N, k) K (K + 1) / 2 blocks checked,
    the matrix_dim cap their dimension d^k.

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
    failures: list = []
    worst = 0.0
    for i, j in combinations(range(K), 2):
        ip = inner_product(basis[i], basis[j])
        dev = abs(ip.value)
        bad = not ip.is_zero() if ip.exact else dev > PAULI_TOL
        if bad:
            failures.append(("<i|j>", i, j, dev))
            worst = max(worst, dev)
    if failures:
        return QeccReport(N, d, K, delta, "fail", 0, failures, worst, False)

    ops = sum(math.comb(N, w) * (d * d - 1) ** w for w in range(1, delta))
    k = min(delta - 1, N)
    subsets = list(combinations(range(N), k)) if k else []
    n_pairs = K * (K + 1) // 2
    check_cap(
        "qecc_ops",
        len(subsets) * n_pairs,
        what=f"{len(subsets)} x {n_pairs} pair reductions onto {k} parties",
    )
    check_cap("matrix_dim", d**k, what=f"reduction onto {k} parties of dimension {d}")
    psi, width = _stack(basis)
    exact = psi.bound is not None
    for subset in subsets:
        block = _block_reduction(psi, width, basis, subset)
        for i in range(K):
            for j in range(i, K):
                rho = block(j, i)  # |psi_j><psi_i|
                if exact and (rho.is_maximally_mixed() if i == j else rho.is_zero()):
                    continue
                op, mag = _pauli_witness(rho, subset)
                if exact or mag > PAULI_TOL:
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
    names = []
    for s, img in enumerate(m.images):
        name = f"image_{s}.state"
        save_state(img, directory / name)
        names.append(name)
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
    for s, t in combinations(range(m.d), 2):
        if not inner_product(m.images[s], m.images[t]).is_zero(tol=FLOAT_TOL):
            raise KuniformError(f"{directory}: bundle images {s}, {t} not orthogonal")
    return m
