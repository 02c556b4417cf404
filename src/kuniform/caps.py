"""Enumeration caps.

Every potentially exponential loop in the package is guarded by a named cap.
When a cap would be exceeded the operation raises CapExceeded instead of
degrading to an approximation.  Defaults suit a desk machine.  The only way
to change a cap is the KUF_CAPS environment variable, a comma-separated list
of name=integer pairs read on every check, e.g.::

    KUF_CAPS="codewords=33554432,oa_pairs=16384"

Each cap is checked where its memory is allocated:

- field_order: gf.field_new and gf.field_for_order, before p or q is
  factored and the log tables of GF(p^m) are built; codes._read_coset,
  which reads rows over GF(q) as a coset of an additive code over the
  base-p digits, hence the code stage of states._Purified.undecided,
  recognises no code over a larger q;
- codewords: codes.min_distance and codes.dual_distance, on the
  q^min(t, N-t) codewords of the side whose weights are enumerated;
  the code stage of states._Purified.undecided enumerates none, since
  codes._read_coset reads C's words and weight distribution off the rows
  and takes w(C-perp) from its MacWilliams transform;
- oa_rows: codes.codeword_matrix, hence oa.oa_from_code and every recipe
  of catalog.execute_recipe that builds an array from a code, and
  states.tensor_parties, on the T1 T2 terms of a product, the rows of the
  partywise product of the two index arrays;
- oa_pairs: oa.oa_min_distance, before the pairwise row scan;
- matrix_dim: the d^k-wide reductions of the kernel, each call of which
  reduces a block of subsets; checked once per call of the functions
  below, before their first kernel call: by states.reduction, by
  states._Purified.undecided, which hands the subsets of
  verify_k_uniform, masking.verify_masker and masking.verify_pure_qecc to
  the kernel in blocks, as soon as its code and counting stages (which
  allocate at most a few integers per term) leave a first subset, before
  that subset's block is complete, and at once when counting applies to
  no subset, and by verify_masker before the
  first sampled superposition; and the dense PureState.to_vector and
  SparseOperator.to_matrix, a public export that no verifier calls
  (verify_pure_qecc's Pauli witness builds a dense block under the
  matrix_dim already checked).  It bounds d^k, the ancilla of a masker's or
  a code's purified family excluded: each block of a reduction can hold
  d^(2k) entries, and the kernel allocates those entries even though it
  never builds a dense matrix.  A subset decided without the kernel
  allocates no block, and the I / d^k a masker report then holds has at
  most as many entries as an image has terms;
- qecc_ops: masking.verify_pure_qecc, on its C(N, k) K (K + 1) / 2 blocks,
  before the first subset that undecided leaves for the kernel, so a
  basis decided on Psi alone builds no block and is never refused.
"""

from __future__ import annotations

import os

from .errors import CapExceeded, KuniformError

DEFAULTS = {
    "field_order": 1 << 16,   # largest p^m a field may have
    "codewords": 1 << 24,     # codewords enumerated for distances: q^min(t, N-t)
    "oa_rows": 1 << 20,       # rows of an orthogonal array, or terms of a tensor product
    "oa_pairs": 1 << 13,      # rows allowed in pairwise-distance scans
    "matrix_dim": 4096,       # reduced density operator dimension d^k
    "qecc_ops": 1 << 22,      # pair reductions computed by verify_pure_qecc
}


def _env_caps() -> dict[str, int]:
    """The caps KUF_CAPS sets; unknown, repeated or non-positive entries
    raise KuniformError."""
    raw = os.environ.get("KUF_CAPS", "").strip()
    if not raw:
        return {}
    out: dict[str, int] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in DEFAULTS:
            raise KuniformError(f"KUF_CAPS: unknown entry {item!r}")
        if name in out:
            raise KuniformError(f"KUF_CAPS: {name} is set more than once")
        try:
            out[name] = int(value.strip())
        except ValueError:
            raise KuniformError(f"KUF_CAPS: bad integer in {item!r}") from None
        if out[name] < 1:
            raise KuniformError(f"KUF_CAPS: {name} must be positive, got {out[name]}")
    return out


def get_cap(name: str) -> int:
    """Resolve a cap: KUF_CAPS if it sets the name, else the default."""
    return _env_caps().get(name, DEFAULTS[name])


def check_cap(name: str, needed: int, what: str = "") -> None:
    """Raise CapExceeded if `needed` exceeds the resolved cap; the message
    says whether the cap is the default or set in KUF_CAPS."""
    env = _env_caps()
    cap = env.get(name, DEFAULTS[name])
    if needed > cap:
        source = "set in KUF_CAPS" if name in env else "default"
        raise CapExceeded(
            f"{what or name} needs {needed} > cap {cap} ({name}, {source}); "
            f"raise it via KUF_CAPS={name}=<n>"
        )
