"""Enumeration caps.

Every potentially exponential loop in the package is guarded by a named cap.
When a cap would be exceeded the operation raises CapExceeded instead of
degrading to an approximation.  Defaults suit a desk machine; raise them via
the KUF_CAPS environment variable, a comma-separated list of name=integer
pairs, e.g.::

    KUF_CAPS="codewords=33554432,oa_pairs=16384"
"""

from __future__ import annotations

import os

from .errors import CapExceeded, KuniformError

DEFAULTS = {
    "field_order": 1 << 16,   # largest p^m a field may have
    "codewords": 1 << 24,     # codeword enumeration (min distance, OA rows)
    "oa_rows": 1 << 20,       # rows of an orthogonal array
    "oa_pairs": 1 << 13,      # rows allowed in pairwise-distance scans
    "matrix_dim": 4096,       # reduced density operator dimension d^k
    "qecc_ops": 1 << 22,      # pair reductions computed by verify_pure_qecc
}


def _env_overrides() -> dict[str, int]:
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
        try:
            out[name] = int(value.strip())
        except ValueError:
            raise KuniformError(f"KUF_CAPS: bad integer in {item!r}") from None
    return out


def get_cap(name: str, override: int | None = None) -> int:
    """Resolve a cap: explicit override > KUF_CAPS > default."""
    if name not in DEFAULTS:
        raise KeyError(name)
    if override is not None:
        return int(override)
    return _env_overrides().get(name, DEFAULTS[name])


def check_cap(name: str, needed: int, override: int | None = None, what: str = "") -> None:
    """Raise CapExceeded if `needed` exceeds the resolved cap."""
    cap = get_cap(name, override)
    if needed > cap:
        label = what or name
        raise CapExceeded(
            f"{label} needs {needed} > cap {cap} ({name}); "
            f"raise via KUF_CAPS or an explicit cap argument"
        )
