"""The versioned table of cited existence facts, data/facts.json.

Every CLI report names the table's version, so reading it loads only
this module and `errors`; `catalog` matches queries against the facts.
"""

from __future__ import annotations

import functools
import importlib.resources
import json

from .errors import CatalogError


@functools.lru_cache(maxsize=1)
def fact_table() -> tuple[str, tuple[dict, ...]]:
    """The table's (version, facts); CatalogError when it is corrupt."""
    path = importlib.resources.files("kuniform.data") / "facts.json"
    try:
        data = json.loads(path.read_text())
        version = data["version"]
        facts = tuple(data["facts"])
        for entry in facts:
            if entry["status"] not in ("Exists", "NotExists"):
                raise ValueError(f"bad status {entry['status']!r}")
            if not isinstance(entry["k"], int):
                raise ValueError("fact k must be an integer")
            if not isinstance(entry["citation"], str):
                raise ValueError("fact citation must be a string")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CatalogError(f"fact table is corrupt: {exc}") from exc
    return version, facts


def fact_table_version() -> str:
    return fact_table()[0]
