"""Existence catalog for k-uniform states.

Answers "does a k-uniform state of N parties with local dimension d
exist?" by combining three layers:

1. constructive recipes this package can execute (GHZ, MDS-code arrays
   and their trims, direct sums of trimmed MDS arrays, bundled codes
   and states, tensor products of smaller constructions),
2. a versioned table of cited facts from the literature (facts.json),
3. tensor closure: certificates for d1 and d2 combine to one for d1*d2.

Verdicts never contradict the fact table; check_consistency audits
that over explicit ranges.  emit_table renders existence grids and
enforces that every listed representative of a grouped row agrees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import facts
from .errors import CatalogError, ConstructionUnavailable, KuniformError
from .facts import fact_table_version
from .gf import field_for_order, is_prime, is_prime_power

if TYPE_CHECKING:
    from .states import PureState

SCHMIDT_CITATION = (
    "bipartite Schmidt bound: no pure state is k-uniform for k > floor(N/2)"
)

# Bundled generator matrices usable as trim sources: name -> (d, code
# length, minimum distance, dual distance).  Both are self-dual with
# distance 6, so they carry strength 5 and support k up to 5.
_BUNDLED_CODES = {
    "golay12_3": (3, 12, 6, 6),
    "sd12_gf4": (4, 12, 6, 6),
}


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of an existence query.

    status is one of "Exists(constructive)", "Exists(cited)",
    "NotExists(cited)", "Unknown".  Constructive verdicts carry a
    witness recipe executable by execute_recipe; cited ones carry the
    citation string.
    """

    status: str
    witness: dict | None = None
    citation: str | None = None

    @property
    def exists(self) -> bool | None:
        if self.status.startswith("Exists"):
            return True
        if self.status.startswith("NotExists"):
            return False
        return None


# -- fact table -------------------------------------------------------------


def _matches(matcher: dict, value: int) -> bool:
    if "min" in matcher and value < matcher["min"]:
        return False
    if "max" in matcher and value > matcher["max"]:
        return False
    if "values" in matcher and value not in matcher["values"]:
        return False
    if "exclude" in matcher and value in matcher["exclude"]:
        return False
    if matcher.get("prime") and not is_prime(value):
        return False
    if matcher.get("prime_power") and is_prime_power(value) is None:
        return False
    return True


def facts_for(k: int, d: int, N: int) -> list[tuple[str, str]]:
    """All (status, citation) pairs whose matchers cover (k, d, N)."""
    found = []
    for entry in facts.fact_table()[1]:
        if entry["k"] == k and _matches(entry["d"], d) and _matches(entry["N"], N):
            found.append((entry["status"], entry["citation"]))
    return found


# -- constructive recipes ---------------------------------------------------


def _direct_sum_parts(k: int, N: int) -> list[int]:
    """Split N into parts within [2k, 4k-1], largest first."""
    parts = []
    remaining = N
    while remaining > 4 * k - 1:
        step = 4 * k - 1
        if remaining - step < 2 * k:
            step = remaining - 2 * k
        parts.append(step)
        remaining -= step
    parts.append(remaining)
    return parts


@functools.lru_cache(maxsize=None)
def _constructive_recipe(k: int, d: int, N: int) -> dict | None:
    if k < 1 or d < 2 or N < 2 or k > N // 2:
        return None
    if k == 1:
        return {"rule": "ghz", "d": d, "N": N}
    pp = is_prime_power(d) is not None
    if pp and d >= 2 * k - 1 and N <= d + 1:
        return {"rule": "mds_trim", "k": k, "d": d, "N": N}
    if pp and d >= 4 * k - 2:
        return {
            "rule": "mds_direct_sum",
            "k": k,
            "d": d,
            "parts": _direct_sum_parts(k, N),
        }
    for name, (code_d, length, dist, dual_dist) in _BUNDLED_CODES.items():
        if d != code_d or k > min(dist - 1, dual_dist - 1):
            continue
        lo = max(2 * k, length - dist + k + 1)
        if lo <= N <= length:
            return {"rule": "bundled_code_trim", "name": name, "k": k, "N": N}
    if (k, d, N) == (3, 2, 6):
        return {"rule": "bundled_state", "name": "ame_6_2"}
    for d1 in range(2, d):
        if d1 * d1 > d:
            break
        if d % d1:
            continue
        first = _constructive_recipe(k, d1, N)
        second = _constructive_recipe(k, d // d1, N)
        if first is not None and second is not None:
            return {"rule": "tensor", "parts": [first, second]}
    return None


def _nearest_rule(k: int, d: int, N: int) -> str:
    if k > N // 2:
        return SCHMIDT_CITATION
    pp = is_prime_power(d) is not None
    if not pp:
        return (
            "the tensor rule needs some factorization d = d1*d2 where both "
            "factors admit a construction; none does here"
        )
    if N <= d + 1:
        return (
            f"the MDS trim rule needs a prime power d >= 2k-1 = {2 * k - 1} "
            f"(have d = {d})"
        )
    return (
        f"the direct-sum rule needs a prime power d >= 4k-2 = {4 * k - 2} "
        f"(have d = {d})"
    )


def execute_recipe(recipe: dict) -> PureState:
    """Build the state a recipe describes.  Raises on malformed input."""
    from .codes import direct_sum, load_bundled_code, mds_code
    from .oa import oa_from_code, trim_to_iroa
    from .states import ghz, load_bundled_state, state_from_iroa, tensor_parties

    rule = recipe.get("rule")
    if rule == "ghz":
        return ghz(recipe["N"], recipe["d"])
    if rule == "mds_trim":
        k, d = recipe["k"], recipe["d"]
        A = oa_from_code(mds_code(field_for_order(d), k))
        return state_from_iroa(trim_to_iroa(A, k, recipe["N"]), k)
    if rule == "mds_direct_sum":
        k, d = recipe["k"], recipe["d"]
        base = oa_from_code(mds_code(field_for_order(d), k))
        code = None
        for n in recipe["parts"]:
            part = trim_to_iroa(base, k, n).source_code
            code = part if code is None else direct_sum(code, part)
        return state_from_iroa(oa_from_code(code), k)
    if rule == "bundled_code_trim":
        k = recipe["k"]
        A = oa_from_code(load_bundled_code(recipe["name"]))
        return state_from_iroa(trim_to_iroa(A, k, recipe["N"]), k)
    if rule == "bundled_state":
        return load_bundled_state(recipe["name"])
    if rule == "tensor":
        parts = recipe["parts"]
        state = execute_recipe(parts[0])
        for sub in parts[1:]:
            state = tensor_parties(state, execute_recipe(sub))
        return state
    raise CatalogError(f"unknown recipe rule {rule!r}")


def construct_k_uniform(
    k: int,
    d: int,
    N: int,
    verify: bool = True,
) -> PureState:
    """Build a k-uniform state of N parties with local dimension d.

    Raises ConstructionUnavailable when no implemented rule covers the
    parameters, naming the nearest rule and what it would need.
    """
    if k < 1 or d < 2 or N < 2:
        raise ValueError(f"need k >= 1, d >= 2, N >= 2, got ({k}, {d}, {N})")
    recipe = _constructive_recipe(k, d, N)
    if recipe is None:
        raise ConstructionUnavailable(
            f"no implemented rule builds a {k}-uniform state for d={d}, "
            f"N={N}: {_nearest_rule(k, d, N)}"
        )
    state = execute_recipe(recipe)
    if verify:
        from .states import verify_k_uniform

        report = verify_k_uniform(state, k)
        if not report:
            raise KuniformError(
                f"internal error: recipe {recipe} produced a state that is "
                f"not {k}-uniform ({report.verdict})"
            )
    return state


# -- existence queries ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tensor_closure(k: int, d: int, N: int) -> tuple[int, int] | None:
    """A factor pair (d1, d2) of d with existence certificates on both
    sides, or None."""
    for d1 in range(2, d):
        if d1 * d1 > d:
            break
        if d % d1:
            continue
        if (
            exists_k_uniform(k, d1, N).exists
            and exists_k_uniform(k, d // d1, N).exists
        ):
            return d1, d // d1
    return None


@functools.lru_cache(maxsize=None)
def exists_k_uniform(k: int, d: int, N: int) -> ExistenceVerdict:
    """Best known existence verdict for a k-uniform state of N qudits."""
    if k < 1 or d < 2 or N < 2:
        raise ValueError(f"need k >= 1, d >= 2, N >= 2, got ({k}, {d}, {N})")
    if k > N // 2:
        return ExistenceVerdict("NotExists(cited)", citation=SCHMIDT_CITATION)
    recipe = _constructive_recipe(k, d, N)
    if recipe is not None:
        return ExistenceVerdict("Exists(constructive)", witness=recipe)
    found = facts_for(k, d, N)
    statuses = {status for status, _ in found}
    if len(statuses) > 1:
        raise CatalogError(
            f"fact table contradicts itself at (k={k}, d={d}, N={N}): {found}"
        )
    if found:
        status, citation = found[0]
        return ExistenceVerdict(f"{status}(cited)", citation=citation)
    pair = _tensor_closure(k, d, N)
    if pair is not None:
        return ExistenceVerdict(
            "Exists(cited)",
            citation=(
                f"tensor product of existence certificates for local "
                f"dimensions {pair[0]} and {pair[1]}"
            ),
        )
    return ExistenceVerdict("Unknown")


def check_consistency(
    k_values: range | list,
    d_values: range | list,
    N_values: range | list,
) -> int:
    """Audit the catalog layers against each other over explicit ranges.

    Raises CatalogError on any contradiction; returns the number of
    triples examined.
    """
    examined = 0
    for k in k_values:
        for d in d_values:
            for N in N_values:
                if k < 1 or d < 2 or N < 2:
                    continue
                examined += 1
                found = facts_for(k, d, N)
                statuses = {status for status, _ in found}
                where = f"(k={k}, d={d}, N={N})"
                if len(statuses) > 1:
                    raise CatalogError(f"facts conflict at {where}: {found}")
                if "Exists" in statuses and k > N // 2:
                    raise CatalogError(
                        f"fact claims existence past the Schmidt bound at {where}"
                    )
                if "NotExists" in statuses:
                    if _constructive_recipe(k, d, N) is not None:
                        raise CatalogError(
                            f"constructive rule contradicts a nonexistence "
                            f"fact at {where}"
                        )
                    if _tensor_closure(k, d, N) is not None:
                        raise CatalogError(
                            f"tensor closure contradicts a nonexistence "
                            f"fact at {where}"
                        )
    return examined


# -- table rendering --------------------------------------------------------

_SYMBOLS = {True: "√", False: "×", None: "?"}


@dataclass(frozen=True)
class TableCell:
    d: int
    N: int
    symbol: str
    status: str
    citation: str | None = None
    recipe: dict | None = None


@dataclass(frozen=True)
class TableRow:
    label: str
    members: tuple[int, ...]
    cells: tuple[TableCell, ...]


@dataclass(frozen=True)
class TableGrid:
    k: int
    N_values: tuple[int, ...]
    rows: tuple[TableRow, ...]
    fact_table: str = field(default_factory=fact_table_version)

    def to_text(self) -> str:
        header = ["d \\ N"] + [str(n) for n in self.N_values]
        lines = [header] + [
            [row.label] + [cell.symbol for cell in row.cells] for row in self.rows
        ]
        widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
        return "\n".join(
            "  ".join(part.ljust(width) for part, width in zip(line, widths)).rstrip()
            for line in lines
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "N_values": list(self.N_values),
            "fact_table": self.fact_table,
            "rows": [
                {
                    "label": row.label,
                    "members": list(row.members),
                    "cells": [
                        {
                            "d": cell.d,
                            "N": cell.N,
                            "symbol": cell.symbol,
                            "status": cell.status,
                            **({"citation": cell.citation} if cell.citation else {}),
                            **({"recipe": cell.recipe} if cell.recipe else {}),
                        }
                        for cell in row.cells
                    ],
                }
                for row in self.rows
            ],
        }


def emit_table(k: int, rows, N_values) -> TableGrid:
    """Existence grid for one k over rows of local dimensions.

    Each row is either a single integer d or a (label, members) pair
    whose members share one printed row; members must agree symbol for
    symbol across the whole row or CatalogError is raised.
    """
    N_values = tuple(N_values)
    if k < 1 or not N_values:
        raise CatalogError("need k >= 1 and at least one N column")
    out = []
    for row in rows:
        if isinstance(row, int):
            label, members = str(row), (row,)
        else:
            label, members = row[0], tuple(row[1])
        if not members or any(d < 2 for d in members):
            raise CatalogError(f"row {label!r} needs members with d >= 2")
        cells = []
        for N in N_values:
            verdicts = [(d, exists_k_uniform(k, d, N)) for d in members]
            symbols = {_SYMBOLS[v.exists] for _, v in verdicts}
            if len(symbols) > 1:
                detail = ", ".join(f"d={d}: {v.status}" for d, v in verdicts)
                raise CatalogError(
                    f"members of row {label!r} disagree at N={N}: {detail}"
                )
            d0, v0 = verdicts[0]
            cells.append(
                TableCell(
                    d=d0,
                    N=N,
                    symbol=symbols.pop(),
                    status=v0.status,
                    citation=v0.citation,
                    recipe=v0.witness,
                )
            )
        out.append(TableRow(label=label, members=members, cells=tuple(cells)))
    return TableGrid(k=k, N_values=N_values, rows=tuple(out))


def standard_rows(k: int) -> list:
    """Row groupings that reproduce the published 4- and 5-uniform
    existence grids, with explicit representatives for the aggregate
    rows."""
    if k == 4:
        return [
            2,
            3,
            ("4,12", [4, 12]),
            ("6,10", [6, 10]),
            ("prime power d>=5", [5, 7, 8, 9, 11, 13, 16]),
            ("non prime power d>=14", [14]),
        ]
    if k == 5:
        return [
            2,
            ("3,15", [3, 15]),
            ("4,12", [4, 12]),
            5,
            ("6,10,14", [6, 10, 14]),
            ("prime power d>=7", [7, 8, 9, 11, 13, 16, 17]),
            ("non prime power d>=18", [18]),
        ]
    raise CatalogError(f"no standard row grouping for k={k}")
