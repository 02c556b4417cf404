"""The two benchmark workloads: fixed op lists and their expected outputs.

Each op is one argv for `kuniform.cli.run`.  Its expected exit code and
report fields are derived here from the mathematics, not from the code
under test:

- `verify state` and `mask verify` check C(N, k) subsets;
- `qecc verify` covers sum over 1 <= w < delta of C(N, w) (d^2 - 1)^w
  Pauli errors;
- an extended Reed-Solomon [q+1, t]_q code has w = q - t + 2 and
  w_dual = t + 1, its array has q^t rows and strength t, and trimming it
  to n columns leaves minimum row distance n - t + 1;
- the existence grids are the published 4- and 5-uniform tables;
- exact passes report a deviation of exactly 0.0, and expected failures
  name at least one failing subset or image pair.

See bench/README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from inputs import STATES

WORKLOADS = ("verify_uniform", "construct_mask")

# sampled superpositions per `mask verify --samples` op
SAMPLES = 4
# tolerance verify_masker applies to sampled (float) deviations
SAMPLE_TOL = 1e-10

# (q, t, trim) for the MDS -> OA -> trimmed OA chain
MDS_CASES = ((8, 2, 6), (9, 3, 7), (16, 3, 12))

# local dimensions whose masker images get the float Pauli check of
# `qecc verify --delta 3`
QECC_DIMS = (2, 4)

# published existence grids (symbol per N) by k, keyed by local dimension
_GRID_K4 = {
    (2,): "×××?√√√√√",
    (3,): "×√√√√√√√√",
    (4, 12): "?√√√√√√√√",
    (6, 10): "????√√√√√",
    (5, 7, 8, 9, 11, 13, 16): "√√√√√√√√√",
    (14,): "????√√√√√",
}
_GRID_K5 = {
    (2,): "××????√?√",
    (3, 15): "√?√?√√√√√",
    (4, 12): "√?√?√?√√√",
    (5,): "√?√√√√√√√",
    (6, 10, 14): "??????√?√",
    (7, 8, 9, 11, 13, 16, 17): "√√√√√√√√√",
    (18,): "??????√?√",
}
GRIDS = {4: (range(8, 17), _GRID_K4), 5: (range(10, 19), _GRID_K5)}


@dataclass
class Op:
    """One CLI call and the report it must produce."""

    argv: list
    code: int = 0
    details: dict = field(default_factory=dict)
    # "pass": deviation exactly 0.0 and no failures; "fail": at least one
    # failure; "sampled": deviation within SAMPLE_TOL and no failures
    outcome: str | None = None
    grid: int | None = None  # k of a published grid the table must match

    def problems(self, code: int, report: dict | None) -> list[str]:
        """Every way the result differs from the expectation."""
        out = []
        if code != self.code:
            out.append(f"exit code {code}, expected {self.code}")
        if report is None:
            return out + ["no report"]
        verdict = "pass" if self.code == 0 else "fail"
        if report.get("verdict") != verdict:
            out.append(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
        details = report.get("details") or {}
        for key, want in self.details.items():
            if details.get(key) != want:
                out.append(f"{key} = {details.get(key)!r}, expected {want!r}")
        failures = details.get("failures")
        if self.outcome in ("pass", "sampled") and failures:
            out.append(f"{len(failures)} failures on an expected pass")
        if self.outcome == "pass" and details.get("max_deviation", 0.0) != 0.0:
            out.append(f"max_deviation {details['max_deviation']!r} is not exactly 0.0")
        if self.outcome == "sampled" and not details.get("max_deviation", 0.0) <= SAMPLE_TOL:
            out.append(f"max_deviation {details['max_deviation']!r} above {SAMPLE_TOL}")
        if self.outcome == "fail" and not failures:
            out.append("expected failure lists no failing case")
        if self.grid is not None:
            out.extend(_grid_problems(self.grid, details))
        return out


def _grid_problems(k: int, details: dict) -> list[str]:
    N_values, grid = GRIDS[k]
    want = {d: symbols for members, symbols in grid.items() for d in members}
    rows = details.get("rows") or []
    if [row.get("label") for row in rows] != [str(d) for d in sorted(want)]:
        return [f"k={k} grid rows {[row.get('label') for row in rows]}"]
    out = []
    for row in rows:
        d = int(row["label"])
        got = "".join(cell.get("symbol", "") for cell in row["cells"])
        if [cell.get("N") for cell in row["cells"]] != list(N_values):
            out.append(f"k={k} d={d}: wrong N columns")
        elif got != want[d]:
            out.append(f"k={k} d={d}: symbols {got}, published {want[d]}")
    return out


def _verify_state(path: Path, N: int, d: int, k: int, passes: bool) -> Op:
    return Op(
        ["verify", "state", str(path), "--k", str(k)],
        code=0 if passes else 1,
        details={"N": N, "d": d, "k": k, "subsets_checked": comb(N, k)},
        outcome="pass" if passes else "fail",
    )


def _qecc(files: list, N: int, d: int, delta: int) -> Op:
    ops = sum(comb(N, w) * (d * d - 1) ** w for w in range(1, delta))
    return Op(
        ["qecc", "verify", *map(str, files), "--delta", str(delta)],
        details={
            "N": N,
            "d": d,
            "K": len(files),
            "delta": delta,
            "ops_checked": ops,
            "orthonormal": True,
        },
        outcome="pass",
    )


def _mask_verify(bundle: Path, N: int, d: int, k: int, passes: bool, samples: int = 0, seed: int = 0) -> Op:
    argv = ["mask", "verify", str(bundle), "--k", str(k)]
    if samples:
        argv += ["--samples", str(samples), "--seed", str(seed)]
    return Op(
        argv,
        code=0 if passes else 1,
        details={
            "N": N,
            "d": d,
            "k": k,
            "subsets_checked": comb(N, k),
            "samples_checked": samples,
        },
        outcome=("sampled" if samples else "pass") if passes else "fail",
    )


def _mask_build(state: Path, bundle: Path, N: int, d: int, k: int) -> Op:
    return Op(
        ["mask", "build", "--state", str(state), "--split", "0", "--k", str(k), "-o", str(bundle)],
        details={"d": d, "N": N - 1, "k": k, "split_party": 0, "images": d},
    )


def _construct_kuniform(k: int, d: int, N: int, rows: int) -> Op:
    return Op(
        ["construct", "kuniform", "--k", str(k), "--d", str(d), "--N", str(N)],
        details={"k": k, "d": d, "N": N, "r": rows, "terms": rows, "verified": True},
    )


def _table(k: int) -> Op:
    N_values, grid = GRIDS[k]
    ds = sorted(d for members in grid for d in members)
    return Op(
        [
            "table",
            "--k",
            str(k),
            "--d",
            ",".join(map(str, ds)),
            "--N",
            f"{N_values[0]}..{N_values[-1]}",
            "--format",
            "json",
        ],
        grid=k,
    )


def build(workload: str, inputs: Path, out: Path, seed: int) -> tuple[Op, list[Op]]:
    """(warm-up op, measured ops) for a workload.

    `inputs` holds the seeded state files, `out` receives the files that
    ops write and later ops read back.
    """
    s = {name: inputs / f"{name}.state" for name in STATES}
    if workload == "verify_uniform":
        warm = _verify_state(s["u3_d2_n6"], 6, 2, 3, True)
        ops = [
            _verify_state(s["u4_d3_n11"], 11, 3, 4, True),
            _verify_state(s["u4_d3_n12"], 12, 3, 4, True),
            _verify_state(s["ph4_d3_n11"], 11, 3, 4, True),
            _verify_state(s["ph4_d3_n11"], 11, 3, 5, False),
            _verify_state(s["u2_d8_n10"], 10, 8, 2, True),
            _verify_state(s["u3_d2_n6"], 6, 2, 3, True),
        ]
        return warm, ops
    if workload == "construct_mask":
        warm = Op(
            ["construct", "mds", "--q", "4", "--t", "2"],
            details={"q": 4, "n": 5, "t": 2, "w": 4},
        )
        ops = []
        for q, t, trim in MDS_CASES:
            code = out / f"mds_q{q}_t{t}.code"
            array = out / f"oa_q{q}_t{t}_n{trim}.oa"
            ops.append(Op(
                ["construct", "mds", "--q", str(q), "--t", str(t), "-o", str(code)],
                details={"q": q, "n": q + 1, "t": t, "w": q - t + 2},
            ))
            ops.append(Op(
                ["verify", "code", str(code)],
                details={"q": q, "n": q + 1, "t": t, "w": q - t + 2, "w_dual": t + 1},
            ))
            ops.append(Op(
                ["construct", "oa", "--code", str(code), "--trim", str(trim), "-o", str(array)],
                details={"r": q**t, "N": trim, "d": q, "k": t},
            ))
            ops.append(Op(
                ["verify", "oa", str(array), "--k", str(t), "--irredundant"],
                details={
                    "r": q**t,
                    "N": trim,
                    "d": q,
                    "k": t,
                    "strength_ok": True,
                    "min_distance": trim - t + 1,
                    "irredundant": True,
                },
            ))
        ops.append(_construct_kuniform(2, 9, 10, 9**2))
        ops.append(_table(4))
        ops.append(_table(5))
        for d in (2, 4, 5):
            bundle = out / f"masker_d{d}"
            ops += [
                _mask_build(s[f"u3_d{d}_n6"], bundle, 6, d, 2),
                _mask_verify(bundle, 5, d, 2, True),
                _mask_verify(bundle, 5, d, 2, True, samples=SAMPLES, seed=seed),
                _mask_verify(bundle, 5, d, 3, False),
            ]
            if d in QECC_DIMS:
                ops.append(_qecc([bundle / f"image_{i}.state" for i in range(d)], 5, d, 3))
        ops.append(_qecc([s["u3_d2_n6"]], 6, 2, 4))
        return warm, ops
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
