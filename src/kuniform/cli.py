"""Command-line front end.

Subcommands: construct, verify, compose, mask, qecc, table.  Every run
prints a deterministic JSON report (stable key order, no timestamps) or,
for `table --format text`, the grid itself.  Exit codes: 0 success,
1 verified failure or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__, catalog, masking, oa, states
from .codes import (
    direct_sum,
    dual_distance,
    is_self_dual,
    load_code,
    min_distance,
    mds_code,
    save_code,
)
from .errors import KuniformError
from .gf import field_for_order


def _digest(path: str | Path) -> str:
    path = Path(path)
    if path.is_dir():
        h = hashlib.sha256()
        for sub in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(sub.relative_to(path).as_posix().encode())
            h.update(b"\0")
            h.update(hashlib.sha256(sub.read_bytes()).digest())
        return "sha256:" + h.hexdigest()
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _int_spec(text: str) -> list[int]:
    """Parse "4", "2,3,5", or "8..11" into a sorted list of integers."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        values = sorted({int(part) for part in text.split(",")})
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer range spec: {text!r}")


# -- handlers ----------------------------------------------------------------
# each returns (ok, inputs, details, text)


def _cmd_construct_kuniform(args):
    verdict = catalog.exists_k_uniform(args.k, args.d, args.N)
    state = catalog.construct_k_uniform(args.k, args.d, args.N)
    details = {
        "k": args.k,
        "d": args.d,
        "N": args.N,
        "r": state.r,
        "terms": state.num_terms,
        "recipe": verdict.witness,
        "verified": True,
    }
    if args.output:
        states.save_state(state, args.output)
        details["output"] = args.output
    return True, {}, details, None


def _cmd_construct_ghz(args):
    state = states.ghz(args.N, args.d)
    details = {"N": args.N, "d": args.d, "r": state.r, "terms": state.num_terms}
    if args.output:
        states.save_state(state, args.output)
        details["output"] = args.output
    return True, {}, details, None


def _cmd_construct_mds(args):
    C = mds_code(field_for_order(args.q), args.t)
    details = {
        "q": args.q,
        "n": C.N,
        "t": C.t,
        "w": min_distance(C),
    }
    if args.output:
        save_code(C, args.output)
        details["output"] = args.output
    return True, {}, details, None


def _cmd_construct_oa(args):
    C = load_code(args.code)
    A = oa.oa_from_code(C)
    if args.trim is not None:
        A = oa.trim_to_iroa(A, A.k, args.trim)
    details = {"r": A.r, "N": A.N, "d": A.d, "k": A.k, "index": A.index}
    if args.output:
        oa.save_oa(A, args.output)
        details["output"] = args.output
    return True, {_posix(args.code): _digest(args.code)}, details, None


def _cmd_verify_state(args):
    state = states.load_state(args.file)
    report = states.verify_k_uniform(state, args.k, tol=args.tol)
    details = {
        "N": state.N,
        "d": state.d,
        "k": args.k,
        "verdict": report.verdict,
        "subsets_checked": report.subsets_checked,
        "max_deviation": report.max_deviation,
        "failures": [
            {"subset": list(subset), "reason": reason}
            for subset, reason in report.failures
        ],
    }
    return bool(report), {_posix(args.file): _digest(args.file)}, details, None


def _cmd_verify_oa(args):
    A = oa.load_oa(args.file)
    strength_ok = oa.verify_strength(A, args.k)
    dist = oa.oa_min_distance(A)
    details = {
        "r": A.r,
        "N": A.N,
        "d": A.d,
        "k": args.k,
        "strength_ok": strength_ok,
        "min_distance": None if dist == float("inf") else dist,
    }
    ok = strength_ok
    if args.irredundant:
        irr = strength_ok and dist > args.k
        details["irredundant"] = irr
        ok = ok and irr
    return ok, {_posix(args.file): _digest(args.file)}, details, None


def _cmd_verify_code(args):
    C = load_code(args.file)
    w = min_distance(C)
    w_dual = dual_distance(C)
    details = {
        "q": C.q,
        "n": C.N,
        "t": C.t,
        "w": None if w == float("inf") else w,
        "w_dual": None if w_dual == float("inf") else w_dual,
        "self_dual": is_self_dual(C),
    }
    return True, {_posix(args.file): _digest(args.file)}, details, None


def _cmd_compose_tensor(args):
    first = states.load_state(args.first)
    second = states.load_state(args.second)
    state = states.tensor_parties(first, second)
    details = {"N": state.N, "d": state.d, "r": state.r, "terms": state.num_terms}
    if args.output:
        states.save_state(state, args.output)
        details["output"] = args.output
    inputs = {
        _posix(args.first): _digest(args.first),
        _posix(args.second): _digest(args.second),
    }
    return True, inputs, details, None


def _cmd_compose_direct_sum(args):
    C = direct_sum(load_code(args.first), load_code(args.second))
    details = {"q": C.q, "n": C.N, "t": C.t}
    if args.output:
        save_code(C, args.output)
        details["output"] = args.output
    inputs = {
        _posix(args.first): _digest(args.first),
        _posix(args.second): _digest(args.second),
    }
    return True, inputs, details, None


def _cmd_mask_build(args):
    state = states.load_state(args.state)
    masker = masking.build_masker(state, args.split, args.k)
    masking.save_masker(masker, args.output)
    details = {
        "d": masker.d,
        "N": masker.N,
        "k": args.k,
        "split_party": args.split,
        "images": len(masker.images),
        "output": args.output,
    }
    return True, {_posix(args.state): _digest(args.state)}, details, None


def _cmd_mask_verify(args):
    masker = masking.load_masker(args.dir)
    report = masking.verify_masker(masker, args.k, samples=args.samples, seed=args.seed)
    details = {
        "d": masker.d,
        "N": masker.N,
        "k": args.k,
        "verdict": report.verdict,
        "subsets_checked": report.subsets_checked,
        "samples_checked": report.samples_checked,
        "max_deviation": report.max_deviation,
        "failures": [
            {"subset": list(subset), "images": [s, t], "reason": str(reason)}
            for subset, s, t, reason in report.failures
        ],
    }
    return bool(report), {_posix(args.dir): _digest(args.dir)}, details, None


def _cmd_qecc_verify(args):
    basis = [states.load_state(path) for path in args.files]
    report = masking.verify_pure_qecc(basis, args.delta)
    details = {
        "N": report.N,
        "d": report.d,
        "K": report.K,
        "delta": report.delta,
        "verdict": report.verdict,
        "ops_checked": report.ops_checked,
        "orthonormal": report.orthonormal,
        "worst": report.worst,
        "failures": report.failures[:32],
        "singleton_ok": masking.singleton_check(report.N, report.K, args.delta - 1, report.d),
    }
    inputs = {_posix(path): _digest(path) for path in args.files}
    return bool(report), inputs, details, None


def _cmd_table(args):
    grid = catalog.emit_table(args.k, args.d, args.N)
    text = grid.to_text() if args.format == "text" else None
    return True, {}, grid.to_json(), text


def _posix(path: str) -> str:
    return Path(path).as_posix()


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuniform",
        description="construct and verify k-uniform states, maskers, "
        "and pure quantum codes built from linear codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build artifacts")
    csub = construct.add_subparsers(dest="what", required=True)
    c_k = csub.add_parser("kuniform")
    c_k.add_argument("--k", type=_positive, required=True)
    c_k.add_argument("--d", type=_positive, required=True)
    c_k.add_argument("--N", type=_positive, required=True)
    c_k.add_argument("-o", "--output")
    c_k.set_defaults(handler=_cmd_construct_kuniform)
    c_g = csub.add_parser("ghz")
    c_g.add_argument("--N", type=_positive, required=True)
    c_g.add_argument("--d", type=_positive, required=True)
    c_g.add_argument("-o", "--output")
    c_g.set_defaults(handler=_cmd_construct_ghz)
    c_m = csub.add_parser("mds")
    c_m.add_argument("--q", type=_positive, required=True)
    c_m.add_argument("--t", type=_positive, required=True)
    c_m.add_argument("-o", "--output")
    c_m.set_defaults(handler=_cmd_construct_mds)
    c_o = csub.add_parser("oa")
    c_o.add_argument("--code", required=True)
    c_o.add_argument("--trim", type=_positive)
    c_o.add_argument("-o", "--output")
    c_o.set_defaults(handler=_cmd_construct_oa)

    verify = sub.add_parser("verify", help="check artifacts")
    vsub = verify.add_subparsers(dest="what", required=True)
    v_s = vsub.add_parser("state")
    v_s.add_argument("file")
    v_s.add_argument("--k", type=_nonnegative, required=True)
    v_s.add_argument("--tol", type=_tolerance, default=states.FLOAT_TOL, help="deviation allowed to float states")
    v_s.set_defaults(handler=_cmd_verify_state)
    v_o = vsub.add_parser("oa")
    v_o.add_argument("file")
    v_o.add_argument("--k", type=_nonnegative, required=True)
    v_o.add_argument("--irredundant", action="store_true")
    v_o.set_defaults(handler=_cmd_verify_oa)
    v_c = vsub.add_parser("code")
    v_c.add_argument("file")
    v_c.set_defaults(handler=_cmd_verify_code)

    compose = sub.add_parser("compose", help="combine artifacts")
    psub = compose.add_subparsers(dest="what", required=True)
    p_t = psub.add_parser("tensor")
    p_t.add_argument("first")
    p_t.add_argument("second")
    p_t.add_argument("-o", "--output")
    p_t.set_defaults(handler=_cmd_compose_tensor)
    p_d = psub.add_parser("direct-sum")
    p_d.add_argument("first")
    p_d.add_argument("second")
    p_d.add_argument("-o", "--output")
    p_d.set_defaults(handler=_cmd_compose_direct_sum)

    mask = sub.add_parser("mask", help="build and check maskers")
    msub = mask.add_subparsers(dest="what", required=True)
    m_b = msub.add_parser("build")
    m_b.add_argument("--state", required=True)
    m_b.add_argument("--split", type=_nonnegative, required=True)
    m_b.add_argument("--k", type=_nonnegative, required=True)
    m_b.add_argument("-o", "--output", required=True)
    m_b.set_defaults(handler=_cmd_mask_build)
    m_v = msub.add_parser("verify")
    m_v.add_argument("dir")
    m_v.add_argument("--k", type=_nonnegative, required=True)
    m_v.add_argument("--samples", type=_nonnegative, default=0)
    m_v.add_argument("--seed", type=int, default=0, help="RNG seed for --samples")
    m_v.set_defaults(handler=_cmd_mask_verify)

    qecc = sub.add_parser("qecc", help="check pure quantum codes")
    qsub = qecc.add_subparsers(dest="what", required=True)
    q_v = qsub.add_parser("verify")
    q_v.add_argument("files", nargs="+")
    q_v.add_argument("--delta", type=_positive, required=True)
    q_v.set_defaults(handler=_cmd_qecc_verify)

    table = sub.add_parser("table", help="existence grids")
    table.add_argument("--k", type=_positive, required=True)
    table.add_argument("--d", type=_int_spec, required=True)
    table.add_argument("--N", type=_int_spec, required=True)
    table.add_argument("--format", choices=("text", "json"), default="text")
    table.set_defaults(handler=_cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing changes no parser state, and every
    default is immutable."""
    return build_parser()


def run(argv: list[str]) -> tuple[int, dict | None]:
    """Parse and execute argv; return (exit code, report dict)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    try:
        ok, inputs, details, text = args.handler(args)
    except (KuniformError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    report = {
        "command": list(argv),
        "details": details,
        "inputs": inputs,
        "verdict": "pass" if ok else "fail",
        "versions": {
            "fact_table": catalog.fact_table_version(),
            "tool": __version__,
        },
    }
    if text is not None:
        print(text)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return (0 if ok else 1), report


def main(argv: list[str] | None = None) -> int:
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code
