"""Benchmark of the exact kuniform pipeline, end to end and per layer.

    python bench/run.py --workload verify_uniform --seed 1 --seconds 45 --trace 0
    python bench/run.py --workload all --seed 1 --seconds 45 --trace 0

It drives `kuniform.cli.run(argv)` in-process as a closed loop: one
client, one op at a time, default `--threads 1`.  The package is imported
from `src/` of the checkout this file sits in.  Inputs are made from the
seed by bench/inputs.py once per seed and cached under `.bench_work/`,
outside every timed region.  Every op's report is checked against
expectations derived in bench/workloads.py, and each op's stdout must be
byte-identical across the passes of a run.

--trace 0 times passes over the workload's op list: two, then more while
the next pass is expected to end within --seconds of the first one's
start.  A fresh-interpreter set-up probe runs before each pass.  Op times
are scaled to a nominal host speed by a fixed pure-Python reference loop
timed between the ops (bench/README.md says why), and the run reports the
end-to-end metrics.
--trace 1 ignores --seconds: it runs one traced and one untraced pass,
each op traced first and then untraced, and reports the per-layer metrics
and the tracing overhead (traced minus untraced pass time).  The spans go to
`.bench_work/trace/<workload>-seed<n>.json`.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it are a readable summary, including the raw
(unscaled) times and the reference loop timed before and after the run,
which shows how fast the host ran at the time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# fresh-interpreter set-up probes per run at least: one before each pass,
# the rest after the last one
SETUP_PROBES = 9
# two passes at least, so that every run compares each op's stdout across passes
MIN_PASSES = 2
# The reference loop: a fixed pure-Python mix of integer additions and
# tuple-keyed dict updates, the kind of work `cross_reduction` does.  It
# runs between the ops, and each op's time is scaled by the loop's time
# around it; see bench/README.md, "Host-speed normalization".
REF_ADDS = 100_000
REF_DICT_UPDATES = 20_000
# the loop's time at the nominal host speed that *_norm_s metrics assume
REF_NOMINAL_S = 0.0125
# a pass times the reference loop again once the ops since the last
# timing took this long
REF_EVERY_S = 0.25
# reference loops timed before and after a run, for the summary
REF_SUMMARY_LOOPS = 20
CHILD_TIMEOUT_S = 170


def ref_loop() -> float:
    """Seconds for one run of the reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ADDS):
        acc += i
    table = {}
    for i in range(REF_DICT_UPDATES):
        key = (i % 997, i % 13, i & 7)
        cur = table.get(key)
        table[key] = (i, 1) if cur is None else (cur[0] + i, cur[1] + 1)
    return time.perf_counter() - start


def ensure_inputs(seed: int) -> Path:
    """The seed's input directory, generated in a child process if absent."""
    out = WORK / "inputs" / f"seed-{seed}"
    if not inputs.is_complete(out):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed), "--out", str(out)],
            check=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    return out


def probe_setup(warm: workloads.Op, count: int) -> tuple[list[float], int]:
    """Set-up times of `count` fresh interpreters, and how many failed."""
    times, failed = [], 0
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(warm.code), json.dumps(warm.argv)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe crashed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        failed += not result["ok"]
    return times, failed


def import_cli():
    sys.path.insert(0, str(SRC))
    import kuniform.cli

    where = Path(kuniform.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"kuniform imported from {where}, not from {SRC}")
    return kuniform.cli


def run_op(cli, op: workloads.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, report, raised = None, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, report = cli.run(op.argv)
    except Exception as exc:  # an op that raises counts as failed
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"s": seconds, "code": code, "report": report, "stdout": out.getvalue(), "stderr": err.getvalue(), "raised": raised}


def host_ref() -> float:
    """Seconds for the reference loop, after one untimed run of it: the
    first run after an op is slowed by what the op left in the caches."""
    ref_loop()
    return ref_loop()


def run_pass(cli, ops: list) -> list:
    """Each op's result, with `ref_s`: the mean of the reference loops
    timed just before and just after the chunk of ops it belongs to.  A
    chunk closes once its ops took REF_EVERY_S."""
    results, chunk = [], []
    ref = host_ref()
    for i, op in enumerate(ops):
        chunk.append(run_op(cli, op))
        if sum(r["s"] for r in chunk) >= REF_EVERY_S or i == len(ops) - 1:
            next_ref = host_ref()
            for r in chunk:
                r["ref_s"] = (ref + next_ref) / 2
            results += chunk
            ref, chunk = next_ref, []
    return results


def op_problems(op: workloads.Op, result: dict, first: dict | None) -> list[str]:
    if result["raised"]:
        return [f"raised {result['raised']}"]
    problems = op.problems(result["code"], result["report"])
    if first is not None and result["stdout"] != first["stdout"]:
        problems.append("stdout differs from the first pass")
    return problems


def check(ops: list, passes: list) -> tuple[int, int]:
    """(attempted, failed) over all passes; prints each mismatch to stderr."""
    attempted = failed = 0
    for p, results in enumerate(passes):
        for i, (op, result) in enumerate(zip(ops, results)):
            problems = op_problems(op, result, passes[0][i] if p else None)
            attempted += 1
            if problems:
                failed += 1
                detail = "; ".join(problems)
                print(f"FAILED pass {p} op {i} {' '.join(op.argv)}: {detail} {result['stderr'].strip()}", file=sys.stderr)
    return attempted, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, warm, ops) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of untimed set-up probes plus timed passes.

    One fresh-interpreter set-up probe runs before each pass, so that the
    probes are spread over the whole run.  Each op's time is scaled to the
    nominal host speed by the reference loops around it.  `wall_norm_s`
    adds up each op's median scaled time over the passes, and
    `op_gmean_norm_s` is the geometric mean of those medians.
    """
    cli = import_cli()
    warm_failed = bool(op_problems(warm, run_op(cli, warm), None))
    setup_times, probe_failed, passes = [], 0, []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        times, bad = probe_setup(warm, 1)
        setup_times += times
        probe_failed += bad
        passes.append(run_pass(cli, ops))
    if len(setup_times) < SETUP_PROBES:
        times, bad = probe_setup(warm, SETUP_PROBES - len(setup_times))
        setup_times += times
        probe_failed += bad
    attempted, failed = check(ops, passes)
    attempted += len(setup_times) + 1
    failed += probe_failed + warm_failed
    for results in passes:
        for r in results:
            r["norm_s"] = r["s"] * REF_NOMINAL_S / r["ref_s"]

    def per_op_median(key: str) -> list[float]:
        return [statistics.median(results[i][key] for results in passes) for i in range(len(ops))]

    scaled, raw = per_op_median("norm_s"), per_op_median("s")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_norm_s": metric(sum(scaled), "s"),
        "op_gmean_norm_s": metric(statistics.geometric_mean(scaled), "s"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
    }
    refs = [r["ref_s"] for results in passes for r in results]
    all_raw = [r["s"] for results in passes for r in results]
    notes = [
        f"setup_s          {metrics['setup_s']['value']:.4f} s    median of {len(setup_times)} fresh interpreters",
        f"wall_norm_s      {metrics['wall_norm_s']['value']:.4f} s    sum of per-op medians over {len(passes)} passes, scaled",
        f"op_gmean_norm_s  {metrics['op_gmean_norm_s']['value']:.4f} s    geometric mean of the {len(ops)} per-op medians, scaled",
        f"fail_ratio       {failed / attempted:.4f} ratio  {failed} of {attempted} ops",
        f"peak_rss_mb      {rss_mib:.1f} MiB",
        f"wall_s           {sum(raw):.4f} s    as measured; pass times "
        + " ".join(f"{sum(r['s'] for r in results):.4f}" for results in passes),
        f"op_gmean_s       {statistics.geometric_mean(raw):.4f} s    as measured",
        f"op_p50_s         {statistics.median(all_raw):.4f} s    as measured, median of {len(all_raw)} op times",
        f"ref_s            {statistics.median(refs):.5f} s    median over the ops of the reference loops around them, "
        f"{min(refs):.5f}-{max(refs):.5f}; nominal {REF_NOMINAL_S} s",
    ]
    return metrics, attempted, failed, notes


def measure_traced(args, warm, ops) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics of one traced pass, plus the tracing overhead.

    Each op runs traced and then untraced, so that both runs of an op see
    the host at nearly the same speed; the traced runs see the caches as
    the first pass of an untraced run does.
    """
    cli = import_cli()
    import tracing

    warm_failed = bool(op_problems(warm, run_op(cli, warm), None))
    tracer = tracing.Tracer()
    traced, plain = [], []
    for op in ops:
        with tracer:
            traced.append(run_op(cli, op))
        plain.append(run_op(cli, op))
    attempted, failed = check(ops, [traced, plain])
    attempted += 1
    failed += warm_failed
    metrics = {name: metric(value, unit) for name, (value, unit) in tracing.per_layer_metrics(tracer).items()}
    traced_wall = sum(r["s"] for r in traced)
    plain_wall = sum(r["s"] for r in plain)
    overhead = traced_wall - plain_wall
    metrics["trace.overhead_s"] = metric(overhead, "s")
    spans = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    notes = [
        f"{name:40s} {m['value']:.6g} {m['unit']}" + (" (computed)" if m["unit"] == "count" else "")
        for name, m in metrics.items()
    ]
    notes.append(f"traced pass {traced_wall:.4f} s, untraced {plain_wall:.4f} s, overhead {overhead:.4f} s")
    notes.append(f"fail_ratio {failed / attempted:.4f} ratio  {failed} of {attempted} ops")
    notes.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def run_workload(args) -> int:
    inputs_dir = ensure_inputs(args.seed)
    out = WORK / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    warm, ops = workloads.build(args.workload, inputs_dir, out, args.seed)
    ref_before = statistics.median(ref_loop() for _ in range(REF_SUMMARY_LOOPS))
    if args.trace:
        metrics, attempted, failed, notes = measure_traced(args, warm, ops)
    else:
        metrics, attempted, failed, notes = measure(args, warm, ops)
    ref_after = statistics.median(ref_loop() for _ in range(REF_SUMMARY_LOOPS))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {len(ops)} ops per pass")
    for line in notes:
        print("  " + line)
    print(f"  ref_loop_s       before {ref_before:.5f} s  after {ref_after:.5f} s  (median of {REF_SUMMARY_LOOPS} loops each)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kuniform" / "cli.py").is_file():
        print(f"error: no kuniform package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
