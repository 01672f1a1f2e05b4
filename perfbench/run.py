"""Layered benchmark for betakit (stdlib only).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a betakit checkout.  A run replays the workload's
seeded batch in fresh worker processes until S seconds have passed, always
finishing at least one batch.  About once a second, between requests, a
worker times `import betakit` in a fresh interpreter (set-up) and a bare
interpreter start; about four times a second it runs a fixed calibration
kernel.  Times are reported at a reference host speed: each batch's times
are scaled by REFERENCE_CALIBRATION_S over the batch's median calibration
time, which removes the drift of the host's speed (see host_speeds); the
record keeps them as measured too.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
traced batches, and reports the per-layer metrics, self times and the
tracing overhead.  Every result is checked; the last line of stdout is one
JSON object, and the exit code is 0 only if every check passed.  A full
record of the run goes to perfbench/results/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
MIN_REQUESTS = 100
# worker.calibrate() takes this long at the reference speed (about its median on
# the 2-vCPU virtual machine the baseline was measured on)
REFERENCE_CALIBRATION_S = 0.010
WORKER_TIMEOUT_S = 150
CLI_SUBCOMMANDS = ("beta_odd", "beta_even", "euler", "bernoulli", "verify", "telescope",
                   "aux", "usage_error")

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_child(cmd: list[str], root: Path, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, capture_output=True, env=worker.child_env(root), cwd=root,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd[:6])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:6])} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc


def run_pass(root: Path, workload: str, seed: int, trace: bool, tag: str) -> dict:
    out = HERE / "results" / f".pass-{os.getpid()}-{tag}.json"
    spans_dir = HERE / "results" / f".spans-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--root", str(root), "--out", str(out)]
    if trace and workload == "cli-mix":
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-dir", str(spans_dir)]
    try:
        run_child(cmd, root, WORKER_TIMEOUT_S)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
        shutil.rmtree(spans_dir, ignore_errors=True)


def run_passes(root: Path, workload: str, seed: int, trace: bool, deadline: float) -> list[dict]:
    """Batches until the next one would end more than half a batch past the deadline.

    Always at least MIN_REQUESTS requests, so that the 90th percentile has
    ten samples beyond it.  The half-batch allowance keeps the number of
    batches per run the same from run to run when a batch is long.  With
    trace, untraced and traced batches alternate, untraced first, and there
    are at least two.
    """
    passes: list[dict] = []
    walls = []
    attempted = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(root, workload, seed, traced, f"{int(traced)}-{len(passes)}"))
        walls.append(time.perf_counter() - t0)
        attempted += passes[-1]["attempted"]
        if (attempted >= MIN_REQUESTS and len(passes) >= 1 + trace
                and time.perf_counter() + 0.5 * statistics.median(walls) > deadline):
            return passes


def environment(root: Path, seed: int) -> dict:
    try:
        from importlib.metadata import PackageNotFoundError, version

        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=root)
        commit = git.stdout.decode().strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "openblas_num_threads": worker.child_env(root)["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "source_sha256": workloads.digest(
            {str(p.relative_to(root)): p.read_text()
             for p in sorted((root / "src").rglob("*.py"))}),
        "seed": seed,
        "platform": platform.platform(),
    }


def self_check(workload: str, seed: int) -> list[str]:
    problems = []
    a, b = workloads.build(workload, seed), workloads.build(workload, seed)
    if workloads.digest(a) != workloads.digest(b):
        problems.append("the same seed gave two different request lists")
    if workloads.digest(a) == workloads.digest(workloads.build(workload, seed + 1)):
        problems.append("seeds n and n+1 gave the same request list")
    return problems


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list, 0 <= q <= 1."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def host_speeds(passes: list[dict]) -> list[float]:
    """Each batch's speed factor: REFERENCE_CALIBRATION_S over its median calibration time.

    The factor follows the speed of work done in the worker process and in
    the processes it starts (cli-mix requests, import and interpreter
    probes), because every one of them runs a single busy thread (see
    worker.child_env).
    """
    return [REFERENCE_CALIBRATION_S / statistics.median(p["calibration_s"]) for p in passes]


def probe_median(passes: list[dict], speeds: list[float], key: str) -> float:
    """Median of the batches' start-up probes named key, each scaled by its batch's factor."""
    return statistics.median(t * f for p, f in zip(passes, speeds) for t in p[key])


def end_to_end(passes: list[dict], speeds: list[float]) -> dict:
    """The end-to-end metrics, each batch's times multiplied by its speed factor."""
    latencies_ms = [r["latency_s"] * f * 1e3 for p, f in zip(passes, speeds) for r in p["requests"]]
    return {
        "setup_s": probe_median(passes, speeds, "import_probes_s"),
        "wall_s": statistics.median(p["wall_s"] * f for p, f in zip(passes, speeds)),
        "latency_p50_ms": quantile(latencies_ms, 0.5),
        "latency_p90_ms": quantile(latencies_ms, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload: str, passes: list[dict], speeds: list[float],
              units: dict[str, str]) -> dict:
    """The per-layer metrics from alternating untraced and traced batches.

    Each batch's times are multiplied by its speed factor (rates divided).
    """
    med = statistics.median

    def scaled(value: float, unit: str, speed: float) -> float:
        return value * {"s": speed, "ms": speed, "1/s": 1 / speed}.get(unit, 1.0)

    untraced, untraced_speeds = passes[0::2], speeds[0::2]
    traced, traced_speeds = passes[1::2], speeds[1::2]
    m = {
        "cli.interpreter_ms": probe_median(passes, speeds, "interpreter_probes_s") * 1e3,
        "cli.import_ms": probe_median(passes, speeds, "import_probes_s") * 1e3,
    }
    for sub in CLI_SUBCOMMANDS:
        lat = [r["latency_s"] * f for p, f in zip(untraced, untraced_speeds)
               for r in p["requests"] if r["sub"] == sub]
        m[f"cli.{sub}_ms"] = med(lat) * 1e3 if workload == "cli-mix" and lat else 0.0
    for key in traced[0]["span_metrics"]:
        m[key] = med(scaled(p["span_metrics"][key], units[key], f)
                     for p, f in zip(traced, traced_speeds))
    for key in ("betavalues.misrounded", "quadrature.estimate_understated",
                "quadrature.budget_exceeded", "eulerpoly.suite_instances"):
        m[key] = med(p["counters"].get(key, 0) for p in traced)
    for layer in tracing.LAYERS:
        for kind in ("self_s", "busy_s"):
            m[f"{layer}.{kind}"] = med(p["layers"][layer][kind] * f
                                       for p, f in zip(traced, traced_speeds))
    traced_wall = med(p["wall_s"] * f for p, f in zip(traced, traced_speeds))
    m["trace.untraced_wall_s"] = med(p["wall_s"] * f for p, f in zip(untraced, untraced_speeds))
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - m["trace.untraced_wall_s"]
    m["trace.spans"] = med(p["n_spans"] for p in traced)
    return m


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            units: dict[str, str]) -> dict:
    problems = self_check(workload, seed)
    try:
        worker.import_probe(root)  # untimed: leaves compiled bytecode behind, as an install does
    except RuntimeError as exc:
        raise BenchError(str(exc)) from exc
    deadline = time.perf_counter() + seconds
    passes = run_passes(root, workload, seed, trace, deadline)
    measured = passes[1::2] if trace else passes
    calibration = [t for p in passes for t in p["calibration_s"]]
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    speeds = host_speeds(passes)
    if trace:
        measured_metrics = per_layer(workload, passes, [1.0] * len(passes), units)
        metrics = per_layer(workload, passes, speeds, units)
    else:
        measured_metrics = end_to_end(passes, [1.0] * len(passes))
        metrics = end_to_end(passes, speeds)
    if sorted(metrics) != sorted(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"replays of seed {seed} gave different exact outputs: {digests}")
    for p in passes:
        problems += [f"request {r['id']} ({r['sub']}): {r['detail']}" for r in p["unexpected"]]
    attempted = sum(p["attempted"] for p in measured)
    failed = sum(p["failed"] for p in measured)
    known = {tag: sum(p["known_failures"][tag] for p in measured)
             for tag in workloads.KNOWN_FAILURES}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    record = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "environment": environment(root, seed),
        "request_list_sha256": workloads.digest(workloads.build(workload, seed)),
        "exact_outputs_sha256": digests,
        "problems": problems,
        "error_rate": failed / attempted,
        "known_failures": known,
        "setup_import_s": [t for p in passes for t in p["import_probes_s"]],
        "calibration_s": calibration,
        "speed": speed,
        "batch_speeds": speeds,
        "metrics_at_host_speed": measured_metrics,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "result": result,
    }
    results = HERE / "results"
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    spans = next((p["spans"] for p in passes if p.get("spans")), None)
    if spans:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "request", "error", "info"],
             "spans": spans}))
    return {"result": result, "record": record}


def report(workload: str, out: dict) -> None:
    rec, res = out["record"], out["result"]
    print(f"== {workload} seed={rec['environment']['seed']} trace={int(rec['trace'])} "
          f"passes={len(rec['passes'])} requests={res['attempted']} "
          f"host at {rec['speed']:.3f} x reference speed")
    print(f"  {'metric':34s} {'reported':>14s} {'as measured':>14s}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {rec['metrics_at_host_speed'][name]:14.6g} "
              f"{m['unit']}")
    print(f"  {'error_rate':34s} {rec['error_rate']:14.6g} ratio "
          f"({res['failed']} of {res['attempted']} failed)")
    for tag, n in rec["known_failures"].items():
        if n:
            print(f"    known failure {tag}: {n}")
    for p in rec["problems"][:20]:
        print(f"  CHECK FAILED: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd().resolve()
    try:
        spec_path = root / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"no BENCHMARK.json in {root}")
        if not (root / "src" / "betakit" / "__init__.py").is_file():
            raise BenchError(f"no betakit sources under {root / 'src'}")
        spec = json.loads(spec_path.read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        (HERE / "results").mkdir(exist_ok=True)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        outs = {}
        for name in names:
            outs[name] = run_one(root, name, args.seed, seconds, bool(args.trace), units)
            report(name, outs[name])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({name: o["result"] for name, o in outs.items()}))
    else:
        print(json.dumps(outs[args.workload]["result"]))
    return 0 if all(o["result"]["correct"] for o in outs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
