"""The solver's end-to-end benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-sync --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``all`` runs every workload in its own
interpreter and ends with one table.  ``--trace 0`` measures the end-to-end
metrics with only the two set-up probes installed.  ``--trace 1`` first
runs the workload untraced for half the window, then replays exactly the
same ops with every layer wrapper recording spans; it prints the
per-layer self-time table and the tracing overhead (traced minus
untraced, on identical ops) and reports the per-layer metrics.  The
last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Output files go to
``.perfbench_out/`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------------
# Environment record and resource hygiene
# ----------------------------------------------------------------------
def _cmd_first_line(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None


def environment(workload: str, seed: int, backend: str) -> dict[str, Any]:
    import numpy as np

    top = _cmd_first_line(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    sha = None
    if top is not None and Path(top).resolve() == ROOT:
        sha = _cmd_first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": _cmd_first_line(["cc", "--version"]),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leak_counts(shm_before: set[str], tmp: Path) -> dict[str, float]:
    return {
        "leak.shm_segments": float(len(shm_entries() - shm_before)),
        "leak.bitplane_tmpdirs": float(len(list(tmp.glob("repro-bitplane-*")))),
        "leak.worker_processes": float(
            sum(p.is_alive() for p in multiprocessing.active_children())
        ),
    }


def stop_children() -> None:
    """Stop and reap every process the run started, the shm tracker too."""
    from multiprocessing import resource_tracker

    for p in multiprocessing.active_children():
        p.terminate()
        p.join(timeout=5)
        if p.is_alive():
            p.kill()
            p.join(timeout=5)
    # The tracker is a helper process multiprocessing starts for shared
    # memory; _stop() closes its pipe and waits for it to exit.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _setup_end(op: Any, probes: list) -> int | None:
    times = [t for _name, t, _pid in probes if op.t_call <= t <= op.t_ret]
    return max(times) if times else None


def _p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(p: Any, probes: list) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) for one pass."""
    ok = [op for op in p.ops if not op.failed]
    solves = [op for op in ok if not op.cache_hit]
    setup_by_op = {}
    for op in solves:
        end = _setup_end(op, probes)
        if end is not None:
            setup_by_op[op.index] = (end - op.t_call) / 1e9
    if p.sessions:
        # Service: construction up to the first job's first round.
        setups = []
        for t_session, first in p.sessions:
            if first < len(p.ops):
                end = _setup_end(p.ops[first], probes)
                if end is not None:
                    setups.append((end - t_session) / 1e9)
    else:
        setups = list(setup_by_op.values())
    rates = [
        op.result.evaluated / (op.latency_s - setup_by_op[op.index])
        for op in solves
        if op.index in setup_by_op and op.latency_s > setup_by_op[op.index]
    ]
    lat = [op.latency_s for op in p.ops]
    # Service: solves on a fleet of the right geometry; the rebuilds a
    # size change forces are the slow tail job_latency_p90_s reports.
    tts = [op.latency_s for op in solves if op.spec is None or not op.spec.new_size]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def med(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    return {
        "tts_s": (med(tts), len(tts)),
        "setup_s": (med(setups), len(setups)),
        "eval_per_s": (med(rates), len(rates)),
        "jobs_per_s": (len(p.ops) / sum(lat) if lat else 0.0, len(lat)),
        "job_latency_p50_s": (med(lat), len(lat)),
        "job_latency_p90_s": (_p90(lat), len(lat)),
        "peak_rss_mib": (usage / 1024.0, 1),
    }


def op_record(op: Any) -> dict[str, Any]:
    res = op.result
    return {
        "index": op.index,
        "latency_s": op.latency_s,
        "cache_hit": op.cache_hit,
        "failed": op.failed,
        "failures": ([op.error] if op.error else []) + op.failures,
        "best_energy": None if res is None else int(res.best_energy),
        "rounds": 0 if res is None else int(res.rounds),
        "evaluated": 0 if res is None else int(res.evaluated),
        "restarts": 0 if res is None else int(res.workers_restarted),
        "counters": {} if res is None else {k: int(v) for k, v in res.counters.items()},
    }


def print_metrics(title: str, e2e: dict[str, tuple[float, int]], units: dict[str, str]) -> None:
    print(title)
    print(f"  {'metric':<20} {'value':>14} {'unit':<6} {'samples':>7}")
    for name, (value, n) in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {units[name]:<6} {n:>7d}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own interpreter, then one table."""
    import workloads as wl

    results = {}
    for workload in wl.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':<32}" + "".join(f"{w:>16}" for w in results))
    for name in next(iter(results.values()))["metrics"]:
        print(f"{name:<32}" + "".join(
            f"{r['metrics'][name]['value']:>16.6g}" for r in results.values()
        ))
    print(" ".join(
        f"{w}: {r['attempted']} ops, failed_ratio {r['failed'] / r['attempted']:.3f};"
        for w, r in results.items()
    ))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the ABS solver.")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no solver sources under {ROOT / 'src' / 'repro'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = ROOT / ".perfbench_out"
    run_dir = out_dir / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep every file the program creates (compiled kernels) in the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

    import workloads as wl
    import tracing
    import summary

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    from benchmarks.conftest import BackendUnavailable, resolve_backend_strict

    try:
        backend = resolve_backend_strict(wl.BACKEND[args.workload]).name
    except BackendUnavailable as exc:
        fail(str(exc), 3)
    env = environment(args.workload, args.seed, backend)
    shm_before = shm_entries()
    rec = tracing.install(run_dir)
    refs: dict[int, tuple] = {}
    try:
        window = args.seconds / 2 if args.trace else args.seconds
        untraced = wl.run_pass(args.workload, args.seed, rec, window_s=window)
        untraced_records = rec.take()
        passes = [untraced]
        if args.trace:
            rec.tracing = True
            traced = wl.run_pass(args.workload, args.seed, rec, max_ops=len(untraced.ops))
            rec.tracing = False
            traced_records = rec.take()
            passes.append(traced)
        if args.workload == "dense-process":
            for p in passes:
                wl.check_process_against_sync(args.seed, p.ops, refs)
        leaks = leak_counts(shm_before, tmp)
    finally:
        rec.uninstall()
        stop_children()

    e2e = end_to_end(untraced, untraced_records["probes"])
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.failed for op in ops)
    correct = failed == 0
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    print(
        f"perfbench {args.workload}: seed {args.seed}, backend {backend}, "
        f"{len(untraced.ops)} ops in {untraced.wall_s:.2f} s, "
        f"failed_ratio {failed / max(1, len(ops)):.3f}, "
        f"correct {'yes' if correct else 'NO'}"
    )
    print_metrics("end-to-end (untraced):", e2e, units)
    print("hygiene: " + ", ".join(f"{k} {int(v)}" for k, v in leaks.items()))
    for op in ops:
        for msg in ([op.error] if op.error else []) + op.failures:
            print(f"FAILED op {op.index}: {msg}")
    print("env: " + json.dumps(env))

    result = {
        "env": env,
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in e2e.items()},
        "ops": [op_record(op) for op in untraced.ops],
        "leaks": leaks,
    }
    if args.trace:
        e2e_traced = end_to_end(traced, traced_records["probes"])
        lat_u = sum(op.latency_s for op in untraced.ops)
        lat_t = sum(op.latency_s for op in traced.ops)
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "main_pid": os.getpid(),
            "wall_ns": int(lat_t * 1e9),
            "sessions": len(traced.sessions),
            "ops": [op_record(op) for op in traced.ops],
            "overhead": {
                k: [e2e[k][0], e2e_traced[k][0]] for k in e2e if k != "peak_rss_mib"
            },
            "overhead_pct": 100.0 * (lat_t / lat_u - 1.0) if lat_u else 0.0,
            "leaks": leaks,
            **traced_records,
        }
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(trace))
        summary.print_trace(trace)
        per_layer = summary.layer_metrics(trace)
        result["per_layer"] = per_layer
        values = per_layer
        declared = spec["per_layer"]
    else:
        values = {k: v for k, (v, _n) in e2e.items()}
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
             "differ from BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
