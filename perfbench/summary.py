"""Per-layer numbers from a traced run's span file.

``python3 perfbench/summary.py .perfbench_out/trace-*.json`` prints, for
every file (or only ``--workload NAME``), the per-layer table — self
time, % of wall and calls, split by main and worker process — and the
tracing-overhead line, without rerunning anything.  ``run.py --trace 1``
writes the files and uses the same functions for its own output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import FOLDED, LAYER_OF, LAYERS, NAME, OP, PARENT, PID, SID, T0, T1  # noqa: E402


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[list[Any]]) -> dict[str, int]:
    """Span id -> self ns: duration minus children (union) minus folded."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s[T0]), min(b, s[T1]))
            for a, b in children.get(s[SID], ())
            if min(b, s[T1]) > max(a, s[T0])
        ]
        out[s[SID]] = s[T1] - s[T0] - _union_ns(clipped) - s[FOLDED]
    return out


def busy_ns(spans: list[list[Any]], name: str) -> int:
    """Total time inside ``name``, counting a self-nested call once."""
    parent_name = {s[SID]: s[NAME] for s in spans}
    return sum(
        s[T1] - s[T0]
        for s in spans
        if s[NAME] == name and parent_name.get(s[PARENT]) != name
    )


def calls(spans: list[list[Any]], name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def layer_table(trace: dict[str, Any]) -> list[tuple[str, str, float, float, int]]:
    """Rows ``(process, layer, self_s, pct_of_wall, calls)``."""
    spans = trace["spans"]
    main_pid = trace["main_pid"]
    wall_ns = trace["wall_ns"]
    selfs = self_times(spans)
    acc: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0])
    for s in spans:
        proc = "main" if s[PID] == main_pid else "worker"
        layer = LAYER_OF.get(s[NAME], "other")
        row = acc[(proc, layer)]
        row[0] += selfs[s[SID]]
        row[1] += 1
    for proc, folds in (("main", trace["folds_main"]), ("worker", trace["folds_worker"])):
        for name, (n_calls, ns, _extra) in folds.items():
            if name.startswith("backend."):
                row = acc[(proc, "kernels")]
                row[0] += ns
                row[1] += n_calls
    order = {name: i for i, name in enumerate(("client",) + LAYERS + ("other",))}
    rows = [
        (proc, layer, ns / 1e9, 100.0 * ns / wall_ns if wall_ns else 0.0, int(n))
        for (proc, layer), (ns, n) in acc.items()
    ]
    rows.sort(key=lambda r: (r[0] != "main", order.get(r[1], 99)))
    return rows


def layer_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json (per op unless a ratio)."""
    spans = trace["spans"]
    ops = trace["ops"]
    k = max(1, len(ops))
    folds: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for part in (trace["folds_main"], trace["folds_worker"]):
        for name, tot in part.items():
            for i in range(3):
                folds[name][i] += tot[i]
    counters: dict[str, int] = defaultdict(int)
    for op in ops:
        if not op["cache_hit"]:
            for key, value in op["counters"].items():
                counters[key] += value
    main_pid = trace["main_pid"]

    def per_op_s(name: str) -> float:
        return busy_ns(spans, name) / 1e9 / k

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Host poll time during which the worker was neither running a round
    # nor setting up (a one-shot solve's first poll waits out the spawn
    # and compile, which is set-up, not exchange).
    worker_busy = [
        (s[T0], s[T1])
        for s in spans
        if s[NAME] in ("device.round", "device.init") and s[PID] != main_pid
    ]
    exchange_ns = 0
    for s in spans:
        if s[NAME] == "exchange.poll":
            overlap = [
                (max(a, s[T0]), min(b, s[T1]))
                for a, b in worker_busy
                if min(b, s[T1]) > max(a, s[T0])
            ]
            exchange_ns += s[T1] - s[T0] - _union_ns(overlap)
    process_rounds = sum(
        op["rounds"]
        for op in ops
        if not op["cache_hit"] and "exchange.results_consumed" in op["counters"]
    )
    m: dict[str, float] = {
        "host.make_targets.busy_s": per_op_s("host.make_targets"),
        "host.make_targets.calls": calls(spans, "host.make_targets") / k,
        "host.absorb_batch.busy_s": per_op_s("host.absorb_batch"),
        "pool.insert_ratio": ratio(
            counters["pool.inserted"], counters["host.solutions_absorbed"]
        ),
        "device.round.busy_s": per_op_s("device.round"),
        "engine.straight_to.busy_s": per_op_s("engine.straight_to"),
        "engine.local_steps.busy_s": per_op_s("engine.local_steps"),
        "engine.straight_to.ns_per_flip": ratio(
            busy_ns(spans, "engine.straight_to"), counters["engine.straight_flips"]
        ),
        "engine.straight_flips": counters["engine.straight_flips"] / k,
        "engine.local_flips": counters["engine.local_flips"] / k,
        "engine.delta_updates": counters["engine.delta_updates"] / k,
        "backend.compile_s": per_op_s("backend.compile"),
        "backend.prepare.busy_s": per_op_s("backend.prepare"),
        "backend.run_local_steps.busy_s": per_op_s("backend.run_local_steps"),
        "backend.run_local_steps.calls": calls(spans, "backend.run_local_steps") / k,
        "backend.flip.bytes_computed": folds["backend.flip"][2] / k,
        "exchange.poll.wait_s": per_op_s("exchange.poll"),
        "exchange.poll.empty_ratio": ratio(
            folds["exchange.poll_empty"][2], folds["exchange.poll_empty"][0]
        ),
        "worker.fetch_targets.wait_s": per_op_s("worker.fetch_targets"),
        "exchange.round_trip_s": ratio(
            exchange_ns / 1e9, process_rounds
        ),
        "exchange.bytes_to_device": counters["exchange.bytes_to_device"] / k,
        "exchange.bytes_from_device": counters["exchange.bytes_from_device"] / k,
        "exchange.target_waits": counters["exchange.target_waits"] / k,
        "exchange.publish_stalls": counters["exchange.publish_stalls"] / k,
        "fleet.start.busy_s": per_op_s("fleet.start"),
        "fleet.arm_job.busy_s": per_op_s("fleet.arm_job"),
        "fleet.shutdown.busy_s": per_op_s("fleet.shutdown"),
        # Service fleets: every build after the one a session starts with.
        "fleet.rebuilds": (
            max(0, calls(spans, "fleet.start") - trace["sessions"]) / k
            if trace["sessions"] else 0.0
        ),
        "fleet.weights_hit_ratio": ratio(
            folds["fleet.weights_hit"][2], folds["fleet.weights_hit"][0]
        ),
        "supervisor.restarts": float(sum(op["restarts"] for op in ops)),
        "service.cache_hit_ratio": ratio(
            sum(op["cache_hit"] for op in ops), len(ops) if trace["sessions"] else 0
        ),
        "qubo.problem_digest.busy_s": per_op_s("qubo.problem_digest"),
        "qubo.run_digest.busy_s": per_op_s("qubo.run_digest"),
    }
    for prim in ("select_straight", "flip", "update_best"):
        n_calls, ns, _ = folds[f"backend.{prim}"]
        m[f"backend.{prim}.busy_s"] = ns / 1e9 / k
        m[f"backend.{prim}.calls"] = n_calls / k
    m.update(_service_waits(trace))
    rows = layer_table(trace)
    for layer in LAYERS:
        self_s = sum(r[2] for r in rows if r[1] == layer)
        m[f"layer.{layer}.self_s"] = self_s / k
        m[f"layer.{layer}.wall_pct"] = 100.0 * self_s * 1e9 / trace["wall_ns"]
    m["trace.overhead_pct"] = trace["overhead_pct"]
    m.update(trace["leaks"])
    return m


def _service_waits(trace: dict[str, Any]) -> dict[str, float]:
    """Queue wait (submit returns → solve entered) and hit/miss latency."""
    spans = trace["spans"]
    by_op: dict[int, list[list[Any]]] = defaultdict(list)
    for s in spans:
        if s[PID] == trace["main_pid"] and s[OP] is not None:
            by_op[s[OP]].append(s)
    waits = []
    for op in trace["ops"]:
        mine = by_op.get(op["index"], [])
        submit_end = [s[T1] for s in mine if s[NAME] == "service.submit"]
        solve_start = [
            s[T0] for s in mine if s[NAME] in ("solver.solve_on_fleet", "solver.solve")
        ]
        if submit_end and solve_start:
            waits.append((min(solve_start) - submit_end[0]) / 1e9)
    hits = [op["latency_s"] for op in trace["ops"] if op["cache_hit"]]
    misses = [op["latency_s"] for op in trace["ops"] if not op["cache_hit"]]
    service = bool(trace["sessions"])
    return {
        "service.queue_wait_s": statistics.fmean(waits) if waits else 0.0,
        "service.hit_latency_s": statistics.median(hits) if hits else 0.0,
        "service.miss_latency_s": statistics.median(misses) if service and misses else 0.0,
    }


def print_trace(trace: dict[str, Any], out: Any = sys.stdout) -> None:
    """The per-layer self-time table and the tracing-overhead line."""
    print(
        f"\n== {trace['workload']} (seed {trace['seed']}): per-layer self time "
        f"over {len(trace['ops'])} traced ops, wall {trace['wall_ns'] / 1e9:.3f} s",
        file=out,
    )
    print(f"  {'process':<8} {'layer':<10} {'self_s':>10} {'% wall':>8} {'calls':>10}", file=out)
    for proc, layer, self_s, pct, n in layer_table(trace):
        print(f"  {proc:<8} {layer:<10} {self_s:>10.4f} {pct:>7.1f}% {n:>10d}", file=out)
    print(
        "  (worker rows run concurrently with the main process's exchange.poll wait; "
        "kernel primitives are folded into their caller's span)",
        file=out,
    )
    parts = []
    for name, (untraced, traced) in sorted(trace["overhead"].items()):
        delta = traced - untraced
        pct = 100.0 * delta / untraced if untraced else 0.0
        parts.append(f"{name} {untraced:.4g}→{traced:.4g} ({pct:+.1f}%)")
    print(
        f"  tracing overhead (traced − untraced, same ops): "
        f"{trace['overhead_pct']:+.1f}% op wall; " + "; ".join(parts),
        file=out,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", type=Path, help="trace-*.json files or a directory")
    ap.add_argument("--workload", help="only this workload")
    args = ap.parse_args(argv)
    paths: list[Path] = []
    for p in args.files:
        paths.extend(sorted(p.glob("trace-*.json")) if p.is_dir() else [p])
    shown = 0
    for path in paths:
        trace = json.loads(path.read_text())
        if args.workload and trace["workload"] != args.workload:
            continue
        print_trace(trace)
        shown += 1
    if not shown:
        print("no matching trace files", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
