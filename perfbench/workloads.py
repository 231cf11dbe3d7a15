"""The four workloads: seeded inputs, the timed calls, the correctness gate.

Every input derives from the workload seed through
``numpy.random.default_rng([seed, stream, ...])``; the program only
receives the generated weights, a target and a solver seed.  Targets
come from this file's own greedy descent, and every returned energy is
recomputed here as ``xᵀWx`` with plain NumPy, never with ``repro``'s
energy code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

DENSE_N = 1024
SPARSE_N, SPARSE_EDGES = 2000, 19990  # G22-like random unit-weight graph
SPARSE_TARGET_FRAC = 0.95
# The solver stalls within about 20 rounds; on about one dense instance
# in forty that stall lies just above the greedy energy (seed 592580754,
# instance 7: -374311517 for 1000 rounds against greedy -374479953).
# Over 120 instances the stall is 1.0148 ± 0.0074 times the greedy
# energy, so 97% of it is about six deviations inside every stall.
DENSE_TARGET_FRAC = 0.97
# Service jobs run a fixed number of rounds instead of solving to a
# target: at n ≤ 256 the rounds a target needs vary from 1 to 200, and
# that discreteness, not the service, would set the job latencies.
SERVICE_ROUNDS = 4
SERVICE_SIZES = (64, 128, 256)
ROUND_CAP = {"dense": 400, "sparse": 200}
RESULT_TIMEOUT_S = 60.0

WORKLOADS = ("dense-sync", "sparse-sync", "dense-process", "service-mixed")
BACKEND = {
    "dense-sync": "bitplane",
    "sparse-sync": "numpy",
    "dense-process": "bitplane",
    "service-mixed": "bitplane",
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def dense_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric n×n int64 matrix, every weight uniform in 16 bits."""
    upper = rng.integers(-(2**15), 2**15, size=(n, n), dtype=np.int64)
    return np.triu(upper) + np.triu(upper, 1).T


@dataclass
class SparseInstance:
    """Max-Cut on a random graph: ``E(x) = Σ d_i x_i + 2 Σ_e w_e x_u x_v``."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, m: int) -> "SparseInstance":
        codes = np.empty(0, dtype=np.int64)
        while codes.size < m:
            a = rng.integers(0, n, size=2 * m)
            b = rng.integers(0, n, size=2 * m)
            keep = a != b
            lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
            codes = np.unique(np.concatenate([codes, lo * n + hi]))
        codes = rng.permutation(codes)[:m]
        rows, cols = np.divmod(np.sort(codes), n)
        vals = np.ones(m, dtype=np.int64)
        deg = np.bincount(rows, vals, n) + np.bincount(cols, vals, n)
        return cls(n, rows, cols, vals, -deg.astype(np.int64))

    def to_program(self) -> Any:
        from repro.qubo.sparse import SparseQubo

        return SparseQubo.from_graph_terms(
            self.n, self.diag, self.rows, self.cols, self.vals
        )

    def energy(self, x: np.ndarray) -> int:
        xi = x.astype(np.int64)
        return int(self.diag @ xi + 2 * (self.vals * xi[self.rows] * xi[self.cols]).sum())


def dense_energy(W: np.ndarray, x: np.ndarray) -> int:
    xi = x.astype(np.int64)
    return int(xi @ W @ xi)


def greedy_dense(W: np.ndarray) -> int:
    """Steepest single-flip descent from the zero vector; its energy."""
    n = W.shape[0]
    d = np.diagonal(W).astype(np.int64).copy()  # Δ_i at x = 0
    phi = np.ones(n, dtype=np.int64)
    e = 0
    while True:
        k = int(d.argmin())
        dk = int(d[k])
        if dk >= 0:
            return e
        e += dk
        d += 2 * phi * W[k] * phi[k]
        d[k] = -dk
        phi[k] = -phi[k]


def greedy_sparse(inst: SparseInstance) -> int:
    """The same descent on the edge list (CSR built here)."""
    n = inst.n
    src = np.concatenate([inst.rows, inst.cols])
    dst = np.concatenate([inst.cols, inst.rows])
    w = np.concatenate([inst.vals, inst.vals])
    order = np.argsort(src, kind="stable")
    dst, w = dst[order], w[order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    d = inst.diag.astype(np.int64).copy()
    phi = np.ones(n, dtype=np.int64)
    e = 0
    while True:
        k = int(d.argmin())
        dk = int(d[k])
        if dk >= 0:
            return e
        e += dk
        nb = dst[ptr[k]:ptr[k + 1]]
        d[nb] += 2 * phi[nb] * w[ptr[k]:ptr[k + 1]] * phi[k]
        d[k] = -dk
        phi[k] = -phi[k]


def solver_seed(seed: int, *key: int) -> int:
    return int(np.random.default_rng([seed, 9, *key]).integers(2**31))


@dataclass
class Problem:
    """One op's inputs plus the benchmark's own energy function."""

    weights: Any          # what the program receives
    energy: Callable[[np.ndarray], int]
    target: int | None    # None: the job runs a fixed number of rounds
    seed: int
    n: int


def dense_problem(
    seed: int, i: int, n: int = DENSE_N, stream: int = 1, with_target: bool = True
) -> Problem:
    W = dense_weights(np.random.default_rng([seed, stream, i]), n)
    target = math.ceil(DENSE_TARGET_FRAC * greedy_dense(W)) if with_target else None
    return Problem(W, lambda x: dense_energy(W, x), target,
                   solver_seed(seed, stream, i), n)


def sparse_problem(seed: int, i: int) -> Problem:
    inst = SparseInstance.random(
        np.random.default_rng([seed, 2, i]), SPARSE_N, SPARSE_EDGES
    )
    target = math.ceil(SPARSE_TARGET_FRAC * greedy_sparse(inst))
    return Problem(inst.to_program(), inst.energy, target,
                   solver_seed(seed, 2, i), SPARSE_N)


@dataclass(frozen=True)
class JobSpec:
    """One service job: which problem, which solver seed, and why."""

    session: int
    key: int          # problem (weights) id within the session
    variant: int      # solver seed index for that problem
    n: int
    repeat: bool      # an exact repeat of an earlier job: a result-cache hit
    new_size: bool    # first job of a size block: the fleet geometry changes


def service_sessions(seed: int) -> Iterator[list[JobSpec]]:
    """Endless seeded sessions of jobs, sizes in blocks.

    Each session visits every size once, in a seeded order.  A size block
    is four jobs: a new problem (the fleet is rebuilt for the new size),
    a second new problem, the first problem again with another solver
    seed (its weights are already in the fleet's shared memory and the
    worker's prepared-weights cache), and an exact repeat of an earlier
    job of the session, any size, which the result cache answers.
    """
    s = 0
    while True:
        rng = np.random.default_rng([seed, 4, s])
        jobs: list[JobSpec] = []
        for n in rng.permutation(SERVICE_SIZES):
            first = len(jobs)
            jobs.append(JobSpec(s, first, 0, int(n), False, True))
            jobs.append(JobSpec(s, first + 1, 0, int(n), False, False))
            jobs.append(JobSpec(s, first, 1, int(n), False, False))
            src = jobs[int(rng.integers(len(jobs)))]
            while src.repeat:
                src = jobs[int(rng.integers(len(jobs)))]
            jobs.append(JobSpec(s, src.key, src.variant, src.n, True, False))
        yield jobs
        s += 1


def service_problem(seed: int, spec: JobSpec) -> Problem:
    idx = spec.session * 1000 + spec.key
    prob = dense_problem(seed, idx, spec.n, stream=3, with_target=False)
    prob.seed = solver_seed(seed, 3, idx, spec.variant)
    return prob


# ----------------------------------------------------------------------
# Ops and the correctness gate
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed call: a solve, or a service job from submit to result."""

    index: int
    t_call: int
    t_ret: int = 0
    result: Any = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    cache_hit: bool = False
    spec: Any = None

    @property
    def latency_s(self) -> float:
        return (self.t_ret - self.t_call) / 1e9

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def check_result(op: Op, problem: Problem) -> None:
    """Energy recomputed from ``best_x``, target reached, shape sane."""
    res = op.result
    if res is None:
        op.failures.append("no result")
        return
    x = np.asarray(res.best_x)
    if x.shape != (problem.n,) or not np.isin(x, (0, 1)).all():
        op.failures.append(f"best_x malformed: shape {x.shape}")
        return
    energy = problem.energy(x)
    if energy != res.best_energy:
        op.failures.append(
            f"best_energy {res.best_energy} != recomputed xᵀWx {energy}"
        )
    if problem.target is not None and (energy > problem.target or not res.reached_target):
        op.failures.append(
            f"target {problem.target} missed (energy {energy}, "
            f"rounds {res.rounds})"
        )


def fingerprint(res: Any) -> tuple:
    """What two runs of one deterministic solve must agree on."""
    return (
        np.asarray(res.best_x, dtype=np.uint8).tobytes(),
        int(res.best_energy),
        int(res.rounds),
        int(res.evaluated),
        int(res.flips),
    )


def cold_kernels() -> None:
    """Forget the bit-plane backend's per-process compiled library.

    A user running ``python -m repro solve`` pays the kernel compile on
    every invocation; clearing the class-level cache before each solve
    makes the benchmark pay it too, without paying interpreter start-up.
    In process mode the next compile then happens in the worker, as it
    does for a fresh `python -m repro` process.
    """
    from repro.backends.bitplane import BitplaneBackend

    BitplaneBackend._lib = None


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """Everything one pass over a workload produced."""

    ops: list[Op] = field(default_factory=list)
    sessions: list[tuple[int, int]] = field(default_factory=list)  # (t_start, first op)
    wall_s: float = 0.0


def _stop(p: Pass, t0: float, window_s: float | None, max_ops: int | None) -> bool:
    if max_ops is not None:
        return len(p.ops) >= max_ops
    return bool(p.ops) and time.perf_counter() - t0 >= window_s


def run_pass(
    workload: str,
    seed: int,
    rec: Any,
    *,
    window_s: float | None = None,
    max_ops: int | None = None,
) -> Pass:
    """Run ops until the window closes (or ``max_ops`` ops have run)."""
    import repro

    p = Pass()
    t0 = time.perf_counter()
    if workload == "service-mixed":
        _run_service(seed, rec, p, t0, window_s, max_ops)
        p.wall_s = time.perf_counter() - t0
        return p
    mode = "process" if workload == "dense-process" else "sync"
    i = 0
    while not _stop(p, t0, window_s, max_ops):
        prob = sparse_problem(seed, i) if workload == "sparse-sync" else dense_problem(seed, i)
        cold_kernels()
        op = Op(i, 0)
        root = rec.begin_op(i) if rec.tracing else None
        op.t_call = time.perf_counter_ns()
        try:
            op.result = repro.solve(
                prob.weights,
                mode=mode,
                backend=BACKEND[workload],
                target_energy=prob.target,
                max_rounds=ROUND_CAP["sparse" if workload == "sparse-sync" else "dense"],
                seed=prob.seed,
                **({"n_gpus": 1, "lockstep": True, "exchange": "shm"}
                   if mode == "process" else {}),
            )
        except Exception as exc:  # noqa: BLE001 — a raising solve is a failed op
            op.error = f"{type(exc).__name__}: {exc}"
        op.t_ret = time.perf_counter_ns()
        if root is not None:
            rec.end_op(root)
        if op.error is None:
            check_result(op, prob)
        p.ops.append(op)
        i += 1
    p.wall_s = time.perf_counter() - t0
    return p


def check_process_against_sync(seed: int, ops: list[Op], refs: dict[int, tuple]) -> None:
    """Each process-mode result must equal the sync solve of its seed.

    ``refs`` caches the sync fingerprints by op index, so a replayed op
    is checked without solving again.  Runs outside every timed region.
    """
    import repro

    for op in ops:
        if op.result is None:
            continue
        if op.index not in refs:
            prob = dense_problem(seed, op.index)
            ref = repro.solve(
                prob.weights,
                mode="sync",
                backend=BACKEND["dense-process"],
                target_energy=prob.target,
                max_rounds=ROUND_CAP["dense"],
                seed=prob.seed,
            )
            refs[op.index] = fingerprint(ref)
        if fingerprint(op.result) != refs[op.index]:
            op.failures.append("process result differs from the sync solve")


def _run_service(
    seed: int,
    rec: Any,
    p: Pass,
    t0: float,
    window_s: float | None,
    max_ops: int | None,
) -> None:
    from repro.abs.config import AbsConfig
    from repro.service import ServiceConfig, SolverService

    for jobs in service_sessions(seed):
        if _stop(p, t0, window_s, max_ops):
            return
        first_runs: dict[tuple[int, int], tuple] = {}
        cold_kernels()
        t_session = time.perf_counter_ns()
        svc = SolverService(ServiceConfig())
        p.sessions.append((t_session, len(p.ops)))
        try:
            for spec in jobs:
                # A window closes between sessions, so every session has
                # the same job mix; a replay (max_ops) may stop inside one.
                if max_ops is not None and len(p.ops) >= max_ops:
                    break
                prob = service_problem(seed, spec)
                cfg = AbsConfig(
                    n_gpus=1,
                    lockstep=True,
                    exchange="shm",
                    backend=BACKEND["service-mixed"],
                    max_rounds=SERVICE_ROUNDS,
                    seed=prob.seed,
                )
                op = Op(len(p.ops), 0, spec=spec)
                root = rec.begin_op(op.index) if rec.tracing else None
                op.t_call = time.perf_counter_ns()
                try:
                    jid = svc.submit(prob.weights, cfg, mode="process")
                    op.result = svc.result(jid, timeout=RESULT_TIMEOUT_S)
                except Exception as exc:  # noqa: BLE001 — a failed job is a failed op
                    op.error = f"{type(exc).__name__}: {exc}"
                op.t_ret = time.perf_counter_ns()
                if root is not None:
                    rec.end_op(root)
                if op.error is None:
                    op.cache_hit = bool(svc.status(jid)["cache_hit"])
                    check_result(op, prob)
                    fp = fingerprint(op.result)
                    if first_runs.setdefault((spec.key, spec.variant), fp) != fp:
                        op.failures.append("repeated job differs from its first run")
                p.ops.append(op)
        finally:
            svc.close()
