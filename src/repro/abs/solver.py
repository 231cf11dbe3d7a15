"""The top-level ABS solver: host + devices in sync or process mode.

Both modes run the same host loop
(:func:`~repro.abs.fleet.run_search_rounds`) over a different device
set.  ``"sync"`` mode steps in-process devices on the calling thread,
round-robin (:class:`LocalDevices`) — deterministic given a seed, and
the mode every time-to-solution benchmark uses.  ``"process"`` mode launches one OS
process per simulated GPU, mirroring the paper's multi-GPU deployment:
the weight matrix lives in shared memory (one copy, like GPU global
memory), targets flow host → device and solutions device → host through
the exchange transport (:mod:`repro.abs.exchange` — bit-packed
shared-memory rings by default, framed loopback sockets with
``exchange="tcp"``), and nobody blocks on anybody — a device that sees
no fresh targets keeps searching from its current state, exactly the
paper's asynchronous tolerance.  ``AbsConfig.lockstep`` trades that
freedom for determinism (workers wait for fresh targets after every
round).

Every process-mode solve runs on a :class:`~repro.abs.fleet.WorkerFleet`:
a one-shot ``solve("process")`` starts a short-lived fleet, runs one
job on it through :meth:`AdaptiveBulkSearch.solve_on_fleet`, and shuts
it down; the service keeps a fleet warm across jobs.  The fleet is
*supervised* (:class:`~repro.abs.supervisor.WorkerSupervisor`): a
worker whose process dies — or, with ``worker_stall_timeout`` set, one
that stops shipping results — is restarted up to
``max_worker_restarts`` times.  A replacement starts from the engine's
zero state and is rehydrated with fresh GA targets from the current
pool (the straight-search handoff of Algorithm 5 makes workers
state-free, so nothing else needs recovering); the shared-memory rings
*survive* the restart — the replacement binds to the same segments
under a bumped epoch, so stale targets are skipped without reallocating
anything.  When a worker's restart budget is exhausted the solve
degrades onto the survivors (``SolveResult.workers_restarted`` /
``workers_lost`` report what happened) and fails loudly only when no
healthy worker remains.  The multiprocessing start method is
configurable via ``AbsConfig.start_method`` (``fork`` where available
by default; job frames stay picklable so ``spawn`` works too).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

import numpy as np

from repro.abs.adaptive import VariantController
from repro.abs.config import AbsConfig, resolve_windows
from repro.abs.variants import SearchVariant, get_variant, resolve_fleet
from repro.abs.device import DeviceSimulator
from repro.abs.exchange import ResultBatch
from repro.abs.fleet import (
    DeviceSpec,
    FleetDevices,
    WorkerFleet,
    WorkerJob,
    _make_adapter,
    _merge_counts,
    device_counters,
    run_search_rounds,
)
from repro.abs.host import Host
from repro.abs.result import SolveResult
from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory
from repro.utils.timer import Stopwatch


class LocalDevices:
    """Sync mode's device set: in-process devices on the calling thread.

    :meth:`poll` runs the next device's round, round-robin, so the host
    answers each result with that device's next targets exactly as it
    answers a lockstep fleet worker.  The devices share the caller's
    bus, so their counters land on it directly — no snapshot
    reconciliation, and the ``backend.<name>.*_ns`` timings survive.  A
    Diverse-ABS :class:`VariantController` may move a device to another
    variant at each sweep boundary, applied by ``reassign(device, host,
    variant, g)``.
    """

    def __init__(
        self,
        devices: list[DeviceSimulator],
        reassign: Callable[[DeviceSimulator, Host, SearchVariant, int], None],
        controller: VariantController | None = None,
    ) -> None:
        self.devices = devices
        self.healthy_ids = list(range(len(devices)))
        self._targets: list[Any] = [None] * len(devices)
        self._next = 0
        self._controller = controller
        self._reassign = reassign

    def accepts(self, g: int) -> bool:
        return True

    def put(self, g: int, targets: np.ndarray) -> None:
        self._targets[g] = targets

    def queue_depths(self, g: int) -> tuple[int, int]:
        return -1, 0  # one slot per device, holding the freshest batch

    def poll(self, host: Host) -> ResultBatch:
        g = self._next
        ctl = self._controller
        if ctl is not None and g == 0 and self.devices[0].rounds:
            move = ctl.end_sweep()
            if move is not None:
                moved, _, to_name = move
                self._reassign(
                    self.devices[moved], host, get_variant(to_name), moved
                )
        device = self.devices[g]
        energies, xs = device.round(self._targets[g])
        if ctl is not None:
            ctl.observe(g, float(energies.min()))
        self._next = (g + 1) % len(self.devices)
        return ResultBatch(
            g, 0, energies, xs, device.evaluated, device.engine.counters.flips
        )

    def finish(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for device in self.devices:
            _merge_counts(counts, device_counters(device))
        ctl = self._controller
        if ctl is not None:
            counts["adapt.nonfinite_observations"] += ctl.nonfinite_observations
        counts["adapt.variant_reassignments"] = ctl.reassignments if ctl else 0
        return counts


class AdaptiveBulkSearch:
    """Adaptive Bulk Search over a QUBO instance.

    Example
    -------
    >>> from repro.qubo import QuboMatrix
    >>> from repro.abs import AdaptiveBulkSearch, AbsConfig
    >>> q = QuboMatrix.random(64, seed=0)
    >>> res = AdaptiveBulkSearch(q, AbsConfig(max_rounds=20, seed=1)).solve()
    >>> res.best_energy <= 0
    True
    """

    def __init__(
        self,
        weights: WeightsLike,
        config: AbsConfig | None = None,
        *,
        telemetry: TelemetryBus | NullBus | None = None,
    ) -> None:
        from repro.qubo.sparse import SparseQubo

        if isinstance(weights, SparseQubo):
            self.W: object = weights
            self.n = weights.n
        else:
            self.W = as_weight_matrix(weights)
            self.n = self.W.shape[0]
        if self.n < 1:
            raise ValueError("problem must have at least one bit")
        self.config = config or AbsConfig(max_rounds=100)
        #: Telemetry bus; :data:`~repro.telemetry.NULL_BUS` (all no-ops)
        #: unless the caller wires one in.  The solver never closes it —
        #: lifecycle belongs to whoever attached the sinks.
        self.bus = telemetry if telemetry is not None else NULL_BUS

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, mode: str = "sync") -> SolveResult:
        """Run to a stopping criterion; returns the best found solution."""
        if mode == "process":
            return self._solve_process()
        if mode != "sync":
            raise ValueError(f"unknown mode {mode!r} (use 'sync' or 'process')")
        t_entry = time.perf_counter_ns()
        cfg = self.config
        factory = RngFactory(cfg.seed)
        fleet = self._fleet()
        host = self._new_host(factory, fleet)
        devices = [
            DeviceSimulator(
                self.W,
                cfg.blocks_per_gpu,
                **spec._asdict(),
                adapter=_make_adapter(
                    self.n, cfg.blocks_per_gpu, self._adapt_params(factory, g), self.bus
                ),
                backend=cfg.backend,
                bus=self.bus,
                device_id=g,
            )
            for g, spec in enumerate(self._device_specs(fleet))
        ]
        controller = (
            VariantController(
                [v.name for v in fleet],
                period=cfg.variant_adapt_period,
                bus=self.bus,
            )
            if fleet is not None and cfg.variant_adapt
            else None
        )
        if self.bus.enabled:
            self._emit_start("sync")
        return self._run(
            host, LocalDevices(devices, self._apply_variant, controller), t_entry
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _met_target(self, energy: float) -> bool:
        t = self.config.target_energy
        return t is not None and energy <= t

    def _fleet(self) -> list[SearchVariant] | None:
        """Per-device Diverse-ABS variants, or ``None`` when disabled."""
        cfg = self.config
        if cfg.variants is None:
            return None
        return resolve_fleet(cfg.variants, cfg.n_gpus)

    def _variant_spec(self, variant: SearchVariant, g: int) -> DeviceSpec:
        cfg = self.config
        base = variant.windows(cfg.window, cfg.blocks_per_gpu, self.n)
        return DeviceSpec(
            windows=np.roll(base, g),
            local_steps=variant.effective_local_steps(cfg.local_steps),
            scan_neighbors=variant.effective_scan(cfg.scan_neighbors),
            tabu_steps=variant.tabu_steps,
            tabu_tenure=variant.tabu_tenure,
        )

    def _device_specs(
        self, fleet: list[SearchVariant] | None = None
    ) -> list[DeviceSpec]:
        """Per-device search knobs; devices get rotated ladders so the
        temperature spread differs across GPUs.  With a variant fleet,
        each device's knobs come from its variant."""
        cfg = self.config
        if fleet is not None:
            return [self._variant_spec(fleet[g], g) for g in range(cfg.n_gpus)]
        base = resolve_windows(cfg.window, cfg.blocks_per_gpu, self.n)
        return [
            DeviceSpec(
                windows=np.roll(base, g),
                local_steps=cfg.local_steps,
                scan_neighbors=cfg.scan_neighbors,
                tabu_steps=0,
                tabu_tenure=None,
            )
            for g in range(cfg.n_gpus)
        ]

    def _new_host(
        self, factory: RngFactory, fleet: list[SearchVariant] | None
    ) -> Host:
        """The job's host: pool, GA, and per-device GA for a variant fleet."""
        cfg = self.config
        return Host(
            self.n,
            cfg.pool_capacity,
            cfg.ga,
            rng_factory=factory,
            bus=self.bus,
            min_distance=cfg.diversity_min_dist,
            device_ga=(
                [v.effective_ga(cfg.ga) for v in fleet]
                if fleet is not None
                else None
            ),
        )

    def _adapt_params(self, factory: RngFactory, g: int) -> tuple:
        """Device ``g``'s window-adapter settings, the same in both modes
        (a lockstep worker then adapts exactly like its sync twin)."""
        cfg = self.config
        return (
            cfg.adapt_windows,
            cfg.adapt_period,
            cfg.adapt_fraction,
            factory.stream("adapt", g),
        )

    def _emit_start(self, mode: str) -> None:
        from repro.backends import resolve_backend

        cfg = self.config
        variants = cfg.variants
        if variants is not None and not isinstance(variants, str):
            variants = ",".join(str(v) for v in variants)
        self.bus.emit(
            "solve.start",
            mode=mode,
            n=self.n,
            n_gpus=cfg.n_gpus,
            blocks_per_gpu=cfg.blocks_per_gpu,
            local_steps=cfg.local_steps,
            pool_capacity=cfg.pool_capacity,
            seed=cfg.seed,
            adapt_windows=cfg.adapt_windows,
            # The *active* backend: a requested-but-unavailable bitplane
            # resolves to numpy here, matching what the engines will do.
            backend=resolve_backend(cfg.backend).name,
            diversity_min_dist=cfg.diversity_min_dist,
            **({"variants": variants} if variants is not None else {}),
        )

    def _emit_end(self, result: SolveResult) -> None:
        self.bus.emit(
            "solve.end",
            best_energy=result.best_energy,
            rounds=result.rounds,
            sweeps=result.sweeps,
            elapsed=result.elapsed,
            evaluated=result.evaluated,
            flips=result.flips,
            reached_target=result.reached_target,
            workers_restarted=result.workers_restarted,
            workers_lost=result.workers_lost,
        )

    def _run(
        self,
        host: Host,
        devices: Any,
        t_entry: int,
        cancelled: Callable[[], bool] | None = None,
    ) -> SolveResult:
        """Run the host loop over ``devices``; build the one result.

        ``setup_ns`` is billed from ``t_entry`` to the loop's start.  It
        and ``search_ns`` land on the result (and the bus counters when
        telemetry is on) but deliberately **not** in ``result.counters``:
        that snapshot is pinned bit-identical across runs, modes,
        transports, and telemetry on/off, and wall-clock never is.
        """
        cfg, bus = self.config, self.bus
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        out = run_search_rounds(
            cfg,
            host,
            devices,
            watch,
            bus=bus,
            met_target=self._met_target,
            cancelled=cancelled,
        )
        elapsed = watch.stop()
        ga, pool = host.ga_counts, host.pool
        # Derived from component state after the run, so available with
        # or without telemetry.  ``pool.inserted`` includes the initial
        # random seeding (Step 1 inserts at ``+inf``).
        counters = {
            "host.solutions_absorbed": host.absorbed,
            "pool.inserted": pool.inserted,
            "pool.rejected_duplicate": pool.rejected_duplicate,
            "pool.rejected_worse": pool.rejected_worse,
            "pool.rejected_diverse": pool.rejected_diverse,
            "ga.mutation": ga["mutation"],
            "ga.crossover": ga["crossover"],
            "ga.copy": ga["copy"],
            "adapt.reassignments": 0,
            **out.counts,
        }
        finite = math.isfinite(host.best_energy)
        result = SolveResult(
            best_x=host.best_x if host.best_x is not None else np.zeros(self.n, np.uint8),
            best_energy=int(host.best_energy) if finite else 0,
            elapsed=elapsed,
            rounds=out.rounds,
            sweeps=out.sweeps,
            evaluated=counters.get("engine.evaluated", 0),
            flips=counters.get("engine.flips", 0),
            reached_target=self._met_target(host.best_energy),
            time_to_target=out.time_to_target,
            history=out.history,
            n_gpus=cfg.n_gpus,
            counters=dict(sorted(counters.items())),
            workers_restarted=counters.get("supervisor.restarts", 0),
            workers_lost=counters.get("supervisor.workers_lost", 0),
            pool_mean_distance=pool.mean_pairwise_distance(),
            setup_ns=setup_ns,
            search_ns=int(round(elapsed * 1e9)),
        )
        if bus.enabled:
            bus.counters.inc("solver.setup_ns", result.setup_ns)
            bus.counters.inc("solver.search_ns", result.search_ns)
            self._emit_end(result)
        return result

    def _apply_variant(
        self, device: DeviceSimulator, host: Host, variant: SearchVariant, g: int
    ) -> None:
        """Reconfigure device ``g`` (and its GA stream) to ``variant``."""
        spec = self._variant_spec(variant, g)
        device.engine.windows = spec.windows
        device.local_steps = spec.local_steps
        device.scan_neighbors = spec.scan_neighbors
        device.set_tabu(spec.tabu_steps, spec.tabu_tenure)
        host.set_device_ga(g, variant.effective_ga(self.config.ga))

    # ------------------------------------------------------------------
    # Process mode
    # ------------------------------------------------------------------
    def _require_static_fleet(self) -> None:
        if self.config.variant_adapt:
            raise ValueError(
                "variant_adapt is sync-mode only: process-mode fleets are "
                "static (workers are spawned with their variant baked in)"
            )

    def _solve_process(self) -> SolveResult:
        """One job on a short-lived fleet: start, solve, shut down."""
        t_entry = time.perf_counter_ns()
        self._require_static_fleet()  # before anything is spawned
        cfg = self.config
        workers = WorkerFleet(
            self.n,
            exchange=cfg.exchange,
            n_workers=cfg.n_gpus,
            n_blocks=cfg.blocks_per_gpu,
            bus=self.bus,
            max_restarts=cfg.max_worker_restarts,
            stall_timeout=cfg.worker_stall_timeout,
            start_method=cfg.start_method,
        )
        try:
            workers.start()
            return self.solve_on_fleet(workers, t_entry=t_entry)
        finally:
            workers.shutdown()

    def solve_on_fleet(
        self,
        workers: WorkerFleet,
        *,
        digest: str | None = None,
        cancelled: Callable[[], bool] | None = None,
        t_entry: int | None = None,
    ) -> SolveResult:
        """Run one process-mode job on a started :class:`WorkerFleet`.

        The job is pushed onto the fleet's workers via its arm
        handshake.  Everything search-relevant — RNG factory, host
        pool, GA target sequence, device knobs, adapt seeds — is built
        from the config alone, so a seeded job is bit-identical whether
        its fleet is fresh (``solve("process")``) or warm (the
        service).

        ``digest`` (the problem digest from
        :func:`repro.qubo.io.problem_digest`) keys the fleet's
        shared-memory weights cache and the workers' prepared-weights
        caches; ``None`` disables both reuses.  ``cancelled`` is an
        optional zero-arg callable polled between rounds.  ``t_entry``
        is the ``perf_counter_ns`` timestamp ``setup_ns`` is billed
        from (default: this call); ``setup_ns`` runs until every worker
        has built its device, and the search clock starts there.
        """
        from repro.abs.exchange import resolve_exchange

        if t_entry is None:
            t_entry = time.perf_counter_ns()
        cfg = self.config
        bus = self.bus
        self._require_static_fleet()
        wanted = (
            resolve_exchange(cfg.exchange),
            cfg.n_gpus,
            cfg.blocks_per_gpu,
            self.n,
        )
        if workers.geometry != wanted:
            raise ValueError(
                f"fleet geometry {workers.geometry} does not match job "
                f"{wanted}; build a new fleet for this configuration"
            )
        factory = RngFactory(cfg.seed)
        fleet = self._fleet()
        host = self._new_host(factory, fleet)
        weights_ref, _weights_hit = workers.weights_ref_for(self.W, digest)
        job_seq = workers.next_job_seq()
        jobs = [
            WorkerJob(
                job_seq=job_seq,
                weights_ref=weights_ref,
                digest=digest,
                n_blocks=cfg.blocks_per_gpu,
                device=spec,
                backend=cfg.backend,
                adapt_params=self._adapt_params(factory, g),
                telemetry_enabled=bus.enabled,
                lockstep=cfg.lockstep,
            )
            for g, spec in enumerate(self._device_specs(fleet))
        ]
        devices = FleetDevices(workers, job_seq, bus)
        if bus.enabled:
            self._emit_start("process")
            bus.emit("exchange.open", **workers.transport.describe())
        workers.arm_job(jobs)
        return self._run(host, devices, t_entry, cancelled)
