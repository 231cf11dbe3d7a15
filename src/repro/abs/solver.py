"""The top-level ABS solver: host + devices in sync or process mode.

``"sync"`` mode interleaves the host loop and device rounds in one
process — deterministic given a seed, and the mode every
time-to-solution benchmark uses.  ``"process"`` mode launches one OS
process per simulated GPU, mirroring the paper's multi-GPU deployment:
the weight matrix lives in shared memory (one copy, like GPU global
memory), targets flow host → device and solutions device → host through
the exchange transport (:mod:`repro.abs.exchange` — bit-packed
shared-memory rings by default, framed loopback sockets with
``exchange="tcp"``), and nobody blocks on anybody — a device that sees
no fresh targets keeps searching from its current state, exactly the
paper's asynchronous tolerance.  ``AbsConfig.lockstep`` trades that
freedom for determinism (workers wait for fresh targets after every
round), and ``AbsConfig.pipeline`` double-buffers targets so host GA
for round ``i + 1`` overlaps worker execution of round ``i``.

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

from repro.abs.adaptive import VariantController, WindowAdapter
from repro.abs.config import AbsConfig, resolve_windows
from repro.abs.variants import SearchVariant, get_variant, resolve_fleet
from repro.abs.device import DeviceSimulator
from repro.abs.fleet import (
    DeviceSpec,
    WorkerFleet,
    WorkerJob,
    _counter_snapshot,
    _merge_counts,
    assemble_process_result,
    run_search_rounds,
)
from repro.abs.host import Host
from repro.abs.result import SolveResult
from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory
from repro.utils.timer import Stopwatch


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
        if mode == "sync":
            return self._solve_sync()
        if mode == "process":
            return self._solve_process()
        raise ValueError(f"unknown mode {mode!r} (use 'sync' or 'process')")

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

    def _make_adapter(self, factory: RngFactory, g: int) -> WindowAdapter | None:
        cfg = self.config
        if not cfg.adapt_windows:
            return None
        return WindowAdapter(
            self.n,
            cfg.blocks_per_gpu,
            period=cfg.adapt_period,
            fraction=cfg.adapt_fraction,
            seed=factory.stream("adapt", g),
            bus=self.bus,
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
            # The *active* backend: a requested-but-unavailable numba
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

    # ------------------------------------------------------------------
    # Sync mode
    # ------------------------------------------------------------------
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

    def _sync_targets(
        self, host: Host, fleet: list[SearchVariant] | None
    ) -> np.ndarray:
        """Step 4 for one sync sweep.

        Homogeneous runs keep the single ``make_targets(total)`` call —
        and with it the base RNG draw order, bit-for-bit.  A variant
        fleet generates each device's batch from that device's own
        variant generator.
        """
        cfg = self.config
        if fleet is None:
            return host.make_targets(cfg.total_blocks)
        return np.concatenate(
            [
                host.make_targets(cfg.blocks_per_gpu, device=g)
                for g in range(cfg.n_gpus)
            ]
        )

    def _solve_sync(self) -> SolveResult:
        cfg = self.config
        bus = self.bus
        t_entry = time.perf_counter_ns()
        factory = RngFactory(cfg.seed)
        fleet = self._fleet()
        host = self._new_host(factory, fleet)
        devices = [
            DeviceSimulator(
                self.W,
                cfg.blocks_per_gpu,
                **spec._asdict(),
                adapter=self._make_adapter(factory, g),
                backend=cfg.backend,
                bus=bus,
                device_id=g,
            )
            for g, spec in enumerate(self._device_specs(fleet))
        ]
        controller = (
            VariantController(
                [v.name for v in fleet],
                period=cfg.variant_adapt_period,
                bus=bus,
            )
            if fleet is not None and cfg.variant_adapt
            else None
        )

        if bus.enabled:
            self._emit_start("sync")
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        targets = host.initial_targets(cfg.total_blocks)
        history: list[tuple[float, int]] = []
        rounds = 0
        rounds_by_device = [0] * cfg.n_gpus
        time_to_target: float | None = None
        done = False

        while not done:
            for g, device in enumerate(devices):
                lo = g * cfg.blocks_per_gpu
                batch = np.ascontiguousarray(
                    targets[lo : lo + cfg.blocks_per_gpu]
                )
                energies, xs = device.round(batch)
                host.absorb_batch(energies, xs)
                if controller is not None:
                    controller.observe(g, float(energies.min()))
                rounds += 1
                rounds_by_device[g] += 1
                if bus.enabled:
                    bus.counters.inc("host.rounds")
                    bus.emit(
                        "host.round",
                        round=rounds,
                        device=g,
                        best_energy=host.best_energy,
                        pool_size=len(host.pool),
                        elapsed=watch.elapsed,
                    )
                if self._met_target(host.best_energy):
                    if time_to_target is None:
                        time_to_target = watch.elapsed
                    done = True
                    break
                if cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
                    done = True
                    break
                if cfg.max_rounds is not None and rounds >= cfg.max_rounds:
                    done = True
                    break
            if math.isfinite(host.best_energy):
                history.append((watch.elapsed, int(host.best_energy)))
            if not done:
                if controller is not None:
                    move = controller.end_sweep()
                    if move is not None:
                        moved, _, to_name = move
                        self._apply_variant(
                            devices[moved], host, get_variant(to_name), moved
                        )
                targets = self._sync_targets(host, fleet)

        elapsed = watch.stop()
        evaluated = sum(d.evaluated for d in devices)
        flips = sum(d.engine.counters.flips for d in devices)
        engine_counts: dict[str, int] = {}
        for d in devices:
            _merge_counts(engine_counts, d.engine.counters.as_dict())
        adapt_total = sum(
            d.adapter.adaptations for d in devices if d.adapter is not None
        )
        nonfinite_total = sum(
            d.adapter.nonfinite_observations
            for d in devices
            if d.adapter is not None
        )
        if controller is not None:
            nonfinite_total += controller.nonfinite_observations
        variant_extra = {
            "adapt.nonfinite_observations": nonfinite_total,
            "adapt.variant_reassignments": (
                controller.reassignments if controller is not None else 0
            ),
            "variant.tabu_steps": sum(d.tabu_steps_done for d in devices),
        }
        best_x = host.best_x if host.best_x is not None else np.zeros(self.n, np.uint8)
        best_e = int(host.best_energy) if math.isfinite(host.best_energy) else 0
        result = SolveResult(
            best_x=best_x,
            best_energy=best_e,
            elapsed=elapsed,
            rounds=rounds,
            sweeps=min(rounds_by_device),
            evaluated=evaluated,
            flips=flips,
            reached_target=self._met_target(host.best_energy),
            time_to_target=time_to_target,
            history=history,
            n_gpus=cfg.n_gpus,
            counters=_counter_snapshot(
                host, engine_counts, adapt_total, extra=variant_extra
            ),
            pool_mean_distance=host.pool.mean_pairwise_distance(),
            setup_ns=setup_ns,
            search_ns=int(round(elapsed * 1e9)),
        )
        if bus.enabled:
            bus.counters.inc("solver.setup_ns", result.setup_ns)
            bus.counters.inc("solver.search_ns", result.search_ns)
            self._emit_end(result)
        return result

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
        adapt_seeds = [
            int(factory.stream("adapt-seed", g).integers(2**62))
            for g in range(cfg.n_gpus)
        ]
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
                adapt_params=(
                    cfg.adapt_windows,
                    cfg.adapt_period,
                    cfg.adapt_fraction,
                    adapt_seeds[g],
                ),
                telemetry_enabled=bus.enabled,
                lockstep=cfg.lockstep,
            )
            for g, spec in enumerate(self._device_specs(fleet))
        ]
        sup = workers.supervisor
        # Per-job numbers are diffs against the fleet's totals at job
        # start.  The first job on a fleet owns everything since spawn:
        # workers may already have said HELLO (tcp) before this line.
        first_job = workers.jobs_armed == 0
        base_restarts = 0 if first_job else sup.workers_restarted
        base_lost = 0 if first_job else sup.workers_lost
        base_stats: dict[str, Any] = {} if first_job else dict(workers.transport.stats)
        if bus.enabled:
            self._emit_start("process")
            bus.emit("exchange.open", **workers.transport.describe())
        workers.arm_job(jobs)
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        outcome = run_search_rounds(
            cfg,
            host,
            workers,
            watch,
            bus=bus,
            met_target=self._met_target,
            job_seq=job_seq,
            cancelled=cancelled,
        )
        elapsed = watch.stop()
        stats_now = workers.transport.stats
        result = assemble_process_result(
            cfg,
            self.n,
            host,
            outcome,
            elapsed,
            met_target=self._met_target,
            bus=bus,
            restarts=sup.workers_restarted - base_restarts,
            lost=sup.workers_lost - base_lost,
            transport_stats={
                k: int(v) - int(base_stats.get(k, 0))
                for k, v in stats_now.items()
            },
            setup_ns=setup_ns,
            search_ns=int(round(elapsed * 1e9)),
        )
        if bus.enabled:
            self._emit_end(result)
        return result
