"""Worker fleets: the one process-mode plumbing for every solve.

Process mode pays a substantial fixed cost before the first round runs:
spawning one OS process per simulated GPU, allocating the exchange
transport (shared-memory mailboxes/rings or a TCP listener), copying
the weight matrix into shared memory, and letting each worker's kernel
backend prepare the weights.  The paper's host/device split has no
per-problem worker state beyond the weights and the GA targets, so the
same fleet can be re-armed with a new problem instead of being torn
down and respawned.

Every process-mode solve runs on a :class:`WorkerFleet`:

- a one-shot ``solve("process")`` starts a short-lived fleet, runs one
  job on it, and shuts it down;
- the service (:mod:`repro.service`) keeps one fleet warm and runs a
  stream of jobs on it.

Workers run :func:`_fleet_worker_main`, a control loop that accepts
``JOB`` frames over a per-worker control queue, (re-)arms the exchange
endpoint under the job's epoch token, and runs the standard device
rounds until the next frame (or shutdown) arrives.  Spawn, transport,
and backend-prepared weights all survive across jobs.

**Epoch tokens.**  The exchange layer already discards traffic whose
epoch does not match (that is how worker restarts skip a predecessor's
stale targets).  The fleet widens the epoch into a token::

    token = job_seq * JOB_STRIDE + incarnation

so one integer simultaneously identifies *which job* and *which
incarnation of the worker slot* produced a frame.  Cross-job traffic
(a result published microseconds before a re-arm) is filtered by the
host exactly like a stale incarnation's.  Jobs are numbered from 1.

**Arm handshake.**  ``arm_job`` rebinds every healthy worker's target
channel to the new token, delivers one ``WorkerJob`` frame per worker,
and waits until every healthy worker acknowledges the new job sequence
number.  The ack gate orders the start of a job: initial targets are
published only after every worker has re-armed and built its device.
Workers that die mid-handshake are restarted by the supervisor and
armed at spawn with the *current* frame — a replacement can never
resurrect the previous job.
"""

from __future__ import annotations

import math
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.abs.adaptive import WindowAdapter
from repro.abs.buffers import SharedWeights
from repro.abs.config import AbsConfig
from repro.abs.device import DeviceSimulator
from repro.abs.exchange import (
    ResultBatch,
    make_host_transport,
    open_worker_endpoint,
    resolve_exchange,
)
from repro.abs.host import Host
from repro.abs.supervisor import WorkerSupervisor
from repro.telemetry.bus import NULL_BUS, NullBus, RelayBus, TelemetryBus

#: Epoch tokens pack ``(job_seq, incarnation)`` into one integer:
#: ``job_seq * JOB_STRIDE + incarnation``.  The stride bounds restarts
#: per job at ~1M — far beyond any restart budget.
JOB_STRIDE = 1 << 20

#: Interval for worker control-queue polls and host ack polls.
_POLL_INTERVAL = 0.25

#: Sentinel control frame asking a worker to exit cleanly.
_SHUTDOWN = "shutdown"


def encode_token(job_seq: int, incarnation: int) -> int:
    """Pack a job sequence number and an incarnation into one epoch."""
    if not 0 <= incarnation < JOB_STRIDE:
        raise ValueError(f"incarnation out of range: {incarnation}")
    return job_seq * JOB_STRIDE + incarnation


def decode_token(token: int) -> tuple[int, int]:
    """``token -> (job_seq, incarnation)``; inverse of :func:`encode_token`."""
    return divmod(int(token), JOB_STRIDE)


def _merge_counts(into: dict[str, int], add: dict[str, int]) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + int(value)


def device_counters(device: DeviceSimulator) -> dict[str, int]:
    """A device's cumulative counters, as each of its results reports them."""
    adapter = device.adapter
    counts = device.engine.counters.as_dict()
    counts["adapt.reassignments"] = (
        adapter.adaptations if adapter is not None else 0
    )
    counts["adapt.nonfinite_observations"] = (
        adapter.nonfinite_observations if adapter is not None else 0
    )
    counts["variant.tabu_steps"] = device.tabu_steps_done
    return counts


def _resolve_start_method(requested: str | None) -> str:
    """Pick the multiprocessing start method for process mode.

    ``None`` prefers ``"fork"`` (cheapest: workers inherit the parent
    image) where the platform offers it, otherwise the platform
    default.  An explicit request is validated against what the
    platform supports.
    """
    import multiprocessing as mp

    available = mp.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                f"start method {requested!r} not available on this platform "
                f"(available: {available})"
            )
        return requested
    return "fork" if "fork" in available else mp.get_start_method()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class DeviceSpec(NamedTuple):
    """One device's search knobs, as :class:`DeviceSimulator` takes them.

    Built once per job by the solver (homogeneous ladder or Diverse-ABS
    variant) and used verbatim by in-process devices and fleet workers.
    """

    windows: np.ndarray
    local_steps: int
    scan_neighbors: bool
    tabu_steps: int
    tabu_tenure: int | None


@dataclass(frozen=True)
class WorkerJob:
    """One job assignment, shipped to a fleet worker as a frame.

    Carries everything a worker needs for one job, minus what it
    already owns (its id, its endpoint, the stop event).  ``job_seq``
    rather than a full token: the worker combines it with its *own*
    incarnation number, so a frame delivered to a freshly restarted
    worker arms it under the replacement's epoch, not its dead
    predecessor's.
    """

    job_seq: int
    weights_ref: tuple
    digest: str | None
    n_blocks: int
    device: DeviceSpec
    backend: str | None
    adapt_params: tuple
    telemetry_enabled: bool
    lockstep: bool


class _StopProxy:
    """Stop event that also trips on a pending control frame.

    Handed to the exchange endpoint and the round loop in place of the
    real stop event: a worker blocked in a lockstep target wait, a
    full-ring publish, or the free-running round loop must notice a
    newly queued ``JOB`` frame and fall back to the control loop —
    otherwise re-arming a busy fleet could wait a full round (or, for
    a blocked worker, forever).  ``Queue.empty()`` is advisory under
    multiprocessing, which is fine here: a false negative only delays
    the trip until the next poll.
    """

    __slots__ = ("_stop", "_control")

    def __init__(self, stop_evt: Any, control: Any) -> None:
        self._stop = stop_evt
        self._control = control

    def is_set(self) -> bool:
        if self._stop.is_set():
            return True
        try:
            return not self._control.empty()
        except (OSError, ValueError):  # control queue torn down
            return True

    def wait(self, timeout: float | None = None) -> bool:
        # Endpoints only use is_set() in their wait loops, but mirror
        # the Event API for safety.
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True


def run_device_rounds(
    device: DeviceSimulator,
    endpoint: Any,
    relay: Any,
    stop_evt: Any,
    lockstep: bool,
    telemetry_enabled: bool,
) -> None:
    """The §3.2 device loop: fetch targets, run rounds, ship results.

    Runs one job inside :func:`_fleet_worker_main` — the *loop* is
    job-agnostic.  Returns when targets dry up in lockstep mode, a
    publish is refused (stop or ring full at stop), or ``stop_evt``
    trips (which includes a pending control frame via
    :class:`_StopProxy`).
    """
    targets = endpoint.fetch_targets(wait=True)
    while targets is not None and not stop_evt.is_set():
        energies, xs = device.round(targets)
        wevents = relay.drain() if telemetry_enabled else []
        shipped = endpoint.publish(
            energies,
            xs,
            device.evaluated,
            device.engine.counters.flips,
            device_counters(device),
            wevents,
        )
        if not shipped:  # stop requested while the ring was full
            break
        fresh = endpoint.fetch_targets(wait=lockstep)
        if fresh is not None:
            targets = fresh
        elif lockstep:  # stop requested while waiting for targets
            break


def _make_adapter(
    n: int, n_blocks: int, adapt_params: tuple, bus: Any
) -> WindowAdapter | None:
    adapt_enabled, adapt_period, adapt_fraction, adapt_seed = adapt_params
    if not adapt_enabled:
        return None
    return WindowAdapter(
        n,
        n_blocks,
        period=adapt_period,
        fraction=adapt_fraction,
        seed=adapt_seed,
        bus=bus,
    )


def _fleet_worker_main(
    worker_id: int,
    incarnation: int,
    control: Any,
    exchange_ref: tuple,
    stop_evt: Any,
    ack_q: Any,
    prepared_cache_size: int,
) -> None:
    """Device-process entry point (module-level, picklable).

    Sits in a control loop: each ``WorkerJob`` frame arms the exchange
    endpoint under the job's epoch token, builds a *fresh*
    :class:`DeviceSimulator` (engines start from the canonical zero
    state, so a job on a warm fleet matches a one-shot solve
    bit-for-bit), acks, and runs :func:`run_device_rounds` until the
    next frame arrives.  The endpoint opens on the first frame, so a
    tcp worker's HELLO already carries the token of the job it serves.
    What persists across jobs is exactly the expensive, state-free
    plumbing: the process itself, the exchange endpoint, attached
    shared-memory weight segments (keyed by segment descriptor — the
    host may evict and recreate a segment for the same problem), and
    backend ``PreparedWeights`` (keyed by ``(backend, digest)``;
    read-only kernel input, so reuse cannot couple searches).
    """
    proxy = _StopProxy(stop_evt, control)
    endpoint: Any = None
    shm_cache: OrderedDict[tuple, SharedWeights] = OrderedDict()
    prepared_cache: OrderedDict[tuple, object] = OrderedDict()
    try:
        while not stop_evt.is_set():
            try:
                frame = control.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):  # control queue torn down
                break
            if frame == _SHUTDOWN:
                break
            job: WorkerJob = frame
            kind, payload = job.weights_ref
            if kind == "shm":
                key = tuple(payload)
                shared = shm_cache.get(key)
                if shared is not None:
                    shm_cache.move_to_end(key)  # LRU, not FIFO
                else:
                    shared = SharedWeights.attach(payload)
                    shm_cache[key] = shared
                    while len(shm_cache) > max(1, prepared_cache_size * 2):
                        _, old = shm_cache.popitem(last=False)
                        old.close()
                weights: Any = shared.array
            else:
                weights = payload
            token = encode_token(job.job_seq, incarnation)
            if endpoint is None:
                endpoint = open_worker_endpoint(
                    exchange_ref,
                    worker_id=worker_id,
                    incarnation=token,
                    stop_evt=proxy,
                )
            else:
                endpoint.rearm(token)
            relay = RelayBus() if job.telemetry_enabled else NULL_BUS
            n = weights.n if hasattr(weights, "n") else weights.shape[0]
            adapter = _make_adapter(n, job.n_blocks, job.adapt_params, relay)
            ckey = (job.backend, job.digest)
            prepared = (
                prepared_cache.get(ckey) if job.digest is not None else None
            )
            if prepared is not None:
                prepared_cache.move_to_end(ckey)  # LRU, not FIFO
            device = DeviceSimulator(
                weights,
                job.n_blocks,
                **job.device._asdict(),
                adapter=adapter,
                backend=job.backend,
                bus=relay,
                device_id=worker_id,
                prepared=prepared,
            )
            if job.digest is not None and prepared is None:
                pw = device.engine.prepared
                if pw is not None:
                    prepared_cache[ckey] = pw
                    while len(prepared_cache) > max(1, prepared_cache_size):
                        prepared_cache.popitem(last=False)
            ack_q.put((worker_id, job.job_seq))
            run_device_rounds(
                device,
                endpoint,
                relay,
                proxy,
                job.lockstep,
                job.telemetry_enabled,
            )
    except (KeyboardInterrupt, BrokenPipeError):  # parent went away
        pass
    finally:
        if endpoint is not None:
            endpoint.close()
        for shared in shm_cache.values():
            shared.close()


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class WorkerFleet:
    """Processes + exchange transport + supervisor, reusable across jobs.

    Parameters
    ----------
    n:
        Problem size in bits — part of the fleet geometry (transports
        size their mailboxes/rings from it).
    exchange:
        Transport name (``None`` resolves like ``AbsConfig.exchange``).
    n_workers, n_blocks:
        Fleet geometry: worker processes and blocks per worker.
    bus:
        Telemetry bus for supervisor events.  The service swaps in a
        per-job stamped view via :meth:`WorkerSupervisor` sharing.
    max_restarts, stall_timeout:
        Supervision policy.  The restart budget spans the fleet's
        *lifetime*, not one job (documented in ``docs/service.md``).
    start_method:
        Multiprocessing start method (``None``: platform preference).
    prepared_cache_size:
        Per-worker cap on cached backend-prepared weights.
    weights_cache_size:
        Host-side cap on cached shared-memory weight segments.
    """

    def __init__(
        self,
        n: int,
        *,
        exchange: str | None = None,
        n_workers: int,
        n_blocks: int,
        bus: TelemetryBus | NullBus | None = None,
        max_restarts: int = 2,
        stall_timeout: float | None = None,
        start_method: str | None = None,
        prepared_cache_size: int = 4,
        weights_cache_size: int = 8,
        arm_timeout: float = 30.0,
    ) -> None:
        from multiprocessing import get_context

        self.n = int(n)
        self.exchange = resolve_exchange(exchange)
        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.bus = bus if bus is not None else NULL_BUS
        self.ctx = get_context(_resolve_start_method(start_method))
        self.stop_evt = self.ctx.Event()
        self.transport = make_host_transport(
            self.exchange,
            self.ctx,
            n_workers=self.n_workers,
            n_blocks=self.n_blocks,
            n=self.n,
        )
        self.supervisor: WorkerSupervisor | None = None
        self._max_restarts = int(max_restarts)
        self._stall_timeout = stall_timeout
        self._prepared_cache_size = int(prepared_cache_size)
        self._weights_cache_size = int(weights_cache_size)
        self._arm_timeout = float(arm_timeout)
        # One lock covers the state shared between the arming thread,
        # the supervise thread (whose restart callbacks land in
        # _spawn/_make_channel), and whichever thread calls
        # shutdown().  The weights cache and jobs_armed counter stay
        # unannotated: only the arming thread touches them.
        self._lock = threading.Lock()
        self._job_seq = 0  # guarded-by: _lock
        self._current_jobs: list[WorkerJob] | None = None  # guarded-by: _lock
        self._controls: dict[int, Any] = {}  # guarded-by: _lock
        self._all_controls: list[Any] = []  # guarded-by: _lock
        self._ack_q = self.ctx.Queue()
        #: problem digest -> host-side SharedWeights (LRU, owner).
        self._weights_cache: OrderedDict[str, SharedWeights] = OrderedDict()
        self._closed = False  # guarded-by: _lock
        #: Jobs run on this fleet (arm_job calls); spawns happen once.
        self.jobs_armed = 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> tuple[str, int, int, int]:
        """What must match for a fleet to be reused across jobs."""
        return (self.exchange, self.n_workers, self.n_blocks, self.n)

    @property
    def job_seq(self) -> int:
        """Sequence number of the current (or last armed) job."""
        with self._lock:
            return self._job_seq

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn incarnation 0 of every worker (idle until :meth:`arm_job`)."""
        if self.supervisor is not None:
            raise RuntimeError("fleet already started")
        # Forked workers share the parent's shared-memory resource
        # tracker only if it is already running.  Otherwise (a tcp
        # fleet has no segment yet) each worker starts its own tracker
        # on its first weights attach, and that tracker unlinks the
        # host-owned segment when the worker dies.
        resource_tracker.ensure_running()
        self.supervisor = WorkerSupervisor(
            self.n_workers,
            self._spawn,
            channel_factory=self._make_channel,
            max_restarts=self._max_restarts,
            stall_timeout=self._stall_timeout,
            bus=self.bus,
        )
        self.supervisor.start()
        if self.bus.enabled:
            self.bus.counters.inc("service.fleet_spawns")

    def _make_channel(self, worker_id: int, incarnation: int) -> Any:
        # A restart mid-arm may run this on the supervise thread, so
        # the job_seq read locks.
        with self._lock:
            token = encode_token(self._job_seq, incarnation)
        return self.transport.make_target_channel(worker_id, token)

    def _spawn(self, worker_id: int, incarnation: int, channel: Any) -> Any:
        control = self.ctx.Queue()
        with self._lock:
            self._controls[worker_id] = control
            self._all_controls.append(control)
            # A replacement spawned mid-job (or mid-handshake) arms
            # with the *current* frame — never its predecessor's job.
            frame = (
                self._current_jobs[worker_id]
                if self._current_jobs is not None
                else None
            )
            token = encode_token(self._job_seq, incarnation)
        if frame is not None:
            control.put(frame)
        p = self.ctx.Process(
            target=_fleet_worker_main,
            args=(
                worker_id,
                incarnation,
                control,
                self.transport.worker_ref(worker_id, token, channel),
                self.stop_evt,
                self._ack_q,
                self._prepared_cache_size,
            ),
            daemon=True,
        )
        p.start()
        return p

    # ------------------------------------------------------------------
    # Job management
    # ------------------------------------------------------------------
    def next_job_seq(self) -> int:
        """Reserve the next job sequence number (starts at 1)."""
        with self._lock:
            return self._job_seq + 1

    def weights_ref_for(
        self, weights: Any, digest: str | None
    ) -> tuple[tuple, bool]:
        """``(weights_ref, cache_hit)`` for a job's problem weights.

        Dense matrices go through host-owned shared-memory segments
        cached by problem digest — repeat submissions of the same
        problem skip the copy entirely.  Sparse problems are small and
        ship by pickling inside the job frame.
        """
        from repro.qubo.sparse import SparseQubo

        if isinstance(weights, SparseQubo):
            return ("sparse", weights), False
        if digest is not None:
            shared = self._weights_cache.get(digest)
            if shared is not None:
                self._weights_cache.move_to_end(digest)
                if self.bus.enabled:
                    self.bus.counters.inc("service.weights_cache_hits")
                return ("shm", shared.descriptor), True
        shared = SharedWeights.create(np.ascontiguousarray(weights, dtype=np.int64))
        # Undigested segments still enter the cache (under a unique key)
        # so shutdown unlinks them; they just can never be re-hit.
        self._weights_cache[digest or f"anon-{shared.descriptor[0]}"] = shared
        while len(self._weights_cache) > max(1, self._weights_cache_size):
            self._weights_cache.popitem(last=False)[1].unlink()
        return ("shm", shared.descriptor), False

    def arm_job(self, jobs: list[WorkerJob]) -> None:
        """Deliver one job frame per worker and wait for the ack gate.

        ``jobs`` is indexed by worker id and must share one
        ``job_seq`` (from :meth:`next_job_seq`).  On return every
        healthy worker has armed its endpoint under the new epoch token
        and built its device, so initial targets published now are the
        first thing every worker reads for this job.  Workers that
        die during the handshake are restarted and re-armed at spawn;
        the call fails only when no healthy worker remains or the
        timeout expires.
        """
        if self.supervisor is None:
            raise RuntimeError("fleet not started")
        if len(jobs) != self.n_workers:
            raise ValueError(f"need {self.n_workers} jobs, got {len(jobs)}")
        job_seq = jobs[0].job_seq
        with self._lock:
            prev_seq = self._job_seq
        if job_seq <= prev_seq:
            raise ValueError(
                f"job_seq must advance: {job_seq} <= {prev_seq}"
            )
        if any(j.job_seq != job_seq for j in jobs):
            raise ValueError("all jobs in one arm must share a job_seq")
        # Flush the previous job's buffered event bundles under *its*
        # sequence before the epoch moves — e.g. a reconnect that
        # landed after that job's host loop stopped polling.
        self.relay_events(self.bus, prev_seq)
        with self._lock:
            self._job_seq = job_seq
            self._current_jobs = list(jobs)
        self.jobs_armed += 1
        sup = self.supervisor
        # Live workers keep their incarnation; only the channel epoch
        # moves to the new job's token.
        sup.rebind_channels(
            lambda wid, inc, _old: self.transport.rebind_channel(
                wid, encode_token(job_seq, inc), _old
            )
        )
        # Snapshot: a mid-handshake restart adds its own control entry
        # and self-arms with the frame set above, so missing it is fine.
        with self._lock:
            controls = dict(self._controls)
        for wid in sup.healthy_ids:
            controls[wid].put(jobs[wid])
        acked: set[int] = set()
        deadline = time.monotonic() + self._arm_timeout
        while True:
            sup.poll()  # deaths mid-handshake respawn with the frame
            healthy = set(sup.healthy_ids)
            if not healthy:
                raise RuntimeError(
                    "all ABS workers died before finishing "
                    f"(after {sup.workers_restarted} restarts)"
                )
            if healthy <= acked:
                if self.bus.enabled:
                    self.bus.counters.inc("service.fleet_rearms")
                return
            try:
                wid, jseq = self._ack_q.get(timeout=0.1)
            except queue_mod.Empty:
                pass
            else:
                if jseq == job_seq:
                    acked.add(wid)
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet re-arm timed out after {self._arm_timeout:.0f}s "
                    f"(acked {sorted(acked)}, healthy {sorted(healthy)})"
                )

    def relay_events(self, bus: "TelemetryBus | NullBus", job_seq: int) -> None:
        """Re-emit buffered worker-side event bundles for ``job_seq``.

        Worker telemetry (``device.round``, ``engine.*``, ``adapt.*``)
        and host-transport synthetics (``exchange.reconnect``) ride the
        transport's side channel; re-emit them stamped with the worker
        id, but only for the worker's current incarnation *and this
        job* — a killed predecessor's (or a previous job's) buffered
        events would misattribute counters otherwise.
        """
        if not bus.enabled or self.supervisor is None:
            self.transport.event_bundles()  # discard, don't accumulate
            return
        for wid, winc, wevents in self.transport.event_bundles():
            wseq, inc = decode_token(winc)
            if wseq != job_seq or inc != self.supervisor.incarnation(wid):
                continue
            if self.supervisor.target_channel(wid) is None:  # lost
                continue
            for name, fields in wevents:
                payload = dict(fields)
                payload.setdefault("device", wid)
                bus.emit(name, **payload)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers, drain queues, tear the transport down."""
        # Atomic test-and-set: the service can race its own failure
        # teardown against close(), and only one caller may proceed to
        # join/terminate/unlink below.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            controls = list(self._controls.values())
            last_seq = self._job_seq
        self.stop_evt.set()
        for control in controls:
            try:
                control.put(_SHUTDOWN)
            except (OSError, ValueError):
                pass
        procs = self.supervisor.all_processes if self.supervisor else []
        deadline = time.monotonic() + 5.0
        for p in procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        # Workers are down, so every frame they ever sent has been
        # accepted: one last relay catches bundles that arrived after
        # the host loop stopped polling (a late reconnect, the final
        # round's device events).
        try:
            self.relay_events(self.bus, last_seq)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        # Drain the control and ack queues so their feeder threads can
        # exit, then tear down the transport (unlinks the shm
        # rings/mailboxes).
        with self._lock:
            queues = [*self._all_controls, self._ack_q]
        for q in queues:
            try:
                while True:
                    q.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                pass
        self.transport.drain()
        self.transport.close()
        for shared in self._weights_cache.values():
            shared.unlink()
        self._weights_cache.clear()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The host search loop
# ----------------------------------------------------------------------
@dataclass
class SearchOutcome:
    """What one run of :func:`run_search_rounds` produced."""

    rounds: int = 0
    sweeps: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    history: list[tuple[float, int]] = field(default_factory=list)
    time_to_target: float | None = None
    was_cancelled: bool = False


class FleetDevices:
    """One job's device set on an armed :class:`WorkerFleet`.

    The seam :func:`run_search_rounds` drives, plus what crossing a
    process boundary needs:

    - epoch-token filtering: a previous job's frames still in flight
      after a re-arm only feed the liveness clock (absorbing another
      problem's solution would be wrong, not merely stale);
    - incarnation banking: a dead incarnation's cumulative counters are
      banked, so a restart neither drops nor double-counts work;
    - relayed events and session counters: worker events ride the
      transport and are re-emitted here, and the bus counters advance
      by the delta between a worker's cumulative snapshots (its relay
      bus drops its own increments);
    - restart rehydration: a replacement gets fresh GA targets from
      the current pool — Algorithm 5 walks it there from the zero
      state, so no other worker state needs recovering.

    Build it before :meth:`WorkerFleet.arm_job`: per-job restart, loss
    and transport numbers are diffs against the fleet's totals here.
    """

    def __init__(
        self, fleet: WorkerFleet, job_seq: int, bus: TelemetryBus | NullBus
    ) -> None:
        sup = fleet.supervisor
        if sup is None:
            raise RuntimeError("fleet not started")
        self._fleet = fleet
        self._sup = sup
        self._job_seq = job_seq
        self._bus = bus
        # The first job on a fleet owns everything since spawn: workers
        # may already have said HELLO (tcp) before this line.
        first_job = fleet.jobs_armed == 0
        self._base: dict[str, int] = {
            "supervisor.restarts": 0 if first_job else sup.workers_restarted,
            "supervisor.workers_lost": 0 if first_job else sup.workers_lost,
            **({} if first_job else fleet.transport.stats),
        }
        #: Latest cumulative snapshot per worker (current incarnation).
        self._latest: list[dict[str, int]] = [{} for _ in range(fleet.n_workers)]
        self._banked: dict[str, int] = {}

    @property
    def healthy_ids(self) -> list[int]:
        return self._sup.healthy_ids

    def accepts(self, g: int) -> bool:
        return self._sup.target_channel(g) is not None

    def put(self, g: int, targets: np.ndarray) -> None:
        ch = self._sup.target_channel(g)
        if ch is not None:
            ch.put(targets)

    def queue_depths(self, g: int) -> tuple[int, int]:
        return self._fleet.transport.queue_depths(g, self._sup.target_channel(g))

    def poll(self, host: Host) -> ResultBatch | None:
        """Supervise, then take one result of this job (``None``: none)."""
        sup = self._sup
        for action in sup.poll():
            _merge_counts(self._banked, self._latest[action.worker_id])
            self._latest[action.worker_id] = {}
            if action.kind == "restart":
                # The channel is the replacement's — for shm it
                # publishes under the new epoch into the same mailbox.
                self.put(
                    action.worker_id,
                    host.make_targets(self._fleet.n_blocks, device=action.worker_id),
                )
        batch = self._fleet.transport.poll(timeout=0.25)
        if batch is None:
            if sup.n_healthy == 0:
                raise RuntimeError(
                    "all ABS workers died before finishing "
                    f"(after {sup.workers_restarted} restarts)"
                )
            return None
        g = batch.worker_id
        batch_seq, batch_inc = decode_token(batch.incarnation)
        fresh = sup.note_result(g, batch_inc)
        if batch_seq != self._job_seq:
            return None  # proof of life only
        if fresh:
            bus = self._bus
            if bus.enabled:
                prev = self._latest[g]
                for key, value in batch.counters.items():
                    delta = int(value) - int(prev.get(key, 0))
                    if delta:
                        bus.counters.inc(key, delta)
                self._fleet.relay_events(bus, self._job_seq)
            self._latest[g] = batch.counters
        return batch

    def finish(self) -> dict[str, int]:
        """The job's device-side counters, once the host loop stops."""
        # Late bundles — e.g. a reconnect during the final round — would
        # otherwise be dropped with the run already decided.
        self._fleet.relay_events(self._bus, self._job_seq)
        counts = dict(self._banked)
        for latest in self._latest:
            _merge_counts(counts, latest)
        sup = self._sup
        now = {
            "supervisor.restarts": sup.workers_restarted,
            "supervisor.workers_lost": sup.workers_lost,
            **self._fleet.transport.stats,
        }
        counts.update(
            {k: int(v) - int(self._base.get(k, 0)) for k, v in now.items()}
        )
        # Process-mode fleets are static; keep the key for parity with
        # sync-mode snapshots.
        counts["adapt.variant_reassignments"] = 0
        return counts


def run_search_rounds(
    cfg: AbsConfig,
    host: Host,
    devices: Any,
    watch: Any,
    *,
    bus: TelemetryBus | NullBus,
    met_target: Callable[[float], bool],
    cancelled: Callable[[], bool] | None = None,
) -> SearchOutcome:
    """The host of Figure 5 (§3.1 Steps 2–4), for every solve mode.

    Publishes the initial targets, then takes device results one at a
    time, pools each, and answers it with as many fresh GA targets as
    arrived, until a stop criterion fires.  ``devices`` is a device
    set — :class:`FleetDevices` in process mode, the solver's
    in-process set in sync mode — offering ``put(g, targets)``,
    ``accepts(g)`` (device ``g`` still reads targets),
    ``queue_depths(g)``, ``healthy_ids``, ``poll(host)`` (the next
    :class:`~repro.abs.exchange.ResultBatch`, or ``None`` when none
    arrived in time) and ``finish()`` (the run's device-side counters).
    """
    out = SearchOutcome()
    rounds_by_device = [0] * cfg.n_gpus
    targets = host.initial_targets(cfg.total_blocks)
    for g in range(cfg.n_gpus):
        lo = g * cfg.blocks_per_gpu
        devices.put(g, np.ascontiguousarray(targets[lo : lo + cfg.blocks_per_gpu]))
    while True:
        batch = devices.poll(host)
        if batch is None:
            if cancelled is not None and cancelled():
                out.was_cancelled = True
                break
            if cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
                break
            continue
        g = batch.worker_id
        out.rounds += 1
        rounds_by_device[g] += 1
        if bus.enabled:
            bus.counters.inc("host.rounds")
            bus.emit(
                "worker.result",
                worker=g,
                round=out.rounds,
                best_energy=int(batch.energies.min()),
                evaluated=batch.evaluated,
                flips=batch.flips,
            )
        host.absorb_batch(batch.energies, batch.x)
        if bus.enabled:
            bus.emit(
                "host.round",
                round=out.rounds,
                device=g,
                best_energy=host.best_energy,
                pool_size=len(host.pool),
                elapsed=watch.elapsed,
            )
        if math.isfinite(host.best_energy):
            out.history.append((watch.elapsed, int(host.best_energy)))
        if met_target(host.best_energy):
            out.time_to_target = watch.elapsed
            break
        if cancelled is not None and cancelled():
            out.was_cancelled = True
            break
        if cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
            break
        if cfg.max_rounds is not None and out.rounds >= cfg.max_rounds:
            break
        # Step 4: as many fresh targets as solutions arrived — but never
        # feed a device nobody reads any more.
        if devices.accepts(g):
            devices.put(g, host.make_targets(cfg.blocks_per_gpu, device=g))
            if bus.enabled:
                tq, rq = devices.queue_depths(g)
                bus.emit(
                    "host.queue",
                    device=g,
                    targets_queued=tq,
                    results_queued=rq,
                )
    out.counts = devices.finish()
    healthy = devices.healthy_ids
    out.sweeps = min([rounds_by_device[g] for g in healthy] or rounds_by_device)
    return out
