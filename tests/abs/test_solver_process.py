"""Tests for the multi-process ABS solver (the multi-GPU simulation).

The worker-death scenarios are deterministic without wall-clock races:
the surviving (or restarted) worker is *gated* on a supervision
telemetry event — it only starts searching once the host has provably
detected and handled the failure, so every assertion about
``workers_lost`` / ``workers_restarted`` is exact.
"""

import glob
import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.abs.fleet as fleet_mod
from repro.abs import AbsConfig, AdaptiveBulkSearch, DeviceSimulator
from repro.qubo import QuboMatrix, energy
from repro.search import solve_exact
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.process, pytest.mark.timeout(60)]


@pytest.fixture
def small():
    return QuboMatrix.random(16, seed=909)


class _SetOnEvent:
    """Telemetry sink that sets a multiprocessing event on a given name."""

    def __init__(self, name, evt):
        self.name = name
        self.evt = evt

    def handle(self, event):
        if event.name == self.name:
            self.evt.set()


class TestSolveProcess:
    def test_reaches_exact_optimum(self, small):
        opt = solve_exact(small).energy
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=8,
            local_steps=16,
            pool_capacity=16,
            target_energy=opt,
            time_limit=30.0,
            seed=13,
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.reached_target
        assert res.best_energy == opt

    def test_result_self_consistent(self, small):
        cfg = AbsConfig(max_rounds=6, blocks_per_gpu=4, time_limit=30.0, seed=1)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.best_energy == energy(small, res.best_x)
        assert res.evaluated > 0
        assert res.rounds >= 1

    def test_time_limit_honoured(self, small):
        cfg = AbsConfig(time_limit=0.5, blocks_per_gpu=4, seed=2)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.elapsed < 10.0

    def test_multi_worker_counters_aggregate(self, small):
        cfg = AbsConfig(
            n_gpus=2, blocks_per_gpu=4, max_rounds=8, time_limit=30.0, seed=3
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.n_gpus == 2
        assert res.evaluated > 0
        assert res.flips > 0

    def test_no_shared_memory_leak(self, small):
        before = set(glob.glob("/dev/shm/*"))
        cfg = AbsConfig(max_rounds=4, blocks_per_gpu=4, time_limit=30.0, seed=4)
        AdaptiveBulkSearch(small, cfg).solve("process")
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before  # nothing new left behind

    def test_healthy_run_reports_no_restarts(self, small):
        cfg = AbsConfig(max_rounds=4, blocks_per_gpu=4, time_limit=30.0, seed=6)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.workers_restarted == 0
        assert res.workers_lost == 0
        assert res.counters["supervisor.restarts"] == 0
        assert res.counters["supervisor.workers_lost"] == 0


class TestSetupTiming:
    def test_worker_device_build_billed_to_setup(self, small, monkeypatch):
        """As in sync mode, building the device (backend compile,
        weight prepare) is set-up: ``setup_ns`` runs until every
        worker has built its device, and the search clock starts only
        then."""
        parent = os.getpid()
        real_init = DeviceSimulator.__init__

        def slow_init(self, *args, **kwargs):
            if os.getpid() != parent:  # only inside the forked worker
                time.sleep(0.3)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DeviceSimulator, "__init__", slow_init)
        cfg = AbsConfig(
            blocks_per_gpu=4, local_steps=8, max_rounds=2, time_limit=30.0,
            seed=5, start_method="fork",
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.setup_ns >= 0.3e9
        assert res.elapsed < 0.3
        assert res.search_ns == int(round(res.elapsed * 1e9))


class TestStartMethod:
    def test_spawn_start_method_roundtrip(self, small):
        """Worker arguments stay picklable, so ``spawn`` must work."""
        cfg = AbsConfig(
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=2,
            time_limit=30.0,
            seed=8,
            start_method="spawn",
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.best_energy == energy(small, res.best_x)
        assert res.rounds >= 1

    def test_unknown_start_method_rejected_by_config(self):
        with pytest.raises(ValueError, match="start_method"):
            AbsConfig(max_rounds=1, start_method="thread")


class TestWorkerSupervision:
    """Kill workers mid-solve; the run must degrade or recover."""

    def test_one_dead_worker_solve_completes_degraded(self, small, monkeypatch):
        """One of two workers dies before producing anything: the host
        marks it lost (budget 0) and the survivor finishes the solve —
        no hang, and nothing is ever queued to the dead worker."""
        ctx = multiprocessing.get_context("fork")
        degraded = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            if worker_id == 1:
                os._exit(17)
            degraded.wait()  # survivor starts once the loss is handled
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.degrade", degraded)])
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=6,
            max_worker_restarts=0,
            time_limit=60.0,
            seed=21,
        )
        res = AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        assert res.workers_lost == 1
        assert res.workers_restarted == 0
        assert res.rounds >= 1
        assert res.best_energy == energy(small, res.best_x)
        # Every result came from the survivor…
        workers = {e.fields["worker"] for e in sink.named("worker.result")}
        assert workers == {0}
        # …and the host never fed the dead worker's queue (bounded-queue
        # guarantee: targets only flow to healthy workers).
        fed = {e.fields["device"] for e in sink.named("host.queue")}
        assert 1 not in fed
        degrade = sink.named("supervisor.degrade")
        assert len(degrade) == 1
        assert degrade[0].fields["worker"] == 1
        assert degrade[0].fields["exitcode"] == 17

    def test_restarted_worker_contributes_results(self, small, monkeypatch):
        """A worker that dies on its first incarnation is restarted and
        rehydrated with pool targets; every result of the run comes from
        the replacement (the other worker deliberately idles)."""
        ctx = multiprocessing.get_context("fork")
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            # (control, exchange_ref, stop_evt, ack_q, cache size)
            control, stop_evt, ack_q = rest[0], rest[2], rest[3]
            if worker_id == 1 and incarnation == 0:
                os._exit(9)
            if worker_id == 0:
                # Pass the arm handshake, then contribute nothing; prove
                # the replacement carries the run.
                job = control.get(timeout=30)
                ack_q.put((worker_id, job.job_seq))
                while not stop_evt.is_set():
                    time.sleep(0.01)
                return
            restarted.wait()
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.restart", restarted)])
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=4,
            max_worker_restarts=1,
            time_limit=60.0,
            seed=22,
        )
        res = AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.workers_lost == 0
        assert res.rounds == cfg.max_rounds
        # All results were produced by the restarted worker 1.
        workers = {e.fields["worker"] for e in sink.named("worker.result")}
        assert workers == {1}
        restart = sink.named("supervisor.restart")
        assert len(restart) == 1
        assert restart[0].fields["worker"] == 1
        assert restart[0].fields["incarnation"] == 1
        assert restart[0].fields["reason"] == "died"
        # The run snapshot carries the supervision outcome too.
        assert res.counters["supervisor.restarts"] == 1
        assert res.counters["supervisor.workers_lost"] == 0


class TestOneHostLoop:
    """Sync and process mode share one host loop and one result builder,
    so a single lockstep worker reproduces the sync solve in full."""

    @pytest.mark.parametrize(
        "exchange", ["shm", pytest.param("tcp", marks=pytest.mark.tcp)]
    )
    def test_lockstep_process_matches_sync_history_and_counters(
        self, small, exchange
    ):
        kwargs = dict(
            n_gpus=1, blocks_per_gpu=6, local_steps=8, pool_capacity=16,
            max_rounds=10, seed=42, adapt_windows=True, adapt_period=2,
            variants="tabu", diversity_min_dist=2,
        )
        s = AdaptiveBulkSearch(small, AbsConfig(**kwargs)).solve("sync")
        p = AdaptiveBulkSearch(
            small,
            AbsConfig(**kwargs, time_limit=60.0, exchange=exchange, lockstep=True),
        ).solve("process")
        assert [e for _, e in p.history] == [e for _, e in s.history]
        assert len(s.history) == s.rounds

        def search_counters(res):
            return {
                k: v for k, v in res.counters.items()
                if not k.startswith(("exchange.", "supervisor."))
            }

        assert search_counters(p) == search_counters(s)
        assert s.counters["adapt.reassignments"] > 0
        assert s.counters["variant.tabu_steps"] > 0
