"""Solve results and run statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolveResult:
    """Outcome of one :class:`~repro.abs.solver.AdaptiveBulkSearch` run.

    Attributes
    ----------
    best_x, best_energy:
        The best solution found and its energy.
    elapsed:
        Wall-clock seconds spent searching (setup excluded).
    rounds:
        Completed device rounds (summed over devices).  With two
        devices and ``rounds == 6``, each device ran ~3 rounds.
    sweeps:
        Completed *sweeps*: full passes in which every (surviving)
        device finished a round — ``min`` over the per-device round
        counts.  ``rounds`` measures total work, ``sweeps`` measures
        search depth; in sync mode ``rounds == sweeps × n_gpus`` up to
        the partial final sweep, and both are counted identically in
        process mode (workers lost to supervision are excluded from
        the ``min``).
    evaluated:
        Total solutions evaluated (Definition 1 denominator).
    flips:
        Total accepted bit flips across all blocks.
    reached_target:
        Whether ``target_energy`` was met (always ``False`` when no
        target was set).
    time_to_target:
        Seconds until the target was first met (``None`` if never).
    history:
        ``(elapsed_seconds, best_energy)`` checkpoints, one per host
        polling iteration — the solver's convergence trace.
    n_gpus:
        Devices that produced the result.
    counters:
        Per-run counter snapshot (``pool.*``, ``ga.*``, ``engine.*``,
        ``adapt.*``, ``host.*`` — the full catalog is in
        ``docs/observability.md``).  Populated by the solver whether or
        not telemetry is enabled; derived from component state at the
        end of the run, so it costs nothing on the hot path.
    workers_restarted:
        Process mode: worker processes restarted by the supervision
        layer after dying or stalling (each replacement was rehydrated
        with fresh GA targets from the pool).  Always 0 in sync mode.
    workers_lost:
        Process mode: workers permanently retired after exhausting
        ``max_worker_restarts`` — the solve completed on the
        survivors.  Always 0 in sync mode.
    pool_mean_distance:
        Mean pairwise Hamming distance over the host pool at the end
        of the run (``None`` when the pool held fewer than two
        solutions).  The Diverse-ABS diversity metric: higher with
        ``diversity_min_dist`` niching than without.
    setup_ns:
        Nanoseconds spent preparing the run before the first search
        round: host and device construction (including a backend's
        kernel compile and weight prepare) and, in process mode,
        shared-memory publication, worker spawn, exchange setup, and
        the arm handshake that waits for every worker's device.  This
        is the cold-start cost the warm-fleet service amortizes (see
        ``docs/service.md``); also surfaced as the ``solver.setup_ns``
        counter.
    search_ns:
        Nanoseconds spent in the search loop proper (the same span
        ``elapsed`` measures, in integer nanoseconds; also the
        ``solver.search_ns`` counter).
    """

    best_x: np.ndarray
    best_energy: int
    elapsed: float
    rounds: int
    evaluated: int
    flips: int
    sweeps: int = 0
    reached_target: bool = False
    time_to_target: float | None = None
    history: list[tuple[float, int]] = field(default_factory=list)
    n_gpus: int = 1
    counters: dict[str, int] = field(default_factory=dict)
    workers_restarted: int = 0
    workers_lost: int = 0
    pool_mean_distance: float | None = None
    setup_ns: int = 0
    search_ns: int = 0

    @property
    def search_rate(self) -> float:
        """Measured solutions/second (Definition 1 over the whole run)."""
        if self.elapsed <= 0:
            return 0.0
        return self.evaluated / self.elapsed

    def summary(self) -> str:
        """One-line human-readable digest."""
        rate = self.search_rate
        degraded = ""
        if self.workers_restarted or self.workers_lost:
            degraded = (
                f" restarted={self.workers_restarted} lost={self.workers_lost}"
            )
        return (
            f"best={self.best_energy} elapsed={self.elapsed:.3g}s "
            f"rounds={self.rounds} sweeps={self.sweeps} "
            f"evaluated={self.evaluated:.3g} "
            f"rate={rate:.3g}/s gpus={self.n_gpus}"
            + degraded
            + (" [target reached]" if self.reached_target else "")
        )
