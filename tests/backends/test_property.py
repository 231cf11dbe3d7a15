"""Property-based invariants over random operation interleavings.

hypothesis generates arbitrary sequences of the engine's public
operations — ``straight_to`` (Algorithm 5), ``local_steps``
(Algorithm 4), ``set_state``, ``reset_best`` — and after every sequence
the suite checks the invariants no interleaving may break:

- the maintained ``energy``/``delta`` agree with an O(n²) from-scratch
  recompute (:func:`tests.helpers.engine_check.assert_engine_valid`);
- ``best_energy`` is genuinely achieved by ``best_x``;
- counters are monotone, internally consistent, and reconcile exactly
  with the telemetry bus's session counters.

Skips gracefully (via ``importorskip``) when hypothesis is absent.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.backends import available_backends, cc_available, resolve_backend  # noqa: E402
from repro.gpusim import BulkSearchEngine  # noqa: E402
from repro.qubo import QuboMatrix, SparseQubo, energy as qubo_energy  # noqa: E402
from repro.telemetry import MemorySink, TelemetryBus  # noqa: E402
from tests.helpers.engine_check import assert_engine_valid  # noqa: E402

N = 20
B = 3
_INT64_MAX = np.iinfo(np.int64).max

# One op = (kind, payload-seed).  Payloads are derived deterministically
# from the seed so hypothesis shrinks to readable sequences.
_op = st.tuples(
    st.sampled_from(["straight", "local", "set_state", "reset_best"]),
    st.integers(min_value=0, max_value=2**16),
)


def _dense_problem():
    return QuboMatrix.random(N, seed=777)


def _sparse_problem():
    return SparseQubo.from_dense(QuboMatrix.random(N, seed=778).W)


def _backend(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return resolve_backend(name)


def _apply(eng, op, payload):
    rng = np.random.default_rng(payload)
    if op == "straight":
        eng.straight_to(
            rng.integers(0, 2, (B, N), dtype=np.uint8),
            scan_neighbors=bool(payload % 2),
        )
    elif op == "local":
        eng.local_steps(int(payload % 9))  # 0..8 forced flips
    elif op == "set_state":
        eng.set_state(int(payload % B), rng.integers(0, 2, N, dtype=np.uint8))
    else:
        eng.reset_best()


def _counter_tuple(c):
    return (
        c.flips,
        c.evaluated,
        c.delta_updates,
        c.straight_flips,
        c.local_flips,
        c.straight_retirements,
    )


@pytest.mark.parametrize("backend_name", available_backends())
class TestInterleavingInvariants:
    @given(ops=st.lists(_op, min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_state_always_recomputes(self, backend_name, ops):
        """validate()'s from-scratch recompute agrees after any sequence."""
        eng = BulkSearchEngine(
            _dense_problem(), B, windows=np.array([2, 5, 13]),
            backend=_backend(backend_name),
        )
        for op, payload in ops:
            _apply(eng, op, payload)
        trace = " -> ".join(op for op, _ in ops)
        assert_engine_valid(eng, context=trace)

    @given(ops=st.lists(_op, min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_sparse_state_always_recomputes(self, backend_name, ops):
        eng = BulkSearchEngine(
            _sparse_problem(), B, windows=7, backend=_backend(backend_name)
        )
        for op, payload in ops:
            _apply(eng, op, payload)
        assert_engine_valid(eng, context=" -> ".join(op for op, _ in ops))

    @given(ops=st.lists(_op, min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_best_is_achieved_and_counters_monotone(self, backend_name, ops):
        problem = _dense_problem()
        eng = BulkSearchEngine(problem, B, backend=_backend(backend_name))
        prev = _counter_tuple(eng.counters)
        for op, payload in ops:
            _apply(eng, op, payload)
            cur = _counter_tuple(eng.counters)
            assert all(a <= b for a, b in zip(prev, cur)), (
                f"counter went backwards across {op!r}: {prev} -> {cur}"
            )
            prev = cur
        c = eng.counters
        assert c.straight_flips + c.local_flips == c.flips
        assert c.evaluated == c.flips * N  # exposure semantics, dense
        assert c.delta_updates == c.flips * N  # dense: writes == exposure
        for b in range(B):
            if eng.best_energy[b] < _INT64_MAX:
                assert eng.best_energy[b] == qubo_energy(problem, eng.best_x[b])

    @given(ops=st.lists(_op, min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_counters_reconcile_with_bus(self, backend_name, ops):
        """Session counters on an attached bus must equal the engine's
        own counters — the same contract the solver pipeline relies on
        (tests/telemetry/test_reconciliation.py), held at engine level
        under arbitrary interleavings."""
        bus = TelemetryBus()
        eng = BulkSearchEngine(
            _dense_problem(), B, backend=_backend(backend_name), bus=bus
        )
        for op, payload in ops:
            _apply(eng, op, payload)
        session = bus.counters.snapshot()
        for key, value in eng.counters.as_dict().items():
            assert session.get(key, 0) == value, key

    @given(ops=st.lists(_op, min_size=1, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_telemetry_never_changes_the_walk(self, backend_name, ops):
        """The timing instrumentation is observation-only: the same
        sequence with and without a bus lands on identical state."""
        quiet = BulkSearchEngine(_dense_problem(), B, backend=_backend(backend_name))
        loud = BulkSearchEngine(
            _dense_problem(), B, backend=_backend(backend_name), bus=TelemetryBus()
        )
        for op, payload in ops:
            _apply(quiet, op, payload)
            _apply(loud, op, payload)
        assert np.array_equal(quiet.X, loud.X)
        assert np.array_equal(quiet.delta, loud.delta)
        assert np.array_equal(quiet.energy, loud.energy)
        assert np.array_equal(quiet.best_energy, loud.best_energy)
        assert _counter_tuple(quiet.counters) == _counter_tuple(loud.counters)


@pytest.mark.skipif(not cc_available(), reason="no C compiler")
class TestBitplaneStraightProperty:
    """Random sizes, block counts, targets and scan modes: the fused
    bitplane ``run_straight`` lands on exactly the numpy reference's
    state, counters and ``engine.straight`` events, on both dense tiers
    (wide weights force ``dense_w64``)."""

    @given(
        n=st.integers(min_value=1, max_value=130),
        blocks=st.integers(min_value=1, max_value=4),
        wide=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        scans=st.lists(st.booleans(), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_straight_matches_numpy(self, n, blocks, wide, seed, scans):
        W = np.asarray(QuboMatrix.random(n, seed=seed).W, dtype=np.int64)
        if wide:
            W *= 5
            W[0, 0] += 2**33  # Δ bound beyond int32, even at n = 1
        problem = QuboMatrix(W, check=False)
        sinks = [MemorySink(), MemorySink()]
        ref, bit = (
            BulkSearchEngine(
                problem, blocks, windows=min(n, 4), backend=_backend(name),
                bus=TelemetryBus([sink]),
            )
            for name, sink in zip(("numpy", "bitplane"), sinks)
        )
        assert bit._pw.planes.variant == ("dense_w64" if wide else "dense_w16_d32")
        rng = np.random.default_rng(seed)
        for i, scan in enumerate(scans):
            T = rng.integers(0, 2, (blocks, n), dtype=np.uint8)
            if i % 2:
                T[0] = ref.X[0]  # a block already at its target
            assert ref.straight_to(T, scan_neighbors=scan) == bit.straight_to(
                T, scan_neighbors=scan
            )
            ref.local_steps(2)
            bit.local_steps(2)
        for field in ("X", "delta", "energy", "best_energy", "best_x", "offsets"):
            assert np.array_equal(getattr(ref, field), getattr(bit, field)), field
        assert _counter_tuple(ref.counters) == _counter_tuple(bit.counters)
        events = [
            [{k: v for k, v in e.fields.items() if k != "backend"}
             for e in sink.named("engine.straight")]
            for sink in sinks
        ]
        assert events[0] == events[1]
