"""The benchmark's correctness gate must catch a corrupted answer.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repro  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _flip_first_bit(solve):
    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.best_x = res.best_x.copy()
        res.best_x[0] ^= 1
        return res

    return corrupted


def _one_op(tmp_path, monkeypatch, corrupt: bool) -> wl.Op:
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    if corrupt:
        monkeypatch.setattr(repro, "solve", _flip_first_bit(repro.solve))
    rec = tracing.install(tmp_path)
    try:
        p = wl.run_pass("dense-sync", 7, rec, max_ops=1)
    finally:
        rec.uninstall()
    assert len(p.ops) == 1
    return p.ops[0]


def test_clean_result_passes(tmp_path, monkeypatch):
    op = _one_op(tmp_path, monkeypatch, corrupt=False)
    assert not op.failed, op.failures


def test_flipped_bit_counts_as_failed(tmp_path, monkeypatch):
    op = _one_op(tmp_path, monkeypatch, corrupt=True)
    assert op.failed
    assert any("recomputed" in msg for msg in op.failures)


def test_process_check_catches_a_differing_result():
    prob = wl.dense_problem(3, 0, n=64)
    res = repro.solve(prob.weights, target_energy=prob.target, max_rounds=50, seed=prob.seed)
    op = wl.Op(0, 0, result=res)
    refs = {0: wl.fingerprint(res)}
    wl.check_process_against_sync(3, [op], refs)
    assert not op.failed
    res.best_x = res.best_x.copy()
    res.best_x[-1] ^= 1
    wl.check_process_against_sync(3, [op], refs)
    assert op.failures == ["process result differs from the sync solve"]


def test_own_energy_matches_definition():
    rng = np.random.default_rng(0)
    inst = wl.SparseInstance.random(rng, 40, 100)
    dense = np.diag(inst.diag)
    dense[inst.rows, inst.cols] += inst.vals
    dense[inst.cols, inst.rows] += inst.vals
    for _ in range(5):
        x = rng.integers(0, 2, 40).astype(np.uint8)
        assert inst.energy(x) == wl.dense_energy(dense, x)
    # The greedy targets are local minima no worse than the zero vector.
    assert wl.greedy_sparse(inst) == wl.greedy_dense(dense) <= 0
