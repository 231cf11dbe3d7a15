"""Fixture backend breaking every purity constraint."""

import subprocess
import warnings

from repro.backends.base import KernelBackend
from repro.telemetry import make_bus

_CACHE = {}


class BadBackend(KernelBackend):
    name = "bad"

    def flip(self, bus, state, k):
        _CACHE[k] = state[k]
        bus.counters.inc("engine.flips")
        state[k] ^= 1

    def run_local_steps(self, pw, X, steps):
        subprocess.run(["cc", "-O3", "kernel.c"])
        warnings.warn("recompiled mid-search")
        print("stepping")
        return steps

    def run_straight(self, pw, X, T):
        warnings.warn("walking to the target")
        return 0

    def reset(self):
        global _CACHE
        _CACHE = {}
