"""Bit-plane kernel backend: packed uint64 state + runtime-compiled C loops.

The paper's device kernels keep each block's solution as machine words
in the register file and update energies incrementally; this backend is
the CPU analogue of that representation.  State ``X`` is packed into
``B × ⌈n/64⌉`` little-endian uint64 *bit planes* (bit ``i`` of block
``b`` is bit ``i & 63`` of word ``i >> 6`` — the same layout the
Figure-5 exchange rings ship via ``np.packbits``), and both device hot
loops run as one C call per batch:

- ``run_local_steps`` (Algorithm 4): Figure 2 windowed min-Δ select →
  Eq. 16 delta refresh → incumbent check → offset advance;
- ``run_straight`` (Algorithm 5): per block, the diff planes
  ``Xp ^ Tp`` are walked with ``ctz``; each step flips the
  lowest-index min-Δ differing bit and clears it, and a block retires
  when its diff planes are zero.

Both share one flip body: the sign vectors ``1 - 2x`` are read directly
from the packed planes with shifts and masks instead of a ``B × n``
integer multiply, and the Eq. 16 row add is fused with the incumbent's
neighbourhood min scan (and, in straight search, with the min over the
still-differing bits that the next selection needs), so ``delta`` is
traversed once per flip.  Incumbents are tracked as plane snapshots
and unpacked only for the blocks that improved.

The C source is compiled per **weight tier**, only when ``prepare_*``
first selects that tier in this process (``cc -O3 -fwrapv -shared``,
one ``-DBP_TIER_*`` switch), and loaded through :mod:`ctypes` — no
third-party JIT dependency.  ``-fwrapv`` pins C signed overflow to
two's-complement wraparound, so the arithmetic is bit-for-bit the
NumPy reference's int64/int32 modular arithmetic; the differential
suite (``tests/backends/``) holds this backend to exact state equality
at single-step granularity like every other backend.

Two dense weight tiers are chosen automatically by ``prepare_dense``:

- ``dense_w16_d32`` — off-diagonal weights fit int16 *and* the Δ bound
  ``max_i(|W_ii| + 2·Σ_{j≠i}|W_ij|)`` fits int32: 16-bit weight rows
  and a 32-bit delta vector quarter the memory traffic of the int64
  reference (the dominant cost at n = 1024).
- ``dense_w64`` — the general int64 fallback tier, same fused loops.

Sparse problems use a CSR scatter variant (``sparse_w64``) whose
delta-write count matches the reference exactly: ``degree(k) + 1`` per
flip; its straight search runs the reference composition.  In the dense
tiers the weight rows are stored with a **zeroed diagonal**: Eq. 16
only touches ``j ≠ k`` and the kernel pre-writes ``d[k] = -d_k``, which
then survives the fused row add (it gains ``W_kk = 0``) and
participates in the running neighbourhood minimum.  Dense rows and the
kernels' delta vectors are padded to whole 64-lane words (zero
weights, maximal deltas), so the row add is a fixed-length loop that
the compiler vectorizes without remainder code, which keeps the
compile short.

A C compiler is an *optional* dependency: when none is found (or
``REPRO_NO_CC`` is set, which the test suite uses to exercise the
fallback lane), :func:`make_bitplane_backend` returns the NumPy
reference backend tagged ``fallback_from="bitplane"`` and warns once
per process.  A compiler that is found but fails on a tier gets the
same warning, and that problem runs the inherited reference kernels.
The packed-plane helpers (:func:`pack_rows` / :func:`unpack_rows` /
:func:`hamming_distances`) are plain NumPy and always available.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.backends.base import KernelBackend, PreparedWeights
from repro.backends.numpy_backend import NumpyBackend

__all__ = [
    "BitplaneBackend",
    "BitplanePreparedWeights",
    "cc_available",
    "hamming_distances",
    "make_bitplane_backend",
    "pack_rows",
    "unpack_rows",
]

_warned = False

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define RESTRICT __restrict__

/* Batched Algorithm 4 and 5 loops over bit-plane state.
 *
 * One weight tier per translation unit: compile with exactly one of
 *   -DBP_TIER_W16     int16 weight rows, int32 delta vector
 *   -DBP_TIER_W64     int64 weight rows and delta vector
 *   -DBP_TIER_SPARSE  int64 CSR scatter (local steps only)
 * and with -fwrapv: signed wraparound must match numpy exactly.
 *
 * X is packed little-endian: bit i of block b is bit (i & 63) of word
 * Xp[b*nw + (i >> 6)].  Dense weight rows arrive with a ZEROED diagonal
 * so the pre-written d[k] = -d_k survives the fused Eq. 16 pass (it
 * gains W[k][k] = 0) and is seen by the running neighbourhood minimum.
 * Dense weight rows and delta vectors are padded to nw*64 lanes, so
 * every word is a fixed 64-lane loop: pad weights are 0 and pad deltas
 * DT_MAX, which the row add leaves unchanged and no min scan picks.
 *
 * Incumbents are kept as a plane snapshot bestp plus bestflip: -1 is
 * the walk position itself, >= 0 the neighbour bit to flip on top of
 * the snapshot, -2 untouched.  The caller unpacks only changed blocks.
 */

static inline void snapshot(int64_t *RESTRICT best_e, uint64_t *RESTRICT bestp,
                            int64_t *RESTRICT bestflip,
                            const uint64_t *RESTRICT xp, int64_t b, int64_t nw,
                            int64_t e, int64_t flip)
{
    best_e[b] = e;
    memcpy(bestp + b * nw, xp, (size_t)nw * 8);
    bestflip[b] = flip;
}

#if defined(BP_TIER_W16) || defined(BP_TIER_W64)

#if defined(BP_TIER_W16)
typedef int16_t wt_t;   /* stored off-diagonal weight */
typedef int32_t dt_t;   /* maintained delta entry */
#define DT_MAX INT32_MAX
#else
typedef int64_t wt_t;
typedef int64_t dt_t;
#define DT_MAX INT64_MAX
#endif

/* Eq. 16 flip of bit k in one block, fused with the incumbent's
 * neighbourhood min scan: returns min_j d[j] after the flip.  With diff
 * planes dp (straight search; NULL for local steps) the same pass also
 * stores the min over the still-differing bits in *dmin, so the next
 * Algorithm 5 selection only has to find where that minimum sits. */
static inline dt_t flip_scan(const wt_t *RESTRICT W, uint64_t *RESTRICT xp,
                             dt_t *RESTRICT d, int64_t *RESTRICT e,
                             int64_t k, int64_t nw,
                             const uint64_t *RESTRICT dp, dt_t *RESTRICT dmin)
{
    dt_t dk_old = d[k];
    uint64_t kbit = 1ULL << (k & 63);
    /* d_j += 2 W_kj (1 - 2x_j)(1 - 2x_k): with x_k = 1 before the flip
     * the sign test inverts, so fold that into the plane words. */
    uint64_t inv = (xp[k >> 6] & kbit) ? ~0ULL : 0;
    xp[k >> 6] ^= kbit;
    d[k] = -dk_old;
    *e += (int64_t)dk_old;
    const wt_t *RESTRICT row = W + k * (nw << 6);
    dt_t mn = DT_MAX, dm = DT_MAX;
    for (int64_t w = 0; w < nw; w++) {
        uint64_t bits = xp[w] ^ inv;
        uint64_t dbits = dp ? dp[w] : 0;
        int64_t base = w << 6;
        dt_t *RESTRICT dd = d + base;
        const wt_t *RESTRICT rr = row + base;
        for (int64_t j = 0; j < 64; j++) {
            dt_t msk = -(dt_t)((bits >> j) & 1);
            dt_t r2 = (dt_t)rr[j] + (dt_t)rr[j];
            dt_t v = dd[j] + ((r2 ^ msk) - msk);
            dd[j] = v;
            if (v < mn) mn = v;
            dt_t on = -(dt_t)((dbits >> j) & 1);
            dt_t dv = (v & on) | (DT_MAX & ~on);
            if (dv < dm) dm = dv;
        }
    }
    if (dp) *dmin = dm;
    return mn;
}

/* Algorithm 5 line 3: the lowest-index differing bit whose delta is
 * dmin (the min over the differing bits), or -1 when none differs. */
static inline int64_t first_differing(const dt_t *RESTRICT d,
                                      const uint64_t *RESTRICT dp,
                                      int64_t nw, dt_t dmin)
{
    for (int64_t w = 0; w < nw; w++) {
        for (uint64_t bits = dp[w]; bits; bits &= bits - 1) {
            int64_t i = (w << 6) + __builtin_ctzll(bits);
            if (d[i] == dmin) return i;
        }
    }
    return -1;
}

/* Algorithm 4 incumbent: best neighbour first, then the position. */
static inline void track_best(const dt_t *RESTRICT d, dt_t mn,
                              const uint64_t *RESTRICT xp, int64_t e,
                              int64_t *RESTRICT best_e, uint64_t *RESTRICT bestp,
                              int64_t *RESTRICT bestflip, int64_t b, int64_t nw)
{
    int64_t cand = e + (int64_t)mn;
    if (cand < best_e[b]) {
        int64_t pos = 0;
        while (d[pos] != mn) pos++;     /* first minimum */
        snapshot(best_e, bestp, bestflip, xp, b, nw, cand, pos);
    }
    if (e < best_e[b])
        snapshot(best_e, bestp, bestflip, xp, b, nw, e, -1);
}

int64_t bp_local_steps(
    const wt_t *RESTRICT W,         /* n*(nw*64) off-diagonal weights, diag zeroed */
    uint64_t *RESTRICT Xp,          /* B*nw packed state planes */
    dt_t     *RESTRICT delta,       /* B*(nw*64) */
    int64_t  *RESTRICT energy,      /* B */
    int64_t  *RESTRICT best_e,      /* B */
    uint64_t *RESTRICT bestp,       /* B*nw incumbent snapshot planes */
    int64_t  *RESTRICT bestflip,    /* B */
    int64_t  *RESTRICT offsets,     /* B, advanced in place */
    const int64_t *RESTRICT windows,
    int64_t n, int64_t B, int64_t nw, int64_t steps)
{
    for (int64_t t = 0; t < steps; t++) {
        for (int64_t b = 0; b < B; b++) {
            dt_t *RESTRICT d = delta + b * (nw << 6);
            uint64_t *RESTRICT xp = Xp + b * nw;
            /* Figure 2 windowed min-delta select (first minimum wins). */
            int64_t off = offsets[b], l = windows[b];
            int64_t k = off;
            dt_t wmin = d[off];
            for (int64_t j = 1; j < l; j++) {
                int64_t idx = off + j;
                if (idx >= n) idx -= n;
                if (d[idx] < wmin) { wmin = d[idx]; k = idx; }
            }
            dt_t mn = flip_scan(W, xp, d, energy + b, k, nw, NULL, NULL);
            track_best(d, mn, xp, energy[b], best_e, bestp, bestflip, b, nw);
            offsets[b] = (off + l) % n;
        }
    }
    return steps * B * n;
}

int64_t bp_straight(
    const wt_t *RESTRICT W,
    uint64_t *RESTRICT Xp,
    uint64_t *RESTRICT Dp,          /* B*nw diff planes Xp ^ Tp, consumed */
    dt_t     *RESTRICT delta,
    int64_t  *RESTRICT energy,
    int64_t  *RESTRICT best_e,
    uint64_t *RESTRICT bestp,
    int64_t  *RESTRICT bestflip,
    int64_t scan, int64_t n, int64_t B, int64_t nw)
{
    int64_t flips = 0;
    for (int64_t b = 0; b < B; b++) {
        dt_t *RESTRICT d = delta + b * (nw << 6);
        uint64_t *RESTRICT xp = Xp + b * nw;
        uint64_t *RESTRICT dp = Dp + b * nw;
        /* First selection: min delta over the differing bits. */
        dt_t dmin = DT_MAX;
        for (int64_t w = 0; w < nw; w++)
            for (uint64_t bits = dp[w]; bits; bits &= bits - 1) {
                int64_t i = (w << 6) + __builtin_ctzll(bits);
                if (d[i] < dmin) dmin = d[i];
            }
        for (;;) {
            int64_t k = first_differing(d, dp, nw, dmin);
            if (k < 0) break;               /* block reached its target */
            dp[k >> 6] &= ~(1ULL << (k & 63));
            dt_t mn = flip_scan(W, xp, d, energy + b, k, nw, dp, &dmin);
            flips++;
            if (scan)
                track_best(d, mn, xp, energy[b], best_e, bestp, bestflip, b, nw);
            else if (energy[b] < best_e[b])  /* literal Algorithm 5 */
                snapshot(best_e, bestp, bestflip, xp, b, nw, energy[b], -1);
        }
    }
    return flips * n;
}

#elif defined(BP_TIER_SPARSE)

int64_t bp_local_steps(
    const int64_t *RESTRICT indptr,  /* n+1 (off-diagonal CSR) */
    const int64_t *RESTRICT indices,
    const int64_t *RESTRICT data,
    uint64_t *RESTRICT Xp,
    int64_t  *RESTRICT delta,
    int64_t  *RESTRICT energy,
    int64_t  *RESTRICT best_e,
    uint64_t *RESTRICT bestp,
    int64_t  *RESTRICT bestflip,
    int64_t  *RESTRICT offsets,
    const int64_t *RESTRICT windows,
    int64_t n, int64_t B, int64_t nw, int64_t steps)
{
    int64_t updates = 0;
    for (int64_t t = 0; t < steps; t++) {
        for (int64_t b = 0; b < B; b++) {
            int64_t *RESTRICT d = delta + b * n;
            uint64_t *RESTRICT xp = Xp + b * nw;
            int64_t off = offsets[b], l = windows[b];
            int64_t k = off;
            int64_t wmin = d[off];
            for (int64_t j = 1; j < l; j++) {
                int64_t idx = off + j;
                if (idx >= n) idx -= n;
                if (d[idx] < wmin) { wmin = d[idx]; k = idx; }
            }
            /* Eq. 16 scatter over the flipped bit's CSR neighbours; the
             * CSR holds off-diagonal entries only, so j != k always and
             * flipping k's plane bit first is order-equivalent. */
            int64_t dk_old = d[k];
            uint64_t kbit = 1ULL << (k & 63);
            int sk = (xp[k >> 6] & kbit) ? -1 : 1;
            xp[k >> 6] ^= kbit;
            for (int64_t p = indptr[k]; p < indptr[k + 1]; p++) {
                int64_t j = indices[p];
                int sj = (xp[j >> 6] >> (j & 63)) & 1 ? -1 : 1;
                int64_t w2 = data[p] + data[p];
                d[j] += (sj == sk) ? w2 : -w2;
            }
            updates += indptr[k + 1] - indptr[k] + 1;
            d[k] = -dk_old;
            energy[b] += dk_old;
            /* Reference update_best: full first-minimum scan. */
            int64_t pos = 0, mn = d[0];
            for (int64_t j = 1; j < n; j++)
                if (d[j] < mn) { mn = d[j]; pos = j; }
            int64_t cand = energy[b] + mn;
            if (cand < best_e[b])
                snapshot(best_e, bestp, bestflip, xp, b, nw, cand, pos);
            if (energy[b] < best_e[b])
                snapshot(best_e, bestp, bestflip, xp, b, nw, energy[b], -1);
            offsets[b] = (off + l) % n;
        }
    }
    return updates;
}

#endif
"""

#: Kernel -> (pointer arguments, int64 arguments), for ctypes.
_DENSE_KERNELS = {"bp_local_steps": (9, 4), "bp_straight": (8, 4)}

#: Weight tier -> (preprocessor switch, exported kernels).  Each tier is
#: its own shared library, compiled the first time a problem needs it.
_TIERS = {
    "dense_w16_d32": ("BP_TIER_W16", _DENSE_KERNELS),
    "dense_w64": ("BP_TIER_W64", _DENSE_KERNELS),
    "sparse_w64": ("BP_TIER_SPARSE", {"bp_local_steps": (11, 4)}),
}


# --------------------------------------------------------------------------
# Packed-plane helpers (pure NumPy; the layout the exchange rings use too)
# --------------------------------------------------------------------------

def pack_rows(X: np.ndarray, nw: int | None = None) -> np.ndarray:
    """Pack 0/1 rows into little-endian uint64 bit planes.

    ``X`` has shape ``(..., n)``; the result has shape ``(..., nw)``
    with ``nw = ⌈n/64⌉`` (pad bits are zero).  Bit ``i`` lands in word
    ``i >> 6`` at position ``i & 63``.
    """
    X = np.asarray(X, dtype=np.uint8)
    n = int(X.shape[-1])
    words = (n + 63) // 64 if nw is None else int(nw)
    pad = words * 64 - n
    if pad:
        widths = [(0, 0)] * (X.ndim - 1) + [(0, pad)]
        X = np.pad(X, widths)
    packed = np.ascontiguousarray(np.packbits(X, axis=-1, bitorder="little"))
    return packed.view(np.uint64)


def unpack_rows(planes: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: uint64 planes back to uint8 bits."""
    planes = np.ascontiguousarray(planes, dtype=np.uint64)
    return np.unpackbits(
        planes.view(np.uint8), axis=-1, bitorder="little", count=n
    )


def hamming_distances(planes_a: np.ndarray, planes_b: np.ndarray) -> np.ndarray:
    """Per-row Hamming distance between packed states: XOR + popcount.

    This is the Algorithm 5 straight-search distance (= the exact flip
    count ``straight_to`` performs per block) computed on bit planes in
    ``⌈n/64⌉`` word operations instead of ``n`` byte compares.
    """
    diff = np.bitwise_xor(planes_a, planes_b)
    return np.bitwise_count(diff).sum(axis=-1, dtype=np.int64)


# --------------------------------------------------------------------------
# Compiler gating + runtime compilation
# --------------------------------------------------------------------------

def _find_cc() -> str | None:
    """The first usable C compiler: ``$CC``, then cc/gcc/clang."""
    for candidate in (os.environ.get("CC", ""), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def cc_available() -> bool:
    """Whether the bit-plane backend can compile on this machine.

    ``REPRO_NO_CC`` (any non-empty value) masks an installed compiler —
    the mechanism the test suite uses to cover the fallback path
    deterministically.
    """
    if os.environ.get("REPRO_NO_CC", ""):
        return False
    return _find_cc() is not None


def _compile_library(tier: str = "dense_w16_d32") -> ctypes.CDLL:
    """Compile one weight tier of the kernel source and load it via ctypes."""
    define, kernels = _TIERS[tier]
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    workdir = Path(tempfile.mkdtemp(prefix="repro-bitplane-"))
    try:
        src = workdir / "bitplane_kernels.c"
        src.write_text(_C_SOURCE)
        out = workdir / "bitplane_kernels.so"
        base = [
            cc, "-O3", "-fwrapv", "-shared", "-fPIC", f"-D{define}",
        ]
        proc = None
        # -march=native first; retry portable when the toolchain rejects it.
        for flags in ([*base, "-march=native"], base):
            proc = subprocess.run(
                [*flags, "-o", str(out), str(src)], capture_output=True, text=True
            )
            if proc.returncode == 0:
                break
        else:
            stderr = (proc.stderr or "").strip() if proc is not None else ""
            raise RuntimeError(f"bit-plane kernel compilation failed: {stderr[:500]}")
        lib = ctypes.CDLL(str(out))
    finally:
        # A loaded library stays mapped after its file is unlinked.
        shutil.rmtree(workdir, ignore_errors=True)
    for fname, (ptrs, ints) in kernels.items():
        fn = getattr(lib, fname)
        fn.argtypes = [ctypes.c_void_p] * ptrs + [ctypes.c_int64] * ints
        fn.restype = ctypes.c_int64
    return lib


def _warn_fallback() -> None:
    global _warned
    if not _warned:
        _warned = True
        warnings.warn(
            "backend 'bitplane' requested but no working C compiler is "
            "available; falling back to the NumPy reference backend "
            "(install cc/gcc/clang, or unset REPRO_NO_CC, to enable the "
            "compiled bit-plane kernels)",
            RuntimeWarning,
            stacklevel=4,
        )


def make_bitplane_backend() -> KernelBackend:
    """The ``bitplane`` registry factory: compiled backend or tagged fallback.

    Nothing is compiled here: ``prepare_*`` compiles the one weight tier
    the problem needs.
    """
    if cc_available():
        return BitplaneBackend()
    _warn_fallback()
    fallback = NumpyBackend()
    fallback.fallback_from = "bitplane"
    return fallback


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


class _Planes:
    """Per-problem kernel artifacts derived at ``prepare_*`` time.

    ``arrays`` are the weight arrays the tier's kernels take first (the
    int16/int64 rows, or the CSR triple).  ``straight`` is ``None`` for
    the sparse tier, which runs straight search in the reference
    composition.
    """

    __slots__ = ("variant", "arrays", "wptrs", "nw", "local", "straight")

    def __init__(self, variant: str, arrays: tuple, nw: int, lib: Any) -> None:
        self.variant = variant
        self.arrays = arrays
        self.wptrs = tuple(_ptr(a) for a in arrays)
        self.nw = nw
        self.local = lib.bp_local_steps
        self.straight = getattr(lib, "bp_straight", None)

    @property
    def weights(self) -> np.ndarray | None:
        """The dense tiers' stored weight rows (``None`` when sparse)."""
        return None if self.variant == "sparse_w64" else self.arrays[0]


@dataclass(frozen=True)
class BitplanePreparedWeights(PreparedWeights):
    """:class:`PreparedWeights` plus the compiled-kernel artifacts."""

    planes: _Planes | None = None


class BitplaneBackend(NumpyBackend):
    """Packed-state backend with fused, C-compiled Algorithm 4 and 5 loops.

    The primitive kernels (``flip``/``select_*``/``update_best``/
    ``track_position``) are inherited from the NumPy reference — they
    run on the engine's unpacked arrays and are already exact — while
    the two hot loops, :meth:`run_local_steps` and (dense tiers)
    :meth:`run_straight`, run on packed planes in C.  State is packed
    on entry and unpacked on exit of each call, an O(B·n/8) conversion
    amortized over the whole batch of fused flips.
    """

    name = "bitplane"

    #: Compiled libraries by weight tier; ``None`` until the first
    #: compile.  Assigning ``None`` forgets every tier.
    _lib: dict[str, Any] | None = None

    @classmethod
    def ensure_compiled(cls, tier: str) -> Any:
        """Compile + load one weight tier's kernels once per process."""
        if cls._lib is None:
            cls._lib = {}
        lib = cls._lib.get(tier)
        if lib is None:
            lib = cls._lib[tier] = _compile_library(tier)
        return lib

    def _library(self, tier: str) -> Any:
        """The tier's library, or ``None`` (warned once) when it will
        not compile — the problem then runs the reference kernels."""
        try:
            return self.ensure_compiled(tier)
        except (OSError, RuntimeError, subprocess.SubprocessError):
            _warn_fallback()
            return None

    def prepare_dense(self, W: np.ndarray) -> PreparedWeights:
        W = np.ascontiguousarray(W, dtype=np.int64)
        n = int(W.shape[0])
        diag = np.ascontiguousarray(np.diagonal(W))
        Woff = W.copy()
        # Eq. 16 touches j != k only and the kernel pre-writes
        # d[k] = -d_k, so the stored rows carry a zero diagonal.
        np.fill_diagonal(Woff, 0)
        use_w16 = bool(Woff.min() >= -(2**15) and Woff.max() < 2**15)
        if use_w16:
            off_sum = np.abs(Woff).sum(axis=1)
            dmax = float(
                (np.abs(diag.astype(np.float64)) + 2.0 * off_sum).max()
            )
            use_w16 = dmax <= float(2**31 - 2)
        tier = "dense_w16_d32" if use_w16 else "dense_w64"
        lib = self._library(tier)
        if lib is None:
            return super().prepare_dense(W)
        nw = (n + 63) // 64
        # Rows padded to whole 64-lane words with zero weights.
        rows = np.zeros((n, nw * 64), dtype=np.int16 if use_w16 else np.int64)
        rows[:, :n] = Woff
        planes = _Planes(tier, (rows,), nw, lib)
        return BitplanePreparedWeights(n=n, dense=W, planes=planes)

    def prepare_sparse(self, sparse: Any) -> PreparedWeights:
        base = super().prepare_sparse(sparse)
        lib = self._library("sparse_w64")
        if lib is None:
            return base
        planes = _Planes(
            "sparse_w64",
            (base.indptr, base.indices, base.data),
            (base.n + 63) // 64,
            lib,
        )
        return BitplanePreparedWeights(
            n=base.n,
            indptr=base.indptr,
            indices=base.indices,
            data=base.data,
            planes=planes,
        )

    @staticmethod
    def _run_packed(
        pw: BitplanePreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        call: Callable[[np.ndarray, tuple], int],
    ) -> int:
        """Pack the state, run ``call(Xp, state)`` and write it back.

        ``state`` is the pointer tuple ``(delta, energy, best_e, bestp,
        bestflip)`` every kernel takes after its plane arguments.
        """
        planes = pw.planes
        n, nw, B = pw.n, planes.nw, int(X.shape[0])
        Xp = pack_rows(X, nw)
        if planes.variant == "sparse_w64":
            d = np.ascontiguousarray(delta, dtype=np.int64)
        else:
            # Padded to whole words; pad lanes hold the dtype's maximum.
            # The d32 tier is only selected when the Δ bound fits int32,
            # so this narrowing is exact for any reachable delta vector.
            dt = np.int32 if planes.variant == "dense_w16_d32" else np.int64
            d = np.full((B, nw * 64), np.iinfo(dt).max, dtype=dt)
            d[:, :n] = delta
        eng = np.ascontiguousarray(energy, dtype=np.int64)
        be = np.ascontiguousarray(best_energy, dtype=np.int64)
        bestp = np.zeros((B, nw), dtype=np.uint64)
        bestflip = np.full(B, -2, dtype=np.int64)
        updates = call(
            Xp, (_ptr(d), _ptr(eng), _ptr(be), _ptr(bestp), _ptr(bestflip))
        )
        X[:] = unpack_rows(Xp, n)
        if d is not delta:
            delta[:] = d[:, :n]
        for dst, src in ((energy, eng), (best_energy, be)):
            if src is not dst:
                dst[:] = src
        dirty = bestflip != -2
        if dirty.any():
            rid = np.flatnonzero(dirty)
            best_x[rid] = unpack_rows(bestp[rid], n)
            flips = bestflip[rid]
            from_neighbour = flips >= 0
            if from_neighbour.any():
                best_x[rid[from_neighbour], flips[from_neighbour]] ^= 1
        return int(updates)

    def run_local_steps(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        offsets: np.ndarray,
        windows: np.ndarray,
        steps: int,
    ) -> int:
        planes = getattr(pw, "planes", None)
        if steps == 0 or planes is None:
            # Foreign PreparedWeights (not from our prepare_*): run the
            # reference composition rather than guessing a layout.
            return super().run_local_steps(
                pw, X, delta, energy, best_energy, best_x, offsets, windows, steps
            )
        off = np.ascontiguousarray(offsets, dtype=np.int64)
        win = np.ascontiguousarray(windows, dtype=np.int64)
        i64 = ctypes.c_int64
        tail = (i64(pw.n), i64(X.shape[0]), i64(planes.nw), i64(steps))
        updates = self._run_packed(
            pw, X, delta, energy, best_energy, best_x,
            lambda Xp, state: planes.local(
                *planes.wptrs, _ptr(Xp), *state, _ptr(off), _ptr(win), *tail
            ),
        )
        if off is not offsets:
            offsets[:] = off
        return updates

    def run_straight(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        T: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        scan_neighbors: bool = True,
    ) -> int:
        planes = getattr(pw, "planes", None)
        if planes is None or planes.straight is None:
            return super().run_straight(
                pw, X, T, delta, energy, best_energy, best_x, scan_neighbors
            )
        if T.shape != X.shape:
            raise ValueError(f"targets must have shape {X.shape}, got {T.shape}")
        nw = planes.nw
        Tp = pack_rows(T, nw)
        i64 = ctypes.c_int64
        tail = (i64(int(scan_neighbors)), i64(pw.n), i64(X.shape[0]), i64(nw))

        def call(Xp: np.ndarray, state: tuple) -> int:
            Dp = Xp ^ Tp  # diff planes, consumed by the kernel
            return planes.straight(*planes.wptrs, _ptr(Xp), _ptr(Dp), *state, *tail)

        return self._run_packed(pw, X, delta, energy, best_energy, best_x, call)
