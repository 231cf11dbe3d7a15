"""Property and regression tests for the tcp frame codec.

Three concerns, per the PR 8 acceptance bar:

1. **Round trips** — every encodable HELLO/TARGETS/RESULT/EVENTS
   payload decodes back bit-identically, for arbitrary problem sizes
   and block counts (hypothesis-driven).
2. **No silent garbage** — truncated, corrupted, or adversarial bytes
   must raise the typed :class:`FrameError`; the codec never returns a
   plausible-looking payload from a damaged frame.
3. **Platform-stable wire format** — the frames and the shm packing
   paths are pinned against golden little-endian bytes, so a
   big-endian or differently-defaulted host cannot silently change
   what goes over the wire (the ``WIRE_I64``/``WIRE_U8`` audit).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.abs.buffers import pack_solutions
from repro.abs.exchange import ENGINE_COUNTER_KEYS, WIRE_I64, WIRE_U8
from repro.abs.tcp import (
    F_EVENTS,
    F_HELLO,
    F_RESULT,
    F_TARGETS,
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
    FrameError,
    decode_events,
    decode_frame,
    decode_hello,
    decode_result,
    decode_targets,
    encode_events,
    encode_frame,
    encode_hello,
    encode_result,
    encode_targets,
)

pytestmark = pytest.mark.tcp

dims = st.tuples(st.integers(1, 9), st.integers(1, 70))  # (B, n)
i64 = st.integers(-(2**63), 2**63 - 1)


def random_bits(B, n, seed):
    return np.random.default_rng(seed).integers(0, 2, (B, n), dtype=np.uint8)


# -- 1. round trips ---------------------------------------------------------

@given(wid=st.integers(0, 2**31 - 1), inc=i64)
def test_hello_round_trip(wid, inc):
    ftype, payload, consumed = decode_frame(encode_hello(wid, inc))
    assert ftype == F_HELLO
    assert decode_hello(payload) == (wid, inc)


@given(dims=dims, gen=st.integers(0, 2**62), epoch=st.integers(0, 2**31), seed=st.integers(0, 99))
def test_targets_round_trip(dims, gen, epoch, seed):
    B, n = dims
    t = random_bits(B, n, seed)
    frame = encode_targets(gen, epoch, t)
    ftype, payload, consumed = decode_frame(frame)
    assert ftype == F_TARGETS and consumed == len(frame)
    got_gen, got_epoch, got = decode_targets(payload)
    assert (got_gen, got_epoch) == (gen, epoch)
    assert got.dtype == np.uint8 and (got == t).all()


@given(dims=dims, seed=st.integers(0, 99), evaluated=st.integers(0, 2**62),
       flips=st.integers(0, 2**62), inc=st.integers(0, 2**31))
def test_result_round_trip(dims, seed, evaluated, flips, inc):
    B, n = dims
    rng = np.random.default_rng(seed)
    energies = rng.integers(-(2**40), 2**40, B)
    x = random_bits(B, n, seed + 1)
    counters = {k: int(rng.integers(0, 2**40)) for k in ENGINE_COUNTER_KEYS}
    counters["exchange.tcp.reconnects"] = 3
    frame = encode_result(5, inc, energies, x, evaluated, flips, counters)
    ftype, payload, _ = decode_frame(frame)
    assert ftype == F_RESULT
    batch = decode_result(payload)
    assert batch.worker_id == 5 and batch.incarnation == inc
    assert batch.evaluated == evaluated and batch.flips == flips
    assert (batch.energies == energies).all()
    assert (batch.x == x).all()
    for k in ENGINE_COUNTER_KEYS:
        assert batch.counters[k] == counters[k]
    assert batch.counters["exchange.tcp.reconnects"] == 3


@given(events=st.lists(
    st.tuples(st.text(max_size=20),
              st.dictionaries(st.text(max_size=8), st.integers(), max_size=3)),
    max_size=5,
))
def test_events_round_trip(events):
    ftype, payload, _ = decode_frame(encode_events(2, 7, events))
    assert ftype == F_EVENTS
    assert decode_events(payload) == (2, 7, events)


@given(data=st.binary(max_size=200), ftype=st.sampled_from([F_HELLO, F_TARGETS, F_RESULT, F_EVENTS]))
def test_generic_frame_round_trip_and_streaming(data, ftype):
    frame = encode_frame(ftype, data)
    assert decode_frame(frame) == (ftype, data, len(frame))
    # streaming: every strict prefix is "incomplete", never garbage
    for cut in range(len(frame)):
        assert decode_frame(frame[:cut], partial_ok=True) is None
    # trailing bytes of a following frame are left unconsumed
    got = decode_frame(frame + b"AB\x01rest", partial_ok=True)
    assert got == (ftype, data, len(frame))


# -- 2. damage is loud ------------------------------------------------------

@given(junk=st.binary(min_size=FRAME_HEADER.size, max_size=64))
def test_garbage_never_decodes_silently(junk):
    """Random bytes either raise FrameError or — astronomically rarely —
    are a genuinely valid frame (magic + type + bound + CRC all hold)."""
    try:
        out = decode_frame(junk)
    except FrameError:
        return
    ftype, payload, consumed = out
    head = junk[: FRAME_HEADER.size]
    magic, jtype, length, crc = FRAME_HEADER.unpack(head)
    assert magic == FRAME_MAGIC and jtype == ftype
    assert zlib.crc32(payload) & 0xFFFFFFFF == crc


@given(cut=st.integers(0, 30), seed=st.integers(0, 9))
def test_truncated_frames_raise(cut, seed):
    frame = encode_targets(3, 1, random_bits(2, 19, seed))
    if cut < len(frame):
        with pytest.raises(FrameError):
            decode_frame(frame[:cut])


def test_bit_flips_raise():
    frame = bytearray(encode_targets(4, 2, random_bits(3, 17, 0)))
    for pos in range(len(frame)):
        damaged = bytearray(frame)
        damaged[pos] ^= 0x40
        try:
            out = decode_frame(damaged)
        except FrameError:
            continue
        pytest.fail(f"bit flip at byte {pos} decoded silently: {out!r}")


def test_oversized_length_rejected_without_allocation():
    head = FRAME_HEADER.pack(FRAME_MAGIC, F_TARGETS, MAX_FRAME_PAYLOAD + 1, 0)
    with pytest.raises(FrameError, match="exceeds bound"):
        decode_frame(head, partial_ok=True)  # never waits for 64 MiB of junk


def test_unknown_frame_type_rejected():
    head = FRAME_HEADER.pack(FRAME_MAGIC, 9, 0, zlib.crc32(b"") & 0xFFFFFFFF)
    with pytest.raises(FrameError, match="unknown frame type"):
        decode_frame(head)
    with pytest.raises(ValueError, match="unknown frame type"):
        encode_frame(9, b"")


def test_payload_decoders_validate_shape():
    with pytest.raises(FrameError, match="HELLO"):
        decode_hello(b"\x00" * 3)
    with pytest.raises(FrameError, match="TARGETS body"):
        _, payload, _ = decode_frame(encode_targets(1, 0, random_bits(2, 9, 0)))
        decode_targets(payload[:-1] + b"\x00\x00")
    with pytest.raises(FrameError, match="RESULT payload"):
        decode_result(b"\x00" * 20)
    with pytest.raises(FrameError, match="EVENTS"):
        decode_events(struct.pack("<iq", 0, 0) + b"not a pickle")


# -- 3. the wire format is pinned -------------------------------------------

def test_wire_dtypes_are_explicit_little_endian():
    """The shm rings and tcp frames share these dtypes; native-order
    ``np.int64`` would silently flip on a big-endian host."""
    assert WIRE_I64 == np.dtype("<i8") and WIRE_I64.byteorder in ("<", "=")
    assert np.dtype("<i8").itemsize == 8
    assert WIRE_U8 == np.dtype("u1")
    # struct formats in the codec are all explicitly little-endian
    assert FRAME_HEADER.size == 12


def test_golden_frame_bytes():
    """Byte-for-byte pin of every frame type, so any codec change that
    would break cross-host (or cross-version) interop fails here."""
    wid_inc = struct.pack("<iq", 1, 2)
    assert encode_hello(1, 2) == (
        b"AB" + bytes([F_HELLO, 0]) + struct.pack(
            "<II", len(wid_inc), zlib.crc32(wid_inc) & 0xFFFFFFFF
        ) + wid_inc
    )

    targets = np.array([[1, 0, 1, 1, 0, 0, 0, 0, 1]], dtype=np.uint8)
    body = struct.pack("<qqii", 7, 1, 1, 9) + pack_solutions(targets).tobytes()
    assert encode_targets(7, 1, targets) == (
        b"AB" + bytes([F_TARGETS, 0]) + struct.pack(
            "<II", len(body), zlib.crc32(body) & 0xFFFFFFFF
        ) + body
    )
    # and the packbits payload itself is bit-order stable
    assert pack_solutions(targets).tobytes() == bytes([0b10110000, 0b10000000])


def test_golden_result_bytes_hexdump():
    """Full RESULT frame against a frozen hexdump — the strongest pin:
    any reordering of the counter vector, a dtype drift, or a struct
    layout change shows up as a diff here."""
    energies = np.array([-5, -9], dtype=np.int64)
    x = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1, 1],
                  [0, 1, 0, 0, 0, 0, 0, 0, 0, 1]], dtype=np.uint8)
    counters = {k: i + 1 for i, k in enumerate(ENGINE_COUNTER_KEYS)}
    frame = encode_result(1, 0, energies, x, 100, 10, counters)
    k = len(ENGINE_COUNTER_KEYS)
    expect = (
        struct.pack("<iqiiqq", 1, 0, 2, 10, 100, 10)
        + np.arange(1, k + 1, dtype="<i8").tobytes()
        + struct.pack("<qq", 0, 0)  # tcp reconnects/dropped: absent → 0
        + np.array([-5, -9], dtype="<i8").tobytes()
        + bytes([0b10000000, 0b11000000, 0b01000000, 0b01000000])
    )
    assert frame == (
        b"AB" + bytes([F_RESULT, 0])
        + struct.pack("<II", len(expect), zlib.crc32(expect) & 0xFFFFFFFF)
        + expect
    )


def test_shm_packing_paths_use_wire_dtypes():
    """The regression for the latent-bug audit: the mailbox/ring views
    and the shm publish paths must produce little-endian int64
    and plain uint8 regardless of platform defaults."""
    from repro.abs.exchange import SolutionRing, TargetMailbox

    box = TargetMailbox.create(1, 8)
    try:
        assert box._header.dtype == WIRE_I64
        assert box._slots.dtype == WIRE_U8
    finally:
        box.unlink()
    ring = SolutionRing.create(1, 8, slots=2)
    try:
        assert ring._header.dtype == WIRE_I64
        assert ring._meta.dtype == WIRE_I64
        assert ring._energies.dtype == WIRE_I64
        assert ring._packed.dtype == WIRE_U8
    finally:
        ring.unlink()
