import ast
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import camtrack3d
from camtrack3d.netproto import (
    _MAX_SKIP,
    MAGIC,
    MAX_PACKET_BYTES,
    VERSION,
    BadCameraId,
    BadMagic,
    BadVersion,
    FieldOutOfRange,
    FrameAssembler,
    FramePacket,
    IdTooLong,
    PacketListener,
    ProtocolError,
    TooManyFeatures,
    Truncated,
    assemble,
    decode,
    encode,
    send_packets,
    write_packet,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def packet(cam="c1", frame=0, ts=0, rows=0, seed=0):
    rng = np.random.default_rng(seed)
    return FramePacket(cam_id=cam, frame=frame, timestamp_us=ts,
                       features=rng.uniform(0, 500, size=(rows, 6)))


# ----------------------------------------------------------------------- codec

def test_encode_zero_feature_packet_length():
    data = encode(packet(cam="c1", frame=7, ts=123))
    # fixed overhead 24 bytes (magic 4, version 1, id-len 1, frame 8,
    # timestamp 8, count 2) plus the 2-byte id
    assert len(data) == 26


def test_encode_length_scales_with_features():
    for rows in (1, 3, 10):
        data = encode(packet(rows=rows))
        assert len(data) == 26 + 48 * rows


def test_round_trip_randomized():
    rng = np.random.default_rng(2)
    for i in range(200):
        p = FramePacket(cam_id=f"cam{i % 7}",
                        frame=int(rng.integers(0, 2**63)),
                        timestamp_us=int(rng.integers(0, 2**63)),
                        features=rng.normal(size=(int(rng.integers(0, 20)), 6)))
        assert decode(encode(p)) == p


@settings(max_examples=200, deadline=None)
@given(cam=st.text(min_size=0, max_size=10).filter(lambda s: len(s.encode("utf-8")) <= 32),
       frame=st.integers(0, 2**64 - 1),
       ts=st.integers(0, 2**64 - 1),
       rows=st.integers(0, 8),
       seed=st.integers(0, 2**31))
def test_round_trip_property(cam, frame, ts, rows, seed):
    rng = np.random.default_rng(seed)
    p = FramePacket(cam_id=cam, frame=frame, timestamp_us=ts,
                    features=rng.normal(size=(rows, 6)) * 1e3)
    assert decode(encode(p)) == p


def test_id_too_long():
    with pytest.raises(IdTooLong):
        encode(packet(cam="x" * 33))


def test_too_many_features():
    big = FramePacket(cam_id="c", frame=0, timestamp_us=0,
                      features=np.zeros((65536, 6)))
    with pytest.raises(TooManyFeatures):
        encode(big)


def test_decode_bad_magic():
    data = bytearray(encode(packet()))
    data[0] ^= 0xFF
    with pytest.raises(BadMagic):
        decode(bytes(data))


def test_decode_bad_version():
    data = bytearray(encode(packet()))
    data[4] = 99
    with pytest.raises(BadVersion):
        decode(bytes(data))


def test_decode_truncated_mid_feature():
    data = encode(packet(rows=2))
    with pytest.raises(Truncated):
        decode(data[:-10])


def test_decode_trailing_bytes_rejected():
    data = encode(packet(rows=1))
    with pytest.raises(ProtocolError):
        decode(data + b"\x00")


def test_decode_rejects_invalid_utf8_camera_id():
    data = bytearray(encode(packet(cam="ab")))
    data[6] = 0xFF
    with pytest.raises(BadCameraId):
        decode(bytes(data))


def test_decode_rejects_id_length_above_limit():
    raw = MAGIC + bytes([VERSION, 33]) + b"x" * 33 + struct.pack("<QQH", 0, 0, 0)
    with pytest.raises(IdTooLong):
        decode(raw)


@pytest.mark.parametrize("frame, ts", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_encode_rejects_header_fields_outside_u64(frame, ts):
    with pytest.raises(FieldOutOfRange):
        encode(packet(frame=frame, ts=ts))


def test_max_packet_bytes_is_largest_legal_packet():
    assert MAX_PACKET_BYTES == 3_145_736


@st.composite
def damaged_packets(draw):
    """Encodings with a few bytes overwritten, cut or appended."""
    data = bytearray(encode(packet(cam=draw(st.sampled_from(["", "c1", "x" * 32])),
                                   rows=draw(st.integers(0, 3)),
                                   seed=draw(st.integers(0, 99)))))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=60))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=300),
                 st.binary(max_size=300).map(lambda b: MAGIC + bytes([VERSION]) + b),
                 damaged_packets()))
def test_decode_raises_only_protocol_error(buf):
    try:
        p = decode(buf)
    except ProtocolError:
        return
    assert encode(p) == buf


# ------------------------------------------------------------------- assembler

def test_assembler_emits_complete_frame_immediately():
    clock = FakeClock()
    asm = FrameAssembler(n_cameras=3, wait_budget=0.005, clock=clock)
    out = []
    for cam in ("a", "b", "c"):
        out += asm.feed(packet(cam=cam, frame=7))
    assert len(out) == 1
    af = out[0]
    assert af.frame == 7 and af.complete
    assert af.latency == 0.0  # no wait with all cameras live
    assert set(af.features_by_camera) == {"a", "b", "c"}


def test_assembler_partial_after_wait_budget():
    clock = FakeClock()
    asm = FrameAssembler(n_cameras=3, wait_budget=0.005, clock=clock)
    assert asm.feed(packet(cam="a", frame=1)) == []
    assert asm.feed(packet(cam="b", frame=1)) == []
    clock.t = 0.005
    out = asm.flush_due()
    assert len(out) == 1
    assert out[0].frame == 1
    assert not out[0].complete
    assert "c" not in out[0].features_by_camera
    assert out[0].latency == pytest.approx(0.005)
    assert asm.partial == 1


def test_assembler_duplicate_of_emitted_frame_counted():
    asm = FrameAssembler(n_cameras=2, clock=FakeClock())
    for cam in ("a", "b"):
        asm.feed(packet(cam=cam, frame=3))
    assert asm.feed(packet(cam="a", frame=3)) == []
    assert asm.duplicates == 1
    assert asm.late == 0


def test_assembler_late_packet_counted():
    clock = FakeClock()
    asm = FrameAssembler(n_cameras=2, wait_budget=0.005, clock=clock)
    # the stream opens with a whole frame: its first packet waits for a second
    assert len(asm.feed(packet(cam="a", frame=2)) + asm.feed(packet(cam="b", frame=2))) == 1
    asm.feed(packet(cam="a", frame=3))
    clock.t = 1.0
    out = asm.flush_due()
    assert len(out) == 1 and not out[0].complete
    # the silent camera's packet arrives after emission
    assert asm.feed(packet(cam="b", frame=3)) == []
    assert asm.late == 1
    assert asm.duplicates == 0


def test_assembler_duplicate_while_pending():
    asm = FrameAssembler(n_cameras=3, clock=FakeClock())
    asm.feed(packet(cam="a", frame=0))
    asm.feed(packet(cam="a", frame=0))
    assert asm.duplicates == 1


def test_assembler_flushes_frames_that_cannot_complete():
    # camera b skips frame 1 entirely; once b reports frame 2, frame 1 can
    # never complete and is flushed partial with no clock involved
    asm = FrameAssembler(n_cameras=2, wait_budget=100.0, clock=FakeClock())
    asm.feed(packet(cam="a", frame=0))
    asm.feed(packet(cam="b", frame=0))
    assert asm.feed(packet(cam="a", frame=1)) == []
    out = asm.feed(packet(cam="b", frame=2))
    assert [af.frame for af in out] == [1]
    assert not out[0].complete
    out = asm.feed(packet(cam="a", frame=2))
    assert [af.frame for af in out] == [2]
    assert out[0].complete


def test_assembler_flushes_older_pending_before_completed_frame():
    clock = FakeClock()
    asm = FrameAssembler(n_cameras=2, wait_budget=10.0, clock=clock)
    asm.feed(packet(cam="a", frame=5))
    out = []
    out += asm.feed(packet(cam="a", frame=6))
    out += asm.feed(packet(cam="b", frame=6))
    assert [af.frame for af in out] == [5, 6]
    assert [af.complete for af in out] == [False, True]


def test_assembler_ordering_under_arrival_shuffles():
    rng = np.random.default_rng(11)
    cams = ["a", "b", "c"]
    for trial in range(100):
        stream = [packet(cam=c, frame=f) for f in range(10) for c in cams]
        # shuffle within a sliding window to respect per-camera ordering
        by_cam = {c: [p for p in stream if p.cam_id == c] for c in cams}
        shuffled = []
        idx = {c: 0 for c in cams}
        while any(idx[c] < len(by_cam[c]) for c in cams):
            avail = [c for c in cams if idx[c] < len(by_cam[c])]
            c = rng.choice(avail)
            shuffled.append(by_cam[c][idx[c]])
            idx[c] += 1
        frames = list(assemble(shuffled, FrameAssembler(n_cameras=3, clock=FakeClock())))
        numbers = [af.frame for af in frames]
        assert numbers == sorted(numbers)
        assert len(numbers) == len(set(numbers))
        assert all(af.complete for af in frames)


def test_assemble_generator_flushes_tail():
    stream = [packet(cam="a", frame=0), packet(cam="b", frame=0),
              packet(cam="a", frame=1)]  # b never reports frame 1
    asm = FrameAssembler(n_cameras=2, clock=FakeClock())
    frames = list(assemble(stream, asm))
    assert [af.frame for af in frames] == [0, 1]
    assert frames[1].complete is False
    assert asm.partial == 1


def test_assembler_drops_a_lone_frame_number_far_ahead():
    # one corrupt frame number must not make every later packet late: two
    # cameras send frames 0-2, camera a then a far frame, and both go on
    # with frames 3-7, on the live wait budget; every frame comes out whole
    for far in (502, 2 + 2**62):
        clock = FakeClock()
        asm = FrameAssembler(camera_ids=("a", "b"), wait_budget=0.005, clock=clock)
        stream = [packet(cam=c, frame=f) for f in range(3) for c in ("a", "b")]
        stream += [packet(cam="a", frame=far)]
        stream += [packet(cam=c, frame=f) for f in range(3, 8) for c in ("b", "a")]
        out = []
        for p in stream:
            out += asm.feed(p)
            clock.t += 1.0 if p.frame == far else 0.001  # the clock emits no waiting packet
            out += asm.flush_due()
        out += asm.finish()
        assert [af.frame for af in out] == list(range(8))
        assert all(af.complete for af in out)
        assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 0, "far_ahead": 1,
                                  "unknown_camera": 0}


@pytest.mark.parametrize("order", ["ab", "ba"])
def test_assembler_drops_a_corrupt_first_packet_of_the_stream(order):
    # the stream opens with camera a's frame 2**40, then both cameras send
    # frames 0-7 on the live wait budget: nothing is measured yet when the
    # far packet arrives, so it waits, and camera a's next packet drops it
    clock = FakeClock()
    asm = FrameAssembler(camera_ids=("a", "b"), wait_budget=0.005, clock=clock)
    stream = [packet(cam="a", frame=2**40)]
    stream += [packet(cam=c, frame=f) for f in range(8) for c in order]
    out = []
    for p in stream:
        clock.t += 0.001
        out += asm.feed(p)
        out += asm.flush_due()
    out += asm.finish()
    assert [af.frame for af in out] == list(range(8))
    assert all(af.complete for af in out)
    assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 0, "far_ahead": 1,
                              "unknown_camera": 0}


@pytest.mark.parametrize("n_frames", [1, 2, 9])
def test_assembler_keeps_every_frame_of_a_one_camera_stream(n_frames):
    # the first packet waits for the camera's next one, or for the end
    clock = FakeClock()
    asm = FrameAssembler(camera_ids=("a",), wait_budget=0.005, clock=clock)
    out = []
    for f in range(n_frames):
        clock.t += 0.01
        out += asm.feed(packet(cam="a", frame=f)) + asm.flush_due()
    out += asm.finish()
    assert [af.frame for af in out] == list(range(n_frames))
    assert all(af.complete for af in out)
    assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 0, "far_ahead": 0,
                              "unknown_camera": 0}


def test_assembler_takes_a_packet_up_to_max_skip_frames_past_its_camera_at_once():
    # one frame further waits for the camera's next packet
    for ahead, emitted in ((_MAX_SKIP, [0, _MAX_SKIP]), (_MAX_SKIP + 1, [0])):
        asm = FrameAssembler(n_cameras=1, clock=FakeClock())
        out = asm.feed(packet(frame=0)) + asm.feed(packet(frame=ahead))
        assert [af.frame for af in out] == emitted
        assert len(asm._ahead) == 2 - len(emitted)


def test_assembler_measures_each_packet_from_its_cameras_last_frame():
    # a camera's first packet from the newest emitted frame, and the packet
    # after a dropped one from the camera's last frame, so that it may wait
    clock = FakeClock()
    asm = FrameAssembler(camera_ids=("a", "b"), wait_budget=0.005, clock=clock)
    out = asm.feed(packet(cam="a", frame=0))
    clock.t = 1.0
    out += asm.flush_due()  # frame 0, partial: b is silent
    stream = [packet(cam="b", frame=500), packet(cam="a", frame=502),
              packet(cam="a", frame=300)]
    stream += [packet(cam=c, frame=f) for f in range(1, 4) for c in ("a", "b")]
    for p in stream:
        out += asm.feed(p)
        clock.t += 0.001
        out += asm.flush_due()
    out += asm.finish()
    assert [(af.frame, af.complete) for af in out] == [(0, False), (1, True), (2, True),
                                                       (3, True)]
    assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 1, "far_ahead": 3,
                              "unknown_camera": 0}


def test_assembler_follows_a_jump_agreed_by_a_second_packet():
    for n_cameras in (1, 2):
        cams = ["a", "b"][:n_cameras]
        asm = FrameAssembler(n_cameras=n_cameras, clock=FakeClock())
        stream = [packet(cam=c, frame=f) for f in [0, 1, 5000, 5001, 5002] for c in cams]
        out = [af.frame for p in stream for af in asm.feed(p)] + [
            af.frame for af in asm.finish()]
        assert out == [0, 1, 5000, 5001, 5002]
        assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 0,
                                  "far_ahead": 0, "unknown_camera": 0}


def test_assembler_counts_a_far_packet_left_at_end_of_stream():
    asm = FrameAssembler(n_cameras=1, clock=FakeClock())
    # the stream's first packet is taken on the camera's next one, which waits
    assert asm.feed(packet(frame=0)) == []
    assert [af.frame for af in asm.feed(packet(frame=2**40))] == [0]
    assert asm.finish() == []
    assert asm.far_ahead == 1


def test_assembler_drops_unknown_camera_ids_before_any_state():
    # without the rig's ids, a ghost id completes frame 0 and c01 is late
    stream = [packet(cam=c, frame=0) for c in ("c00", "ghost", "c01")]
    asm = FrameAssembler(n_cameras=2, clock=FakeClock())
    out = [af for p in stream for af in asm.feed(p)]
    assert [sorted(af.features_by_camera) for af in out] == [["c00", "ghost"]]
    assert asm.late == 1
    asm = FrameAssembler(camera_ids=["c00", "c01"], clock=FakeClock())
    assert asm.n_cameras == 2
    out = [af for p in stream for af in asm.feed(p)]
    assert [(af.frame, af.complete, sorted(af.features_by_camera)) for af in out] == [
        (0, True, ["c00", "c01"])]
    for i in range(1000):
        assert asm.feed(packet(cam=f"ghost{i}", frame=1 + i % 3 + (2**62 if i % 2 else 0))) == []
    assert len(asm._last_seen) == 2 and not asm._pending and not asm._ahead
    assert asm.finish() == []
    assert asm.counters() == {"late": 0, "duplicates": 0, "partial": 0, "far_ahead": 0,
                              "unknown_camera": 1001}


def test_assembler_camera_ids_must_match_their_number():
    assert FrameAssembler(n_cameras=2, camera_ids=("a", "b")).n_cameras == 2
    for kw in ({"n_cameras": 3, "camera_ids": ("a", "b")}, {"camera_ids": ()}, {}):
        with pytest.raises(ValueError):
            FrameAssembler(**kw)


def test_frames_are_assembled_by_frame_assembler_alone():
    # every source of frames, live or offline, goes through FrameAssembler;
    # the hub makes only the empty frames of a gap it predicts through
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "AssembledFrame" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                sites.add((module, scope))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, scope or (child.name if named else None))

    for path in Path(camtrack3d.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert sites == {("netproto", "FrameAssembler"), ("hub", "process_frame")}


class ShortMemoryAssembler(FrameAssembler):
    """Remembers 6 emitted frames, so that a short stream tells duplicates
    of forgotten frames from late packets as a long one does."""

    _EMITTED_KEPT = 6


class AssemblerStreams(RuleBasedStateMachine):
    """Per-camera packet streams with skipped, reordered and duplicate
    frames, frame numbers far past their camera's last (corrupt ones, and
    renumberings the camera goes on from) and unknown camera ids, fed to
    one FrameAssembler on a fake clock."""

    CAMERAS = ("c0", "c1", "c2")
    BUDGET = 1.0

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.asm = ShortMemoryAssembler(camera_ids=self.CAMERAS, wait_budget=self.BUDGET,
                                        clock=self.clock)
        self.sent = {c: [] for c in self.CAMERAS}  # frames each camera sent
        self.fed = 0
        self.emitted_packets = 0
        self.last_frame = None

    def _take(self, frames):
        for af in frames:
            assert self.last_frame is None or af.frame > self.last_frame
            self.last_frame = af.frame
            self.emitted_packets += len(af.features_by_camera)

    def _feed(self, cam, frame):
        self.fed += 1
        if cam in self.sent:
            self.sent[cam].append(frame)
        self._take(self.asm.feed(packet(cam=cam, frame=frame), now=self.clock.t))

    @rule(cam=st.sampled_from(CAMERAS), skip=st.integers(0, 2))
    def next_frame(self, cam, skip):
        self._feed(cam, max(self.sent[cam], default=-1) + 1 + skip)

    @precondition(lambda self: any(self.sent.values()))
    @rule(data=st.data())
    def resend_or_reorder(self, data):
        cam = data.draw(st.sampled_from([c for c in self.CAMERAS if self.sent[c]]))
        top = max(self.sent[cam])
        self._feed(cam, data.draw(st.integers(max(0, top - 4), top)))

    @rule(cam=st.sampled_from(CAMERAS), ahead=st.integers(1, 20), renumber=st.booleans())
    def far_frame_number(self, cam, ahead, renumber):
        # past the camera's own last frame, or the newest emitted one
        last = max(self.sent[cam], default=-1 if self.last_frame is None else self.last_frame)
        frame = last + _MAX_SKIP + ahead
        if renumber:  # the camera goes on from here
            self._feed(cam, frame)
        else:
            self.fed += 1
            self._take(self.asm.feed(packet(cam=cam, frame=frame), now=self.clock.t))

    @rule(cam=st.sampled_from(["zz", "c3"]), frame=st.integers(0, 40))
    def unknown_camera(self, cam, frame):
        self._feed(cam, frame)

    @rule(dt=st.floats(0.0, 2.0))
    def wait(self, dt):
        self.clock.t += dt
        self._take(self.asm.flush_due(self.clock.t))
        # what the clock allows to wait has waited no longer than the budget
        assert all(self.clock.t - p.first_seen < self.BUDGET
                   for p in self.asm._pending.values())

    @invariant()
    def state_is_bounded(self):
        asm = self.asm
        assert set(asm._last_seen) <= set(self.CAMERAS)
        assert len(asm._emitted) <= ShortMemoryAssembler._EMITTED_KEPT
        # at most one packet waits per camera
        assert all(p.cam_id == cam for cam, p in asm._ahead.items())
        assert set(asm._ahead) <= set(self.CAMERAS)
        if asm._pending:
            assert max(asm._pending) <= max(asm._last_seen.values())
            if len(asm._last_seen) == len(self.CAMERAS):
                # a frame every camera has passed cannot wait
                assert min(asm._pending) >= min(asm._last_seen.values())

    def teardown(self):
        self._take(self.asm.finish())
        counts = self.asm.counters()
        assert not self.asm._pending and not self.asm._ahead
        # every packet fed is in exactly one emitted frame or one drop counter
        assert self.emitted_packets + counts["late"] + counts["duplicates"] \
            + counts["far_ahead"] + counts["unknown_camera"] == self.fed


AssemblerStreams.TestCase.settings = settings(max_examples=150, stateful_step_count=40,
                                              deadline=None)
test_assembler_streams = AssemblerStreams.TestCase


# ------------------------------------------------------------------- transport

def test_tcp_round_trip_loopback():
    listener = PacketListener(host="127.0.0.1", port=0).start()
    host, port = listener.address
    sent = [packet(cam=f"c{i % 3}", frame=i // 3, ts=i, rows=i % 4, seed=i)
            for i in range(12)]
    send_packets(host, port, sent)
    received = []
    for _, p in listener.packets(idle_timeout=2.0):
        received.append(p)
        if len(received) == len(sent):
            break
    listener.stop()
    assert received == sent


def test_listener_survives_undecodable_packet_and_oversized_prefix():
    listener = PacketListener(host="127.0.0.1", port=0).start()
    bad_id = bytearray(encode(packet(cam="c2", frame=2)))
    bad_id[6] = 0xFF
    received = []
    try:
        with socket.create_connection(listener.address) as first:
            first.sendall(struct.pack("<I", len(bad_id)) + bad_id)
            write_packet(first, packet(cam="c1", frame=1, rows=2))
            first.sendall(struct.pack("<I", MAX_PACKET_BYTES + 1))
            with socket.create_connection(listener.address) as second:
                write_packet(second, packet(cam="c3", frame=3, rows=1))
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and (
                        len(received) < 2 or listener.counters()["closed_connections"] < 1):
                    try:
                        item = listener.get(timeout=0.05)
                    except EOFError:
                        continue
                    if item is not None:
                        received.append(item[1])
                # the listener closed the first connection: it reads EOF
                first.settimeout(5.0)
                assert first.recv(1) == b""
    finally:
        listener.stop()
    assert sorted(p.cam_id for p in received) == ["c1", "c3"]
    assert listener.counters() == {"undecodable": 1, "closed_connections": 1}


def test_listener_accepts_packet_of_largest_legal_size():
    big = FramePacket(cam_id="x" * 32, frame=5, timestamp_us=9,
                      features=np.arange(6.0 * 0xFFFF).reshape(-1, 6))
    assert len(encode(big)) == MAX_PACKET_BYTES
    listener = PacketListener(host="127.0.0.1", port=0).start()
    # the listener reads only inside get(): the 3 MB go from another thread
    sender = threading.Thread(target=send_packets, args=(*listener.address, [big]))
    sender.start()
    try:
        received = [p for _, p in listener.packets(idle_timeout=0.2)]
    finally:
        sender.join()
        listener.stop()
    assert received == [big]
    assert listener.counters() == {"undecodable": 0, "closed_connections": 0}


def test_listener_starts_no_thread_and_holds_only_its_own_socket():
    # the listener accepts and reads on the caller's thread, and closes
    # each connection once its peer has: three connections opened, used
    # and closed one after another leave it holding its server socket only
    count = threading.active_count()
    listener = PacketListener(host="127.0.0.1", port=0).start()
    try:
        received = []
        for k in range(3):
            with socket.create_connection(listener.address) as conn:
                write_packet(conn, packet(cam=f"c{k}", frame=k))
            deadline = time.monotonic() + 5.0
            while len(received) <= k and time.monotonic() < deadline:
                item = listener.get(timeout=0.05)
                if item is not None:
                    received.append(item[1].cam_id)
            assert threading.active_count() == count
        # ends once the last connection's close is read
        received += [p.cam_id for _, p in listener.packets(idle_timeout=0.2)]
        assert threading.active_count() == count
        sockets = [k.fileobj for k in listener._selector.get_map().values()]
        assert sockets == [listener._srv]
    finally:
        listener.stop()
    assert threading.active_count() == count
    assert received == ["c0", "c1", "c2"]


def test_listener_closes_a_connection_reset_mid_packet():
    # a peer that resets its connection in the middle of a packet loses
    # that connection only: the other's packets still arrive, get() never
    # raises, and no thread dies of the reset
    died = []
    hook, threading.excepthook = threading.excepthook, died.append
    listener = PacketListener(host="127.0.0.1", port=0).start()

    def take(sock, p):
        write_packet(sock, p)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            item = listener.get(timeout=0.05)
            if item is not None:
                return item[1]
        pytest.fail("packet did not arrive")

    try:
        reset = socket.create_connection(listener.address)
        wire = encode(packet(cam="r", frame=1, rows=3))
        reset.sendall(struct.pack("<I", len(wire)) + wire[:30])
        with socket.create_connection(listener.address) as other:
            assert take(other, packet(cam="o", frame=1)).cam_id == "o"
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.close()
            assert take(other, packet(cam="o", frame=2)).frame == 2
        # ends once both connections are closed
        assert list(listener.packets(idle_timeout=0.2)) == []
    finally:
        listener.stop()
        threading.excepthook = hook
    assert died == []
    assert listener.counters() == {"undecodable": 0, "closed_connections": 0}


FLOOD = """
import socket, struct, sys, time
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
junk = struct.pack("<I", 1 << 20) + bytes(1 << 20)  # a packet that does not decode
end = time.monotonic() + 3.0
while time.monotonic() < end:
    sock.sendall(junk)
"""


def test_listener_get_returns_at_its_deadline_under_a_flood():
    # another process streams undecodable packets as fast as it can for
    # 3 s, so its connection is readable every time it is polled: get()
    # still returns None at its timeout, and the hub's loop goes on (wait
    # budgets, other cameras) meanwhile
    listener = PacketListener(host="127.0.0.1", port=0).start()
    proc = subprocess.Popen([sys.executable, "-c", FLOOD, str(listener.address[1])])
    try:
        deadline = time.monotonic() + 2.0
        while listener.undecodable == 0 and time.monotonic() < deadline:
            assert listener.get(timeout=0.05) is None
        assert listener.undecodable > 0  # the flood has started
        t = time.monotonic()
        assert [listener.get(timeout=0.05) for _ in range(10)] == [None] * 10
        # 0.5 s and one pass per call, with room for the host's stalls; a
        # listener that reads on while data is ready took 1.1-1.3 s here
        assert time.monotonic() - t < 0.65
    finally:
        proc.kill()
        proc.wait()
        listener.stop()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_listener_reassembles_packets_split_across_reads(data):
    # one connection delivers its stream in arbitrary pieces: valid
    # packets, one that does not decode, then a length prefix above the
    # largest packet. Every valid packet comes out once and in order
    rows = data.draw(st.lists(st.sampled_from([0, 1, 3, 1400]), min_size=1, max_size=6))
    sent = [packet(cam=f"c{i}", frame=i, rows=r, seed=i) for i, r in enumerate(rows)]
    bad = bytearray(encode(packet(cam="bad", frame=99)))
    bad[0] = 0
    wire = [encode(p) for p in sent]
    wire.insert(data.draw(st.integers(0, len(wire)), label="undecodable at"), bytes(bad))
    stream = b"".join(struct.pack("<I", len(w)) + w for w in wire)
    stream += struct.pack("<I", MAX_PACKET_BYTES + 1)
    cuts = data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12, unique=True))
    bounds = [0, *sorted(cuts), len(stream)]
    listener = PacketListener(host="127.0.0.1", port=0).start()
    sock = socket.create_connection(listener.address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send():
        for a, b in zip(bounds, bounds[1:]):
            sock.sendall(stream[a:b])
            time.sleep(0.0005)

    sender = threading.Thread(target=send)
    sender.start()
    received = []
    try:
        # ends once the listener has closed the connection and been drained
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                item = listener.get(timeout=0.05)
            except EOFError:
                break
            if item is not None:
                received.append(item[1])
        sender.join()
        # the listener closed the connection: it reads EOF
        sock.settimeout(5.0)
        assert sock.recv(1) == b""
    finally:
        sock.close()
        listener.stop()
    assert received == sent
    assert listener.counters() == {"undecodable": 1, "closed_connections": 1}
