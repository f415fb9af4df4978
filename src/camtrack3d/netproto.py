"""Wire protocol between camera-node processes and the tracking hub, and
per-frame assembly of packets from all cameras.

Packet layout (little endian):

    magic "FLYP" (4) | version u8 | id-len u8 | id bytes | frame u64 |
    trigger timestamp u64 (microseconds) | feature count u16 |
    count x 6 float64 (u, v, area, peak, theta, ecc)

so a packet occupies 24 + id-len + 48 * count bytes. On stream transports
packets are length-delimited with a u32 prefix.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from queue import Queue
from typing import Callable, Iterable, Iterator

import numpy as np

MAGIC = b"FLYP"
VERSION = 1
MAX_ID_BYTES = 32
MAX_FEATURES = 0xFFFF
FIXED_OVERHEAD = 24  # magic + version + id-len + frame + timestamp + count
FEATURE_BYTES = 48   # 6 little-endian float64
MAX_PACKET_BYTES = FIXED_OVERHEAD + MAX_ID_BYTES + FEATURE_BYTES * MAX_FEATURES


class ProtocolError(Exception):
    """Malformed packet."""


class BadMagic(ProtocolError):
    pass


class BadVersion(ProtocolError):
    pass


class Truncated(ProtocolError):
    pass


class IdTooLong(ProtocolError):
    pass


class TooManyFeatures(ProtocolError):
    pass


class BadCameraId(ProtocolError):
    """Camera id bytes that are not valid UTF-8."""


class FieldOutOfRange(ProtocolError):
    """A header field does not fit its wire type (frame and timestamp u64,
    version u8)."""


@dataclass(frozen=True)
class FramePacket:
    """One camera's features for one frame."""

    cam_id: str
    frame: int
    timestamp_us: int
    features: np.ndarray  # (count, 6) float64
    version: int = VERSION

    def __post_init__(self):
        f = np.asarray(self.features, dtype="<f8").reshape(-1, 6)
        object.__setattr__(self, "features", f)

    def __eq__(self, other):
        if not isinstance(other, FramePacket):
            return NotImplemented
        return (self.cam_id == other.cam_id and self.frame == other.frame
                and self.timestamp_us == other.timestamp_us
                and self.version == other.version
                and self.features.shape == other.features.shape
                and bool(np.all(self.features == other.features)))


def encode(packet: FramePacket) -> bytes:
    """Serialize a packet to its canonical byte layout."""
    id_bytes = packet.cam_id.encode("utf-8")
    if len(id_bytes) > MAX_ID_BYTES:
        raise IdTooLong(f"camera id is {len(id_bytes)} bytes (max {MAX_ID_BYTES})")
    count = packet.features.shape[0]
    if count > MAX_FEATURES:
        raise TooManyFeatures(str(count))
    try:
        head = struct.pack("<4sBB", MAGIC, packet.version, len(id_bytes))
        body = struct.pack("<QQH", packet.frame, packet.timestamp_us, count)
    except struct.error as e:
        raise FieldOutOfRange(str(e)) from e
    return head + id_bytes + body + packet.features.astype("<f8").tobytes()


def decode(buf: bytes) -> FramePacket:
    """Parse the byte layout produced by :func:`encode`. The buffer must
    contain exactly one packet; any other input raises ProtocolError."""
    if len(buf) < 6:
        raise Truncated(f"{len(buf)} bytes")
    magic, version, id_len = struct.unpack_from("<4sBB", buf, 0)
    if magic != MAGIC:
        raise BadMagic(repr(magic))
    if version != VERSION:
        raise BadVersion(str(version))
    if id_len > MAX_ID_BYTES:
        raise IdTooLong(f"camera id is {id_len} bytes (max {MAX_ID_BYTES})")
    if len(buf) < 6 + id_len + 18:
        raise Truncated(f"{len(buf)} bytes")
    id_bytes = buf[6:6 + id_len]
    try:
        cam_id = id_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise BadCameraId(repr(bytes(id_bytes))) from None
    frame, timestamp_us, count = struct.unpack_from("<QQH", buf, 6 + id_len)
    expected = FIXED_OVERHEAD + id_len + FEATURE_BYTES * count
    if len(buf) < expected:
        raise Truncated(f"{len(buf)} bytes, expected {expected}")
    if len(buf) > expected:
        raise ProtocolError(f"{len(buf) - expected} trailing bytes")
    start = FIXED_OVERHEAD + id_len
    feats = np.frombuffer(buf, dtype="<f8", count=6 * count, offset=start)
    return FramePacket(cam_id=cam_id, frame=frame, timestamp_us=timestamp_us,
                       features=feats.reshape(count, 6).copy())


# ------------------------------------------------------------- frame assembly

@dataclass(frozen=True)
class AssembledFrame:
    """All cameras' features for one frame (missing cameras absent)."""

    frame: int
    features_by_camera: dict[str, np.ndarray]
    complete: bool
    latency: float          # seconds from first packet to emission
    timestamp_us: int = 0


@dataclass
class _Pending:
    first_seen: float
    timestamp_us: int
    features: dict[str, np.ndarray] = field(default_factory=dict)


class FrameAssembler:
    """Groups per-camera packets into per-frame observations.

    A frame is emitted once all cameras have reported, once it provably
    can never complete (per-camera frame numbers are nondecreasing, so
    every potential contributor having moved past it settles the matter),
    or once ``wait_budget`` seconds have elapsed since its first packet
    (the caller invokes :meth:`flush_due` while waiting on input; only a
    genuinely silent camera needs the clock). Emission order is strictly
    increasing by frame number: whenever a frame is emitted, every older
    pending frame is flushed (partial) first. Late and duplicate packets
    are counted and dropped.
    """

    def __init__(self, n_cameras: int, wait_budget: float = 0.005,
                 clock: Callable[[], float] = time.monotonic,
                 emitted_window: int = 1024):
        if n_cameras < 1:
            raise ValueError("need at least one camera")
        self.n_cameras = n_cameras
        self.wait_budget = wait_budget
        self.clock = clock
        self.late = 0
        self.duplicates = 0
        self.partial = 0
        self._pending: dict[int, _Pending] = {}
        self._last_seen: dict[str, int] = {}
        self._last_emitted: int | None = None
        self._emitted: OrderedDict[int, set] = OrderedDict()
        self._window = emitted_window

    def feed(self, packet: FramePacket, now: float | None = None) -> list[AssembledFrame]:
        now = self.clock() if now is None else now
        frame = packet.frame
        prev = self._last_seen.get(packet.cam_id, -1)
        self._last_seen[packet.cam_id] = max(prev, frame)
        if self._last_emitted is not None and frame <= self._last_emitted:
            cams = self._emitted.get(frame)
            if cams is not None and packet.cam_id in cams:
                self.duplicates += 1
            else:
                self.late += 1
            return []
        pend = self._pending.get(frame)
        if pend is None:
            pend = _Pending(first_seen=now, timestamp_us=packet.timestamp_us)
            self._pending[frame] = pend
        if packet.cam_id in pend.features:
            self.duplicates += 1
            return []
        pend.features[packet.cam_id] = packet.features
        if len(pend.features) == self.n_cameras:
            return self._emit_through(frame, now)
        return self._flush_impossible(now)

    def _flush_impossible(self, now: float) -> list[AssembledFrame]:
        """Emit pending frames no camera can contribute to anymore."""
        unseen = self.n_cameras - len(self._last_seen)
        dead = [
            f for f, p in self._pending.items()
            if len(p.features) + unseen + sum(
                1 for c, last in self._last_seen.items()
                if c not in p.features and last <= f) < self.n_cameras]
        if not dead:
            return []
        return self._emit_through(max(dead), now)

    def flush_due(self, now: float | None = None) -> list[AssembledFrame]:
        """Emit every frame whose wait budget has expired (flushing older
        pending frames first to preserve ordering)."""
        now = self.clock() if now is None else now
        expired = [f for f, p in self._pending.items()
                   if now - p.first_seen >= self.wait_budget]
        if not expired:
            return []
        return self._emit_through(max(expired), now)

    def finish(self) -> list[AssembledFrame]:
        """Flush everything still pending, in order (end of stream)."""
        if not self._pending:
            return []
        return self._emit_through(max(self._pending), self.clock())

    def _emit_through(self, frame: int, now: float) -> list[AssembledFrame]:
        out = []
        for f in sorted(k for k in self._pending if k <= frame):
            p = self._pending.pop(f)
            complete = len(p.features) == self.n_cameras
            if not complete:
                self.partial += 1
            out.append(AssembledFrame(frame=f, features_by_camera=dict(p.features),
                                      complete=complete,
                                      latency=max(0.0, now - p.first_seen),
                                      timestamp_us=p.timestamp_us))
            self._last_emitted = f
            self._emitted[f] = set(p.features)
            while len(self._emitted) > self._window:
                self._emitted.popitem(last=False)
        return out

    def counters(self) -> dict[str, int]:
        return {"late": self.late, "duplicates": self.duplicates,
                "partial": self.partial}


def assemble(packets: Iterable[FramePacket], n_cameras: int,
             wait_budget: float = 0.005,
             clock: Callable[[], float] = time.monotonic) -> Iterator[AssembledFrame]:
    """Drive a FrameAssembler over an in-order packet iterable, flushing
    the remainder at end of stream."""
    asm = FrameAssembler(n_cameras=n_cameras, wait_budget=wait_budget, clock=clock)
    for packet in packets:
        yield from asm.feed(packet)
    yield from asm.finish()


# --------------------------------------------------------------- TCP transport

_LEN = struct.Struct("<I")


def write_packet(sock: socket.socket, packet: FramePacket) -> None:
    payload = encode(packet)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _read_exact(sock: socket.socket, n: int) -> bytearray | None:
    """Exactly n bytes, or None when the peer closes first."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            return None
        got += k
    return buf


def send_packets(host: str, port: int, packets: Iterable[FramePacket]) -> None:
    """Connect and stream length-delimited packets (camera-node side)."""
    with socket.create_connection((host, port)) as sock:
        for p in packets:
            write_packet(sock, p)


class PacketListener:
    """Hub-side TCP listener: accepts any number of camera connections and
    funnels decoded packets into a bounded queue (providing back-pressure
    to producers). Iterate :meth:`packets` to consume.

    A packet that does not decode is dropped and counted (``undecodable``).
    A length prefix above the largest legal packet leaves the stream with
    no point to resync at, so the connection is closed and counted
    (``closed_connections``)."""

    def __init__(self, host: str = "0.0.0.0", port: int = 0, maxsize: int = 1024):
        self._srv = socket.create_server((host, port))
        self._queue: Queue = Queue(maxsize=maxsize)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._open_connections = 0
        self._ever_connected = False
        self.undecodable = 0
        self.closed_connections = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._srv.getsockname()[:2]

    def start(self) -> "PacketListener":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        self._srv.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._srv.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._reader, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _reader(self, conn: socket.socket):
        with self._lock:
            self._open_connections += 1
            self._ever_connected = True
        try:
            with conn:
                while not self._stop.is_set():
                    head = _read_exact(conn, _LEN.size)
                    if head is None:
                        break
                    (length,) = _LEN.unpack(head)
                    if length > MAX_PACKET_BYTES:
                        with self._lock:
                            self.closed_connections += 1
                        break
                    payload = _read_exact(conn, length)
                    if payload is None:
                        break
                    try:
                        packet = decode(payload)
                    except ProtocolError:
                        with self._lock:
                            self.undecodable += 1
                        continue
                    self._queue.put((time.monotonic(), packet))
        finally:
            with self._lock:
                self._open_connections -= 1

    def get(self, timeout: float = 0.05) -> tuple[float, FramePacket] | None:
        """One (arrival time, packet), or None when momentarily idle.
        Raises EOFError once stopped, or once every producer has connected,
        disconnected and been drained."""
        from queue import Empty

        try:
            return self._queue.get(timeout=timeout)
        except Empty:
            if self._stop.is_set():
                raise EOFError("listener stopped")
            with self._lock:
                if self._ever_connected and self._open_connections == 0:
                    raise EOFError("all producers disconnected")
            return None

    def packets(self, idle_timeout: float = 0.1) -> Iterator[tuple[float, FramePacket]]:
        """Yield (arrival time, packet) until the stream finishes."""
        while True:
            try:
                item = self.get(timeout=idle_timeout)
            except EOFError:
                return
            if item is not None:
                yield item

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {"undecodable": self.undecodable,
                    "closed_connections": self.closed_connections}

    def stop(self):
        self._stop.set()
        try:
            self._srv.close()
        except OSError:
            pass
