"""Wire protocol between camera-node processes and the tracking hub, and
per-frame assembly of packets from all cameras.

Packet layout (little endian):

    magic "FLYP" (4) | version u8 | id-len u8 | id bytes | frame u64 |
    trigger timestamp u64 (microseconds) | feature count u16 |
    count x 6 float64 (u, v, area, peak, theta, ecc)

so a packet occupies 24 + id-len + 48 * count bytes. On stream transports
packets are length-delimited with a u32 prefix. The hub's
:class:`PacketListener` reads them on the hub's one thread.
"""

from __future__ import annotations

import functools
import selectors
import socket
import struct
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
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


# A camera's packet more than this many frames past its own last frame
# waits for that camera's next one: above the frames an ordinary drop
# skips, below every preset's death horizon (6 on bigcyl)
_MAX_SKIP = 4


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

    A packet more than ``_MAX_SKIP`` frames past its camera's last frame
    waits for that camera's next packet: a corrupt frame number would
    otherwise be emitted and make every later packet late. When the next
    packet is at or past it, it is taken and the next one is measured from
    it; when it is below, the waiting packet is dropped and counted
    (``far_ahead``), as it is at the end of the stream. A camera's first
    packet is measured from the newest emitted frame; before any frame has
    been emitted, from the newest frame taken; before any packet has been
    taken, from the lowest frame waiting.
    So the stream's first packet, which has nothing to be measured from,
    waits: a corrupt frame number in it would otherwise be taken. The first
    packet taken, the next one of the same camera or a packet of another,
    takes the packets waiting up to ``_MAX_SKIP`` frames past it. At the
    end of a stream in which nothing was taken, the lowest packet waiting
    is taken.

    Given the rig's ``camera_ids`` (``n_cameras`` is then their number),
    a packet from any other id is dropped and counted (``unknown_camera``)
    before it touches any state: it can neither complete a frame nor grow
    the per-camera bookkeeping. Without them every id is taken.
    """

    _EMITTED_KEPT = 1024  # emitted frames remembered to tell duplicates from late packets

    def __init__(self, n_cameras: int | None = None, wait_budget: float = 0.005,
                 clock: Callable[[], float] = time.monotonic,
                 camera_ids: Iterable[str] | None = None):
        self.camera_ids = None if camera_ids is None else frozenset(camera_ids)
        if self.camera_ids is not None:
            if n_cameras not in (None, len(self.camera_ids)):
                raise ValueError(f"{n_cameras} cameras but {len(self.camera_ids)} camera ids")
            n_cameras = len(self.camera_ids)
        if n_cameras is None or n_cameras < 1:
            raise ValueError("need at least one camera")
        self.n_cameras = n_cameras
        self.wait_budget = wait_budget
        self.clock = clock
        self.late = 0
        self.duplicates = 0
        self.partial = 0
        self.far_ahead = 0
        self.unknown_camera = 0
        self._ahead: dict[str, FramePacket] = {}  # by camera, waiting for its next packet
        self._pending: dict[int, _Pending] = {}
        self._last_seen: dict[str, int] = {}
        self._last_emitted: int | None = None
        self._emitted: OrderedDict[int, set] = OrderedDict()

    def feed(self, packet: FramePacket, now: float | None = None) -> list[AssembledFrame]:
        if self.camera_ids is not None and packet.cam_id not in self.camera_ids:
            self.unknown_camera += 1
            return []
        now = self.clock() if now is None else now
        waiting = self._ahead.pop(packet.cam_id, None)
        if waiting is not None:
            if packet.frame >= waiting.frame:  # confirmed: this one is measured from it
                return self._accept(waiting, now) + self.feed(packet, now)
            self.far_ahead += 1
        opening = not self._last_seen and self._last_emitted is None
        last = self._last_seen.get(packet.cam_id, self._last_emitted)
        if last is None:  # nothing emitted: the newest frame taken, else the lowest waiting
            last = max(self._last_seen.values(),
                       default=min((p.frame for p in self._ahead.values()), default=None))
        if last is None or packet.frame - last > _MAX_SKIP:
            self._ahead[packet.cam_id] = packet
            return []
        out = self._accept(packet, now)
        if opening:  # the first packet taken: the others waiting are measured from it
            for p in [p for p in self._ahead.values() if p.frame - packet.frame <= _MAX_SKIP]:
                del self._ahead[p.cam_id]
                out += self._accept(p, now)
        return out

    def _accept(self, packet: FramePacket, now: float) -> list[AssembledFrame]:
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
        now, out = self.clock(), []
        if not self._last_seen and self._last_emitted is None and self._ahead:
            # nothing came to measure the stream's first packet against
            out = self._accept(self._ahead.pop(min(self._ahead.values(),
                                                   key=lambda p: p.frame).cam_id), now)
        self.far_ahead += len(self._ahead)
        self._ahead.clear()
        if not self._pending:
            return out
        return out + self._emit_through(max(self._pending), now)

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
            while len(self._emitted) > self._EMITTED_KEPT:
                self._emitted.popitem(last=False)
        return out

    def counters(self) -> dict[str, int]:
        return {"late": self.late, "duplicates": self.duplicates,
                "partial": self.partial, "far_ahead": self.far_ahead,
                "unknown_camera": self.unknown_camera}


def assemble(packets: Iterable[FramePacket], asm: FrameAssembler) -> Iterator[AssembledFrame]:
    """Feed `asm` an in-order packet iterable and flush the remainder at
    end of stream; `asm`'s counters then hold the stream's drops."""
    for packet in packets:
        yield from asm.feed(packet)
    yield from asm.finish()


# --------------------------------------------------------------- TCP transport

_LEN = struct.Struct("<I")
_READ_BYTES = 1 << 16  # per read of one connection


def write_packet(sock: socket.socket, packet: FramePacket) -> None:
    payload = encode(packet)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def send_packets(host: str, port: int, packets: Iterable[FramePacket]) -> None:
    """Connect and stream length-delimited packets (camera-node side)."""
    with socket.create_connection((host, port)) as sock:
        for p in packets:
            write_packet(sock, p)


class PacketListener:
    """Hub-side TCP listener for any number of cameras, with no thread:
    :meth:`get` waits on one selector, accepts, reads a bounded chunk from
    each readable connection and decodes its whole packets, on the one
    thread that calls :meth:`get` and :meth:`stop`. A packet arrives when
    the hub reads it; TCP's flow control holds back a camera that outruns
    the hub. A packet that does not decode is dropped and counted
    (``undecodable``). A length prefix above the largest legal packet
    leaves no point to resync at, so the connection is closed and counted
    (``closed_connections``). A failed read (a reset, say) closes its
    connection as EOF does; a failed accept is skipped."""

    def __init__(self, host: str = "0.0.0.0", port: int = 0):
        self._srv = socket.create_server((host, port))
        self._srv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._srv, selectors.EVENT_READ, self._accept)
        self._ready: deque[tuple[float, FramePacket]] = deque()
        self._stopped = False
        self._ever_connected = False
        self.undecodable = 0
        self.closed_connections = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._srv.getsockname()[:2]

    def start(self) -> "PacketListener":
        return self

    def get(self, timeout: float = 0.05) -> tuple[float, FramePacket] | None:
        """One (arrival time, packet), or None when momentarily idle.
        Raises EOFError once stopped, or once every producer has connected,
        disconnected and been drained."""
        deadline = time.monotonic() + timeout
        while not self._ready:
            if self._stopped:
                raise EOFError("listener stopped")
            if self._ever_connected and len(self._selector.get_map()) == 1:
                raise EOFError("all producers disconnected")
            wait = deadline - time.monotonic()
            for key, _ in self._selector.select(max(wait, 0.0)):
                key.data()  # accept, or read one connection
            if wait <= 0 and not self._ready:  # even if a flood keeps a connection readable
                return None
        return self._ready.popleft()

    def _accept(self):
        try:
            conn, _ = self._srv.accept()
        except OSError:  # the peer gave up first, or no descriptor is left
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ,
                                functools.partial(self._read, conn, bytearray()))
        self._ever_connected = True

    def _read(self, conn: socket.socket, buf: bytearray):
        try:
            chunk = conn.recv(_READ_BYTES)
        except BlockingIOError:
            return
        except OSError:  # a reset, say: the connection ends as at EOF
            chunk = b""
        buf += chunk
        arrived, start = time.monotonic(), 0
        while len(buf) - start >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, start)
            if length > MAX_PACKET_BYTES:
                self.closed_connections += 1
                chunk = b""  # closed as at EOF
                break
            end = start + _LEN.size + length
            if end > len(buf):
                break
            try:
                self._ready.append((arrived, decode(buf[start + _LEN.size:end])))
            except ProtocolError:
                self.undecodable += 1
            start = end
        if not chunk:
            self._selector.unregister(conn)
            conn.close()
        del buf[:start]

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
        return {"undecodable": self.undecodable,
                "closed_connections": self.closed_connections}

    def stop(self):
        if not self._stopped:
            self._stopped = True
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._selector.close()
