"""Load generator for the tunnel-live workload: one process, one thread,
one TCP connection.

It builds the scene from the seed, pre-encodes every camera's packets with
``netproto.encode``, connects to the hub's listener and prints a ``ready``
line. It then reads the start time (``time.monotonic`` seconds, shared by
every process on the host) from stdin and sends frame k's packets at
``start + k * dt``, dt being the shape's send period: an open loop that
never waits for the hub. It ends with
a ``done`` line that says how late it sent.

Usage: python3 bench/loadgen.py --port P --seed S --frames N
"""

from __future__ import annotations

import argparse
import json
import socket
import struct
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
_LEN = struct.Struct("<I")  # stream framing: u32 length prefix per packet


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--frames", type=int, required=True)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from camtrack3d import netproto

    import scenes

    shape = scenes.load_records()["tunnel-live"]["shape"]
    scene = scenes.tunnel(args.seed, args.frames, shape)
    t0 = time.perf_counter()
    n_packets = 0
    wire = []
    for per_cam in scene.packets_by_frame:
        chunks = []
        for p in per_cam:
            payload = netproto.encode(p)
            chunks.append(_LEN.pack(len(payload)) + payload)
            n_packets += 1
        wire.append(b"".join(chunks))
    encode_s = time.perf_counter() - t0
    dt = 1.0 / shape["send_fps"]

    with socket.create_connection(("127.0.0.1", args.port)) as sock:
        # one write per frame; without NODELAY, Nagle's algorithm would hold
        # a frame back until the previous one is acknowledged
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        print("ready " + json.dumps({"encode_us": 1e6 * encode_s / n_packets,
                                     "bytes_per_frame": sum(map(len, wire)) / len(wire)}),
              flush=True)
        line = sys.stdin.readline()
        if not line:
            return 1
        start = float(line)
        lags = []
        for k, data in enumerate(wire):
            due = start + k * dt
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.monotonic() - due)
            sock.sendall(data)
        print("done " + json.dumps({"frames_sent": len(wire), "lags_s": lags}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
