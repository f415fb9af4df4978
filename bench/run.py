"""camtrack3d benchmark: live trigger-to-row latency, hub capacity and
camera-node throughput, with a traced per-stage run.

    python3 bench/run.py --workload {bigcyl-clutter,tunnel-live,camnode}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. camtrack3d is imported from the
checkout's own ``src/``, never from an installed copy. The workload's
inputs are made from ``--seed`` (see ``bench/workloads.json`` for each
workload's default and held-out seeds); bigcyl-clutter and tunnel-live map
the seed onto their pool of checked scenes first (``workloads.scene_seed``).

With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds. With ``--trace 1`` it measures half the time
untraced and half with timing wrappers installed (``bench/tracing.py``),
prints the per-layer metrics and the tracing overhead, and writes the spans
to ``.bench_out/``. Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every output check passed, 1 when one failed, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INVALID = 1e9  # printed in place of a metric that is not finite

# Diagnostics printed above the JSON line, with their units. id_switches
# and failed_frac are usually 0, which a bounded metric cannot be, and
# p99 has too few samples beyond it to repeat, so none is bounded.
DIAGNOSTIC_UNITS = {
    "id_switches": "count", "failed_frac": "ratio", "centroid_rmse_px": "px",
    "frame_ms_mean": "ms", "frame_ms_p99": "ms", "latency_ms_p99": "ms",
    "samples": "count", "hub.recorded_latency_ms_p50": "ms",
    "hub.recorded_latency_ms_p99": "ms", "births": "count", "deaths": "count",
    "deadline_miss_frac": "ratio", "warmup_frames_left_out": "count",
    "wall_frames_per_s": "1/s",
}


def import_checkout():
    """Put the checkout's src/ first on the path and make sure camtrack3d
    comes from there."""
    src = ROOT / "src"
    if not (src / "camtrack3d" / "__init__.py").is_file():
        print(f"bench: no camtrack3d package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import camtrack3d

    if Path(camtrack3d.__file__).resolve().parent != (src / "camtrack3d").resolve():
        print(f"bench: camtrack3d imported from {camtrack3d.__file__}", file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def fmt(v) -> str:
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(records["workloads"]))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = records["workloads"][args.workload]["default_seed"] if args.seed is None \
        else args.seed

    import_checkout()
    import tracing
    import workloads

    run = workloads.WORKLOADS[args.workload]
    requested, seed = seed, workloads.scene_seed(args.workload, seed)
    if args.trace:
        # both halves run each frame once, so the overhead compares like with like
        workloads.FRAME_REPEATS = 1
        base = run(seed, args.seconds / 2, None)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run(seed, args.seconds / 2, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{seed}.jsonl")
        outcomes = (base, traced)
        values = dict(traced.layer)
        if base.correct and traced.correct:
            values["trace.frames_per_s"] = traced.e2e["frames_per_s"]
            values["trace.untraced_frames_per_s"] = base.e2e["frames_per_s"]
            values["trace.overhead_frac"] = (traced.info["frame_ms_mean"]
                                             / base.info["frame_ms_mean"] - 1.0)
        wanted = spec["per_layer"]
    else:
        outcome = run(seed, args.seconds, None)
        outcomes = (outcome,)
        values = dict(outcome.e2e)
        if outcome.setup_s:
            values["setup_s"] = statistics.median(outcome.setup_s)
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = spec["end_to_end"]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.correct for o in outcomes)
    info = dict(outcomes[-1].info, failed_frac=failed / max(attempted, 1))
    print(f"{args.workload} seed={requested} scene_seed={seed} trace={args.trace} "
          f"correct={correct} "
          f"attempted={attempted} failed={failed}")
    for o in outcomes:
        for name, ok, detail in o.checks:
            print(f"  check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    for k, v in sorted(info.items()):
        print(f"  {k} = {fmt(v)} {DIAGNOSTIC_UNITS.get(k, '')}".rstrip())
    metrics = {}
    for m in wanted:
        # in the traced run, a layer the workload does not run reports zero
        value = float(values.get(m["name"], 0.0 if args.trace else math.nan))
        print(f"  {m['name']} = {fmt(value)} {m['unit']}")
        if not math.isfinite(value):  # only a failed run leaves one; JSON has no inf
            correct, value = False, INVALID
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not correct:
        failed = attempted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
