"""What a fresh process loads: each check runs in its own interpreter, so
modules an earlier test imported cannot hide an eager import."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import camtrack3d
from helpers import checkout_env

# every name the package exported when it imported all its modules eagerly
EXPORTS = [
    "AssignmentMatrix", "GateConfig", "assign", "cull_targets", "feature_likelihood",
    "mahalanobis_closest_point", "resolve_shared", "spawn_targets",
    "BackgroundModel", "Feature", "Frame", "extract_features", "update_background",
    "CameraModel", "Plane3", "Ray3", "apply_distortion", "body_axis",
    "correct_distortion", "dehomogenize", "dlt_calibrate", "load_calibration",
    "pixel_ray", "project", "save_calibration", "triangulate",
    "TrackerWorld", "process_frame", "run",
    "evaluate",
    "AssembledFrame", "FrameAssembler", "FramePacket", "assemble", "decode", "encode",
    "PRESETS", "RigSpec", "TruthTrajectory", "generate_rig", "simulate_truth",
    "synthesize_observations",
    "ObservationModel", "ProcessModel", "TargetState", "extrapolate",
    "observation_function", "observation_jacobian", "predict", "update",
    "__version__",
]


def _fresh(code: str):
    """Run `code` in a new interpreter that imports this checkout's package
    and return the JSON it prints."""
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_synthesis_and_transport_load_no_scipy():
    loaded = _fresh("import json, sys\n"
                    "import camtrack3d.simharness, camtrack3d.netproto\n"
                    "print(json.dumps(sorted(m for m in sys.modules"
                    " if m == 'scipy' or m.startswith('scipy.'))))")
    assert loaded == []


def test_hub_tracks_a_scene_without_loading_scipy():
    # the hub's whole path, updates included, runs on numpy alone
    out = _fresh("import io, json, sys\n"
                 "import camtrack3d.cli\n"
                 "from camtrack3d import hub, simharness\n"
                 "from camtrack3d.association import GateConfig\n"
                 "from camtrack3d.tracker import ObservationModel, ProcessModel\n"
                 "spec = simharness.preset('smalltunnel', seed=5)\n"
                 "cams = simharness.generate_rig(spec)\n"
                 "truths = simharness.simulate_truth(spec, 2, 20)\n"
                 "frames = hub.packets_to_assembled(\n"
                 "    simharness.synthesize_observations(truths, cams, spec), spec.n_cameras)\n"
                 "world = hub.TrackerWorld(ProcessModel(dt=1.0 / spec.fps),\n"
                 "                         ObservationModel(cameras=cams), GateConfig())\n"
                 "stats = hub.run(frames, world, trajectory_path=io.StringIO())\n"
                 "print(json.dumps([stats.frames, stats.births,\n"
                 "                  int((world.live.missed == 0).sum()),\n"
                 "                  sorted(m for m in sys.modules\n"
                 "                         if m == 'scipy' or m.startswith('scipy.'))]))")
    frames, births, updated, loaded = out
    assert (frames, births, updated) == (20, 2, 2)
    assert loaded == []


def test_cli_loads_no_ndimage():
    loaded = _fresh("import json, sys\n"
                    "import camtrack3d.cli\n"
                    "print(json.dumps('scipy.ndimage' in sys.modules))")
    assert loaded is False


def test_every_former_export_resolves():
    missing = _fresh("import json, camtrack3d\n"
                     f"print(json.dumps([n for n in {EXPORTS!r}"
                     " if not hasattr(camtrack3d, n)]))")
    assert missing == []
    assert set(EXPORTS) <= set(camtrack3d.__all__) <= set(dir(camtrack3d))


# (module, name) imported and never used, each with the reason it stays
UNUSED_IMPORTS = {
    ("hub", "feature_from_row"): "bench/tracing.py wraps hub.feature_from_row by name",
    ("association", "triangulate"): "bench/tracing.py wraps association.triangulate by name",
}


def test_every_imported_name_is_used():
    # code nothing calls is deleted, and an import nothing reads is the
    # first sign of it; the allowed exceptions are listed above
    unused = set()
    for path in sorted(Path(camtrack3d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == set(UNUSED_IMPORTS)


def _defined(top: ast.stmt) -> set[str]:
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    return {t.id for node in ast.walk(top) if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name)}


def _read(top: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def test_every_private_module_name_is_used():
    # a module-level _name is no public API, so one that no other statement
    # of the package reads is dead, such as what a removed caller left
    tops = [top for path in sorted(Path(camtrack3d.__file__).parent.glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    read = [_read(top) for top in tops]
    unused = {name for i, top in enumerate(tops) for name in _defined(top)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in names for j, names in enumerate(read) if j != i)}
    assert unused == set()
