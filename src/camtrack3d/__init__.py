"""Realtime multi-camera, multi-target 3D tracking with a deterministic
simulation harness.

Camera-node processes extract 2D blob features from grayscale frames and
ship them over a binary wire protocol to a hub, which assembles per-frame
observations, associates them to per-target extended Kalman filters and
manages track birth and death. The simulation harness synthesizes camera
rigs, flight trajectories and feature streams so the whole pipeline can be
verified at desk scale.

The public names below load their module on first use (PEP 562), so a
process that imports one submodule, such as a camera node or a load
generator that only synthesizes and sends packets, does not pay for the
hub's imports.
"""

import importlib

_EXPORTS = {
    "association": ("AssignmentMatrix", "GateConfig", "assign", "cull_targets",
                    "feature_likelihood", "mahalanobis_closest_point",
                    "resolve_shared", "spawn_targets"),
    "features": ("BackgroundModel", "Feature", "Frame", "extract_features",
                 "update_background"),
    "geometry": ("CameraModel", "Plane3", "Ray3", "apply_distortion", "body_axis",
                 "correct_distortion", "dehomogenize", "dlt_calibrate",
                 "load_calibration", "pixel_ray", "project", "save_calibration",
                 "triangulate"),
    "hub": ("TrackerWorld", "process_frame", "run"),
    "metrics": ("evaluate",),
    "netproto": ("AssembledFrame", "FrameAssembler", "FramePacket", "assemble",
                 "decode", "encode"),
    "simharness": ("PRESETS", "RigSpec", "TruthTrajectory", "generate_rig",
                   "simulate_truth", "synthesize_observations"),
    "tracker": ("ObservationModel", "ProcessModel", "TargetState", "extrapolate",
                "observation_function", "observation_jacobian", "predict", "update"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
