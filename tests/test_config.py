import math
from dataclasses import fields

import pytest

from camtrack3d.association import GateConfig
from camtrack3d.config import (
    DEFAULTS,
    gate_from_config,
    load_config,
    models_from_config,
    parse_config,
    save_config,
)
from helpers import ring_of_cameras


def test_parse_basic_types():
    cfg = parse_config("""
# gating
dist2d_threshold = 25
mahalanobis_gate = 4.5
seed = 7
""")
    assert cfg == {"dist2d_threshold": 25, "mahalanobis_gate": 4.5, "seed": 7}
    assert isinstance(cfg["dist2d_threshold"], int)
    assert isinstance(cfg["mahalanobis_gate"], float)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("tpyo_threshold = 3")


def test_missing_equals_rejected():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just some words")


@pytest.mark.parametrize("text", ["mahalanobis_gate = abc", "seed = x"])
def test_non_numeric_value_rejected_with_its_line_and_key(text):
    key = text.split()[0]
    with pytest.raises(ValueError, match=f"line 2: {key} must be a number"):
        parse_config("# a comment\n" + text)


def test_round_trip(tmp_path):
    cfg = dict(DEFAULTS)
    cfg["dist2d_threshold"] = 42.0
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_gate_from_config_defaults_plus_overrides():
    gate = gate_from_config({"dist2d_threshold": 12.0, "seed": 3, "dt": 0.01})
    assert gate.dist2d_threshold == 12.0
    assert gate.area_threshold == 1.0  # default intact


def test_models_from_config():
    cams = ring_of_cameras(3)
    pm, om, gate = models_from_config({"dt": 1 / 60, "q_pos": 2e-4, "r_px": 2.0},
                                      cams)
    assert pm.dt == pytest.approx(1 / 60)
    assert pm.Q[0, 0] == pytest.approx(2e-4)
    assert pm.Q[3, 3] == pytest.approx(0.25)
    assert om.r_px == 2.0
    assert len(om.cameras) == 3


@pytest.mark.parametrize("key, text", [
    ("r_px", "nan"), ("r_px", "0"), ("r_px", "-1"), ("r_px", "inf"),
    ("dt", "-0.01"), ("q_vel", "-1"),
])
def test_invalid_model_value_in_config_file_rejected(key, text):
    cfg = parse_config(f"{key} = {text}\n")
    with pytest.raises(ValueError, match=key):
        models_from_config(cfg, ring_of_cameras(3))


@pytest.mark.parametrize("name", [f.name for f in fields(GateConfig)])
def test_nan_gate_value_rejected(name):
    # a NaN fails every comparison, so it must not pass as a threshold
    # that is never crossed; a config file's "nan" parses to one
    with pytest.raises(ValueError, match=name):
        GateConfig(**{name: math.nan})
    cfg = parse_config(f"{name} = nan\n")
    assert math.isnan(cfg[name])
    with pytest.raises(ValueError, match=name):
        gate_from_config(cfg)


@pytest.mark.parametrize("name, text", [
    ("death_covariance_threshold", "inf"),
    ("sigma_birth", "inf"), ("sigma_birth", "1e155"),
    ("sigma_vbirth", "inf"), ("sigma_vbirth", "1" + "0" * 200),
])
def test_gate_value_that_crashes_or_hangs_the_hub_rejected(name, text):
    # an infinite death threshold predicts a frame-number jump frame by
    # frame while targets live; a birth sigma whose square is not finite
    # ends the run at the first birth (OverflowError or LinAlgError)
    cfg = parse_config(f"{name} = {text}\n")
    with pytest.raises(ValueError, match=name):
        GateConfig(**{name: cfg[name]})
    with pytest.raises(ValueError, match=name):
        gate_from_config(cfg)


@pytest.mark.parametrize("name", ["dist2d_threshold", "area_threshold", "mahalanobis_gate",
                                  "birth_reprojection_threshold", "birth_pair_distance"])
def test_infinite_threshold_is_no_gate(name):
    assert getattr(GateConfig(**{name: math.inf}), name) == math.inf


def test_largest_birth_sigma_with_a_finite_square_accepted():
    sigma = math.nextafter(2.0 ** 512, 0.0)
    assert math.isfinite(GateConfig(sigma_birth=sigma, sigma_vbirth=sigma).sigma_birth ** 2)
