import copy
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import yaml

from safe_ibvs import scenario as sm
from safe_ibvs.errors import ScenarioError

from conftest import SCENARIOS, shipped

REPO_SCENARIO = SCENARIOS / "reference_cbc.yaml"


def base_config():
    return {
        "name": "t",
        "camera": {"f": 500.0},
        "initial_pose": {"rpy": [np.pi, 0.0, 0.0], "xyz": [0.0, 0.0, 1.1]},
        "target_pose": {"rpy": [np.pi, 0.0, 0.4], "xyz": [-0.1, -0.1, 0.8]},
        "features_world": [[0.25, 0.25, 0.0], [-0.25, 0.25, 0.0], [-0.25, -0.25, 0.0], [0.25, -0.25, 0.0]],
        "obstacle": {"radius": 0.05, "center": [0.43, 0.23, 0.10]},
        "mode": "cbc",
        "mpc": {"horizon": 5, "q": 1.0, "r": 0.01, "f": 2.0, "v_max": 0.5, "dt": 0.05},
    }


def test_load_reference_file():
    sc = sm.load(REPO_SCENARIO)
    assert sc.m == 4 and sc.mode == "cbc"
    assert sm.validate_scenario(sc) == []


def test_every_way_to_build_a_scenario_checks_it():
    sc = sm.load(REPO_SCENARIO)
    with pytest.raises(FrozenInstanceError):
        sc.seed = 5
    builds = {
        "gamma": lambda: replace(sc, gamma=0.0),
        "mode": lambda: sc.with_mode("newton"),
        "seed": lambda: sc.with_seed(-1),
        "initial projection": lambda: sc.with_obstacle_start([0.0, 0.0, 5.0]),
    }
    for named, build in builds.items():
        with pytest.raises(ScenarioError, match=named):
            build()


def test_unknown_key_rejected():
    for key in ("unexpected_field", "ibvs_gain"):  # ibvs_gain: a retired key nothing reads
        cfg = base_config()
        cfg[key] = 1
        with pytest.raises(ScenarioError, match=key):
            sm.from_dict(cfg)


def test_nested_unknown_key_rejected():
    cfg = base_config()
    cfg["camera"]["zoom"] = 2.0
    with pytest.raises(ScenarioError, match="zoom"):
        sm.from_dict(cfg)


def test_missing_required_field():
    cfg = base_config()
    del cfg["obstacle"]
    with pytest.raises(ScenarioError, match="obstacle"):
        sm.from_dict(cfg)


def test_exactly_one_target_spec():
    cfg = base_config()
    cfg["target_features"] = [[0.0, 0.0]] * 4
    with pytest.raises(ScenarioError, match="target"):
        sm.from_dict(cfg)
    del cfg["target_pose"]
    del cfg["target_features"]
    with pytest.raises(ScenarioError, match="target"):
        sm.from_dict(cfg)


def test_negative_weight_named():
    cfg = base_config()
    cfg["mpc"]["q"] = -1.0
    with pytest.raises(ScenarioError, match="q"):
        sm.from_dict(cfg)


def test_bad_mode_rejected():
    cfg = base_config()
    cfg["mode"] = "newton"
    with pytest.raises(ScenarioError, match="mode"):
        sm.from_dict(cfg)


def test_bad_rotation_rejected():
    cfg = base_config()
    cfg["initial_pose"] = {"rotation": np.diag([1.0, 1.0, 2.0]).tolist(), "xyz": [0, 0, 1.1]}
    with pytest.raises(ScenarioError, match="initial_pose"):
        sm.from_dict(cfg)


def test_validate_rejects_too_few_features():
    cfg = base_config()
    cfg["features_world"] = cfg["features_world"][:2]
    cfg["mpc"]["q"] = 1.0
    with pytest.raises(ScenarioError, match="3 feature points"):
        sm.from_dict(cfg)


def test_validate_rejects_initial_occlusion():
    cfg = base_config()
    # obstacle halfway along the line of sight of feature 1
    cfg["obstacle"] = {"radius": 0.08, "center": [0.125, 0.125, 0.55]}
    with pytest.raises(ScenarioError, match="occlusion-free"):
        sm.from_dict(cfg)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda cfg: cfg["initial_pose"].update(rpy=[np.nan, 0.0, 0.0]), "initial_pose"),
        (lambda cfg: cfg["features_world"][2].__setitem__(0, np.inf), "features_world"),
        (lambda cfg: cfg.update(target_features=[[0.1, 0.1], [-0.1, 0.1], [-0.1, -0.1], [np.nan, -0.1]]) or cfg.pop("target_pose"), "target_features"),
        (lambda cfg: cfg["obstacle"].update(center=[0.43, np.nan, 0.10]), "obstacle"),
        (lambda cfg: cfg["obstacle"].update(radius=np.inf), "obstacle"),
        (lambda cfg: cfg.update(convergence_tol=np.nan), "convergence_tol"),
        (lambda cfg: cfg.update(convergence_tol=0.0), "convergence_tol"),
        (lambda cfg: cfg.update(convergence_tol=np.inf), "convergence_tol"),
    ],
)
def test_validate_names_non_finite_numbers(edit, named):
    cfg = base_config()
    edit(cfg)
    with pytest.raises(ScenarioError, match=f"(^|; ){named}"):  # one of the problems starts with the name
        sm.from_dict(cfg)


def test_validate_prcbc_needs_noise():
    cfg = base_config()
    cfg["mode"] = "prcbc"
    with pytest.raises(ScenarioError, match="noise"):
        sm.from_dict(cfg)


def test_noise_parsing_variants():
    cfg = base_config()
    cfg["noise"] = {"pixel_variance": 10.0, "sigma": 0.9}
    sc = sm.from_dict(cfg)
    assert np.allclose(sc.noise.feature_cov, 10.0 * np.eye(2))
    assert sc.noise.sigma == 0.9

    cfg["noise"] = {"feature_cov": [[4.0, 0.0], [0.0, 4.0]], "obstacle_cov": [[9.0, 0.0], [0.0, 9.0]]}
    sc = sm.from_dict(cfg)
    assert sc.noise.feature_cov[0, 0] == 4.0 and sc.noise.obstacle_cov[0, 0] == 9.0

    cfg["noise"] = {"pixel_variance": 10.0, "sigma": 1.5}
    with pytest.raises(ScenarioError):
        sm.from_dict(cfg)


def test_constant_velocity_obstacle():
    cfg = base_config()
    cfg["obstacle"] = {"radius": 0.05, "center": [0.5, 0.5, 0.1], "velocity": [-0.1, 0.0, 0.0]}
    sc = sm.from_dict(cfg)
    assert np.allclose(sc.obstacle.center_at(1.0), [0.4, 0.5, 0.1])


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "max_steps", 2.9),
        (None, "max_steps", True),
        (None, "max_steps", "300"),
        (None, "seed", 1.5),
        (None, "seed", False),
        ("mpc", "horizon", 5.5),
        ("mpc", "horizon", True),
    ],
)
def test_wrong_typed_switch_and_integers_are_named(section, key, value):
    # each of these once loaded silently: 2.9 as 2, true as 1
    cfg = base_config()
    (cfg if section is None else cfg[section])[key] = value
    with pytest.raises(ScenarioError, match=key if section is None else f"{section}.{key}"):
        sm.from_dict(cfg)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "path",
    [
        ("camera", "f"),
        ("gamma",),
        ("convergence_tol",),
        ("mpc", "q"),
        ("mpc", "r"),
        ("mpc", "f"),
        ("mpc", "v_max"),
        ("mpc", "dt"),
        ("noise", "sigma"),
        ("noise", "pixel_variance"),
        ("obstacle", "radius"),
        ("obstacle", "waypoints", 1, "t"),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_a_boolean_is_refused_in_every_real_field(path, value):
    # each of these once loaded as 1.0 or 0.0
    cfg = yaml.safe_load((SCENARIOS / "reference_noise.yaml").read_text())
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    named = ".".join(map(str, path)).replace(".1.", "[1].")  # obstacle.waypoints[1].t
    with pytest.raises(ScenarioError, match=re.escape(f"{named}: expected a real number, got {value}")):
        sm.from_dict(cfg)


@pytest.mark.parametrize("value", [True, False, "0.5"])
@pytest.mark.parametrize(
    "path, named",
    [
        pytest.param(path, named, id=".".join(map(str, path)))
        for path, named in [
            (("features_world", 0, 0), "features_world"),
            (("target_features", 0, 1), "target_features"),
            (("initial_pose", "xyz", 2), "initial_pose"),
            (("initial_pose", "rotation", 0, 0), "initial_pose"),
            (("target_pose", "rpy", 1), "target_pose"),
            (("obstacle", "waypoints", 1, "center", 0), "obstacle.waypoints[1].center"),
            (("obstacle", "center", 2), "obstacle"),
            (("noise", "feature_cov", 0, 1), "noise.feature_cov"),
            (("noise", "obstacle_cov", 1, 1), "noise.obstacle_cov"),
            (("locations", 0, 0), "locations file"),
        ]
    ],
)
def test_a_boolean_or_a_string_is_refused_in_every_array_field(tmp_path, path, named, value):
    # each of these once loaded as 1.0, 0.0 or 0.5: np.asarray(..., dtype=float) reads a bool and parses a string
    cfg = yaml.safe_load((SCENARIOS / "reference_noise.yaml").read_text())
    cov = [[10.0, 0.0], [0.0, 10.0]]
    cfg["noise"] = {"feature_cov": cov, "obstacle_cov": copy.deepcopy(cov), "sigma": 0.8}
    cfg["initial_pose"] = {"rotation": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], "xyz": [0.0, 0.0, 1.1]}
    if path[0] == "target_features":
        del cfg["target_pose"]
        cfg["target_features"] = [[0.1, 0.1], [-0.1, 0.1], [-0.1, -0.1], [0.1, -0.1]]
    if path[:2] == ("obstacle", "center"):
        cfg["obstacle"] = {"radius": 0.05, "center": [0.43, 0.23, 0.10]}
    if path[0] == "locations":
        cfg = [[0.43, 0.23, 0.10]]
        path = path[1:]
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    message = re.escape(f"{named}") + ".*" + re.escape(f"expected a real number, got {value!r}")
    with pytest.raises(ScenarioError, match=message):
        if named == "locations file":
            (tmp_path / "locs.yaml").write_text(yaml.safe_dump(cfg))
            sm.load_locations(tmp_path / "locs.yaml")
        else:
            sm.from_dict(cfg)


@pytest.mark.parametrize(
    "old, new",
    [("gamma: 4.0", "gamma: 4e0"), ("gamma: 4.0", "gamma: 4.0e+0"), ("convergence_tol: 1.0e-3", "convergence_tol: 1e-3")],
)
def test_an_exponent_number_without_a_dot_or_sign_is_a_real_number(tmp_path, old, new):
    # YAML 1.1 reads 4e0 and 1e-3 as strings; the scenario reader takes them as YAML 1.2 floats
    path = tmp_path / "scene.yaml"
    path.write_text(REPO_SCENARIO.read_text().replace(old, new))
    assert new in path.read_text()
    assert sm.load(path).digest() == sm.load(REPO_SCENARIO).digest()


def test_a_quoted_number_is_refused(tmp_path):
    # gamma: "4.0" once loaded as 4.0, through float()
    path = tmp_path / "scene.yaml"
    path.write_text(REPO_SCENARIO.read_text().replace("gamma: 4.0", 'gamma: "4.0"'))
    with pytest.raises(ScenarioError, match=re.escape("gamma: expected a real number, got '4.0'")):
        sm.load(path)


def test_integral_floats_load_as_integers():
    cfg = base_config()
    cfg.update(max_steps=300.0, seed=7.0)
    cfg["mpc"]["horizon"] = 4.0
    sc = sm.from_dict(cfg)
    assert (sc.max_steps, sc.seed, sc.mpc.horizon) == (300, 7, 4)
    assert all(type(v) is int for v in (sc.max_steps, sc.seed, sc.mpc.horizon))


def test_digest_stable_and_sensitive():
    sc1 = shipped("reference_cbc")
    sc2 = shipped("reference_cbc")
    assert sc1.digest() == sc2.digest()
    assert sc1.with_seed(999).digest() != sc1.digest()


def test_with_sigma_rebuilds_the_noise_model():
    sc = shipped("reference_noise")
    moved = sc.with_sigma(0.9)
    assert moved.noise.sigma == 0.9 and sc.noise.sigma == 0.8
    assert np.array_equal(moved.noise.feature_cov, sc.noise.feature_cov)
    assert np.array_equal(moved.noise.obstacle_cov, sc.noise.obstacle_cov)
    assert moved.digest() != sc.digest() and moved.with_sigma(0.8).digest() == sc.digest()
    with pytest.raises(ScenarioError, match="sigma"):
        sc.with_sigma(1.0)
    with pytest.raises(ScenarioError, match="noise model"):
        shipped("reference_cbc").with_sigma(0.9)


def test_round_trip_through_yaml(tmp_path):
    sc = sm.load(REPO_SCENARIO)
    path = tmp_path / "copy.yaml"
    with open(REPO_SCENARIO) as fh:
        data = yaml.safe_load(fh)
    path.write_text(yaml.safe_dump(data))
    assert sm.load(path).digest() == sc.digest()


def test_load_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        sm.load("no/such/file.yaml")
