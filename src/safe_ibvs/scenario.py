"""Scenario definition, YAML loading, and validation.

A scenario pins everything a closed-loop trial needs: the camera's focal
length and poses, world feature points, the obstacle schedule,
controller mode and weights, the noise model, and the seed. Scenario
files are YAML with a fixed schema; unknown keys are rejected so typos
fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .barrier import NoiseModel
from .errors import ScenarioError, UnsupportedCovariance
from .geometry import CameraPose, Obstacle3, project_point
from .mpc import MpcConfig

MODE_CBC = "cbc"
MODE_PRCBC = "prcbc"
MODE_UNFILTERED = "unfiltered"
MODES = (MODE_CBC, MODE_PRCBC, MODE_UNFILTERED)
SEED_LIMIT = 2**64  # a seed keys the trial's Philox generator, so it lies in [0, 2**64)


@dataclass(eq=False)
class Scenario:
    name: str
    focal_length: float  # pixels per normalized image unit
    initial_pose: CameraPose
    features_world: np.ndarray  # (m, 3)
    target_features: np.ndarray  # (m, 2) normalized
    obstacle: Obstacle3
    mode: str
    mpc: MpcConfig
    noise: NoiseModel | None = None
    gamma: float = 2.0
    max_steps: int = 400
    seed: int = 0
    convergence_tol: float = 1e-3

    @property
    def m(self) -> int:
        return self.features_world.shape[0]

    def with_mode(self, mode: str) -> "Scenario":
        if mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {mode!r}")
        return replace(self, mode=mode)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=int(seed))

    def with_sigma(self, sigma: float) -> "Scenario":
        """Rebuild the noise model at confidence level ``sigma``."""
        if self.noise is None:
            raise ScenarioError("sigma needs a scenario with a noise model")
        with _reading("noise"):
            noise = _noise_model(self.noise.feature_cov, self.noise.obstacle_cov, self.focal_length, float(sigma))
        return replace(self, noise=noise)

    def with_obstacle_start(self, start: np.ndarray) -> "Scenario":
        """Translate the whole obstacle schedule so it begins at ``start``."""
        start = np.asarray(start, dtype=float).reshape(3)
        shift = start - self.obstacle.points[0]
        moved = Obstacle3(self.obstacle.radius, self.obstacle.times.copy(), self.obstacle.points + shift)
        return replace(self, obstacle=moved)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "camera": {"f": self.focal_length},
            "initial_pose": {
                "rotation": self.initial_pose.rotation.tolist(),
                "xyz": self.initial_pose.translation.tolist(),
            },
            "target_features": self.target_features.tolist(),
            "features_world": self.features_world.tolist(),
            "obstacle": {
                "radius": self.obstacle.radius,
                "times": self.obstacle.times.tolist(),
                "waypoints": self.obstacle.points.tolist(),
            },
            "mode": self.mode,
            "noise": None
            if self.noise is None
            else {
                "feature_cov": self.noise.feature_cov.tolist(),
                "obstacle_cov": self.noise.obstacle_cov.tolist(),
                "sigma": self.noise.sigma,
            },
            "gamma": self.gamma,
            "mpc": {
                "horizon": self.mpc.horizon,
                "q": self.mpc.q,
                "r": self.mpc.r,
                "f": self.mpc.f,
                "v_max": self.mpc.v_max,
                "dt": self.mpc.dt,
            },
            "max_steps": self.max_steps,
            "seed": self.seed,
            "convergence_tol": self.convergence_tol,
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _require_keys(section, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ScenarioError(f"{where}: missing required keys {sorted(missing)}")


@contextmanager
def _reading(where: str):
    """The one place a value that does not convert (``float([])``, ``int(inf)``, a short list) becomes a
    ScenarioError, named ``where``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError, IndexError, KeyError) as exc:
        raise ScenarioError(f"{where}: {'missing ' if isinstance(exc, KeyError) else ''}{exc}") from exc


def _field(section: dict, key: str, cast, default=None, where: str = ""):
    """``cast`` of ``section[key]``, or of ``default`` when it is absent; errors name ``where`` (else ``key``)."""
    with _reading(where or key):
        return cast(section.get(key, default))


def _integer(value) -> int:
    """``value`` as an int when it is a whole number (``300`` or ``300.0``); a bool, a string or ``2.9`` is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != int(value):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _pose_from_dict(section, where: str) -> CameraPose:
    _require_keys(section, {"rpy", "rotation", "xyz"}, {"xyz"}, where)
    if ("rpy" in section) == ("rotation" in section):
        raise ScenarioError(f"{where}: give exactly one of 'rpy' or 'rotation'")
    with _reading(where):
        if "rpy" in section:
            return CameraPose.from_rpy(np.asarray(section["rpy"], dtype=float), section["xyz"])
        return CameraPose(np.asarray(section["rotation"], dtype=float), section["xyz"])


def _noise_model(feature_cov, obstacle_cov, focal_length: float, sigma: float) -> NoiseModel:
    """``NoiseModel`` whose confidence box cannot be built for this focal length ends as a ScenarioError."""
    try:
        return NoiseModel(feature_cov, obstacle_cov, focal_length, sigma)
    except OverflowError as exc:  # the pixel covariances are divided by f**2
        raise ScenarioError(f"camera.f: {focal_length} squared overflows ({exc})") from exc
    except UnsupportedCovariance as exc:
        raise ScenarioError(f"noise: no confidence box at camera.f = {focal_length}: {exc}") from exc


def _noise_from_dict(section, focal_length: float) -> NoiseModel | None:
    if section is None:
        return None
    _require_keys(section, {"pixel_variance", "feature_cov", "obstacle_cov", "sigma"}, set(), "noise")
    sigma = float(section.get("sigma", 0.8))
    if "pixel_variance" in section:
        if "feature_cov" in section or "obstacle_cov" in section:
            raise ScenarioError("noise: give pixel_variance or explicit covariances, not both")
        cov = np.diag([float(section["pixel_variance"])] * 2)  # not pixel_variance * I, whose inf * 0 would warn
        return _noise_model(cov, cov.copy(), focal_length, sigma)
    return _noise_model(
        np.asarray(section["feature_cov"], dtype=float),
        np.asarray(section["obstacle_cov"], dtype=float),
        focal_length,
        sigma,
    )


def from_dict(data: dict) -> Scenario:
    """Build and structurally validate a scenario from plain data."""
    allowed = {
        "name", "camera", "initial_pose", "target_pose", "target_features",
        "features_world", "obstacle", "mode", "noise", "gamma",
        "mpc", "max_steps", "seed", "convergence_tol",
    }
    required = {"camera", "initial_pose", "features_world", "obstacle", "mode", "mpc"}
    _require_keys(data, allowed, required, "scenario")

    cam = data["camera"]
    _require_keys(cam, {"f"}, {"f"}, "camera")
    focal_length = _field(cam, "f", float, where="camera.f")
    if not (math.isfinite(focal_length) and focal_length > 0.0):
        raise ScenarioError(f"camera.f: focal length must be finite and positive, got {focal_length}")

    initial_pose = _pose_from_dict(data["initial_pose"], "initial_pose")
    features_world = _field(data, "features_world", lambda v: np.asarray(v, dtype=float))
    if features_world.ndim != 2 or features_world.shape[1] != 3:
        raise ScenarioError(f"features_world: expected (m, 3) array, got shape {features_world.shape}")
    m = features_world.shape[0]

    if ("target_pose" in data) == ("target_features" in data):
        raise ScenarioError("scenario: give exactly one of 'target_pose' or 'target_features'")
    if "target_pose" in data:
        target_pose = _pose_from_dict(data["target_pose"], "target_pose")
        try:
            target_features = project_point(target_pose, features_world)[0]
        except Exception as exc:
            raise ScenarioError(f"target_pose: features not all in front of the camera ({exc})") from exc
    else:
        target_features = _field(data, "target_features", lambda v: np.asarray(v, dtype=float))
        if target_features.shape != (m, 2):
            raise ScenarioError(f"target_features: expected ({m}, 2), got {target_features.shape}")

    obs = data["obstacle"]
    _require_keys(obs, {"radius", "waypoints", "center", "velocity"}, {"radius"}, "obstacle")
    with _reading("obstacle"):
        if "waypoints" in obs:
            if "center" in obs or "velocity" in obs:
                raise ScenarioError("obstacle: give waypoints or center/velocity, not both")
            times, points = [], []
            for i, wp in enumerate(obs["waypoints"]):
                _require_keys(wp, {"t", "center"}, {"t", "center"}, f"obstacle.waypoints[{i}]")
                times.append(float(wp["t"]))
                points.append(np.asarray(wp["center"], dtype=float))
            obstacle = Obstacle3(float(obs["radius"]), np.array(times), np.vstack(points))
        elif "velocity" in obs:
            obstacle = Obstacle3.constant_velocity(
                obs["center"], obs["velocity"], float(obs["radius"])
            )
        else:
            obstacle = Obstacle3.static(obs["center"], float(obs["radius"]))

    mode = data["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode: must be one of {MODES}, got {mode!r}")

    mpc_data = data["mpc"]
    _require_keys(mpc_data, {"horizon", "q", "r", "f", "v_max", "dt"}, {"horizon"}, "mpc")
    with _reading("mpc"):
        mpc_cfg = MpcConfig(
            horizon=_field(mpc_data, "horizon", _integer, where="mpc.horizon"),
            q=_field(mpc_data, "q", float, 1.0, "mpc.q"),
            r=_field(mpc_data, "r", float, 0.05, "mpc.r"),
            f=_field(mpc_data, "f", float, 2.0, "mpc.f"),
            v_max=float(mpc_data.get("v_max", 0.5)),
            dt=float(mpc_data.get("dt", 0.05)),
        )

    return Scenario(
        name=str(data.get("name", "scenario")),
        focal_length=focal_length,
        initial_pose=initial_pose,
        features_world=features_world,
        target_features=target_features,
        obstacle=obstacle,
        mode=mode,
        mpc=mpc_cfg,
        noise=_field(data, "noise", lambda section: _noise_from_dict(section, focal_length)),
        gamma=_field(data, "gamma", float, 2.0),
        max_steps=_field(data, "max_steps", _integer, 400),
        seed=_field(data, "seed", _integer, 0),
        convergence_tol=_field(data, "convergence_tol", float, 1e-3),
    )


def _read_yaml(path):
    """The YAML document in ``path``; a file that cannot be read or parsed is a ScenarioError."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"file not found: {path}") from exc
    except (OSError, ValueError, yaml.YAMLError) as exc:  # a directory, no permission, not UTF-8, not YAML
        raise ScenarioError(f"{path}: {exc}") from exc


def load(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    return from_dict(_read_yaml(path))


def load_locations(path) -> np.ndarray:
    """Obstacle starts from a YAML list of ``[x, y, z]``: finite ``(n, 3)`` rows, else a ScenarioError."""
    with _reading(f"locations file {path}"):
        locations = np.asarray(_read_yaml(path), dtype=float)
    if locations.ndim != 2 or locations.shape[1] != 3 or not np.isfinite(locations).all():
        raise ScenarioError(f"locations file {path}: need a list of finite [x, y, z], got {locations.tolist()!r:.50}")
    return locations


def validate_scenario(sc: Scenario) -> list[str]:
    """Semantic invariant checks; returns a list of human-readable problems."""
    from .barrier import barrier_value  # local import to keep module deps one-way

    problems = []
    numbers = {
        "initial_pose": (sc.initial_pose.rotation, sc.initial_pose.translation),
        "features_world": (sc.features_world,),
        "target_features": (sc.target_features,),
        "obstacle": (sc.obstacle.radius, sc.obstacle.times, sc.obstacle.points),
    }
    for name, arrays in numbers.items():
        if not all(np.isfinite(x).all() for x in arrays):
            problems.append(f"{name} holds a non-finite number")
    if not (np.isfinite(sc.convergence_tol) and sc.convergence_tol > 0.0):
        problems.append(f"convergence_tol must be finite and positive, got {sc.convergence_tol}")
    if sc.m < 3:
        problems.append(f"need at least 3 feature points for a stable servo, got {sc.m}")
    if not (np.isfinite(sc.gamma) and sc.gamma > 0.0):
        problems.append(f"gamma must be finite and positive, got {sc.gamma}")
    if not 0 <= sc.seed < SEED_LIMIT:
        problems.append(f"seed must lie in [0, 2**64), got {sc.seed}")
    if sc.max_steps < 1:
        problems.append(f"max_steps must be >= 1, got {sc.max_steps}")
    if sc.mode == MODE_PRCBC and sc.noise is None:
        problems.append("prcbc mode needs a noise model (it defines the confidence level)")
    try:
        from .geometry import obstacle_image_state

        obs_state = obstacle_image_state(sc.obstacle, sc.initial_pose, 0.0)
        features, _ = project_point(sc.initial_pose, sc.features_world)
        for i, h in enumerate(barrier_value(features, obs_state.center, obs_state.rn)):
            if h <= 0.0:
                problems.append(f"initial state not occlusion-free: feature {i} has margin {h:.3e}")
    except Exception as exc:
        problems.append(f"initial projection failed: {exc}")
    return problems
