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
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .barrier import NoiseModel, barrier_value
from .errors import ScenarioError, UnsupportedCovariance
from .geometry import CameraPose, Obstacle3, obstacle_image_state, project_point
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


def _real(value) -> float:
    """``value`` as a float; a bool, which ``float`` would read as 0 or 1, and a string such as ``"4.0"`` are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a real number, got {value!r}")
    return float(value)


def _array(value) -> np.ndarray:
    """``value`` as a float array; an entry that :func:`_real` refuses, which ``np.asarray`` would read, is refused."""
    array = np.asarray(value, dtype=float)  # a ragged or non-numeric value fails here
    for entry in np.asarray(value, dtype=object).flat:
        _real(entry)
    return array


def _pose_from_dict(section, where: str) -> CameraPose:
    _require_keys(section, {"rpy", "rotation", "xyz"}, {"xyz"}, where)
    if ("rpy" in section) == ("rotation" in section):
        raise ScenarioError(f"{where}: give exactly one of 'rpy' or 'rotation'")
    with _reading(where):
        if "rpy" in section:
            return CameraPose.from_rpy(_array(section["rpy"]), _array(section["xyz"]))
        return CameraPose(_array(section["rotation"]), _array(section["xyz"]))


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
    sigma = _field(section, "sigma", _real, 0.8, "noise.sigma")
    if "pixel_variance" in section:
        if "feature_cov" in section or "obstacle_cov" in section:
            raise ScenarioError("noise: give pixel_variance or explicit covariances, not both")
        variance = _field(section, "pixel_variance", _real, where="noise.pixel_variance")
        cov = np.diag([variance] * 2)  # not pixel_variance * I, whose inf * 0 would warn
        return _noise_model(cov, cov.copy(), focal_length, sigma)
    return _noise_model(
        _field(section, "feature_cov", _array, where="noise.feature_cov"),
        _field(section, "obstacle_cov", _array, where="noise.obstacle_cov"),
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
    focal_length = _field(cam, "f", _real, where="camera.f")
    if not (math.isfinite(focal_length) and focal_length > 0.0):
        raise ScenarioError(f"camera.f: focal length must be finite and positive, got {focal_length}")

    initial_pose = _pose_from_dict(data["initial_pose"], "initial_pose")
    features_world = _field(data, "features_world", _array)
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
        target_features = _field(data, "target_features", _array)
        if target_features.shape != (m, 2):
            raise ScenarioError(f"target_features: expected ({m}, 2), got {target_features.shape}")

    obs = data["obstacle"]
    _require_keys(obs, {"radius", "waypoints", "center", "velocity"}, {"radius"}, "obstacle")
    radius = _field(obs, "radius", _real, where="obstacle.radius")
    with _reading("obstacle"):
        if "waypoints" in obs:
            if "center" in obs or "velocity" in obs:
                raise ScenarioError("obstacle: give waypoints or center/velocity, not both")
            times, points = [], []
            for i, wp in enumerate(obs["waypoints"]):
                _require_keys(wp, {"t", "center"}, {"t", "center"}, f"obstacle.waypoints[{i}]")
                times.append(_field(wp, "t", _real, where=f"obstacle.waypoints[{i}].t"))
                points.append(_field(wp, "center", _array, where=f"obstacle.waypoints[{i}].center"))
            obstacle = Obstacle3(radius, np.array(times), np.vstack(points))
        elif "velocity" in obs:
            obstacle = Obstacle3.constant_velocity(_array(obs["center"]), _array(obs["velocity"]), radius)
        else:
            obstacle = Obstacle3.static(_array(obs["center"]), radius)

    mode = data["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode: must be one of {MODES}, got {mode!r}")

    mpc_data = data["mpc"]
    _require_keys(mpc_data, {"horizon", "q", "r", "f", "v_max", "dt"}, {"horizon"}, "mpc")
    with _reading("mpc"):
        mpc_cfg = MpcConfig(
            horizon=_field(mpc_data, "horizon", _integer, where="mpc.horizon"),
            q=_field(mpc_data, "q", _real, 1.0, "mpc.q"),
            r=_field(mpc_data, "r", _real, 0.05, "mpc.r"),
            f=_field(mpc_data, "f", _real, 2.0, "mpc.f"),
            v_max=_field(mpc_data, "v_max", _real, 0.5, "mpc.v_max"),
            dt=_field(mpc_data, "dt", _real, 0.05, "mpc.dt"),
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
        gamma=_field(data, "gamma", _real, 2.0),
        max_steps=_field(data, "max_steps", _integer, 400),
        seed=_field(data, "seed", _integer, 0),
        convergence_tol=_field(data, "convergence_tol", _real, 1e-3),
    )


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads a plain exponent number without a dot or an exponent sign, such as
    ``1e-3`` or ``1.0e308``, as a float, as YAML 1.2 does; YAML 1.1 makes it a string, which :func:`_real` refuses."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _read_yaml(path):
    """The YAML document in ``path``; a file that cannot be read or parsed is a ScenarioError."""
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=_Loader)
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
        locations = _array(_read_yaml(path))
    if locations.ndim != 2 or locations.shape[1] != 3 or not np.isfinite(locations).all():
        raise ScenarioError(f"locations file {path}: need a list of finite [x, y, z], got {locations.tolist()!r:.50}")
    return locations


def validate_scenario(sc: Scenario) -> list[str]:
    """Semantic invariant checks; returns a list of human-readable problems."""
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
        problems += occlusions_at_start(sc)
    except Exception as exc:
        problems.append(f"initial projection failed: {exc}")
    return problems


def occlusions_at_start(sc: Scenario) -> list[str]:
    """The features the obstacle occludes at t = 0, as problems; raises when the obstacle or a feature does not project."""
    obs_state = obstacle_image_state(sc.obstacle, sc.initial_pose, 0.0)
    features, _ = project_point(sc.initial_pose, sc.features_world)
    margins = barrier_value(features - obs_state.center, obs_state.rn)
    return [f"initial state not occlusion-free: feature {i} has margin {h:.3e}" for i, h in enumerate(margins) if h <= 0.0]
