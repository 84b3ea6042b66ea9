"""Scenario definition, YAML loading, and validation.

A scenario pins everything a closed-loop trial needs: camera intrinsics
and poses, world feature points, the obstacle schedule, controller mode
and weights, the noise model, and the seed. Scenario files are YAML
with a fixed schema; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .barrier import NoiseModel
from .errors import ScenarioError
from .geometry import CameraIntrinsics, CameraPose, Obstacle3, project_point
from .mpc import MpcConfig

MODE_CBC = "cbc"
MODE_PRCBC = "prcbc"
MODE_UNFILTERED = "unfiltered"
MODES = (MODE_CBC, MODE_PRCBC, MODE_UNFILTERED)


@dataclass(eq=False)
class Scenario:
    name: str
    intrinsics: CameraIntrinsics
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
    prcbc_radius_term: bool = True

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
        try:
            noise = NoiseModel(self.noise.feature_cov, self.noise.obstacle_cov, float(sigma))
        except ValueError as exc:
            raise ScenarioError(f"noise: {exc}") from exc
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
            "camera": {"f": self.intrinsics.f, "px": self.intrinsics.px, "py": self.intrinsics.py},
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
                "q": self.mpc.q.tolist(),
                "r": self.mpc.r.tolist(),
                "f": self.mpc.f.tolist(),
                "v_max": self.mpc.v_max,
                "dt": self.mpc.dt,
            },
            "max_steps": self.max_steps,
            "seed": self.seed,
            "convergence_tol": self.convergence_tol,
            "prcbc_radius_term": self.prcbc_radius_term,
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ScenarioError(f"{where}: missing required keys {sorted(missing)}")


def _pose_from_dict(section: dict, where: str) -> CameraPose:
    _require_keys(section, {"rpy", "rotation", "xyz"}, {"xyz"}, where)
    if ("rpy" in section) == ("rotation" in section):
        raise ScenarioError(f"{where}: give exactly one of 'rpy' or 'rotation'")
    try:
        if "rpy" in section:
            return CameraPose.from_rpy(np.asarray(section["rpy"], dtype=float), section["xyz"])
        return CameraPose(np.asarray(section["rotation"], dtype=float), section["xyz"])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _weight_matrix(value, size: int, where: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.diag(np.full(size, float(arr)))  # not float(arr) * I, whose inf * 0 would warn
    if arr.shape != (size, size):
        raise ScenarioError(f"{where}: expected a scalar or {size}x{size} matrix, got shape {arr.shape}")
    return arr


def _integer(value, where: str) -> int:
    """``int(value)``; a value it cannot convert, such as inf or nan, is a ScenarioError that names its field."""
    try:
        return int(value)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _noise_from_dict(section, where: str) -> NoiseModel | None:
    if section is None:
        return None
    _require_keys(
        section, {"pixel_variance", "feature_cov", "obstacle_cov", "sigma"}, set(), where
    )
    sigma = float(section.get("sigma", 0.8))
    try:
        if "pixel_variance" in section:
            if "feature_cov" in section or "obstacle_cov" in section:
                raise ScenarioError(f"{where}: give pixel_variance or explicit covariances, not both")
            return NoiseModel.isotropic(float(section["pixel_variance"]), sigma)
        return NoiseModel(
            np.asarray(section["feature_cov"], dtype=float),
            np.asarray(section["obstacle_cov"], dtype=float),
            sigma,
        )
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def from_dict(data: dict) -> Scenario:
    """Build and structurally validate a scenario from plain data."""
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario document must be a mapping, got {type(data).__name__}")
    allowed = {
        "name", "camera", "initial_pose", "target_pose", "target_features",
        "features_world", "obstacle", "mode", "noise", "gamma",
        "mpc", "max_steps", "seed", "convergence_tol", "prcbc_radius_term",
    }
    required = {"camera", "initial_pose", "features_world", "obstacle", "mode", "mpc"}
    _require_keys(data, allowed, required, "scenario")

    cam = data["camera"]
    _require_keys(cam, {"f", "px", "py"}, {"f", "px", "py"}, "camera")
    try:
        intrinsics = CameraIntrinsics(float(cam["f"]), float(cam["px"]), float(cam["py"]))
    except ValueError as exc:
        raise ScenarioError(f"camera: {exc}") from exc

    initial_pose = _pose_from_dict(data["initial_pose"], "initial_pose")
    features_world = np.asarray(data["features_world"], dtype=float)
    if features_world.ndim != 2 or features_world.shape[1] != 3:
        raise ScenarioError(f"features_world: expected (m, 3) array, got shape {features_world.shape}")
    m = features_world.shape[0]

    if ("target_pose" in data) == ("target_features" in data):
        raise ScenarioError("scenario: give exactly one of 'target_pose' or 'target_features'")
    if "target_pose" in data:
        target_pose = _pose_from_dict(data["target_pose"], "target_pose")
        try:
            target_features = project_point(target_pose, intrinsics, features_world)[0]
        except Exception as exc:
            raise ScenarioError(f"target_pose: features not all in front of the camera ({exc})") from exc
    else:
        target_features = np.asarray(data["target_features"], dtype=float)
        if target_features.shape != (m, 2):
            raise ScenarioError(f"target_features: expected ({m}, 2), got {target_features.shape}")

    obs = data["obstacle"]
    _require_keys(obs, {"radius", "waypoints", "center", "velocity"}, {"radius"}, "obstacle")
    try:
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
    except ValueError as exc:
        raise ScenarioError(f"obstacle: {exc}") from exc

    mode = data["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode: must be one of {MODES}, got {mode!r}")

    mpc_data = data["mpc"]
    _require_keys(mpc_data, {"horizon", "q", "r", "f", "v_max", "dt"}, {"horizon"}, "mpc")
    try:
        mpc_cfg = MpcConfig(
            horizon=_integer(mpc_data["horizon"], "mpc.horizon"),
            q=_weight_matrix(mpc_data.get("q", 1.0), 2 * m, "mpc.q"),
            r=_weight_matrix(mpc_data.get("r", 0.05), 6, "mpc.r"),
            f=_weight_matrix(mpc_data.get("f", 2.0), 2 * m, "mpc.f"),
            v_max=float(mpc_data.get("v_max", 0.5)),
            dt=float(mpc_data.get("dt", 0.05)),
        )
    except ValueError as exc:
        raise ScenarioError(f"mpc: {exc}") from exc

    noise = _noise_from_dict(data.get("noise"), "noise")
    return Scenario(
        name=str(data.get("name", "scenario")),
        intrinsics=intrinsics,
        initial_pose=initial_pose,
        features_world=features_world,
        target_features=target_features,
        obstacle=obstacle,
        mode=mode,
        mpc=mpc_cfg,
        noise=noise,
        gamma=float(data.get("gamma", 2.0)),
        max_steps=_integer(data.get("max_steps", 400), "max_steps"),
        seed=_integer(data.get("seed", 0), "seed"),
        convergence_tol=float(data.get("convergence_tol", 1e-3)),
        prcbc_radius_term=bool(data.get("prcbc_radius_term", True)),
    )


def load(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: YAML parse error: {exc}") from exc
    return from_dict(data)


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
    if sc.max_steps < 1:
        problems.append(f"max_steps must be >= 1, got {sc.max_steps}")
    if sc.mpc.q.shape != (2 * sc.m, 2 * sc.m):
        problems.append(f"mpc.q shape {sc.mpc.q.shape} does not match 2m={2 * sc.m}")
    if sc.mode == MODE_PRCBC and sc.noise is None:
        problems.append("prcbc mode needs a noise model (it defines the confidence level)")
    try:
        from .geometry import obstacle_image_state

        obs_state = obstacle_image_state(sc.obstacle, sc.initial_pose, sc.intrinsics, 0.0)
        features, _ = project_point(sc.initial_pose, sc.intrinsics, sc.features_world)
        for i, h in enumerate(barrier_value(features, obs_state.center, obs_state.rn)):
            if h <= 0.0:
                problems.append(f"initial state not occlusion-free: feature {i} has margin {h:.3e}")
    except Exception as exc:
        problems.append(f"initial projection failed: {exc}")
    return problems
