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
        return float(arr) * np.eye(size)
    if arr.shape != (size, size):
        raise ScenarioError(f"{where}: expected a scalar or {size}x{size} matrix, got shape {arr.shape}")
    return arr


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
            target_features = np.array(
                [project_point(target_pose, intrinsics, p)[0] for p in features_world]
            )
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
            horizon=int(mpc_data["horizon"]),
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
        max_steps=int(data.get("max_steps", 400)),
        seed=int(data.get("seed", 0)),
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


def reference_scenario(
    mode: str = MODE_CBC,
    noisy: bool = False,
    sigma: float = 0.8,
    seed: int = 2024,
    pixel_variance: float = 10.0,
) -> Scenario:
    """Tuned eye-in-hand scene: servo onto a feature square past a blocker.

    Four coplanar features are viewed from above; the camera servos from
    a centered overhead pose to an offset, yawed pose. The spherical
    obstacle flies in low, climbs to a hover that blocks feature 1's
    target line of sight during the approach, then recedes and leaves
    the frame. Unfiltered servoing drives feature 1 straight through the
    projected disk; the filtered modes dodge it.

    The hover makes the obstacle world-static exactly while the margin
    rides its boundary, so the noiseless half-space filter keeps the
    minimum margin nonnegative up to discretization. Entry and exit legs
    run through image bands away from the feature paths, and the exit
    recedes from the feature pinned at the disk rim.
    """
    k = CameraIntrinsics(500.0, 320.0, 240.0)
    half = 0.25
    feats = np.array(
        [[half, half, 0.0], [-half, half, 0.0], [-half, -half, 0.0], [half, -half, 0.0]]
    )
    cam0, cam1, yaw1 = np.array([0.0, 0.0, 1.1]), np.array([-0.10, -0.10, 0.8]), 0.4
    pose0 = CameraPose.from_rpy([np.pi, 0.0, 0.0], cam0)
    pose1 = CameraPose.from_rpy([np.pi, 0.0, yaw1], cam1)
    target = np.array([project_point(pose1, k, p)[0] for p in feats])
    # hover on the target-pose line of sight to feature 1, at z = 0.45
    lam = (cam1[2] - 0.45) / (cam1[2] - feats[0][2])
    hover = cam1 + lam * (feats[0] - cam1)
    times = np.array([0.0, 0.2, 0.5, 7.0, 9.0, 12.0])
    points = np.vstack(
        [
            [0.43, 0.23, 0.10],  # start low, off the feature paths
            [0.585, 0.033, 0.45],  # climb past the right image edge
            hover,
            hover,
            [-0.10, 0.05, 0.10],  # recede: shrink and slide off the pinned rim
            [-0.98, -0.36, 0.10],  # leave through the empty mid-left band
        ]
    )
    obstacle = Obstacle3(0.05, times, points)
    noise = NoiseModel.isotropic(pixel_variance, sigma) if noisy else None
    return Scenario(
        name="reference",
        intrinsics=k,
        initial_pose=pose0,
        features_world=feats,
        target_features=target,
        obstacle=obstacle,
        mode=mode,
        mpc=MpcConfig.from_weights(4, horizon=5, q=1.0, r=0.01, f=2.0, v_max=0.5, dt=0.05),
        noise=noise,
        gamma=4.0,
        max_steps=300,
        seed=seed,
        convergence_tol=1e-3 if not noisy else 5e-3,
    )


def reference_sweep_locations() -> np.ndarray:
    """Five obstacle start positions whose entry legs stay clear."""
    return np.array(
        [
            [0.43, 0.23, 0.10],
            [0.37, 0.25, 0.10],
            [0.40, 0.20, 0.08],
            [0.38, 0.21, 0.12],
            [0.45, 0.24, 0.09],
        ]
    )


def validate_scenario(sc: Scenario) -> list[str]:
    """Semantic invariant checks; returns a list of human-readable problems."""
    from .barrier import barrier_value  # local import to keep module deps one-way

    problems = []
    if sc.m < 3:
        problems.append(f"need at least 3 feature points for a stable servo, got {sc.m}")
    if not sc.gamma > 0.0:
        problems.append(f"gamma must be positive, got {sc.gamma}")
    if sc.max_steps < 1:
        problems.append(f"max_steps must be >= 1, got {sc.max_steps}")
    if sc.mpc.q.shape != (2 * sc.m, 2 * sc.m):
        problems.append(f"mpc.q shape {sc.mpc.q.shape} does not match 2m={2 * sc.m}")
    if sc.mode == MODE_PRCBC and sc.noise is None:
        problems.append("prcbc mode needs a noise model (it defines the confidence level)")
    try:
        from .geometry import obstacle_image_state

        obs_state = obstacle_image_state(sc.obstacle, sc.initial_pose, sc.intrinsics, 0.0)
        for i, p in enumerate(sc.features_world):
            s, _ = project_point(sc.initial_pose, sc.intrinsics, p)
            h = barrier_value(s, obs_state.center, obs_state.rn)
            if h <= 0.0:
                problems.append(f"initial state not occlusion-free: feature {i} has margin {h:.3e}")
    except Exception as exc:
        problems.append(f"initial projection failed: {exc}")
    return problems
