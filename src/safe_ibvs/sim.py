"""Closed-loop scenario engine: observe, plan, filter, integrate, log.

Each pose's true feature projection is computed once, as ``(m, 2)``
points and ``(m,)`` depths, by ``run``'s convergence check, and handed
to the step. One step runs the full pipeline on arrays: project the
obstacle, draw the (optional) pixel noise for all features at once,
build the ``(m, 2, 6)`` interaction matrices, plan the nominal twist
over the horizon, build the mode-appropriate occlusion constraints as
stacked factor arrays, execute the filter's certified projection of the
nominal twist or its typed hold (``V = 0``), log the true margins and
clearances, then advance the camera pose and obstacle clock. Everything
is driven by a counter-based generator keyed on the scenario seed, so a
(scenario, seed) pair reproduces bit-identical logs.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from functools import lru_cache

import numpy as np

from . import mpc
from .barrier import (
    barrier_value,
    barrier_rate_row,
    cbc_halfspaces,
    noise_box_halfwidth,
    prcbc_quadratics,
)
from .errors import SafeIbvsError, ScenarioError
from .geometry import (
    CameraPose,
    ObstacleImageState,
    integrate_twist,
    obstacle_image_state,
    pixel_from_normalized,
    project_point,
)
from .ibvs import clip_twist, feature_error
from .jacobians import feature_interaction, obstacle_radius_interaction
from .observation import FeatureObservation
from .scenario import MODE_CBC, MODE_PRCBC, MODE_UNFILTERED, Scenario
from .solvers import STATUS_FALLBACK, FilterProblem, solve_filter_qp, solve_filter_qcqp

CSV_FLOAT_FMT = "{:.17g}"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trials are reproducible and shardable."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(eq=False)
class SimState:
    pose: CameraPose
    t: float = 0.0
    step_index: int = 0


@dataclass(eq=False)
class StepRecord:
    step: int
    t: float
    e_norm: float
    h: np.ndarray  # (m,) true occlusion margins
    min_dist: float  # min feature-obstacle center distance, normalized
    dis_px: float  # min pixel clearance to the obstacle edge
    v_star: np.ndarray
    v_mpc: np.ndarray
    filter_status: str
    min_row_inf: float


@dataclass(eq=False)
class TrajectorySummary:
    converged: bool = False
    steps: int = 0
    final_e_norm: float = np.inf
    min_h: float = np.inf
    min_dis_px: float = np.inf
    occlusion_steps: int = 0
    fallback_steps: int = 0
    min_row_inf: float = np.inf
    aborted: bool = False
    abort_reason: str = ""

    def to_dict(self) -> dict:
        def num(x):
            # strict JSON has no Infinity/NaN
            return float(x) if np.isfinite(x) else None

        return {
            "converged": self.converged,
            "steps": self.steps,
            "final_e_norm": num(self.final_e_norm),
            "min_h": num(self.min_h),
            "min_dis_px": num(self.min_dis_px),
            "occlusion_steps": self.occlusion_steps,
            "fallback_steps": self.fallback_steps,
            "min_row_inf": num(self.min_row_inf),
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }


@dataclass(eq=False)
class TrajectoryLog:
    scenario_digest: str
    records: list[StepRecord] = field(default_factory=list)
    summary: TrajectorySummary = field(default_factory=TrajectorySummary)

    def csv_text(self) -> str:
        m = self.records[0].h.shape[0] if self.records else 0
        header = (
            ["step", "t", "e_norm"]
            + [f"h_{i + 1}" for i in range(m)]
            + ["min_dist", "dis_px"]
            + [f"vstar_{i + 1}" for i in range(6)]
            + [f"vmpc_{i + 1}" for i in range(6)]
            + ["filter_status"]
        )
        lines = [",".join(header)]
        for r in self.records:
            vals = [str(r.step), CSV_FLOAT_FMT.format(r.t), CSV_FLOAT_FMT.format(r.e_norm)]
            vals += [CSV_FLOAT_FMT.format(x) for x in r.h]
            vals += [CSV_FLOAT_FMT.format(r.min_dist), CSV_FLOAT_FMT.format(r.dis_px)]
            vals += [CSV_FLOAT_FMT.format(x) for x in r.v_star]
            vals += [CSV_FLOAT_FMT.format(x) for x in r.v_mpc]
            vals.append(r.filter_status)
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        out = self.summary.to_dict()
        out["scenario_digest"] = self.scenario_digest
        return out

    def write(self, out_dir, stem: str = "trajectory") -> None:
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.csv").write_text(self.csv_text())
        (out_dir / f"{stem}_summary.json").write_text(
            json.dumps(self.summary_dict(), indent=2, sort_keys=True) + "\n"
        )


def pixel_clearance(q_i: np.ndarray, q_o: np.ndarray, r_px: float) -> float | np.ndarray:
    """Pixel distance from a ``(2,)`` feature point, or each row of ``(m, 2)`` points, to the obstacle's projected edge."""
    if r_px < 0.0:
        raise ValueError(f"pixel radius must be nonnegative, got {r_px}")
    d = np.asarray(q_i, dtype=float) - np.asarray(q_o, dtype=float)
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0] - r_px


def observe(
    sc: Scenario,
    features: np.ndarray,
    depths: np.ndarray,
    obstacle: ObstacleImageState,
    rng: np.random.Generator | None,
) -> FeatureObservation:
    """Measure the scene from its exact projection, optionally with pixel noise.

    ``features`` ``(m, 2)``, ``depths`` ``(m,)`` and ``obstacle`` are the
    true projection at the current pose and time. Noise is drawn in pixel
    coordinates, one ``(m + 1, 2)`` standard normal block (feature rows,
    then the obstacle row), and divided by the focal length (the
    intrinsics map is linear). Depths stay exact; the interaction
    matrices are evaluated at the observed coordinates. Passing
    ``rng=None`` or a scenario without a noise model yields the truth.
    """
    if sc.noise is not None and rng is not None:
        f = sc.intrinsics.f
        z = rng.standard_normal((sc.m + 1, 2))
        # one 2x2 @ 2x1 product per row; z @ S.T would round differently for a non-diagonal S
        features = features + (sc.noise.feature_sqrt @ z[:-1, :, None])[..., 0] / f
        obstacle = dc_replace(obstacle, center=obstacle.center + (sc.noise.obstacle_sqrt @ z[-1]) / f)
    # the projected obstacle center moves like one more point feature, at its own depth
    l_points = feature_interaction(np.vstack([features, obstacle.center]), np.append(depths, obstacle.depth))
    return FeatureObservation(
        features=features,
        depths=depths,
        obstacle=obstacle,
        l_features=l_points[:-1],
        l_obstacle=l_points[-1],
        l_radius=obstacle_radius_interaction(obstacle.center, obstacle.depth, sc.obstacle.radius),
    )


def _noise_halfwidth(sc: Scenario) -> float:
    if sc.noise is None:
        return 0.0
    return _halfwidth(sc.noise.sigma, sc.noise.relative_cov_normalized(sc.intrinsics.f).tobytes())


@lru_cache(maxsize=64)
def _halfwidth(sigma: float, cov_bytes: bytes) -> float:
    """Half-width per noise model, once per process: every trial of a sweep shares it."""
    return noise_box_halfwidth(sigma, np.frombuffer(cov_bytes).reshape(2, 2))


def step(
    sc: Scenario,
    state: SimState,
    rng: np.random.Generator,
    truth: tuple[np.ndarray, np.ndarray],
) -> tuple[SimState, StepRecord]:
    """Run one closed-loop step and return the advanced state plus record.

    ``truth`` is the exact feature projection ``(features, depths)`` at
    ``state.pose``, as :func:`geometry.project_point` returns it for the
    scenario's ``(m, 3)`` feature points.
    """
    features, depths = truth
    obstacle = obstacle_image_state(sc.obstacle, state.pose, sc.intrinsics, state.t)
    obs = observe(sc, features, depths, obstacle, rng)

    e_obs = feature_error(obs.features, sc.target_features)
    e_true = feature_error(features, sc.target_features)
    L = obs.stacked_interaction()

    v_mpc = mpc.plan(e_obs, L, sc.mpc)[0]

    min_row_inf = np.inf
    if sc.mode == MODE_UNFILTERED:
        v_star = clip_twist(v_mpc, sc.mpc.v_max)
        status = "unfiltered"
    else:
        if sc.mode == MODE_CBC:
            problem = FilterProblem(v_mpc, sc.mpc.v_max, *cbc_halfspaces(obs, sc.gamma))
            rows = problem.b[:-1]  # the negated rate rows
            solution = solve_filter_qp(problem)
        elif sc.mode == MODE_PRCBC:
            if sc.noise is None:
                raise ScenarioError("prcbc mode needs a noise model")
            quadratics = prcbc_quadratics(obs, sc.gamma, _noise_halfwidth(sc), sc.prcbc_radius_term)
            problem = FilterProblem(v_mpc, sc.mpc.v_max, *quadratics)
            rows = barrier_rate_row(
                obs.features, obs.obstacle.center, obs.l_features, obs.l_obstacle, obs.l_radius, obs.obstacle.rn
            )
            solution = solve_filter_qcqp(problem)
        else:
            raise ScenarioError(f"unknown mode {sc.mode!r}")
        min_row_inf = float(np.abs(rows).max(axis=1).min())
        v_star, status = solution.twist, solution.status

    h = barrier_value(features, obstacle.center, obstacle.rn)
    dists = np.linalg.norm(features - obstacle.center, axis=1)
    clearance = pixel_clearance(
        pixel_from_normalized(features, sc.intrinsics),
        pixel_from_normalized(obstacle.center, sc.intrinsics),
        obstacle.radius_px,
    )

    record = StepRecord(
        step=state.step_index,
        t=state.t,
        e_norm=float(np.linalg.norm(e_true)),
        h=h,
        min_dist=float(dists.min()),
        dis_px=float(clearance.min()),
        v_star=np.asarray(v_star, dtype=float),
        v_mpc=np.asarray(v_mpc, dtype=float),
        filter_status=status,
        min_row_inf=min_row_inf,
    )
    new_pose = integrate_twist(state.pose, v_star, sc.mpc.dt)
    new_state = SimState(pose=new_pose, t=state.t + sc.mpc.dt, step_index=state.step_index + 1)
    return new_state, record


def run(sc: Scenario) -> TrajectoryLog:
    """Iterate steps until the feature error converges or steps run out.

    Each pose's features are projected once: for the convergence check,
    and then by the step that starts from that pose. A package error
    (:class:`SafeIbvsError`) or a ``LinAlgError`` ends the trial early,
    marked aborted with the error's type and message.
    """
    rng = make_rng(sc.seed)
    state = SimState(pose=sc.initial_pose)
    log = TrajectoryLog(scenario_digest=sc.digest())

    final_e = np.inf
    try:
        for k in range(sc.max_steps + 1):
            truth = project_point(state.pose, sc.intrinsics, sc.features_world)
            final_e = float(np.linalg.norm(feature_error(truth[0], sc.target_features)))
            log.summary.converged = final_e < sc.convergence_tol
            if log.summary.converged or k == sc.max_steps:
                break
            state, record = step(sc, state, rng, truth)
            log.records.append(record)
    except (SafeIbvsError, np.linalg.LinAlgError) as exc:
        log.summary.aborted = True
        log.summary.abort_reason = f"{type(exc).__name__}: {exc}"

    log.summary.steps = len(log.records)
    log.summary.final_e_norm = final_e
    if log.records:
        log.summary.min_h = float(min(r.h.min() for r in log.records))
        log.summary.min_dis_px = float(min(r.dis_px for r in log.records))
        log.summary.occlusion_steps = int(sum(1 for r in log.records if r.h.min() < 0.0))
        log.summary.fallback_steps = int(
            sum(1 for r in log.records if r.filter_status.startswith(STATUS_FALLBACK))
        )
        log.summary.min_row_inf = float(min(r.min_row_inf for r in log.records))
    return log


@dataclass(eq=False)
class SweepResult:
    locations: np.ndarray  # (n_loc, 3)
    trials_per_location: int
    dis: np.ndarray  # (n_loc, n_trials) per-trial min pixel clearance
    violations: np.ndarray  # (n_loc, n_trials) bool, any true margin < 0
    aborted: np.ndarray  # (n_loc, n_trials) bool
    seeds: np.ndarray  # (n_loc, n_trials)
    logs: list  # flat, ordered by (location, trial)

    def aggregate_rows(self) -> list[dict]:
        rows = []
        for i, loc in enumerate(self.locations):
            rows.append(
                {
                    "location_index": i,
                    "loc_x": float(loc[0]),
                    "loc_y": float(loc[1]),
                    "loc_z": float(loc[2]),
                    "trials": int(self.trials_per_location),
                    "mean_dis": float(np.mean(self.dis[i])),
                    "var_dis": float(np.var(self.dis[i])),
                    "violations": int(np.sum(self.violations[i])),
                    "aborted": int(np.sum(self.aborted[i])),
                }
            )
        return rows

    def aggregate_csv(self) -> str:
        cols = ["location_index", "loc_x", "loc_y", "loc_z", "trials", "mean_dis", "var_dis", "violations", "aborted"]
        lines = [",".join(cols)]
        for row in self.aggregate_rows():
            vals = []
            for c in cols:
                v = row[c]
                vals.append(CSV_FLOAT_FMT.format(v) if isinstance(v, float) else str(v))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def sweep(
    template: Scenario,
    locations: np.ndarray,
    trials_per_location: int = 10,
    jobs: int = 1,
    base_seed: int | None = None,
) -> SweepResult:
    """Run ``trials_per_location`` seeded trials from each obstacle start.

    Trial (i, j) uses seed ``base_seed + i * trials + j``, so results are
    independent of the execution schedule; ``jobs > 1`` shards trials
    over processes and merges them back in index order.
    """
    if trials_per_location < 1:
        raise ValueError(f"trials_per_location must be >= 1, got {trials_per_location}")
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[1] != 3:
        raise ValueError(f"locations must be (n, 3), got {locations.shape}")
    if base_seed is None:
        base_seed = template.seed

    scenarios = []
    seeds = np.empty((locations.shape[0], trials_per_location), dtype=np.int64)
    for i, loc in enumerate(locations):
        moved = template.with_obstacle_start(loc)
        for j in range(trials_per_location):
            seed = int(base_seed) + i * trials_per_location + j
            seeds[i, j] = seed
            scenarios.append(moved.with_seed(seed))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            logs = list(pool.map(run, scenarios))
    else:
        logs = [run(s) for s in scenarios]

    n_loc = locations.shape[0]
    dis = np.empty((n_loc, trials_per_location))
    violations = np.zeros((n_loc, trials_per_location), dtype=bool)
    aborted = np.zeros((n_loc, trials_per_location), dtype=bool)
    for idx, log in enumerate(logs):
        i, j = divmod(idx, trials_per_location)
        dis[i, j] = log.summary.min_dis_px
        violations[i, j] = log.summary.occlusion_steps > 0
        aborted[i, j] = log.summary.aborted
    return SweepResult(
        locations=locations,
        trials_per_location=trials_per_location,
        dis=dis,
        violations=violations,
        aborted=aborted,
        seeds=seeds,
        logs=logs,
    )
