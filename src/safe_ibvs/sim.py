"""Closed-loop scenario engine: observe, plan, filter, integrate, log.

Each pose's true feature projection, as ``(m, 2)`` points and ``(m,)``
depths, and its feature-error norm are computed once, by ``run``'s
convergence check, and handed to the step. One step runs the full
pipeline on arrays: project the obstacle, draw the (optional) pixel
noise for all features at once into the step's one ``Observation`` (its
``(m, 2, 6)`` interaction matrices and feature-obstacle offsets), plan
the nominal twist over the horizon, build the mode-appropriate occlusion
constraints as stacked factor arrays and their rate rows (PrCBC
reads the confidence half-width that the scenario's noise model computed
once, when it was built, so every trial of a sweep shares it), execute
the filter's certified projection of the nominal twist or its typed hold
(``V = 0``), log the true margins and clearances, read off one array of
true offsets, as one row of the trial's float table (:func:`columns`),
then advance the camera pose and obstacle clock. The CSV and the summary
are read off that table.
Everything is driven by a counter-based generator keyed on the scenario
seed, so a (scenario, seed) pair reproduces bit-identical logs.
A ``Scenario`` checks itself when it is built (its mode, a PrCBC noise
model, a Philox seed, an occlusion-free t = 0), so the engine runs what
it is given unchecked; a sweep builds every trial's scenario first.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import mpc
from .barrier import Observation, barrier_value, cbc_halfspaces, prcbc_quadratics
from .errors import SafeIbvsError, ScenarioError
from .geometry import (
    CameraPose,
    ObstacleImageState,
    integrate_twist,
    obstacle_image_state,
    project_point,
)
from .ibvs import clip_twist, feature_error
from .jacobians import feature_interaction, obstacle_radius_interaction
from .scenario import MODE_CBC, MODE_UNFILTERED, Scenario
from .solvers import STATUS_FALLBACK, FilterProblem, solve_filter_qp, solve_filter_qcqp

CSV_FLOAT_FMT = "%.17g"


def columns(m: int) -> list[str]:
    """The ``17 + m`` float columns of a trial's table, in CSV order; the CSV appends ``filter_status``.

    ``h_i`` are the true occlusion margins, ``min_dist`` the smallest normalized feature-obstacle center
    distance, ``dis_px = f * (min_dist - rn)`` the smallest pixel clearance to the obstacle edge,
    ``vstar``/``vmpc`` the executed and the planned twist.
    """
    return (
        ["step", "t", "e_norm"]
        + [f"h_{i}" for i in range(1, m + 1)]
        + ["min_dist", "dis_px"]
        + [f"vstar_{i}" for i in range(1, 7)]
        + [f"vmpc_{i}" for i in range(1, 7)]
    )


def _strict_json(value):
    """Strict JSON has no Infinity or NaN: a non-finite float becomes ``None`` (null)."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trials are reproducible and shardable."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(eq=False)
class SimState:
    pose: CameraPose
    t: float = 0.0
    step_index: int = 0


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
        return {k: _strict_json(v) for k, v in asdict(self).items()}


@dataclass(eq=False)
class TrajectoryLog:
    scenario_digest: str
    m: int
    table: np.ndarray  # (steps, 17 + m), columns(m) in order
    status: list[str]  # filter status per step
    summary: TrajectorySummary

    def csv_text(self) -> str:
        cols = columns(self.m)
        row_fmt = ",".join([CSV_FLOAT_FMT] * len(cols) + ["%s"])
        lines = [",".join(cols + ["filter_status"])]
        lines += [row_fmt % (*row, status) for row, status in zip(self.table.tolist(), self.status)]
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        out = self.summary.to_dict()
        out["scenario_digest"] = self.scenario_digest
        return out

    def write(self, out_dir) -> None:
        """Write ``trajectory.csv`` and ``trajectory_summary.json`` into ``out_dir``."""
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trajectory.csv").write_text(self.csv_text())
        (out_dir / "trajectory_summary.json").write_text(
            json.dumps(self.summary_dict(), indent=2, sort_keys=True) + "\n"
        )


def observe(
    sc: Scenario,
    features: np.ndarray,
    depths: np.ndarray,
    obstacle: ObstacleImageState,
    rng: np.random.Generator | None,
) -> Observation:
    """Measure the scene from its exact projection, optionally with pixel noise, as the step's geometry.

    ``features`` ``(m, 2)``, ``depths`` ``(m,)`` and ``obstacle`` are the
    true projection at the current pose and time. Noise is drawn in pixel
    coordinates, one ``(m + 1, 2)`` standard normal block (feature rows,
    then the obstacle row), and divided by the scenario's focal length.
    The interaction matrices are evaluated at the observed coordinates
    and the exact depths, and the offsets ``ds`` and differences ``dl``
    are formed from them here, once. Passing ``rng=None`` or a scenario
    without a noise model yields the truth.
    """
    if sc.noise is not None and rng is not None:
        f = sc.focal_length
        z = rng.standard_normal((sc.m + 1, 2))
        # one 2x2 @ 2x1 product per row; z @ S.T would round differently for a non-diagonal S
        features = features + (sc.noise.feature_sqrt @ z[:-1, :, None])[..., 0] / f
        center = obstacle.center + (sc.noise.obstacle_sqrt @ z[-1]) / f
        obstacle = ObstacleImageState(center, obstacle.rn, obstacle.depth)
    # the projected obstacle center moves like one more point feature, at its own depth
    l_points = feature_interaction(
        np.concatenate((features, obstacle.center[None])), np.concatenate((depths, [obstacle.depth]))
    )
    return Observation(
        features=features,
        l_features=l_points[:-1],
        obstacle=obstacle,
        l_radius=obstacle_radius_interaction(obstacle.center, obstacle.depth, sc.obstacle.radius),
        ds=features - obstacle.center,
        dl=l_points[:-1] - l_points[-1],
    )


def step(
    sc: Scenario,
    state: SimState,
    rng: np.random.Generator,
    truth: tuple[np.ndarray, np.ndarray, float],
) -> tuple[SimState, np.ndarray, str, float]:
    """Run one closed-loop step.

    ``truth`` is the exact feature projection ``(features, depths)`` at
    ``state.pose``, as :func:`geometry.project_point` returns it for the
    scenario's ``(m, 3)`` feature points, followed by the norm of its
    feature error. Returns the advanced state, the step's ``(17 + m,)``
    table row, its filter status, and the smallest infinity norm of its
    barrier rate rows (``inf`` when unfiltered).
    """
    features, depths, e_norm = truth
    obstacle = obstacle_image_state(sc.obstacle, state.pose, state.t)
    obs = observe(sc, features, depths, obstacle, rng)

    e_obs = feature_error(obs.features, sc.target_features)
    L = obs.l_features.reshape(-1, 6)

    v_mpc = mpc.plan(e_obs, L, sc.mpc)[0]

    min_row_inf = np.inf
    if sc.mode == MODE_UNFILTERED:
        v_star = clip_twist(v_mpc, sc.mpc.v_max)
        status = "unfiltered"
    else:
        if sc.mode == MODE_CBC:
            *constraints, rows = cbc_halfspaces(obs, sc.gamma)
            solution = solve_filter_qp(FilterProblem(v_mpc, sc.mpc.v_max, *constraints))
        else:  # MODE_PRCBC, whose scenario has a noise model
            *constraints, rows = prcbc_quadratics(obs, sc.gamma, sc.noise.halfwidth)
            solution = solve_filter_qcqp(FilterProblem(v_mpc, sc.mpc.v_max, *constraints))
        min_row_inf = float(np.abs(rows).max(axis=1).min())
        v_star, status = solution.twist, solution.status

    offsets = features - obstacle.center
    h = barrier_value(offsets, obstacle.rn)
    dists = np.sqrt((offsets * offsets).sum(axis=1))  # what np.linalg.norm(axis=1) computes
    min_dist = float(dists.min())
    dis_px = sc.focal_length * (min_dist - obstacle.rn)  # Python floats overflow to inf without a warning
    # in columns(m) order
    row = np.concatenate(([state.step_index, state.t, e_norm], h, [min_dist, dis_px], v_star, v_mpc))
    new_pose = integrate_twist(state.pose, v_star, sc.mpc.dt)
    new_state = SimState(pose=new_pose, t=state.t + sc.mpc.dt, step_index=state.step_index + 1)
    return new_state, row, status, min_row_inf


def run(sc: Scenario) -> TrajectoryLog:
    """Iterate steps until the feature error converges or steps run out.

    Each pose's features are projected, and their error taken, once: for
    the convergence check, and then by the step that starts from that
    pose. A package error (:class:`SafeIbvsError`), a ``LinAlgError`` or
    an ``ArithmeticError`` (a Python float overflow) ends the trial
    early, marked aborted with the error's type and message. The rows
    are stacked into the table once, at the end: ``max_steps`` has no
    upper bound, so no table is preallocated for it.
    """
    rng = make_rng(sc.seed)
    state = SimState(pose=sc.initial_pose)
    summary = TrajectorySummary()
    rows, statuses = [], []

    final_e = np.inf
    try:
        for k in range(sc.max_steps + 1):
            features, depths = project_point(state.pose, sc.features_world)
            e_true = feature_error(features, sc.target_features)
            final_e = math.sqrt(e_true @ e_true)
            summary.converged = final_e < sc.convergence_tol
            if summary.converged or k == sc.max_steps:
                break
            state, row, status, row_inf = step(sc, state, rng, (features, depths, final_e))
            rows.append(row)
            statuses.append(status)
            summary.min_row_inf = min(summary.min_row_inf, row_inf)
    except (SafeIbvsError, np.linalg.LinAlgError, ArithmeticError) as exc:
        summary.aborted = True
        summary.abort_reason = f"{type(exc).__name__}: {exc}"

    cols = columns(sc.m)
    table = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    summary.steps = len(table)
    summary.final_e_norm = final_e
    summary.fallback_steps = sum(s.startswith(STATUS_FALLBACK) for s in statuses)
    if summary.steps:
        h = table[:, cols.index("h_1") : cols.index("min_dist")]
        summary.min_h = float(h.min())
        summary.min_dis_px = float(table[:, cols.index("dis_px")].min())
        summary.occlusion_steps = int((h < 0.0).any(axis=1).sum())
    return TrajectoryLog(sc.digest(), sc.m, table, statuses, summary)


@dataclass(eq=False)
class SweepResult:
    locations: np.ndarray  # (n_loc, 3)
    trials_per_location: int
    dis: np.ndarray  # (n_loc, n_trials) per-trial min pixel clearance
    violations: np.ndarray  # (n_loc, n_trials) bool, any true margin < 0
    aborted: np.ndarray  # (n_loc, n_trials) bool
    seeds: np.ndarray  # (n_loc, n_trials) uint64, the range of a Philox key
    logs: list  # flat, ordered by (location, trial)

    def aggregate_rows(self) -> list[dict]:
        """Per-location clearance statistics and counts, as strict JSON values: a trial with no step has
        clearance ``inf``, which leaves the mean and variance of its location undefined (``None``)."""
        with np.errstate(invalid="ignore"):  # the variance meets inf - inf there
            mean, var = self.dis.mean(axis=1), self.dis.var(axis=1)
        return [
            {
                "location_index": i,
                "loc_x": float(loc[0]),
                "loc_y": float(loc[1]),
                "loc_z": float(loc[2]),
                "trials": int(self.trials_per_location),
                "mean_dis": _strict_json(float(mean[i])),
                "var_dis": _strict_json(float(var[i])),
                "violations": int(np.sum(self.violations[i])),
                "aborted": int(np.sum(self.aborted[i])),
            }
            for i, loc in enumerate(self.locations)
        ]

    def aggregate_csv(self) -> str:
        """``aggregate_rows`` as CSV; an undefined cell is left empty."""
        cols = ["location_index", "loc_x", "loc_y", "loc_z", "trials", "mean_dis", "var_dis", "violations", "aborted"]
        lines = [",".join(cols)]
        for row in self.aggregate_rows():
            lines.append(",".join("" if row[c] is None else CSV_FLOAT_FMT % row[c] for c in cols))
        return "\n".join(lines) + "\n"


def sweep_trials(template: Scenario, locations: np.ndarray, trials_per_location: int) -> list[Scenario]:
    """A sweep's trials in (location, trial) order: trial (i, j) starts the obstacle at ``locations[i]``, with
    seed ``template.seed + i * trials + j``. A start whose scenario is invalid raises a ScenarioError naming it."""
    scenarios = []
    for i, loc in enumerate(locations):
        try:
            moved = template.with_obstacle_start(loc)
        except ScenarioError as exc:
            raise ScenarioError(f"start {i} {loc.tolist()}: {exc}") from exc
        scenarios += [moved.with_seed(template.seed + i * trials_per_location + j) for j in range(trials_per_location)]
    return scenarios


def sweep(
    template: Scenario,
    locations: np.ndarray,
    trials_per_location: int = 10,
    jobs: int = 1,
) -> SweepResult:
    """Run ``trials_per_location`` seeded trials from each obstacle start (:func:`sweep_trials`).

    The seeds make results independent of the execution schedule; ``jobs > 1``
    shards trials over processes and merges them back in index order.
    """
    if trials_per_location < 1:
        raise ValueError(f"trials_per_location must be >= 1, got {trials_per_location}")
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[1] != 3:
        raise ValueError(f"locations must be (n, 3), got {locations.shape}")

    scenarios = sweep_trials(template, locations, trials_per_location)
    seeds = np.array([sc.seed for sc in scenarios], dtype=np.uint64).reshape(len(locations), trials_per_location)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            logs = list(pool.map(run, scenarios))
    else:
        logs = [run(s) for s in scenarios]

    summaries = [log.summary for log in logs]
    return SweepResult(
        locations=locations,
        trials_per_location=trials_per_location,
        dis=np.reshape([s.min_dis_px for s in summaries], seeds.shape),
        violations=np.reshape([s.occlusion_steps > 0 for s in summaries], seeds.shape),
        aborted=np.reshape([s.aborted for s in summaries], seeds.shape),
        seeds=seeds,
        logs=logs,
    )
