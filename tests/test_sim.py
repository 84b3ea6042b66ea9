import csv
import io
from dataclasses import replace

import numpy as np
import pytest
import yaml

from safe_ibvs import barrier, mpc, scenario, sim, solvers
from safe_ibvs.barrier import barrier_value
from safe_ibvs.errors import CertificationFailed, ScenarioError
from safe_ibvs.geometry import Obstacle3, obstacle_image_state, project_point
from safe_ibvs.jacobians import feature_interaction
from conftest import SCENARIOS, downward_pose, shipped


@pytest.fixture(scope="module")
def quiet_scenario():
    """Reference scene with the obstacle parked far below the workspace."""
    sc = shipped("reference_cbc", mode="unfiltered")
    return replace(sc, obstacle=Obstacle3.static([0.0, 0.0, -5.0], 0.05))


def true_scene(sc, state):
    """Exact (features, depths, obstacle) projection at a state, as sim.run and sim.step compute it."""
    features, depths = project_point(state.pose, sc.features_world)
    return features, depths, obstacle_image_state(sc.obstacle, state.pose, state.t)


def test_observe_without_noise_is_truth(quiet_scenario):
    state = sim.SimState(pose=quiet_scenario.initial_pose)
    obs = sim.observe(quiet_scenario, *true_scene(quiet_scenario, state), None)
    for i, p in enumerate(quiet_scenario.features_world):
        s, z = project_point(quiet_scenario.initial_pose, p)
        assert np.allclose(obs.features[i], s)
        assert np.array_equal(obs.l_features[i], feature_interaction(s, z))


def test_observe_noise_statistics():
    sc = shipped("reference_noise")
    state = sim.SimState(pose=sc.initial_pose)
    scene = true_scene(sc, state)
    truth = sim.observe(sc, *scene, None)
    rng = sim.make_rng(99)
    n = 30000
    f = sc.focal_length
    residuals = np.empty((n, 2))
    obs_residuals = np.empty((n, 2))
    for i in range(n):
        noisy = sim.observe(sc, *scene, rng)
        residuals[i] = (noisy.features[0] - truth.features[0]) * f
        obs_residuals[i] = (noisy.obstacle.center - truth.obstacle.center) * f
    for sample, cov in ((residuals, sc.noise.feature_cov), (obs_residuals, sc.noise.obstacle_cov)):
        emp = np.cov(sample.T, bias=True)
        assert np.abs(np.diag(emp) - np.diag(cov)).max() / np.diag(cov).max() < 0.03
        assert abs(emp[0, 1]) < 0.03 * cov[0, 0]
        assert np.abs(sample.mean(axis=0)).max() < 0.1
    # the obstacle's depth and radius stay exact
    noisy = sim.observe(sc, *scene, rng)
    assert noisy.obstacle.depth == truth.obstacle.depth and noisy.obstacle.rn == truth.obstacle.rn


def test_observe_noise_equals_per_point_draws():
    # reference: one 2-vector draw per feature, in feature order, then one for the obstacle
    data = yaml.safe_load((SCENARIOS / "reference_noise.yaml").read_text())
    data["noise"] = {"feature_cov": [[10.0, 4.0], [4.0, 7.0]], "obstacle_cov": [[3.0, -1.0], [-1.0, 9.0]]}
    sc = scenario.from_dict(data)
    state = sim.SimState(pose=sc.initial_pose, t=0.35)
    features, depths, obstacle = true_scene(sc, state)
    f = sc.focal_length
    for seed in range(20):
        obs = sim.observe(sc, features, depths, obstacle, sim.make_rng(seed))
        rng = sim.make_rng(seed)
        expected = np.array([features[i] + (sc.noise.feature_sqrt @ rng.standard_normal(2)) / f for i in range(sc.m)])
        center = obstacle.center + (sc.noise.obstacle_sqrt @ rng.standard_normal(2)) / f
        assert np.array_equal(obs.features, expected) and np.array_equal(obs.obstacle.center, center)
        for i in range(sc.m):
            assert np.array_equal(obs.l_features[i], feature_interaction(expected[i], float(depths[i])))
    # the truth handed in is not perturbed in place
    assert np.array_equal(features, true_scene(sc, state)[0])


def test_run_projects_each_pose_once(monkeypatch):
    # the rate rows are formed inside the constraint builders, which hand them back; the step never forms them
    assert not hasattr(sim, "barrier_rate_row")
    counts = {"project_point": 0, "obstacle_image_state": 0, "feature_interaction": 0, "barrier_rate_row": 0}
    for name in counts:
        module = barrier if name == "barrier_rate_row" else sim
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for mode in scenario.MODES:
        counts.update(dict.fromkeys(counts, 0))
        log = sim.run(replace(shipped("reference_cbc" if mode == "cbc" else "reference_noise", mode=mode), max_steps=12))
        steps = log.summary.steps
        assert steps == 12
        # one batched feature projection per pose (the last pose only gets its convergence check)
        assert counts["project_point"] == steps + 1
        assert counts["obstacle_image_state"] == steps
        # one interaction call per step covers the features and the obstacle center
        assert counts["feature_interaction"] == steps
        # one batch of rate rows per filtered step, none unfiltered
        assert counts["barrier_rate_row"] == (0 if mode == "unfiltered" else steps)


def test_pixel_clearance_sign_matches_margin():
    # exact projection: the logged clearance f (dist - rn) and the normalized margin agree in sign
    rng = np.random.default_rng(12)
    f = shipped("reference_cbc").focal_length
    for _ in range(200):
        s_i = rng.uniform(-0.5, 0.5, 2)
        s_o = rng.uniform(-0.5, 0.5, 2)
        rn = rng.uniform(0.01, 0.3)
        h = barrier_value(s_i - s_o, rn)
        dis = f * (float(np.linalg.norm(s_i - s_o)) - rn)
        if abs(h) > 1e-12:
            assert np.sign(dis) == np.sign(h)


def column(m, name, width=1):
    """Slice of the ``width`` table columns that start at column ``name``."""
    start = sim.columns(m).index(name)
    return slice(start, start + width)


@pytest.mark.parametrize(
    "name, mode",
    [
        ("reference_cbc", "cbc"),
        ("reference_cbc", "unfiltered"),
        ("reference_noise", "cbc"),
        ("reference_noise", "prcbc"),
        ("reference_noise", "unfiltered"),
    ],
)
def test_logged_clearance_matches_the_pixel_space_distance(monkeypatch, name, mode):
    # each shipped run that check accepts (prcbc needs the noise scene) against a reference that maps the features and
    # the obstacle centre to pixels (a principal point would cancel from their differences) and takes their smallest
    # distance minus the pixel radius f R / z
    sc = shipped(name, mode=mode)
    scenes = []
    step = sim.step

    def recording(sc, state, rng, truth):
        scenes.append((truth[0], obstacle_image_state(sc.obstacle, state.pose, state.t)))
        return step(sc, state, rng, truth)

    monkeypatch.setattr(sim, "step", recording)
    log = sim.run(sc)
    f = sc.focal_length
    reference = [
        np.linalg.norm(f * s - f * obs.center, axis=1).min() - f * sc.obstacle.radius / obs.depth for s, obs in scenes
    ]
    assert len(reference) == log.summary.steps > 0
    assert np.abs(log.table[:, column(sc.m, "dis_px")][:, 0] - reference).max() <= 1e-12


def test_step_unfiltered_keeps_nominal_twist(quiet_scenario):
    state = sim.SimState(pose=quiet_scenario.initial_pose)
    rng = sim.make_rng(0)
    features, depths = project_point(state.pose, quiet_scenario.features_world)
    e_norm = float(np.linalg.norm(features - quiet_scenario.target_features))
    _, row, status, row_inf = sim.step(quiet_scenario, state, rng, (features, depths, e_norm))
    m = quiet_scenario.m
    assert row.shape == (17 + m,) and status == "unfiltered" and row_inf == np.inf
    assert row[column(m, "e_norm")] == e_norm  # the true error is taken from truth, not recomputed
    assert np.allclose(row[column(m, "vstar_1", 6)], row[column(m, "vmpc_1", 6)])  # bound inactive here


def test_true_feature_error_is_taken_once_per_pose(monkeypatch):
    # run's convergence check takes it and hands it to the step, which takes only the observed error
    calls = []
    feature_error = sim.feature_error
    monkeypatch.setattr(sim, "feature_error", lambda *args: calls.append(1) or feature_error(*args))
    log = sim.run(replace(shipped("reference_noise", mode="unfiltered"), max_steps=20))
    assert log.summary.steps == 20 and len(calls) == 2 * 20 + 1


def test_run_converges_without_obstacle(quiet_scenario):
    log = sim.run(quiet_scenario)
    assert log.summary.converged and not log.summary.aborted
    assert log.summary.final_e_norm < quiet_scenario.convergence_tol
    errors = log.table[:, column(quiet_scenario.m, "e_norm")].ravel().tolist()
    # monotone decrease after the initial transient
    tail = errors[10:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize(
    "cov, sigma, max_steps",
    [
        pytest.param([[10.0, 4.0], [4.0, 10.0]], 0.8, 40, id="correlated"),
        pytest.param([[4.0, 4.0], [4.0, 4.0]], 0.8, 40, id="singular"),
        # a narrow, correlated density that an adaptive quadrature over [-e, e] once missed, after
        # which the half-width search doubled its bracket until it overflowed
        pytest.param([[1e-6, 9e-4], [9e-4, 1.0]], 0.99, 5, id="narrow_axis"),
    ],
)
def test_checked_covariance_runs_in_every_mode(cov, sigma, max_steps):
    data = yaml.safe_load((SCENARIOS / "reference_noise.yaml").read_text())
    data["noise"] = {"feature_cov": cov, "obstacle_cov": cov, "sigma": sigma}
    data["max_steps"] = max_steps
    sc = scenario.from_dict(data)
    for mode in scenario.MODES:
        log = sim.run(sc.with_mode(mode))
        assert log.summary.steps == max_steps and not log.summary.aborted


def test_sweep_computes_the_halfwidth_once(monkeypatch):
    # the noise model computes its half-width when the scene is built, and every trial of a sweep shares the model
    data = yaml.safe_load((SCENARIOS / "reference_noise.yaml").read_text())
    cov = [[1e-6, 9e-4], [9e-4, 1.0]]  # correlated: the half-width takes a bisection over box_probability
    data["noise"] = {"feature_cov": cov, "obstacle_cov": cov, "sigma": 0.99}
    data["max_steps"] = 5
    calls = []
    invert = barrier.noise_box_halfwidth

    def counted(sigma, rel_cov):
        calls.append(sigma)
        return invert(sigma, rel_cov)

    monkeypatch.setattr(barrier, "noise_box_halfwidth", counted)
    sc = scenario.from_dict(data)
    assert calls == [0.99]
    start = np.array([0.43, 0.23, 0.10])
    res = sim.sweep(sc, start[None], trials_per_location=5, jobs=1)
    for log, seed in zip(res.logs, res.seeds.ravel()):
        assert sim.run(sc.with_obstacle_start(start).with_seed(int(seed))).csv_text() == log.csv_text()
    assert calls == [0.99]
    assert sc.with_sigma(0.9).noise.halfwidth < sc.noise.halfwidth and calls == [0.99, 0.9]


E = np.eye(6)


def _fail_certification(solution, problem):
    raise CertificationFailed("stationarity residual 1e-3 > 1e-6")


@pytest.mark.parametrize(
    "mode, patch, token",
    [
        # v_x >= 2 inside the 0.5 speed ball
        pytest.param(
            "cbc",
            (sim, "cbc_halfspaces", lambda obs, gamma: (np.zeros((1, 0, 6)), -E[:1], np.array([2.0]), E[:1])),
            "infeasible",
            id="infeasible",
        ),
        # disks of radius 0.2 centred at +-0.2 e_x (factor I) meet only at V = 0: no interior, so the multipliers diverge
        pytest.param(
            "prcbc",
            (
                sim,
                "prcbc_quadratics",
                lambda obs, gamma, hw: (np.stack([E, E]), np.stack([-0.4 * E[0], 0.4 * E[0]]), np.zeros(2), E[:2]),
            ),
            "no_convergence",
            id="no_convergence",
        ),
        # the filter certifies its own answer
        pytest.param("cbc", (solvers, "certify", _fail_certification), "certification", id="certification"),
    ],
)
def test_hold_logs_its_reason_token(monkeypatch, mode, patch, token):
    monkeypatch.setattr(*patch)
    log = sim.run(replace(shipped("reference_noise" if mode == "prcbc" else "reference_cbc"), max_steps=3))
    assert log.summary.fallback_steps == log.summary.steps == 3 and not log.summary.aborted
    assert set(log.status) == {f"fallback_hold:{token}"}


def test_run_aborts_on_linalg_error(monkeypatch):
    def singular(e0, L, cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(mpc, "plan", singular)
    log = sim.run(shipped("reference_cbc"))
    assert log.summary.aborted and not log.summary.converged
    assert log.summary.abort_reason == "LinAlgError: Singular matrix"


def test_low_obstacle_start_runs_without_holds():
    # a low obstacle start (z <= 0.093) on which a filter factorization once failed and held 15 steps
    sc = shipped("reference_cbc")
    log = sim.run(sc.with_obstacle_start([0.414546781, 0.205472717, 0.093445709]))
    assert log.summary.fallback_steps == 0
    assert log.summary.min_h >= -1e-6


def test_run_abort_records_reason():
    sc = shipped("reference_cbc", mode="unfiltered")
    # a valid start; by t = 0.1 the schedule has carried the obstacle above the camera, to a nonpositive depth
    above = Obstacle3(sc.obstacle.radius, np.array([0.0, 0.1]), np.array([sc.obstacle.points[0], [0.0, 0.0, 2.0]]))
    log = sim.run(replace(sc, obstacle=above))
    assert log.summary.aborted and 0 < log.summary.steps < 5
    assert "NonPositiveDepth" in log.summary.abort_reason
    assert not log.summary.converged


def test_run_determinism_bit_identical():
    sc = shipped("reference_noise", seed=77)
    a, b = sim.run(sc), sim.run(sc)
    assert a.csv_text() == b.csv_text()
    assert a.summary_dict() == b.summary_dict()


def test_csv_layout_and_precision(tmp_path):
    sc = shipped("reference_cbc")
    sc = replace(sc, max_steps=4, convergence_tol=1e-12)
    log = sim.run(sc)
    log.write(tmp_path)
    text = (tmp_path / "trajectory.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert header == (
        ["step", "t", "e_norm"]
        + [f"h_{i}" for i in (1, 2, 3, 4)]
        + ["min_dist", "dis_px"]
        + [f"vstar_{i}" for i in range(1, 7)]
        + [f"vmpc_{i}" for i in range(1, 7)]
        + ["filter_status"]
    )
    assert header[:-1] == sim.columns(sc.m) and log.table.shape == (4, 17 + sc.m)
    # 17 significant digit round trip
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == log.table[0, header.index("e_norm")]
    assert float(row[3]) == log.table[0, header.index("h_1")]
    assert (tmp_path / "trajectory_summary.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"convergence_tol": 1e9}, id="converged_at_start"),
    ],
)
def test_log_without_steps_has_the_full_header(change):
    sc = replace(shipped("reference_cbc"), **change)
    log = sim.run(sc)
    assert log.summary.steps == 0
    header = ["step", "t", "e_norm", "h_1", "h_2", "h_3", "h_4", "min_dist", "dis_px"]
    header += [f"vstar_{i}" for i in range(1, 7)] + [f"vmpc_{i}" for i in range(1, 7)] + ["filter_status"]
    assert log.csv_text() == ",".join(header) + "\n"
    assert log.table.shape == (0, 17 + sc.m)


@pytest.mark.parametrize("mode", ["cbc", "prcbc"])
def test_csv_and_summary_are_read_off_the_table(monkeypatch, mode):
    row_infs = []
    original = sim.step

    def recorded(*args):
        out = original(*args)
        row_infs.append(out[3])
        return out

    monkeypatch.setattr(sim, "step", recorded)
    sc = shipped("reference_noise" if mode == "prcbc" else "reference_cbc")
    log = sim.run(sc)
    header, *body = csv.reader(io.StringIO(log.csv_text()))
    assert header == sim.columns(sc.m) + ["filter_status"]
    # the CSV parsed back is the table, exactly, and the statuses
    parsed = np.array([[float(x) for x in r[:-1]] for r in body])
    assert parsed.shape == log.table.shape and np.array_equal(parsed, log.table)
    assert [r[-1] for r in body] == log.status
    s = log.summary
    h = log.table[:, [i for i, c in enumerate(header) if c.startswith("h_")]]
    assert s.steps == len(log.table) == len(log.status) == len(row_infs) > 0
    assert s.min_h == h.min()
    assert s.min_dis_px == log.table[:, column(sc.m, "dis_px")].min()
    assert s.occlusion_steps == int(np.sum(h.min(axis=1) < 0.0))
    assert s.fallback_steps == sum(st.startswith(solvers.STATUS_FALLBACK) for st in log.status)
    assert log.table[:, column(sc.m, "step")].ravel().tolist() == list(range(s.steps))
    # run-long minimum of the barrier row magnitude is tracked and nonzero
    assert s.min_row_inf == min(row_infs) and 0.0 < s.min_row_inf < np.inf


def test_sweep_single_trial_zero_variance():
    sc = shipped("reference_cbc")  # noiseless: deterministic outcome
    res = sim.sweep(sc, np.array([[0.43, 0.23, 0.10]]), trials_per_location=1, jobs=1)
    rows = res.aggregate_rows()
    assert rows[0]["var_dis"] == 0.0
    assert rows[0]["trials"] == 1


def test_sweep_aggregate_identity():
    sc = shipped("reference_noise", seed=300)
    sc = replace(sc, max_steps=60)
    locs = np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]])
    res = sim.sweep(sc, locs, trials_per_location=3, jobs=1)
    for i, row in enumerate(res.aggregate_rows()):
        dis = np.array([log.summary.min_dis_px for log in res.logs[3 * i : 3 * i + 3]])
        assert abs(row["mean_dis"] - dis.mean()) < 1e-9
        assert abs(row["var_dis"] - dis.var()) < 1e-9


def test_sweep_schedule_independence():
    sc = shipped("reference_noise", seed=511)
    sc = replace(sc, max_steps=50)
    locs = np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]])
    seq = sim.sweep(sc, locs, trials_per_location=2, jobs=1)
    par = sim.sweep(sc, locs, trials_per_location=2, jobs=2)
    assert seq.aggregate_csv() == par.aggregate_csv()
    for a, b in zip(seq.logs, par.logs):
        assert a.csv_text() == b.csv_text()
    assert np.array_equal(seq.seeds, par.seeds)


def test_sweep_trial_seeds_are_offsets():
    sc = shipped("reference_noise", seed=1000)
    sc = replace(sc, max_steps=5)
    res = sim.sweep(sc, np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]]), trials_per_location=2)
    assert res.seeds.tolist() == [[1000, 1001], [1002, 1003]]


def test_sweep_rejects_bad_arguments():
    sc = shipped("reference_cbc")
    with pytest.raises(ValueError):
        sim.sweep(sc, np.zeros((2, 3)), trials_per_location=0)
    with pytest.raises(ValueError):
        sim.sweep(sc, np.zeros((2, 2)), trials_per_location=1)


def test_seeds_outside_the_key_range_are_scenario_errors():
    # each once raised an OverflowError: from make_rng's uint64 Philox key, or from the sweep's uint64 seed table
    sc = shipped("reference_cbc", mode="unfiltered")
    for seed in (2**64, -1):
        with pytest.raises(ScenarioError, match="seed"):
            sim.run(sc.with_seed(seed))
    with pytest.raises(ScenarioError, match="seed"):  # the third trial's seed is 2**64
        sim.sweep(sc.with_seed(2**64 - 2), np.array([[0.43, 0.23, 0.10]]), trials_per_location=3)


def test_with_obstacle_start_translates_schedule():
    sc = shipped("reference_cbc")
    moved = sc.with_obstacle_start([1.0, 2.0, 0.3])
    shift = np.array([1.0, 2.0, 0.3]) - sc.obstacle.points[0]
    assert np.allclose(moved.obstacle.points, sc.obstacle.points + shift)
    assert np.array_equal(moved.obstacle.times, sc.obstacle.times)
