from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from safe_ibvs import scenario, sim
from safe_ibvs.barrier import barrier_value
from safe_ibvs.geometry import CameraPose, Obstacle3, pixel_from_normalized, project_point
from safe_ibvs.scenario import reference_scenario

from conftest import downward_pose


@pytest.fixture(scope="module")
def quiet_scenario():
    """Reference scene with the obstacle parked far below the workspace."""
    sc = reference_scenario(mode="unfiltered")
    return replace(sc, obstacle=Obstacle3.static([0.0, 0.0, -5.0], 0.05))


def test_observe_without_noise_is_truth(quiet_scenario):
    state = sim.SimState(pose=quiet_scenario.initial_pose)
    obs = sim.observe(quiet_scenario, state, None)
    for i, p in enumerate(quiet_scenario.features_world):
        s, z = project_point(quiet_scenario.initial_pose, quiet_scenario.intrinsics, p)
        assert np.allclose(obs.features[i], s)
        assert obs.depths[i] == z


def test_observe_noise_statistics():
    sc = reference_scenario(mode="prcbc", noisy=True)
    state = sim.SimState(pose=sc.initial_pose)
    truth = sim.observe(sc, state, None)
    rng = sim.make_rng(99)
    n = 30000
    f = sc.intrinsics.f
    residuals = np.empty((n, 2))
    obs_residuals = np.empty((n, 2))
    for i in range(n):
        noisy = sim.observe(sc, state, rng)
        residuals[i] = (noisy.features[0] - truth.features[0]) * f
        obs_residuals[i] = (noisy.obstacle.center - truth.obstacle.center) * f
    for sample, cov in ((residuals, sc.noise.feature_cov), (obs_residuals, sc.noise.obstacle_cov)):
        emp = np.cov(sample.T, bias=True)
        assert np.abs(np.diag(emp) - np.diag(cov)).max() / np.diag(cov).max() < 0.03
        assert abs(emp[0, 1]) < 0.03 * cov[0, 0]
        assert np.abs(sample.mean(axis=0)).max() < 0.1
    # depths and interaction inputs stay exact
    noisy = sim.observe(sc, state, rng)
    assert np.array_equal(noisy.depths, truth.depths)
    assert noisy.obstacle.rn == truth.obstacle.rn


def test_pixel_clearance_cases():
    assert sim.pixel_clearance([10.0, 10.0], [10.0, 10.0], 5.0) == -5.0
    assert sim.pixel_clearance([13.0, 14.0], [10.0, 10.0], 5.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        sim.pixel_clearance([0.0, 0.0], [1.0, 1.0], -1.0)


def test_pixel_clearance_sign_matches_margin():
    # exact projection: the pixel metric and the normalized margin agree in sign
    rng = np.random.default_rng(12)
    sc = reference_scenario()
    k = sc.intrinsics
    for _ in range(200):
        s_i = rng.uniform(-0.5, 0.5, 2)
        s_o = rng.uniform(-0.5, 0.5, 2)
        rn = rng.uniform(0.01, 0.3)
        h = barrier_value(s_i, s_o, rn)
        dis = sim.pixel_clearance(
            pixel_from_normalized(s_i, k), pixel_from_normalized(s_o, k), k.f * rn
        )
        if abs(h) > 1e-12:
            assert np.sign(dis) == np.sign(h)


def test_step_unfiltered_keeps_nominal_twist(quiet_scenario):
    state = sim.SimState(pose=quiet_scenario.initial_pose)
    rng = sim.make_rng(0)
    _, record = sim.step(quiet_scenario, state, rng)
    assert record.filter_status == "unfiltered"
    assert np.allclose(record.v_star, record.v_mpc)  # bound inactive here


def test_run_converges_without_obstacle(quiet_scenario):
    log = sim.run(quiet_scenario)
    assert log.summary.converged and not log.summary.aborted
    assert log.summary.final_e_norm < quiet_scenario.convergence_tol
    errors = [r.e_norm for r in log.records]
    # monotone decrease after the initial transient
    tail = errors[10:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("cov", [[[10.0, 4.0], [4.0, 10.0]], [[4.0, 4.0], [4.0, 4.0]]], ids=["correlated", "singular"])
def test_checked_covariance_runs_in_every_mode(cov):
    data = yaml.safe_load((Path(__file__).parents[1] / "scenarios" / "reference_noise.yaml").read_text())
    data["noise"] = {"feature_cov": cov, "obstacle_cov": cov, "sigma": 0.8}
    data["max_steps"] = 40
    sc = scenario.from_dict(data)
    assert scenario.validate_scenario(sc) == []
    for mode in scenario.MODES:
        log = sim.run(sc.with_mode(mode))
        assert log.summary.steps == 40 and not log.summary.aborted


def test_low_obstacle_start_runs_without_holds():
    # a low obstacle start (z <= 0.093) on which a filter factorization once failed and held 15 steps
    sc = scenario.load(Path(__file__).parents[1] / "scenarios" / "reference_cbc.yaml")
    log = sim.run(sc.with_obstacle_start([0.414546781, 0.205472717, 0.093445709]))
    assert log.summary.fallback_steps == 0
    assert log.summary.min_h >= -1e-6


def test_run_abort_records_reason():
    sc = reference_scenario(mode="unfiltered")
    looking_away = CameraPose.from_rpy([0.0, 0.0, 0.0], [0.0, 0.0, 1.1])  # features behind
    sc_bad = replace(sc, initial_pose=looking_away)
    log = sim.run(sc_bad)
    assert log.summary.aborted
    assert "NonPositiveDepth" in log.summary.abort_reason
    assert not log.summary.converged


def test_run_determinism_bit_identical():
    sc = reference_scenario(mode="prcbc", noisy=True, seed=77)
    a, b = sim.run(sc), sim.run(sc)
    assert a.csv_text() == b.csv_text()
    assert a.summary_dict() == b.summary_dict()


def test_csv_layout_and_precision(tmp_path):
    sc = reference_scenario(mode="cbc")
    sc = replace(sc, max_steps=4, convergence_tol=0.0)
    log = sim.run(sc)
    log.write(tmp_path, stem="traj")
    text = (tmp_path / "traj.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert header == (
        ["step", "t", "e_norm"]
        + [f"h_{i}" for i in (1, 2, 3, 4)]
        + ["min_dist", "dis_px"]
        + [f"vstar_{i}" for i in range(1, 7)]
        + [f"vmpc_{i}" for i in range(1, 7)]
        + ["filter_status"]
    )
    # 17 significant digit round trip
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == log.records[0].e_norm
    assert float(row[3]) == log.records[0].h[0]
    assert (tmp_path / "traj_summary.json").exists()


def test_summary_recomputable_from_records():
    sc = reference_scenario(mode="cbc")
    log = sim.run(sc)
    s = log.summary
    assert s.min_h == min(r.h.min() for r in log.records)
    assert s.min_dis_px == min(r.dis_px for r in log.records)
    assert s.occlusion_steps == sum(1 for r in log.records if r.h.min() < 0)
    assert s.steps == len(log.records)
    # run-long minimum of the barrier row magnitude is tracked and nonzero
    assert s.min_row_inf == min(r.min_row_inf for r in log.records)
    assert 0.0 < s.min_row_inf < np.inf


def test_sweep_single_trial_zero_variance():
    sc = reference_scenario(mode="cbc")  # noiseless: deterministic outcome
    res = sim.sweep(sc, np.array([[0.43, 0.23, 0.10]]), trials_per_location=1, jobs=1)
    rows = res.aggregate_rows()
    assert rows[0]["var_dis"] == 0.0
    assert rows[0]["trials"] == 1


def test_sweep_aggregate_identity():
    sc = reference_scenario(mode="prcbc", noisy=True, seed=300)
    sc = replace(sc, max_steps=60)
    locs = np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]])
    res = sim.sweep(sc, locs, trials_per_location=3, jobs=1)
    for i, row in enumerate(res.aggregate_rows()):
        dis = np.array([log.summary.min_dis_px for log in res.logs[3 * i : 3 * i + 3]])
        assert abs(row["mean_dis"] - dis.mean()) < 1e-9
        assert abs(row["var_dis"] - dis.var()) < 1e-9


def test_sweep_schedule_independence():
    sc = reference_scenario(mode="prcbc", noisy=True, seed=511)
    sc = replace(sc, max_steps=50)
    locs = np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]])
    seq = sim.sweep(sc, locs, trials_per_location=2, jobs=1)
    par = sim.sweep(sc, locs, trials_per_location=2, jobs=2)
    assert seq.aggregate_csv() == par.aggregate_csv()
    for a, b in zip(seq.logs, par.logs):
        assert a.csv_text() == b.csv_text()
    assert np.array_equal(seq.seeds, par.seeds)


def test_sweep_trial_seeds_are_offsets():
    sc = reference_scenario(mode="prcbc", noisy=True, seed=1000)
    sc = replace(sc, max_steps=5)
    res = sim.sweep(sc, np.array([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]]), trials_per_location=2)
    assert res.seeds.tolist() == [[1000, 1001], [1002, 1003]]


def test_sweep_rejects_bad_arguments():
    sc = reference_scenario()
    with pytest.raises(ValueError):
        sim.sweep(sc, np.zeros((2, 3)), trials_per_location=0)
    with pytest.raises(ValueError):
        sim.sweep(sc, np.zeros((2, 2)), trials_per_location=1)


def test_with_obstacle_start_translates_schedule():
    sc = reference_scenario()
    moved = sc.with_obstacle_start([1.0, 2.0, 3.0])
    shift = np.array([1.0, 2.0, 3.0]) - sc.obstacle.points[0]
    assert np.allclose(moved.obstacle.points, sc.obstacle.points + shift)
    assert np.array_equal(moved.obstacle.times, sc.obstacle.times)
