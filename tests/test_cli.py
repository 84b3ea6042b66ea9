import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from safe_ibvs.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, main

REPO = Path(__file__).resolve().parent.parent
REF_CBC = str(REPO / "scenarios" / "reference_cbc.yaml")
REF_NOISE = str(REPO / "scenarios" / "reference_noise.yaml")
LOCATIONS = str(REPO / "scenarios" / "sweep_locations.yaml")


@pytest.fixture
def small_scenario(tmp_path):
    """Reference scene trimmed to a handful of steps for fast CLI checks."""
    with open(REF_NOISE) as fh:
        data = yaml.safe_load(fh)
    data["max_steps"] = 30
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_check_reference_scenarios_pass(capsys):
    assert main(["check", "--scenario", REF_CBC]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["check", "--scenario", REF_NOISE]) == EXIT_OK


def test_check_rejects_unknown_key(tmp_path, capsys):
    with open(REF_CBC) as fh:
        data = yaml.safe_load(fh)
    data["surprise"] = 1
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["check", "--scenario", str(bad)]) == EXIT_CONFIG
    assert "surprise" in capsys.readouterr().out


def test_check_rejects_the_retired_radius_term_switch(tmp_path, capsys):
    # the PrCBC radius-rate term is always on, so the key that could turn it off is gone
    path = tmp_path / "switch.yaml"
    path.write_text(Path(REF_NOISE).read_text() + "prcbc_radius_term: true\n")
    assert main(["check", "--scenario", str(path)]) == EXIT_CONFIG
    assert "unknown keys ['prcbc_radius_term']" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["px", "py"])
def test_check_rejects_a_principal_point(tmp_path, capsys, key):
    # the principal point cancelled from every difference of two image points, so the camera is its focal length
    data = yaml.safe_load(Path(REF_CBC).read_text())
    data["camera"][key] = 320.0
    path = tmp_path / "principal.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["check", "--scenario", str(path)]) == EXIT_CONFIG
    assert f"camera: unknown keys ['{key}']" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "f, named", [("1.0e308", "camera.f: 1e+308 squared overflows"), ("1.0e-200", "noise:")], ids=["1.0e308", "1.0e-200"]
)
def test_check_rejects_a_focal_length_the_noise_box_cannot_take(tmp_path, capsys, f, named):
    # the pixel covariances are divided by f**2: at 1e308 run once aborted at step 0 with an OverflowError naming no
    # field, and at 1e-200 the normalized covariance is infinite
    text = Path(REF_NOISE).read_text()
    assert text.count("f: 500.0") == 1
    path = tmp_path / "focal.yaml"
    path.write_text(text.replace("f: 500.0", f"f: {f}"))
    assert main(["check", "--scenario", str(path)]) == EXIT_CONFIG
    assert named in capsys.readouterr().out


def test_check_rejects_initial_occlusion(tmp_path, capsys):
    with open(REF_CBC) as fh:
        data = yaml.safe_load(fh)
    data["obstacle"] = {"radius": 0.08, "waypoints": [{"t": 0.0, "center": [0.125, 0.125, 0.55]}]}
    bad = tmp_path / "occluded.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["check", "--scenario", str(bad)]) == EXIT_CONFIG
    assert "occlusion-free" in capsys.readouterr().out


def test_check_names_bad_weight(tmp_path, capsys):
    with open(REF_CBC) as fh:
        data = yaml.safe_load(fh)
    data["mpc"]["q"] = -1.0
    bad = tmp_path / "badq.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["check", "--scenario", str(bad)]) == EXIT_CONFIG
    assert "q" in capsys.readouterr().out


def _check_with_mpc(tmp_path, key, value) -> int:
    data = yaml.safe_load(Path(REF_CBC).read_text())
    data["mpc"][key] = value
    bad = tmp_path / "weights.yaml"
    bad.write_text(yaml.safe_dump(data))
    return main(["check", "--scenario", str(bad)])


@pytest.mark.parametrize("key, size", [("q", 8), ("r", 6), ("f", 8)])
def test_check_rejects_a_matrix_weight(tmp_path, capsys, key, size):
    # the planner weights are scalars; a full-size identity matrix once passed check
    assert _check_with_mpc(tmp_path, key, np.eye(size).tolist()) == EXIT_CONFIG
    assert f"mpc.{key}" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["q", "f"])
def test_check_rejects_a_weight_just_below_zero(tmp_path, capsys, key):
    # a -1e-9 tolerance once let q = -1e-10 through; with f = 0 and r = 1e-300 a plan then cost more than U = 0
    assert _check_with_mpc(tmp_path, key, -1.0e-10) == EXIT_CONFIG
    assert f"mpc: {key} must be finite and >= 0, got -1e-10" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "key, named",
    [("q", "q = 1e+308 and f = 2"), ("r", "r must be positive with 2 r finite, got 1e+308"), ("f", "q = 1 and f = 1e+308")],
    ids=["q", "r", "f"],
)
def test_check_rejects_a_weight_that_overflows(tmp_path, capsys, key, named):
    # q once overflowed in check itself; r = 1e308 passed check and overflowed in run, and f = 1e308 gave NaN plans
    assert _check_with_mpc(tmp_path, key, 1.0e308) == EXIT_CONFIG
    assert named in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("xyz: [0.0, 0.0, 1.1]", "xyz: [.nan, 0.0, 1.1]", "initial_pose"),
        ("convergence_tol: 5.0e-3", "convergence_tol: .nan", "convergence_tol"),
        ("f: 500.0", "f: .inf", "camera.f"),
        ("f: 500.0", "f: 0.0", "camera.f"),
        ("f: 500.0", "f: -1.0", "camera.f"),
        ("v_max: 0.5", "v_max: .inf", "mpc: v_max"),
        ("pixel_variance: 10.0", "pixel_variance: .inf", "noise: feature_cov"),
        ("gamma: 4.0", "gamma: .inf", "gamma"),
        ("q: 1.0", "q: .inf", "mpc: q"),
        ("horizon: 5", "horizon: .inf", "mpc.horizon"),
        ("max_steps: 300", "max_steps: .inf", "max_steps"),
        ("seed: 2024", "seed: .nan", "seed"),
    ],
)
def test_check_rejects_non_finite_numbers(tmp_path, capsys, old, new, named):
    # each of these once passed check (run then aborted, never converged, held every step or wrote NaN
    # clearances), raised a traceback in check, or failed it with a RuntimeWarning and no field name
    text = Path(REF_NOISE).read_text()
    assert text.count(old) == 1
    bad = tmp_path / "nan.yaml"
    bad.write_text(text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "--scenario", str(bad)]) == EXIT_CONFIG
    assert named in capsys.readouterr().out


def test_run_writes_outputs_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", REF_CBC, "--mode", "unfiltered", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory_summary.json").exists()
    assert "converged=True" in capsys.readouterr().out


def test_run_missing_field_exit_one(tmp_path, capsys):
    with open(REF_CBC) as fh:
        data = yaml.safe_load(fh)
    del data["camera"]
    bad = tmp_path / "missing.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "camera" in capsys.readouterr().err


def test_run_byte_identical_outputs(tmp_path, small_scenario):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", small_scenario, "--seed", "9", "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--scenario", small_scenario, "--seed", "9", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "trajectory_summary.json").read_bytes() == (out2 / "trajectory_summary.json").read_bytes()


def test_run_abort_exit_code(tmp_path, capsys):
    with open(REF_CBC) as fh:
        data = yaml.safe_load(fh)
    # send the obstacle through the camera plane mid-run: depth goes nonpositive
    data["obstacle"]["waypoints"] = [
        {"t": 0.0, "center": [0.43, 0.23, 0.10]},
        {"t": 1.0, "center": [0.0, 0.0, 2.0]},
    ]
    bad = tmp_path / "abort.yaml"
    bad.write_text(yaml.safe_dump(data))
    code = main(["run", "--scenario", str(bad), "--mode", "unfiltered", "--out", str(tmp_path / "o")])
    assert code == EXIT_ABORT
    assert "aborted" in capsys.readouterr().err


def test_sweep_zero_trials_rejected(tmp_path, capsys):
    code = main(
        ["sweep", "--scenario", REF_NOISE, "--locations", LOCATIONS, "--trials", "0", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG


def test_sweep_outputs_and_jobs_independence(tmp_path, small_scenario):
    locs = tmp_path / "locs.yaml"
    locs.write_text(yaml.safe_dump([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]]))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--scenario", small_scenario, "--locations", str(locs), "--trials", "2", "--sigma", "0.9"]
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()
    for name in ("trial_00_00.csv", "trial_00_01.csv", "trial_01_00.csv", "trial_01_01.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


def test_sweep_summary_is_strict_json_when_a_location_has_no_step(tmp_path, small_scenario):
    # the second start puts the obstacle behind the camera, so its trials abort before their first step
    locs = tmp_path / "locs.yaml"
    locs.write_text(yaml.safe_dump([[0.43, 0.23, 0.10], [0.0, 0.0, 5.0]]))
    out = tmp_path / "s"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["sweep", "--scenario", small_scenario, "--locations", str(locs), "--trials", "2", "--out", str(out)])
    assert code == EXIT_ABORT
    summary = json.loads((out / "sweep_summary.json").read_text(), parse_constant=_reject)
    # the two behind-camera trials never measured a clearance, so only the first location's two count
    assert summary["trials_dis_positive"] == 2 and summary["aborted_trials"] == 2
    rows = summary["rows"]
    assert rows[0]["mean_dis"] > 0.0 and rows[0]["var_dis"] >= 0.0 and rows[0]["aborted"] == 0
    assert rows[1]["mean_dis"] is None and rows[1]["var_dis"] is None and rows[1]["aborted"] == 2
    with open(out / "aggregate.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert float(cells[0]["mean_dis"]) == rows[0]["mean_dis"]
    assert cells[1]["mean_dis"] == cells[1]["var_dis"] == "" and cells[1]["aborted"] == "2"
    # every trial CSV shares one header, with or without steps
    headers = {(out / f"trial_{i:02d}_{j:02d}.csv").read_text().splitlines()[0] for i in range(2) for j in range(2)}
    assert len(headers) == 1 and "h_4" in headers.pop()


def test_check_then_run_subnormal_covariance(tmp_path):
    # a PSD covariance whose off-diagonal is subnormal: check accepts it, so run must end typed, here converged
    data = yaml.safe_load(Path(REF_NOISE).read_text())
    cov = [[40.0, 1.0e-314], [1.0e-314, 10.0]]
    data["noise"] = {"feature_cov": cov, "obstacle_cov": [[10.0, 0.0], [0.0, 10.0]], "sigma": 0.8}
    path = tmp_path / "subnormal.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["check", "--scenario", str(path)]) == EXIT_OK
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    summary = json.loads((tmp_path / "o" / "trajectory_summary.json").read_text())
    assert summary["converged"] and not summary["aborted"]


def test_sweep_sigma_needs_noise_model(tmp_path, capsys):
    locs = tmp_path / "locs.yaml"
    locs.write_text(yaml.safe_dump([[0.43, 0.23, 0.10]]))
    code = main(
        ["sweep", "--scenario", REF_CBC, "--locations", str(locs), "--sigma", "0.9", "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_CONFIG
    assert "noise" in capsys.readouterr().err


def test_oracle_jacobians_passes(capsys):
    assert main(["oracle", "--suite", "jacobians", "--seed", "5"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_oracle_unknown_suite_exit_one(capsys):
    assert main(["oracle", "--suite", "nonsense"]) == EXIT_CONFIG


def test_default_out_dir_env(tmp_path, small_scenario, monkeypatch):
    monkeypatch.setenv("SAFE_IBVS_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", small_scenario]) == EXIT_OK
    assert (tmp_path / "envout" / "trajectory.csv").exists()


SCIPY_REFUSED = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, RefuseScipy())
from safe_ibvs.cli import main
"""
SCIPY_BLOCKED_RUN = SCIPY_REFUSED + """
for path in sys.argv[1:]:
    assert main(["check", "--scenario", path]) == 0, path
    assert main(["run", "--scenario", path, "--out", f"{path}.out"]) == 0, path
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_check_and_run_without_scipy(tmp_path):
    paths = []
    for name, src in (("cbc", REF_CBC), ("noise", REF_NOISE), ("correlated", REF_NOISE)):
        data = yaml.safe_load(Path(src).read_text())
        data["max_steps"] = 20
        if name == "correlated":  # the numeric half-width path
            cov = [[10.0, 4.0], [4.0, 10.0]]
            data["noise"] = {"feature_cov": cov, "obstacle_cov": cov, "sigma": 0.8}
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data))
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN, *paths], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("suite", ["jacobians", "chance", "solvers"])
def test_oracle_without_scipy_exits_one_naming_the_package(suite):
    # the oracles import scipy; without it the command once ended in an ImportError traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    script = SCIPY_REFUSED + "sys.exit(main(['oracle', '--suite', sys.argv[1]]))\n"
    proc = subprocess.run([sys.executable, "-c", script, suite], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "scipy" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_sweep_refuses_a_start_that_is_already_occluded(tmp_path, capsys, monkeypatch):
    # start 1 puts the obstacle over feature 0 at t = 0 (margin -2.551e-3): the sweep once ran it, exited 0 and
    # booked the violation, which no filter could have prevented, against the filter
    from safe_ibvs import sim

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "sweep", no_trial)
    locs = tmp_path / "locs.yaml"
    locs.write_text(yaml.safe_dump([[0.43, 0.23, 0.10], [0.225, 0.225, 0.11]]))
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", REF_NOISE, "--locations", str(locs), "--trials", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "start 1 [0.225, 0.225, 0.11]: initial state not occlusion-free: feature 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["{a: 1}", "[[null, 0.2, 0.1]]", "[null, 0.2, 0.1]", "[[.nan, 0.2, 0.1]]", "[[0.43, .inf, 0.1]]", "[]", ""]
)
def test_sweep_rejects_malformed_locations(tmp_path, capsys, text):
    # the mapping once raised a traceback; the non-finite rows ran every trial to a NonPositiveDepth abort, exited
    # 2 and wrote NaN into sweep_summary.json
    locs = tmp_path / "locs.yaml"
    locs.write_text(text)
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", REF_NOISE, "--locations", str(locs), "--trials", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "locations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_check_rejects_a_seed_outside_the_philox_key_range(tmp_path, capsys, seed):
    bad = tmp_path / "seed.yaml"
    bad.write_text(Path(REF_CBC).read_text().replace("seed: 2024", f"seed: {seed}"))
    assert main(["check", "--scenario", str(bad)]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().out


def test_seed_overrides_outside_the_key_range_are_configuration_errors(tmp_path, capsys, small_scenario):
    out = tmp_path / "o"
    one = tmp_path / "one.yaml"
    one.write_text("[[0.43, 0.23, 0.10]]")

    def sweep(locations, seed):
        args = ["--locations", str(locations), "--trials", "1", "--seed", str(seed), "--out", str(out)]
        return main(["sweep", "--scenario", small_scenario, *args])

    assert main(["run", "--scenario", small_scenario, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert sweep(LOCATIONS, -3) == EXIT_CONFIG
    # five locations: the last trial seed would be 2**64 + 3
    assert sweep(LOCATIONS, 2**64 - 1) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err and not out.exists()
    # the largest key still sweeps
    assert sweep(one, 2**64 - 1) == EXIT_OK


def test_unusable_out_fails_before_the_first_trial(tmp_path, capsys, monkeypatch):
    from safe_ibvs import sim

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "run", no_trial)
    monkeypatch.setattr(sim, "sweep", no_trial)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert main(["run", "--scenario", REF_CBC, "--out", out]) == EXIT_CONFIG
    assert main(["sweep", "--scenario", REF_NOISE, "--locations", LOCATIONS, "--out", out]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, old, new, reason",
    [
        ("reference_noise", "v_max: 0.5", "v_max: 1.0e308", "OverflowError"),
        ("reference_cbc", "center: [0.43, 0.23, 0.10]", "center: [1.0e308, 0.23, 0.10]", "DegenerateConstraint"),
    ],
)
def test_checked_scene_that_overflows_runs_to_a_typed_abort(tmp_path, capsys, name, old, new, reason):
    text = (REPO / "scenarios" / f"{name}.yaml").read_text()
    assert text.count(old) == 1
    path = tmp_path / "huge.yaml"
    path.write_text(text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # float overflow on the way to the abort
        assert main(["check", "--scenario", str(path)]) == EXIT_OK
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_ABORT
    assert f"trial aborted: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["1.0e308", "1.0e154"])
def test_huge_focal_length_converges_with_a_finite_clearance(tmp_path, f):
    # the noiseless scene reads f only in the clearance f (min_dist - rn), which squares nothing; it once mapped
    # features to pixels and aborted on a distance over 1e154 px, whose square would overflow
    text = Path(REF_CBC).read_text()
    assert text.count("f: 500.0") == 1
    path = tmp_path / "huge_f.yaml"
    path.write_text(text.replace("f: 500.0", f"f: {f}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "--scenario", str(path)]) == EXIT_OK
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    summary = json.loads((tmp_path / "o" / "trajectory_summary.json").read_text())
    assert summary["converged"] and not summary["aborted"]
    assert isinstance(summary["min_dis_px"], float) and np.isfinite(summary["min_dis_px"])


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_oracle_seed_outside_the_key_range_is_a_usage_error(capsys, monkeypatch, seed):
    # it once ended in an OverflowError traceback from the Philox key; the check needs no scipy-backed import
    import safe_ibvs

    monkeypatch.delattr(safe_ibvs, "oracles", raising=False)
    monkeypatch.setitem(sys.modules, "safe_ibvs.oracles", None)  # importing the oracles now fails
    assert main(["oracle", "--suite", "solvers", "--seed", seed]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("v_max", ["1.0e-108", "1.0e-300"])
@pytest.mark.parametrize("mode", ["cbc", "prcbc", "unfiltered"])
def test_tiny_speed_bound_is_refused_or_plans_finite(tmp_path, capsys, mode, v_max):
    # check once passed these; the planner's ||U_k||^3 underflowed to 0, and run logged NaN twists (cbc,
    # prcbc) or aborted on a NaN depth (unfiltered)
    text = Path(REF_NOISE).read_text()
    assert text.count("v_max: 0.5") == text.count("mode: prcbc") == 1
    path = tmp_path / "slow.yaml"
    path.write_text(text.replace("v_max: 0.5", f"v_max: {v_max}").replace("mode: prcbc", f"mode: {mode}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if main(["check", "--scenario", str(path)]) == EXIT_CONFIG:
            assert "v_max" in capsys.readouterr().out
            return
        main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    with open(tmp_path / "o" / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and np.isfinite([[float(x) for x in row[:-1]] for row in rows]).all()
