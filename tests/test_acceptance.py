"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criteria with runtime budgets assert wall time too.
"""

import time

import numpy as np
import pytest
import yaml
from scipy.integrate import dblquad

from safe_ibvs import oracles, sim
from safe_ibvs.barrier import noise_box_halfwidth
from safe_ibvs.cli import EXIT_OK, main

from conftest import SCENARIOS, shipped


def _criterion(num, cond, detail):
    status = "PASS" if cond else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert cond, f"criterion {num}: {detail}"


def test_criterion_1_noiseless_invariance():
    t0 = time.monotonic()
    filtered = sim.run(shipped("reference_cbc"))
    unfiltered = sim.run(shipped("reference_cbc", mode="unfiltered"))
    elapsed = time.monotonic() - t0
    ok = (
        filtered.summary.min_h >= -1e-6
        and not filtered.summary.aborted
        and unfiltered.summary.min_h < 0.0
        and elapsed <= 10.0
    )
    _criterion(
        1,
        ok,
        f"noiseless half-space filter keeps min margin {filtered.summary.min_h:.3e} >= -1e-6 "
        f"while the unfiltered run dips to {unfiltered.summary.min_h:.3e} [{elapsed:.1f}s <= 10s]",
    )


def test_criterion_2_cbc_fails_under_noise():
    t0 = time.monotonic()
    occluded = 0
    for seed in range(20):
        log = sim.run(shipped("reference_noise", mode="cbc", seed=100 + seed))
        occluded += log.summary.occlusion_steps > 0
    elapsed = time.monotonic() - t0
    ok = occluded >= 1 and elapsed <= 60.0
    _criterion(
        2,
        ok,
        f"pixel noise defeats the exact filter in {occluded}/20 seeds (need >= 1) "
        f"[{elapsed:.1f}s <= 60s]",
    )


def test_criterion_3_prcbc_succeeds_under_noise():
    t0 = time.monotonic()
    clean = 0
    for seed in range(20):
        s = sim.run(shipped("reference_noise", seed=200 + seed, sigma=0.8)).summary
        clean += s.occlusion_steps == 0 and s.final_e_norm < 1e-2 and not s.aborted
    elapsed = time.monotonic() - t0
    ok = clean >= 18 and elapsed <= 120.0
    _criterion(
        3,
        ok,
        f"chance-constrained filter at confidence 0.8: {clean}/20 seeds occlusion-free with "
        f"final error < 1e-2 (need >= 18) [{elapsed:.1f}s <= 120s]",
    )


def test_criterion_4_sweep_protocol():
    t0 = time.monotonic()
    template = shipped("reference_noise", seed=5000, sigma=0.9)
    locations = np.asarray(yaml.safe_load((SCENARIOS / "sweep_locations.yaml").read_text()), dtype=float)
    result = sim.sweep(template, locations, trials_per_location=10, jobs=4)
    elapsed = time.monotonic() - t0
    means = [row["mean_dis"] for row in result.aggregate_rows()]
    positive = int(np.sum(result.dis > 0.0))
    ok = all(m > 0.0 for m in means) and positive >= 45 and elapsed <= 300.0
    _criterion(
        4,
        ok,
        f"confidence 0.9 sweep: per-location mean clearance {[f'{m:.1f}' for m in means]} px all > 0, "
        f"{positive}/50 trials with positive clearance (need >= 45) [{elapsed:.1f}s <= 300s]",
    )


def test_criterion_5_chance_constraint_oracle():
    report = oracles.chance_suite(sigma_levels=(0.8, 0.9), n_states=50, n_draws=10000, seed=7)
    _criterion(5, report.passed, "; ".join(report.lines))


def test_criterion_6_jacobian_oracle():
    report = oracles.jacobian_suite(seed=0, n_states=100)
    _criterion(6, report.passed, "; ".join(report.lines))


def test_criterion_7_solver_oracles():
    report = oracles.solver_suite(seed=0, n_qp=1000, n_qcqp=200)
    _criterion(7, report.passed, "; ".join(report.lines))


def test_criterion_8_halfwidth_quadrature():
    worst = 0.0
    for sigma in (0.5, 0.8, 0.9, 0.99):
        for nu in (0.1, 1.0, 10.0):
            cov = nu**2 * np.eye(2)
            e = noise_box_halfwidth(sigma, cov)

            def density(y, x):
                return np.exp(-0.5 * (x * x + y * y) / nu**2) / (2.0 * np.pi * nu**2)

            prob, _ = dblquad(density, -e, e, -e, e, epsabs=1e-10, epsrel=1e-10)
            worst = max(worst, abs(prob - sigma))
    ok = worst <= 1e-6
    _criterion(8, ok, f"box half-width inversion vs 2-D quadrature: worst probability gap {worst:.2e} <= 1e-6")


def test_criterion_9_determinism(tmp_path):
    with open(SCENARIOS / "reference_noise.yaml") as fh:
        data = yaml.safe_load(fh)
    data["max_steps"] = 40
    scenario_path = tmp_path / "small.yaml"
    scenario_path.write_text(yaml.safe_dump(data))
    locs_path = tmp_path / "locs.yaml"
    locs_path.write_text(yaml.safe_dump([[0.43, 0.23, 0.10], [0.40, 0.20, 0.08]]))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_args = ["run", "--scenario", str(scenario_path), "--seed", "11"]
    assert main(run_args + ["--out", str(out_a)]) == EXIT_OK
    assert main(run_args + ["--out", str(out_b)]) == EXIT_OK
    runs_equal = (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    sweep_a, sweep_b = tmp_path / "s1", tmp_path / "s2"
    sweep_args = ["sweep", "--scenario", str(scenario_path), "--locations", str(locs_path), "--trials", "2"]
    assert main(sweep_args + ["--jobs", "1", "--out", str(sweep_a)]) == EXIT_OK
    assert main(sweep_args + ["--jobs", "2", "--out", str(sweep_b)]) == EXIT_OK
    names = ["aggregate.csv", "sweep_summary.json"] + [
        f"trial_{i:02d}_{j:02d}.csv" for i in range(2) for j in range(2)
    ]
    sweeps_equal = all((sweep_a / n).read_bytes() == (sweep_b / n).read_bytes() for n in names)

    ok = runs_equal and sweeps_equal
    _criterion(
        9,
        ok,
        f"repeated runs byte-identical: {runs_equal}; sweep outputs independent of --jobs: {sweeps_equal}",
    )
