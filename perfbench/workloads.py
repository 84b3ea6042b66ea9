"""The benchmark's workloads: seeded closed-loop trials and their output checks.

Each workload turns the benchmark seed into an endless, reproducible
sequence of units. A unit is timed calls into the public API (one or
more ``sim.run`` trials, or one in-process ``safe-ibvs sweep``), plus
the check of what they produced. The program only ever sees generated
``Scenario`` objects and CLI arguments.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from safe_ibvs import cli, sim
from safe_ibvs.solvers import STATUS_FALLBACK

MARGIN_TOL = 1e-6  # acceptance criterion 1's bound on the exact filter's min margin
SWEEP_SIGMA = 0.9  # confidence level of the paper's sweep protocol (criterion 4)
LOCATIONS_FILE = "scenarios/sweep_locations.yaml"
BOX_STARTS = 5  # cbc_exact obstacle starts per unit


@dataclass
class TrialOutcome:
    trial_id: str
    steps: int
    hold_steps: int
    occlusion_free: bool
    digest: str  # SHA-256 of the trial's CSV
    problems: list[str] = field(default_factory=list)  # failed output checks
    completed: bool = True  # False when the call raised or wrote no output


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failed(trial_id: str, problem: str) -> TrialOutcome:
    return TrialOutcome(trial_id, 0, 0, False, "", [problem], completed=False)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


class RunUnit:
    """Consecutive ``sim.run`` trials; ``check`` inspects the returned logs."""

    def __init__(self, trials: list[tuple[str, object]], check_summary):
        self.ids = [trial_id for trial_id, _ in trials]
        self.scenarios = [sc for _, sc in trials]
        self._check_summary = check_summary

    def call(self):
        return [sim.run(sc) for sc in self.scenarios]

    def check(self, logs, steps_timed: int) -> list[TrialOutcome]:
        outcomes = []
        for trial_id, log in zip(self.ids, logs):
            s = log.summary
            problems = list(self._check_summary(s))
            if s.aborted:
                problems.append(f"aborted: {s.abort_reason}")
            digest = _sha256(log.csv_text().encode())
            outcomes.append(TrialOutcome(trial_id, s.steps, s.fallback_steps, s.occlusion_steps == 0, digest, problems))
        total_steps = sum(log.summary.steps for log in logs)
        if steps_timed != total_steps:
            for o in outcomes:
                o.problems.append(f"{steps_timed} sim.step calls timed, summaries say {total_steps} steps")
        return outcomes

    def failed(self, problem: str) -> list[TrialOutcome]:
        return [_failed(trial_id, problem) for trial_id in self.ids]

    def cleanup(self) -> None:
        pass


def _read_trial_csv(path: Path) -> tuple[int, int, bool]:
    """(steps, hold steps, occlusion free) of one trial CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    h_cols = [c for c in (rows[0] if rows else {}) if c.startswith("h_")]
    holds = sum(1 for r in rows if r["filter_status"].startswith(STATUS_FALLBACK))
    free = all(float(r[c]) >= 0.0 for r in rows for c in h_cols)
    return len(rows), holds, free


class SweepUnit:
    """One in-process ``safe-ibvs sweep`` call; ``check`` reads what it wrote."""

    def __init__(self, argv_base: list[str], base_seed: int, n_locations: int, work_dir: Path):
        self.base_seed = base_seed
        self.trials = n_locations
        self.out = Path(tempfile.mkdtemp(prefix=f"sweep{base_seed}_", dir=work_dir))
        self.argv = argv_base + ["--seed", str(base_seed), "--out", str(self.out)]

    def _ids(self) -> list[str]:
        return [f"sweep{self.base_seed}/trial_{i:02d}_00" for i in range(self.trials)]

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code: int, steps_timed: int) -> list[TrialOutcome]:
        if code != 0:
            return self.failed(f"sweep exited with code {code}")
        outcomes = []
        for i, trial_id in enumerate(self._ids()):
            path = self.out / f"trial_{i:02d}_00.csv"
            if not path.is_file():
                outcomes.append(_failed(trial_id, f"missing {path.name}"))
                continue
            steps, holds, free = _read_trial_csv(path)
            outcomes.append(TrialOutcome(trial_id, steps, holds, free, _sha256(path.read_bytes())))
        problems = self._summary_problems(outcomes, steps_timed)
        if problems:
            for o in outcomes:
                o.problems.extend(problems)
        return outcomes

    def _summary_problems(self, outcomes: list[TrialOutcome], steps_timed: int) -> list[str]:
        summary = json.loads((self.out / "sweep_summary.json").read_text())
        violating = sum(1 for o in outcomes if not o.occlusion_free)
        expected = {
            "trials_total": self.trials,
            "aborted_trials": 0,
            "violation_trials": violating,
        }
        problems = [f"sweep_summary {k}={summary.get(k)}, CSVs give {v}" for k, v in expected.items() if summary.get(k) != v]
        row_violations = sum(row["violations"] for row in summary["rows"])
        if row_violations != violating:
            problems.append(f"per-location violations sum to {row_violations}, CSVs give {violating}")
        total_steps = sum(o.steps for o in outcomes)
        if steps_timed != total_steps:
            problems.append(f"{steps_timed} sim.step calls timed, trial CSVs hold {total_steps} rows")
        return problems

    def failed(self, problem: str) -> list[TrialOutcome]:
        return [_failed(t, problem) for t in self._ids()]

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class Workload:
    """Base: the warm-up trial and every unit derive from the seed."""

    name = ""
    why = ""

    def __init__(self, sc, scenario_file: Path, seed: int, work_dir: Path):
        self.sc = sc
        self.scenario_file = scenario_file
        self.root = scenario_file.parent.parent
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> None:
        """One untimed trial of the workload's scenario, so lazy set-up is done before timing."""
        sim.run(self.sc.with_seed(_draw_seed(self.rng)))

    def next_unit(self):
        raise NotImplementedError


class SweepPrcbc(Workload):
    name = "sweep_prcbc"
    why = (
        "Runs cli.main(['sweep', ...]) in-process on reference_noise.yaml with --sigma 0.9, the five "
        "shipped starts and --jobs 1: the paper's sweep protocol (criterion 4) and the exact user path "
        "of YAML load, validation, sweep, aggregation and per-trial CSV writes. The filter QCQP takes "
        "about 75% of step time here, and phase-I dominates the tail."
    )

    def __init__(self, *args):
        super().__init__(*args)
        locations = self.root / LOCATIONS_FILE
        self.n_locations = len(yaml.safe_load(locations.read_text()))
        self.argv_base = [
            "sweep",
            "--scenario", str(self.scenario_file),
            "--locations", str(locations),
            "--trials", "1",
            "--sigma", str(SWEEP_SIGMA),
            "--jobs", "1",
        ]

    def next_unit(self):
        return SweepUnit(self.argv_base, _draw_seed(self.rng), self.n_locations, self.work_dir)


def _check_exact(s) -> list[str]:
    problems = []
    if s.fallback_steps:
        problems.append(f"{s.fallback_steps} hold steps")
    if not s.min_h >= -MARGIN_TOL:
        problems.append(f"min margin {s.min_h} < -{MARGIN_TOL}")
    return problems


def _start_trials(sc, starts) -> list[tuple[str, object]]:
    return [(f"start[{','.join(f'{x:.9f}' for x in p)}]", sc.with_obstacle_start(p)) for p in starts]


class CbcShipped(Workload):
    name = "cbc_shipped"
    why = (
        "sim.run on noiseless reference_cbc.yaml from the five starts shipped in sweep_locations.yaml: "
        "the half-space QP path of the filter layer with one observe per step. The work is fixed, so the "
        "seed changes nothing; cbc_exact draws starts by the seed but is not gated, as some draws fail."
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.starts = np.asarray(yaml.safe_load((self.root / LOCATIONS_FILE).read_text()), dtype=float)

    def next_unit(self):
        return RunUnit(_start_trials(self.sc, self.starts), _check_exact)


class CbcExact(CbcShipped):
    name = "cbc_exact"
    why = (
        "sim.run on noiseless reference_cbc.yaml from obstacle starts drawn by the seed, uniformly from "
        "the bounding box of sweep_locations.yaml. It takes the half-space QP path of the filter layer "
        "with one observe per step and no noise; many steps are pass-through, so filter gains show in "
        "step_ms_p99 and steps_per_s rather than in step_ms_p50."
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.low, self.high = self.starts.min(axis=0), self.starts.max(axis=0)

    def next_unit(self):
        # A Latin hypercube of BOX_STARTS draws: still uniform over the box, but every unit
        # holds the same spread of short and long trials, so the timed mix varies less by seed.
        strata = np.stack([self.rng.permutation(BOX_STARTS) for _ in self.low], axis=1)
        unit = (strata + self.rng.random(strata.shape)) / BOX_STARTS
        return RunUnit(_start_trials(self.sc, self.low + unit * (self.high - self.low)), _check_exact)


def _check_converged(s) -> list[str]:
    return [] if s.converged else [f"did not converge (final error {s.final_e_norm})"]


class UnfilteredNoise(Workload):
    name = "unfiltered_noise"
    why = (
        "sim.run on reference_noise.yaml with with_mode('unfiltered') and seeded noise. The filter layer "
        "is bypassed: the planner takes about 65% of step time, and observe, projection and integrate "
        "about 27%. Filter changes should not move it; planner and geometry changes should."
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.sc = self.sc.with_mode("unfiltered")

    def next_unit(self):
        seed = _draw_seed(self.rng)
        return RunUnit([(f"seed{seed}", self.sc.with_seed(seed))], _check_converged)


WORKLOADS = {w.name: w for w in (SweepPrcbc, CbcShipped, CbcExact, UnfilteredNoise)}
