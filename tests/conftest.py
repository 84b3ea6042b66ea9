from pathlib import Path

import numpy as np
import pytest

from safe_ibvs import scenario
from safe_ibvs.geometry import CameraPose, se3_exp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name, mode=None, seed=None, sigma=None):
    """The shipped scene ``scenarios/<name>.yaml``, optionally with another mode, seed or confidence level."""
    sc = scenario.load(SCENARIOS / f"{name}.yaml")
    if mode is not None:
        sc = sc.with_mode(mode)
    if seed is not None:
        sc = sc.with_seed(seed)
    if sigma is not None:
        sc = sc.with_sigma(sigma)
    return sc


def downward_pose(translation, wiggle=(0.0, 0.0, 0.0)):
    """Camera above the z=0 plane looking down, with a small rotation offset."""
    down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    rot, _ = se3_exp(np.concatenate([np.zeros(3), np.asarray(wiggle, dtype=float)]))
    return CameraPose(down @ rot, np.asarray(translation, dtype=float))


@pytest.fixture
def pose_above():
    return downward_pose([0.1, -0.05, 1.2], wiggle=[0.05, -0.08, 0.1])
