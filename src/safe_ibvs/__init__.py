"""Occlusion-free image-based visual servoing.

A planner-plus-filter control stack for eye-in-hand visual servoing:
a finite-horizon planner regulates the image feature error while
barrier-certificate safety filters (exact or chance-constrained)
minimally modify the commanded camera twist so that feature points are
never occluded by a moving spherical obstacle, plus a deterministic
closed-loop simulator reproducing the accompanying experiments.
"""

from .barrier import (
    NoiseModel,
    Observation,
    barrier_rate_row,
    barrier_value,
    cbc_halfspaces,
    noise_box_halfwidth,
    prcbc_quadratics,
)
from .geometry import (
    CameraPose,
    Obstacle3,
    ObstacleImageState,
    integrate_twist,
    obstacle_image_state,
    project_point,
    world_to_camera,
)
from .ibvs import clip_twist, feature_error, gradient_controller, pseudo_inverse
from .jacobians import feature_interaction, obstacle_radius_interaction
from .mpc import MpcConfig, plan
from .scenario import Scenario, load, validate_scenario
from .sim import TrajectoryLog, observe, run, step, sweep
from .solvers import (
    FilterProblem,
    FilterSolution,
    certify,
    solve_filter_qcqp,
    solve_filter_qp,
)

__version__ = "0.1.0"
