"""Controller-facing view of the scene at one time step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ObstacleImageState


@dataclass(frozen=True, eq=False)
class FeatureObservation:
    """Feature and obstacle states as the controllers see them.

    Positions may carry measurement noise; depths are always exact, and
    the interaction matrices are evaluated at the observed (possibly
    noisy) coordinates. ``l_features`` stacks one 2x6 block per feature.
    """

    features: np.ndarray  # (m, 2) normalized coordinates
    depths: np.ndarray  # (m,)
    obstacle: ObstacleImageState
    l_features: np.ndarray  # (m, 2, 6)
    l_obstacle: np.ndarray  # (2, 6)
    l_radius: np.ndarray  # (6,)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    def stacked_interaction(self) -> np.ndarray:
        return self.l_features.reshape(-1, 6)
