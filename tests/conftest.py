import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as importing symwave does, before numpy

import numpy as np
import pytest

from symwave import maslov
from symwave.maslov import LagrangianLift
from symwave.symplectic import LagrangianFrame


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def path_lifts(monkeypatch):
    """The stacks of frames that path lifts read while the test runs.

    Every path lift (`lift_path`, `lift_path_adaptive` and the loop indices
    built on them, `transport_lift`, the flows' `_end_lifts`) unwraps
    ``arg det u`` of its samples through `maslov._arg_det_u`.
    """
    stacks = []
    read = maslov._arg_det_u
    monkeypatch.setattr(maslov, "_arg_det_u", lambda F: stacks.append(F) or read(F))
    return stacks


def theta_frame(theta):
    """n=1 Lagrangian line spanned by (-sin theta, cos theta)."""
    return LagrangianFrame([[-np.sin(theta)]], [[np.cos(theta)]])


def theta_lift(theta, windings=0):
    """Lift of the n=1 line at angle theta: (e^{2 i theta}, 2 theta + 2 pi k)."""
    return LagrangianLift(
        np.array([[np.exp(2j * theta)]]), 2 * theta + 2 * np.pi * windings
    )
