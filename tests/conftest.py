import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as importing symwave does, before numpy

import numpy as np
import pytest

from symwave.maslov import LagrangianLift
from symwave.symplectic import LagrangianFrame


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def theta_frame(theta):
    """n=1 Lagrangian line spanned by (-sin theta, cos theta)."""
    return LagrangianFrame([[-np.sin(theta)]], [[np.cos(theta)]])


def theta_lift(theta, windings=0):
    """Lift of the n=1 line at angle theta: (e^{2 i theta}, 2 theta + 2 pi k)."""
    return LagrangianLift(
        np.array([[np.exp(2j * theta)]]), 2 * theta + 2 * np.pi * windings
    )
