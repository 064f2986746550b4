"""Trajectories integrated per call on the ``evolve`` path.

Each trajectory is integrated once: a Morse window is one flow, a Van Vleck
Newton evaluation is one flow whose path also serves the conjugate-point
scan and the action, and ``run_evolve`` reads its x0 trajectory from the
flowed manifold.  A grid position past a fold gives up after a few flows.
The counts below pin that down, and that a quadratic step matrix is built
once per (generator, time step), however many flows repeat it.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from symwave import flows
from symwave.cli import run_evolve
from symwave.errors import NumericalError
from symwave.flows import harmonic_hamiltonian, quartic_hamiltonian, two_point_action
from symwave.polynomials import Polynomial
from symwave.waveforms import (FlowedManifold, GradientGraphManifold,
                               morse_index, van_vleck_propagate)


@pytest.fixture
def integrations(monkeypatch):
    """One ``(z0, t0, t1, steps)`` key per trajectory the integrators run."""
    keys = []
    original = flows._integrate_raw

    def counted(H, z0, t0, t1, steps):
        keys.append((np.asarray(z0, dtype=float).tobytes(), t0, t1, steps))
        return original(H, z0, t0, t1, steps)

    monkeypatch.setattr(flows, "_integrate_raw", counted)
    return keys


@pytest.mark.parametrize("t_end, focal_points", [
    (0.5 * math.pi, 0), (1.5 * math.pi, 1), (2.5 * math.pi, 2)],
    ids=["no-focal-point", "one-focal-point", "two-focal-points"])
def test_morse_window_integrates_once(integrations, t_end, focal_points):
    H = quartic_hamiltonian([1.0], 0.1)
    assert morse_index(H, [0.3], [0.4], 0.0, t_end) == focal_points
    assert len(integrations) == 1


def test_quartic_van_vleck_integrates_each_source_once(integrations):
    H = quartic_hamiltonian([1.0], 0.1)
    phi = Polynomial(1, [(0.2, (1,)), (0.25, (2,))])
    grid = np.linspace(0.3, 1.1, 5)
    grads = []
    grad = phi.grad

    def counted_grad(x):
        grads.append(np.array(x, dtype=float))
        return grad(x)

    phi.grad = counted_grad
    values = van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 0.8, grid, 0.05)
    assert np.all(np.isfinite(values))
    # one flow per Newton evaluation (a gradient lookup of phi), and no
    # trajectory twice: the converged path serves the scan and the action
    assert len(integrations) == len(grads)
    assert len(set(integrations)) == len(integrations)
    assert len(grid) <= len(integrations) <= 4 * len(grid)


@pytest.mark.parametrize("grid, most", [(np.linspace(0.3, 1.3, 8), 49), ([1.3], 20)],
                         ids=["eight-points", "one-point"])
def test_van_vleck_fold_fails_fast(integrations, grid, most):
    # the flowed graph tops out at x ~ 1.243: the solve for 1.3 stalls, and
    # a stalled step gives up after a few halvings, each one quartic flow
    H = quartic_hamiltonian([1.0], 0.1)
    phi = Polynomial(1, [(0.2, (1,)), (0.25, (2,))])
    with pytest.raises(NumericalError, match=r"no source point found for grid position \[1\.3\]"):
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 0.8, grid, 0.05)
    assert len(integrations) <= most


def test_evolve_run_integrates_no_trajectory_twice(integrations):
    params = {
        "hamiltonian": {"kind": "quartic", "omegas": [1.0], "coupling": 0.1},
        "state": {"phi": [0.0, 0.2, 0.25], "amplitude": "gaussian",
                  "sigma": 0.5, "x0": 0.6},
        "hbar": 0.05, "t_end": 0.7, "steps": 200,
        "x_grid": {"min": 0.5, "max": 1.0, "count": 3},
        "morse_windows": [[0.0, 1.0], [0.0, 4.0]],
        "index_points": 3,
    }
    _, results, _ = run_evolve(params, seed=0)
    assert [row["count"] for row in results["morse"]] == [0, 1]
    assert len(set(integrations)) == len(integrations)


def test_stationary_evolve_run_integrates_nothing(integrations):
    params = {
        "hamiltonian": {"kind": "quartic", "omegas": [1.0], "coupling": 0.1},
        "state": {"phi": [0.0, 0.2, 0.25], "x0": 0.6},
        "hbar": 0.05, "t_end": 0.0,
        "x_grid": {"min": 0.5, "max": 1.0, "count": 3},
    }
    _, results, _ = run_evolve(params, seed=0)
    assert integrations == []
    assert [row["t"] for row in results["trajectory"]["samples"]] == [0.0]
    assert results["phase"]["start"] == results["phase"]["end"]


def test_flowed_manifold_integrates_each_parameter_once(integrations):
    base = GradientGraphManifold(Polynomial(1, [(0.2, (1,)), (0.25, (2,))]))
    man = FlowedManifold(base, harmonic_hamiltonian([1.0]), 0.0, 0.4, steps=50)
    times, points, jacs, action, turns = man.path([0.7])
    assert man.path(np.array([0.7])) is man.path([0.7])
    assert np.array_equal(man.point([0.7]), points[-1])
    assert man.action([0.7]) == action[-1]
    man.tangent_frame([0.7])
    man.cover_lift([0.7])
    assert len(integrations) == 1
    for arr in (points, turns):
        with pytest.raises(ValueError):
            arr[-1] = 0.0


def test_flowed_manifold_keeps_one_flow_line():
    base = GradientGraphManifold(Polynomial(1, [(0.2, (1,)), (0.25, (2,))]))
    man = FlowedManifold(base, harmonic_hamiltonian([1.0]), 0.0, 0.4, steps=50)
    first = weakref.ref(man.path([0.1])[2])
    man.path([0.2])
    gc.collect()
    assert first() is None


def test_quadratic_step_matrix_is_built_once_per_time_step(monkeypatch):
    calls = []
    expm = flows._expm

    def counted(a):
        calls.append(a.copy())
        return expm(a)

    monkeypatch.setattr(flows, "_expm", counted)
    flows._quadratic_step.cache_clear()
    H = harmonic_hamiltonian([1.3])
    for k in range(200):
        res = two_point_action(H, [0.1 + 0.002 * k], [0.4], 0.0, (0.7, 1.9)[k % 2])
        assert res["endpoint"][0] == pytest.approx(0.4, abs=1e-10)
    assert len(calls) <= 2
    step = flows._quadratic_step(H.matrix.tobytes(), H.n, 0.7)
    assert np.array_equal(step, expm(0.7 * (flows._jmat(1) @ H.matrix)))
    with pytest.raises(ValueError):
        step[0, 0] = 0.0
