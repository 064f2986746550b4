"""One torus type: `CircleManifold` is a `TorusManifold` is a `TorusSpec`.

The circle inherits its geometry from the torus; these tests hold it to the
closed forms of the circle ``x = r cos(theta), p = r sin(theta)``.
"""

import dataclasses
import math

import numpy as np
import pytest

from symwave.capacity import TorusSpec, keller_maslov_check, loop_action
from symwave.flows import harmonic_hamiltonian
from symwave.waveforms import CircleManifold, FlowedManifold, TorusManifold, is_quantized

THETAS = np.concatenate([np.linspace(-7.0, 7.0, 1401),
                         [math.pi, -math.pi, 2 * math.pi, -2 * math.pi]])


def test_class_chain():
    assert issubclass(CircleManifold, TorusManifold) and issubclass(TorusManifold, TorusSpec)
    assert dataclasses.fields(TorusManifold) == dataclasses.fields(TorusSpec)
    own = {k for k in vars(CircleManifold) if not k.startswith("__") or k == "__init__"}
    assert own == {"__init__", "radius"}


@pytest.mark.parametrize("r", [0.3, 1.0, 1.7])
def test_circle_matches_closed_forms(r):
    c = CircleManifold(r)
    assert c.radius == r and c.radii == (r,) and c.flat_dims == 0
    assert c.n == c.param_dim == 1
    for th in THETAS:
        assert np.array_equal(c.point(th), [r * math.cos(th), r * math.sin(th)])
        frame = c.tangent_frame(th)
        assert np.array_equal(frame.X, [[-math.sin(th)]])
        assert np.array_equal(frame.P, [[math.cos(th)]])
        lift = c.cover_lift(th)
        assert lift.w.shape == (1, 1) and lift.w[0, 0] == np.exp(2j * th)
        assert lift.alpha == 2.0 * th
        for mu in range(-3, 4):
            assert np.array_equal(c.deck(th, mu), [th + 2 * math.pi * mu])
    for mu in range(-9, 10):
        assert c.loop_index(mu) == 2 * mu
        # the torus sums -pi (mu r^2), the closed form is (-pi r^2) mu: equal
        # up to the rounding of one product
        assert c.loop_integral(mu) == pytest.approx(-math.pi * r * r * mu, rel=1e-15, abs=0)


def test_one_circle_takes_a_scalar_winding():
    c = CircleManifold(1.3)
    assert np.array_equal(c.deck(0.4, 2), c.deck(0.4, [2]))
    assert c.loop_index(-1) == c.loop_index([-1]) == -2
    assert c.loop_integral(3) == c.loop_integral([3])
    assert loop_action(TorusSpec((1.3,)), 1) == loop_action(TorusSpec((1.3,)), [1])
    with pytest.raises(ValueError):
        c.deck(0.4, [1, 1])
    two = TorusManifold((1.0, 2.0), flat_dims=1)
    for call in (lambda: two.deck([0.0, 0.0, 0.0], 1), lambda: two.loop_index(1),
                 lambda: two.loop_integral(1), lambda: loop_action(two, 1)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("levels, quantized", [((1,), True), ((1.02,), False),
                                               ((0, 2), True), ((1, 1.5), False)])
def test_quantization_checks_accept_every_torus_type(levels, quantized):
    hbar = 0.5
    radii = tuple(math.sqrt((2 * k + 1) * hbar) for k in levels)
    tori = [TorusSpec(radii), TorusManifold(radii)]
    if len(radii) == 1:
        tori.append(CircleManifold(radii[0]))
    reports = [keller_maslov_check(t, hbar) for t in tori]
    assert all(rep == reports[0] for rep in reports)
    assert [rep.passed for rep in reports] == [quantized] * len(tori)
    assert [is_quantized(t, hbar) for t in tori] == [quantized] * len(tori)
    flowed = FlowedManifold(tori[-1], harmonic_hamiltonian([1.0] * len(radii)), 0.0, 0.5,
                            steps=10)
    assert is_quantized(flowed, hbar) is quantized


def test_torus_validation():
    for bad in (dict(radii=()), dict(radii=(1.0, 0.0)), dict(radii=(1.0,), flat_dims=-1),
                dict(radii=(1.0,), flat_dims=1.5)):
        for cls in (TorusSpec, TorusManifold):
            with pytest.raises(ValueError):
                cls(**bad)
    spec = TorusSpec([1, 2], flat_dims=2.0)
    assert spec.radii == (1.0, 2.0) and type(spec.flat_dims) is int and spec.n == 4
