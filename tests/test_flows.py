"""Flow integration, variational transport, and action diagnostics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from symwave.errors import ConjugatePointError, DivergenceError, RefinementError
from symwave.flows import (
    HamiltonianSpec,
    chapman_kolmogorov_residual,
    flow_map,
    flow_path,
    hamilton_jacobi_residual,
    harmonic_hamiltonian,
    quadratic_action_shortcut,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    two_point_action,
    Trajectory,
)
from symwave.flows import (
    _YOSHIDA_W0,
    _YOSHIDA_W1,
    _hamiltonian_gradient,
    _hamiltonian_value,
    _trapezoid_action,
    _vector_field,
)
from symwave.symplectic import _symplectic_defect, random_lagrangian_frame
from symwave.waveforms import CircleManifold, FlowedManifold, morse_index


def harmonic_action_closed_form(x, x_start, tau):
    # Hamilton's principal function of the unit oscillator; validated
    # against the Hamilton-Jacobi equation by test_closed_form_satisfies_hj
    return ((x**2 + x_start**2) * np.cos(tau) - 2 * x * x_start) / (2 * np.sin(tau))


def test_closed_form_satisfies_hj():
    # analytic-derivative oracle: S_t + (S_x^2 + x^2)/2 = 0 identically
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, x0 = rng.uniform(-2, 2, size=2)
        tau = rng.uniform(0.2, 3.0)
        if abs(np.sin(tau)) < 0.2:
            continue
        s, c = np.sin(tau), np.cos(tau)
        s_t = -(x**2 + x0**2) / 2 - ((x**2 + x0**2) * c - 2 * x * x0) * c / (2 * s**2)
        s_x = (x * c - x0) / s
        assert abs(s_t + (s_x**2 + x**2) / 2) < 1e-10


def test_harmonic_rotation_endpoint():
    H = harmonic_hamiltonian([1.0])
    traj = flow_path(H, [1.0, 0.0], 0.0, np.pi / 2, 64)
    assert np.allclose(traj.points[-1], [0.0, -1.0], atol=1e-10)
    # quarter-period flow matrix is the clockwise rotation
    assert np.allclose(traj.jacobians[-1], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_zero_length_trajectory():
    H = harmonic_hamiltonian([1.0, 2.0])
    z0 = np.array([0.3, -0.1, 0.2, 0.5])
    traj = flow_path(H, z0, 1.5, 1.5, 10)
    assert len(traj.times) == 1
    assert np.allclose(traj.points[0], z0)
    assert traj.action[0] == 0.0
    assert traj.turns.shape == (0,)


def test_spec_validation():
    with pytest.raises(ValueError):
        quadratic_hamiltonian([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        quadratic_hamiltonian(np.eye(3))  # odd dimension
    with pytest.raises(ValueError):
        harmonic_hamiltonian([1.0, -2.0])
    with pytest.raises(ValueError):
        quartic_hamiltonian([1.0], -0.1)
    # an unknown kind is rejected when the spec is built; the harmonic
    # family is a quadratic spec, not a kind of its own, and the quadratic
    # and quartic families are the only two
    for kind in ("harmonic", "magnetic", "reparam"):
        with pytest.raises(ValueError, match="unknown Hamiltonian kind"):
            HamiltonianSpec(kind=kind, n=1)
    # a non-finite parameter is a bad input, not a divergence of the first
    # flow; the matrix check comes before the symmetry test, which warns on inf
    for bad in (
        lambda: harmonic_hamiltonian([np.nan]),
        lambda: harmonic_hamiltonian([np.inf]),
        lambda: quartic_hamiltonian([1.0], np.nan),
        lambda: quartic_hamiltonian([1.0], np.inf),
        lambda: quadratic_hamiltonian([[np.inf, 0.0], [0.0, 1.0]]),
        lambda: quadratic_hamiltonian([[np.nan, 0.0], [0.0, 1.0]]),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            bad()
    # a finite frequency whose matrix entry omega^2 overflows is refused
    # too, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="so must omega\\^2$"):
            harmonic_hamiltonian([1e200])
        with pytest.raises(ValueError, match="so must omega\\^2$"):
            quartic_hamiltonian([1e200], 0.1)
    H = harmonic_hamiltonian([1.0, 2.0])
    assert H.kind == "quadratic"
    assert np.array_equal(H.matrix, np.diag([1.0, 4.0, 1.0, 1.0]))


def _hessian_oracle(H, z):
    # the second derivative written from each family's formula
    if H.kind == "quadratic":
        return H.matrix
    x = z[:H.n]
    return np.diag(np.concatenate([H.omegas**2 + 12.0 * H.coupling * x**2, np.ones(H.n)]))


def test_gradient_hessian_fd_oracles(rng):
    specs = [
        quadratic_hamiltonian(_random_sym(rng, 4)),
        harmonic_hamiltonian([1.0, 2.0]),
        quartic_hamiltonian([1.3], 0.25),
        quartic_hamiltonian([1.0, 1.7], 0.2),
    ]
    h = 1e-5
    for H in specs:
        for _ in range(5):
            z = rng.uniform(-1, 1, size=2 * H.n)
            grad = _hamiltonian_gradient(H, z)
            hess = _hessian_oracle(H, z)
            for i in range(2 * H.n):
                e = np.zeros(2 * H.n)
                e[i] = h
                fd_g = (_hamiltonian_value(H, z + e) - _hamiltonian_value(H, z - e)) / (2 * h)
                assert abs(grad[i] - fd_g) < 5e-9 * max(1.0, abs(fd_g))
                fd_h = (_hamiltonian_gradient(H, z + e) - _hamiltonian_gradient(H, z - e)) / (2 * h)
                assert np.allclose(hess[:, i], fd_h, atol=1e-6)
            vf = _vector_field(H, z)
            assert np.allclose(vf, np.concatenate([grad[H.n:], -grad[:H.n]]))


def _random_sym(rng, m):
    a = rng.uniform(-1, 1, size=(m, m))
    return a + a.T


def test_jacobians_symplectic_every_sample(rng):
    segs = [
        (quadratic_hamiltonian(_random_sym(rng, 4)), rng.uniform(-1, 1, 4), 1.3, 300),
        (quartic_hamiltonian([1.0, 1.7], 0.2), rng.uniform(-1, 1, 4), 2.0, 2000),
    ]
    for H, z0, t1, steps in segs:
        traj = flow_path(H, z0, 0.0, t1, steps)
        assert _symplectic_defect(traj.jacobians) < 1e-10
        for k in (0, len(traj.times) // 2, len(traj.times) - 1):
            assert _symplectic_defect(traj.jacobians[k]) <= 1e-10


def _energy_drift(H, traj):
    e = _hamiltonian_value(H, traj.points)
    return float(np.max(np.abs(e - e[0])))


def test_energy_conservation(rng):
    Hq = quartic_hamiltonian([1.0], 0.3)
    traj = flow_path(Hq, [0.9, 0.2], 0.0, 1.0, 10_000)
    assert _energy_drift(Hq, traj) < 1e-8
    H2 = quadratic_hamiltonian(_random_sym(rng, 4))
    traj = flow_path(H2, rng.uniform(-1, 1, 4), 0.0, 2.0, 400)
    assert _energy_drift(H2, traj) < 1e-10


def test_divergence_reported():
    # an inverted oscillator runs off exponentially: the path reports the
    # last finite sample's time
    H = quadratic_hamiltonian(np.diag([-1.0, 1.0]))
    with pytest.raises(DivergenceError) as exc:
        flow_path(H, [1.0, 0.0], 0.0, 1000.0, 100)
    assert exc.value.last_time == 710.0


def test_quartic_divergence_reported():
    # a start far up the quartic wall overflows within the first steps
    with pytest.raises(DivergenceError) as exc:
        flow_path(quartic_hamiltonian([1.0], 0.1), [1e3, 0.0], 0.0, 1.0, 50)
    assert exc.value.last_time == 0.02


def test_quartic_run_off_after_a_coarse_step_is_a_refinement_error():
    # two Yoshida steps of 5 from x = 1 ran off as a divergence, though the
    # exact flow is bounded: the first step's turn bound was 1.1e31
    H = quartic_hamiltonian([1.0], 0.1)
    with pytest.raises(RefinementError, match="^sampled path too coarse: step 1 may turn arg det "
                       "u by 1.12488e[+]31, and the flow left the finite phase space$") as exc:
        flow_path(H, [1.0, 0.0], 0.0, 10.0, 2)
    assert isinstance(exc.value, DivergenceError) and exc.value.last_time == 5.0
    assert morse_index(H, [1.0], [0.0], 0.0, 10.0) == 3
    # x^3 overflows in the first step, and the exact family's flow itself runs off
    for H, z0, t1, steps in ((H, [1e103, 0.0], 1.0, 50),
                             (quadratic_hamiltonian(np.diag([-1.0, 1.0])), [1.0, 0.0], 1000.0, 100)):
        with pytest.raises(DivergenceError) as exc:
            flow_path(H, z0, 0.0, t1, steps)
        assert not isinstance(exc.value, RefinementError)


def test_overflowing_action_on_a_finite_path_is_reported():
    # one step from the quartic wall ends at x ~ 4e55, p ~ -5e165: finite,
    # but p**2 in H overflows, so the action of the second sample is not
    H = quartic_hamiltonian([1.17], 0.48)
    with pytest.raises(DivergenceError, match="action") as exc:
        flow_path(H, [1e3, -0.71], 0.0, 0.095, 1)
    assert exc.value.last_time == 0.0


def _view_specs():
    return [
        quadratic_hamiltonian([[1.0, 0.3], [0.3, 0.5]]),
        harmonic_hamiltonian([1.0, 2.0]),
        quartic_hamiltonian([1.0], 0.1),
    ]


@pytest.mark.parametrize("t0, t1", [(0.2, 1.1), (1.1, 0.2), (0.7, 0.7)],
                         ids=["forward", "backward", "zero-length"])
@pytest.mark.parametrize("H", _view_specs(), ids=["quadratic", "harmonic", "quartic"])
def test_views_return_the_flow_path_sample(H, t0, t1):
    n, steps = H.n, 60
    z0 = np.linspace(0.3, -0.4, 2 * n)
    traj = flow_path(H, z0, t0, t1, steps)
    times, pts, jacs, act, turns = traj
    z1, jac1, s1 = flow_map(H, z0, t0, t1, steps)
    assert np.array_equal(z1, pts[-1]) and np.array_equal(jac1, jacs[-1])
    assert s1 == act[-1]
    # one record, read by unpacking or by name
    assert isinstance(traj, Trajectory)
    for got, want in zip((traj.times, traj.points, traj.jacobians, traj.action, traj.turns),
                         (times, pts, jacs, act, turns)):
        assert got is want
    assert turns.shape == (len(times) - 1,) and np.all(turns > 0)


@pytest.mark.parametrize("H", _view_specs() + [
    quartic_hamiltonian([1.0, 1.7], 0.2)],
    ids=["quadratic", "harmonic", "quartic", "quartic-n2"])
def test_turn_bounds_cover_every_sampled_turn(H, rng):
    # each step's bound is at least the turn of arg det(P - iX) that the
    # samples show for any flowed plane [X; P], and below pi here, so the
    # unwrapped samples are unambiguous
    n = H.n
    traj = flow_path(H, rng.uniform(-1, 1, 2 * n), -0.3, 2.2, 250)
    assert traj.turns.shape == (250,) and traj.turns.max() < np.pi
    for _ in range(5):
        frames = traj.jacobians @ random_lagrangian_frame(n, rng).stacked()
        arg = np.unwrap(np.angle(np.linalg.det(frames[:, n:] - 1j * frames[:, :n])))
        assert np.all(np.abs(np.diff(arg)) <= traj.turns)


@pytest.mark.parametrize("H, z0, t1, steps, last_time", [
    (quadratic_hamiltonian(np.diag([-1.0, 1.0])), [1.0, 0.0], 1000.0, 100, 710.0),
    (harmonic_hamiltonian([1.0]), [np.nan, 0.0], 1.0, 10, 0.0),
    (harmonic_hamiltonian([1.0]), [np.nan, 0.0], 0.0, 10, 0.0),
    (harmonic_hamiltonian([1.0]), [1.0, 0.0], 1.0, 0, None),
    (harmonic_hamiltonian([1.0]), [1.0, 0.0], 1.0, -7, None),
    (harmonic_hamiltonian([1.0]), [1.0, 0.0], 1.0, 2.9, None),
    (harmonic_hamiltonian([1.0]), [1.0, 0.0], 0.0, 0, None),
    (quartic_hamiltonian([1.0], 0.1), [0.3, 0.2], 5.0, 0, None),
], ids=["overflow", "nan-start", "nan-start-zero-length", "steps-0", "steps-negative",
        "steps-fraction", "steps-0-zero-length", "steps-0-quartic"])
def test_views_diverge_like_flow_path(H, z0, t1, steps, last_time):
    # every view fails as flow_path fails: a flow leaving the finite phase
    # space with the last finite time, a step count that is not an integer
    # >= 1 (last_time None) with ValueError, before anything is integrated
    views = {
        "flow_path": lambda: flow_path(H, z0, 0.0, t1, steps),
        "flow_map": lambda: flow_map(H, z0, 0.0, t1, steps),
    }
    if t1 > 0 and last_time is not None:
        # morse_index integrates its own 2,000 steps and fails as that path does
        with pytest.raises(DivergenceError) as want:
            flow_path(H, z0, 0.0, t1, 2000)
        with pytest.raises(DivergenceError) as got:
            morse_index(H, z0[:1], z0[1:], 0.0, t1)
        assert got.value.last_time == want.value.last_time
    if last_time is None:
        # a flowed manifold refuses the step count when it is built
        views["FlowedManifold"] = lambda: FlowedManifold(CircleManifold(1.0), H, 0.0, t1, steps)
    for name, view in views.items():
        if last_time is None:
            with pytest.raises(ValueError, match="steps must be an integer >= 1"):
                view()
            continue
        with pytest.raises(DivergenceError) as exc:
            view()
        assert exc.value.last_time == last_time, name


def _reference_leapfrog(x, p, jac, dt, H):
    # reference quartic step: one Yoshida leapfrog triple on numpy arrays, with
    # the potential's gradient and Hessian evaluated afresh at every half-kick
    # and powers written as the kernel's products
    n = H.n
    w2 = H.omegas**2

    def v_grad(x):
        return w2 * x + 4.0 * H.coupling * (x * x * x)

    def v_hess_diag(x):
        return w2 + 12.0 * H.coupling * (x * x)

    for w in (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1):
        h = w * dt
        p = p - 0.5 * h * v_grad(x)
        jac[n:] -= 0.5 * h * v_hess_diag(x)[:, None] * jac[:n]
        x = x + h * p
        jac[:n] += h * jac[n:]
        p = p - 0.5 * h * v_grad(x)
        jac[n:] -= 0.5 * h * v_hess_diag(x)[:, None] * jac[:n]
    return x, p, jac


def _reference_path(H, z0, times):
    # the reference steps over the sample times; overflow runs on as inf/nan
    n = H.n
    ref_pts = np.empty((len(times), 2 * n))
    ref_jacs = np.empty((len(times), 2 * n, 2 * n))
    ref_pts[0], ref_jacs[0] = z0, np.eye(2 * n)
    x, p, jac = np.array(z0[:n], dtype=float), np.array(z0[n:], dtype=float), np.eye(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            x, p, jac = _reference_leapfrog(x, p, jac.copy(), times[1] - times[0], H)
            ref_pts[k, :n], ref_pts[k, n:] = x, p
            ref_jacs[k] = jac
    return ref_pts, ref_jacs


@pytest.mark.parametrize("H, z0", [
    (quartic_hamiltonian([1.0], 0.1), [0.6, 0.3]),
    (quartic_hamiltonian([1.0, 1.7], 0.2), [0.3, -0.2, 0.1, 0.4]),
], ids=["n=1", "n=2"])
def test_quartic_integrator_matches_reference_bitwise(H, z0):
    times, pts, jacs, act, _ = flow_path(H, z0, 0.0, 2.0, 2000)
    ref_pts, ref_jacs = _reference_path(H, z0, times)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(jacs, ref_jacs)
    assert np.array_equal(act, _trapezoid_action(H, times, ref_pts))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 300), st.booleans(),
       st.booleans())
def test_quartic_kernel_is_the_reference_block_by_block(n, seed, steps, backward, wall):
    # random frequencies and coupling.  A start on the quartic wall,
    # with two or more steps of at least 0.02, overflows: the kernel must
    # overflow where the reference does and report the same last time
    rng = np.random.default_rng(seed)
    H = quartic_hamiltonian(rng.uniform(0.3, 2.0, n), rng.uniform(0.01, 0.5))
    z0 = rng.uniform(-1.0, 1.0, 2 * n)
    if wall:
        z0[rng.integers(n)] = 1e3
        steps = max(steps, 2)
    t0 = rng.uniform(-1.0, 1.0)
    dt = rng.uniform(0.02 if wall else 1e-3, 0.05)
    t1 = t0 + (-1.0 if backward else 1.0) * steps * dt
    ref_times = np.linspace(t0, t1, steps + 1)
    ref_pts, ref_jacs = _reference_path(H, z0, ref_times)
    bad = ~np.all(np.isfinite(ref_pts), axis=1)
    assert bad.any() == wall
    if wall:
        with pytest.raises(DivergenceError) as exc:
            flow_path(H, z0, t0, t1, steps)
        assert exc.value.last_time == ref_times[max(0, int(np.argmax(bad)) - 1)]
        return
    times, pts, jacs, _, _ = flow_path(H, z0, t0, t1, steps)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(jacs, ref_jacs)
    rows = np.array([[j, j, n + j, n + j] for j in range(n)])
    cols = np.array([[j, n + j, j, n + j] for j in range(n)])
    off_block = np.ones((2 * n, 2 * n), dtype=bool)
    off_block[rows, cols] = False
    assert np.all(jacs[:, off_block] == 0.0)
    blocks = jacs[:, rows, cols]  # (samples, n, 4): dx/dx0, dx/dp0, dp/dx0, dp/dp0
    det = blocks[..., 0] * blocks[..., 3] - blocks[..., 1] * blocks[..., 2]
    assert np.max(np.abs(det - 1.0)) <= 1e-12


def test_chapman_kolmogorov():
    Hq = quartic_hamiltonian([1.0], 0.3)
    z0 = np.array([0.9, 0.2])
    assert chapman_kolmogorov_residual(Hq, z0, 0.7, 0.7, 0.7) == 0.0
    H = harmonic_hamiltonian([1.0])
    for t, tm, ts in [(2.0, 0.8, 0.0), (0.3, 1.9, -0.4), (5.0, 2.0, 3.0)]:
        assert chapman_kolmogorov_residual(H, z0, t, tm, ts) <= 1e-10
    assert chapman_kolmogorov_residual(Hq, z0, 1.0, 0.4, 0.0, steps=10_000) <= 1e-6


def test_backward_flow_inverts():
    H = quartic_hamiltonian([1.2], 0.15)
    z0 = np.array([0.4, -0.6])
    z1, jac1, _ = flow_map(H, z0, 0.0, 1.7, 3000)
    z0_back, jac2, _ = flow_map(H, z1, 1.7, 0.0, 3000)
    assert np.allclose(z0_back, z0, atol=1e-9)
    assert np.allclose(jac2 @ jac1, np.eye(2), atol=1e-9)


def test_action_against_quadrature(rng):
    # independent oracle: Simpson quadrature of p xdot - H over dense samples
    for _ in range(5):
        M = _random_sym(rng, 4)
        H = quadratic_hamiltonian(M)
        z0 = rng.uniform(-1, 1, size=4)
        traj = flow_path(H, z0, 0.0, 1.0, 4000)
        xdot = _vector_field(H, traj.points)[:, :2]
        integrand = np.einsum("kj,kj->k", traj.points[:, 2:], xdot) - _hamiltonian_value(
            H, traj.points
        )
        quad = simpson(integrand, x=traj.times)
        assert abs(traj.action[-1] - quad) < 1e-8
        assert abs(traj.action[-1] - quadratic_action_shortcut(z0, traj.points[-1])) < 1e-12


def test_action_integral_examples():
    H = harmonic_hamiltonian([1.0])
    end, _, s0 = flow_map(H, [0.3, 0.7], 2.0, 2.0)
    assert s0 == 0.0 and np.array_equal(end, [0.3, 0.7])
    # the state is checked on every window, the zero-length one included
    for t_end in (2.0, 2.5):
        with pytest.raises(ValueError, match="2n phase-space vector"):
            flow_map(H, [0.3, 0.1, 0.7, 0.2], 2.0, t_end)

    # eliminate p' via the two-point solve, then compare to the closed form
    tau = 1.1
    tp = two_point_action(H, [0.4], [0.7], 0.0, tau)
    assert abs(tp["action"] - harmonic_action_closed_form(0.7, 0.4, tau)) < 1e-8
    end, _, s = flow_map(H, np.concatenate([[0.4], tp["p_start"]]), 0.0, tau, 2000)
    assert abs(s - tp["action"]) < 1e-10
    assert np.allclose(end[0], 0.7, atol=1e-10)

    Hf = quadratic_hamiltonian([[0.0, 0.0], [0.0, 1.0]])  # free particle
    tau = 0.8
    tp = two_point_action(Hf, [-0.2], [0.5], 0.0, tau)
    assert abs(tp["action"] - (0.5 + 0.2) ** 2 / (2 * tau)) < 1e-10


def test_hamilton_jacobi_residual_grids():
    Hf = quadratic_hamiltonian([[0.0, 0.0], [0.0, 1.0]])
    x = np.linspace(-0.5, 0.5, 100)
    t = np.linspace(1.0, 1.2, 100)
    s = (x[:, None] - 0.1) ** 2 / (2 * t[None, :])
    assert hamilton_jacobi_residual(Hf, s, x, t) <= 1e-6

    H = harmonic_hamiltonian([1.0])
    s = harmonic_action_closed_form(x[:, None], 0.1, t[None, :])
    assert hamilton_jacobi_residual(H, s, x, t) <= 1e-6

    zero = quadratic_hamiltonian(np.zeros((2, 2)))
    assert hamilton_jacobi_residual(zero, np.full((100, 100), 3.7), x, t) == 0.0

    with pytest.raises(ValueError):
        hamilton_jacobi_residual(Hf, s[:2, :2], x[:2], t[:2])
    with pytest.raises(ValueError):
        hamilton_jacobi_residual(Hf, s[:5, :5], x[:5] ** 2, t[:5])


def _generating_function_errors(H, t_start, t_end, samples, h=1e-4):
    # the two-point action generates the flow: at seeded random (x', p'),
    # central differences give dS/dx = p and dS/dx' = -p'.  Returns each
    # sample's det dx/dp' and the worst error over the samples off a caustic
    rng = np.random.default_rng(425411)
    n, dets, worst = H.n, [], 0.0
    for _ in range(samples):
        x0, p0 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        z1, jac, _ = flow_map(H, np.concatenate([x0, p0]), t_start, t_end, 800)
        dets.append(float(np.linalg.det(jac[:n, n:])))
        if abs(dets[-1]) < 1e-8:
            continue

        def action(xa, xb):
            return two_point_action(H, xa, xb, t_start, t_end)["action"]

        for i, e in enumerate(h * np.eye(n)):
            d_end = (action(x0, z1[:n] + e) - action(x0, z1[:n] - e)) / (2 * h)
            d_start = (action(x0 + e, z1[:n]) - action(x0 - e, z1[:n])) / (2 * h)
            worst = max(worst, abs(d_end - z1[n + i]), abs(d_start + p0[i]))
    return dets, worst


def test_generating_function_checks():
    H = harmonic_hamiltonian([1.0])
    dets, worst = _generating_function_errors(H, 0.0, 0.1, 8)
    assert worst <= 1e-5
    assert min(map(abs, dets)) == pytest.approx(np.sin(0.1), abs=1e-10)

    # at half a period every sample sits on the caustic
    dets, _ = _generating_function_errors(H, 0.0, np.pi, 4)
    assert max(map(abs, dets)) < 1e-8

    Hf = quadratic_hamiltonian([[0.0, 0.0], [0.0, 1.0]])
    dets, worst = _generating_function_errors(Hf, 0.0, 3.7, 6)
    assert worst <= 1e-5
    assert min(map(abs, dets)) == pytest.approx(3.7, abs=1e-10)

    Hq = quartic_hamiltonian([1.0], 0.2)
    dets, worst = _generating_function_errors(Hq, 0.0, 0.4, 4)
    assert worst <= 1e-5 and min(map(abs, dets)) >= 1e-8

    with pytest.raises(ConjugatePointError):
        two_point_action(H, [0.1], [0.2], 0.0, np.pi)


@pytest.mark.parametrize("H, z0, tau", [
    (quartic_hamiltonian([1.0], 0.2), [0.3, -0.5], 0.9),
    (quartic_hamiltonian([1.0, 1.7], 0.2), [0.3, -0.2, 0.1, 0.4], 0.7),
], ids=["n1", "n2"])
def test_quartic_two_point_round_trip(H, z0, tau):
    # the shared source-point solve on a non-quadratic generator, from the
    # default straight-line guess: the momentum and action of a flowed path
    n = H.n
    _, pts, _, act, _ = flow_path(H, z0, 0.0, tau, 800)
    tp = two_point_action(H, z0[:n], pts[-1, :n], 0.0, tau)
    assert np.max(np.abs(tp["p_start"] - np.asarray(z0[n:]))) <= 1e-10
    assert abs(tp["action"] - act[-1]) <= 1e-10
    assert np.max(np.abs(tp["endpoint"][:n] - pts[-1, :n])) <= 1e-10


@pytest.mark.parametrize("H", [harmonic_hamiltonian([1.0]), quartic_hamiltonian([1.0], 0.1)],
                         ids=["harmonic", "quartic"])
def test_two_point_action_rejects_non_finite_positions(H):
    for x_start, x_end in (([0.1], [np.nan]), ([np.inf], [0.2])):
        with pytest.raises(ValueError, match="positions must be finite"):
            two_point_action(H, x_start, x_end, 0.0, 1.0)


def test_hamiltonian_value_vectorized(rng):
    H = quartic_hamiltonian([1.0, 2.0], 0.1)
    z = rng.uniform(-1, 1, size=(6, 5, 4))
    vals = _hamiltonian_value(H, z)
    assert vals.shape == (6, 5)
    assert np.isclose(vals[2, 3], _hamiltonian_value(H, z[2, 3]))
    grads = _hamiltonian_gradient(H, z)
    assert grads.shape == (6, 5, 4)
    assert np.allclose(grads[1, 4], _hamiltonian_gradient(H, z[1, 4]))
