"""Flow integration, variational transport, and action diagnostics."""

import numpy as np
import pytest
from scipy.integrate import simpson

from symwave.errors import ConjugatePointError, DivergenceError
from symwave.flows import (
    HamiltonianSpec,
    action_integral,
    chapman_kolmogorov_residual,
    energy_drift,
    flow_map,
    flow_path,
    generating_function_check,
    hamilton_jacobi_residual,
    hamiltonian_gradient,
    hamiltonian_hessian,
    hamiltonian_value,
    harmonic_hamiltonian,
    integrate,
    magnetic_hamiltonian,
    phase_transport,
    quadratic_action_shortcut,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    reparameterized_hamiltonian,
    shared_level_set_orbit_check,
    two_point_action,
    Trajectory,
    vector_field,
)
from symwave.flows import _YOSHIDA_W0, _YOSHIDA_W1, _trapezoid_action
from symwave.polynomials import Polynomial
from symwave.symplectic import is_symplectic_matrix


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
    traj = integrate(H, [1.0, 0.0], 0.0, np.pi / 2, 64)
    assert np.allclose(traj.points[-1], [0.0, -1.0], atol=1e-10)
    # quarter-period flow matrix is the clockwise rotation
    assert np.allclose(traj.jacobians[-1], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_zero_length_trajectory():
    H = harmonic_hamiltonian([1.0, 2.0])
    z0 = np.array([0.3, -0.1, 0.2, 0.5])
    traj = integrate(H, z0, 1.5, 1.5, 10)
    assert len(traj) == 1
    assert np.allclose(traj.points[0], z0)
    assert traj.action[0] == 0.0
    with pytest.raises(ValueError):
        integrate(H, z0, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        integrate(H, z0, 0.0, 1.0, 0)


def test_trajectory_time_monotonicity_guard():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.5, 0.5]),
            points=np.zeros((3, 2)),
            jacobians=np.tile(np.eye(2), (3, 1, 1)),
            action=np.zeros(3),
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        quadratic_hamiltonian([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        quadratic_hamiltonian(np.eye(3))  # odd dimension
    with pytest.raises(ValueError):
        harmonic_hamiltonian([1.0, -2.0])
    with pytest.raises(ValueError):
        harmonic_hamiltonian([1.0], masses=[1.0, 2.0])
    with pytest.raises(ValueError):
        quartic_hamiltonian([1.0], -0.1)
    with pytest.raises(ValueError):
        magnetic_hamiltonian((Polynomial(2, [(1.0, (1, 0))]),), Polynomial(1, []))
    with pytest.raises(ValueError):
        reparameterized_hamiltonian(harmonic_hamiltonian([1.0]), [3.0])
    # an unknown kind is rejected when the spec is built; the harmonic
    # family is a quadratic spec, not a kind of its own
    with pytest.raises(ValueError, match="unknown Hamiltonian kind"):
        HamiltonianSpec(kind="harmonic", n=1)
    H = harmonic_hamiltonian([1.0, 2.0], masses=[1.0, 0.5])
    assert H.kind == "quadratic"
    assert np.array_equal(H.matrix, np.diag([1.0, 2.0, 1.0, 2.0]))


def test_gradient_hessian_fd_oracles(rng):
    A = (
        Polynomial(2, [(0.4, (2, 0)), (-0.3, (0, 1))]),
        Polynomial(2, [(0.2, (1, 1))]),
    )
    U = Polynomial(2, [(0.5, (2, 0)), (0.5, (0, 2)), (0.1, (1, 2))])
    specs = [
        quadratic_hamiltonian(_random_sym(rng, 4)),
        harmonic_hamiltonian([1.0, 2.0], masses=[1.0, 0.5]),
        quartic_hamiltonian([1.3], 0.25),
        magnetic_hamiltonian(A, U, mass=0.8),
        reparameterized_hamiltonian(quartic_hamiltonian([1.0], 0.1), [0.0, 1.0, 0.5]),
    ]
    h = 1e-5
    for H in specs:
        for _ in range(5):
            z = rng.uniform(-1, 1, size=2 * H.n)
            grad = hamiltonian_gradient(H, z)
            hess = hamiltonian_hessian(H, z)
            for i in range(2 * H.n):
                e = np.zeros(2 * H.n)
                e[i] = h
                fd_g = (hamiltonian_value(H, z + e) - hamiltonian_value(H, z - e)) / (2 * h)
                assert abs(grad[i] - fd_g) < 5e-9 * max(1.0, abs(fd_g))
                fd_h = (hamiltonian_gradient(H, z + e) - hamiltonian_gradient(H, z - e)) / (2 * h)
                assert np.allclose(hess[:, i], fd_h, atol=1e-6)
            vf = vector_field(H, z)
            assert np.allclose(vf, np.concatenate([grad[H.n:], -grad[:H.n]]))


def _random_sym(rng, m):
    a = rng.uniform(-1, 1, size=(m, m))
    return a + a.T


def test_jacobians_symplectic_every_sample(rng):
    segs = [
        (quadratic_hamiltonian(_random_sym(rng, 4)), rng.uniform(-1, 1, 4), 1.3, 300),
        (quartic_hamiltonian([1.0, 1.7], 0.2), rng.uniform(-1, 1, 4), 2.0, 2000),
        (
            magnetic_hamiltonian(
                (Polynomial(1, [(0.3, (2,))]),), Polynomial(1, [(0.5, (2,))])
            ),
            np.array([0.5, 0.1]),
            2.0,
            1500,
        ),
    ]
    for H, z0, t1, steps in segs:
        traj = integrate(H, z0, 0.0, t1, steps)
        assert traj.symplectic_defect < 1e-10
        for k in (0, len(traj) // 2, len(traj) - 1):
            assert is_symplectic_matrix(traj.jacobians[k], tol=1e-10)


def test_energy_conservation():
    Hq = quartic_hamiltonian([1.0], 0.3)
    traj = integrate(Hq, [0.9, 0.2], 0.0, 1.0, 10_000)
    assert energy_drift(Hq, traj) < 1e-8
    Hm = magnetic_hamiltonian(
        (Polynomial(1, [(0.3, (2,))]),), Polynomial(1, [(0.5, (2,))])
    )
    traj = integrate(Hm, [0.5, 0.1], 0.0, 2.0, 4000)
    assert energy_drift(Hm, traj) < 1e-8


def test_divergence_reported():
    # repulsive quartic potential escapes to infinity in finite time
    H = magnetic_hamiltonian((Polynomial(1, []),), Polynomial(1, [(-1.0, (4,))]))
    with pytest.raises(DivergenceError) as exc:
        integrate(H, [1.5, 1.0], 0.0, 6.0, 600)
    assert exc.value.last_time is not None


def test_quartic_divergence_reported():
    # a start far up the quartic wall overflows within the first steps
    with pytest.raises(DivergenceError) as exc:
        flow_path(quartic_hamiltonian([1.0], 0.1), [1e3, 0.0], 0.0, 1.0, 50)
    assert exc.value.last_time == 0.02


def _view_specs():
    A = (Polynomial(1, [(0.3, (2,))]),)
    U = Polynomial(1, [(0.5, (2,))])
    return [
        quadratic_hamiltonian([[1.0, 0.3], [0.3, 0.5]]),
        harmonic_hamiltonian([1.0, 2.0], masses=[1.0, 0.5]),
        quartic_hamiltonian([1.0], 0.1),
        magnetic_hamiltonian(A, U),
        reparameterized_hamiltonian(quartic_hamiltonian([1.0], 0.1), [0.0, 1.0, 0.5]),
    ]


@pytest.mark.parametrize("t0, t1", [(0.2, 1.1), (1.1, 0.2), (0.7, 0.7)],
                         ids=["forward", "backward", "zero-length"])
@pytest.mark.parametrize("H", _view_specs(),
                         ids=["quadratic", "harmonic", "quartic", "magnetic", "reparam"])
def test_views_return_the_flow_path_sample(H, t0, t1):
    n, steps = H.n, 60
    z0 = np.linspace(0.3, -0.4, 2 * n)
    times, pts, jacs, act = flow_path(H, z0, t0, t1, steps)
    z1, jac1, s1 = flow_map(H, z0, t0, t1, steps)
    assert np.array_equal(z1, pts[-1]) and np.array_equal(jac1, jacs[-1])
    assert s1 == act[-1]
    s2, end = action_integral(H, z0[:n], z0[n:], t0, t1, steps)
    assert s2 == act[-1] and np.array_equal(end.as_vector(), pts[-1])
    assert phase_transport(0.25, H, z0, t0, t1, steps) == 0.25 + act[-1]
    if t1 < t0:
        with pytest.raises(ValueError):
            integrate(H, z0, t0, t1, steps)
        return
    traj = integrate(H, z0, t0, t1, steps)
    for got, want in zip((traj.times, traj.points, traj.jacobians, traj.action),
                         (times, pts, jacs, act)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("H, z0, t1, steps, last_time", [
    (quadratic_hamiltonian(np.diag([-1.0, 1.0])), [1.0, 0.0], 1000.0, 100, 710.0),
    (harmonic_hamiltonian([1.0]), [np.nan, 0.0], 1.0, 10, 0.0),
    (harmonic_hamiltonian([1.0]), [np.nan, 0.0], 0.0, 10, 0.0),
], ids=["overflow", "nan-start", "nan-start-zero-length"])
def test_views_diverge_like_flow_path(H, z0, t1, steps, last_time):
    views = {
        "flow_path": lambda: flow_path(H, z0, 0.0, t1, steps),
        "flow_map": lambda: flow_map(H, z0, 0.0, t1, steps),
        "integrate": lambda: integrate(H, z0, 0.0, t1, steps),
        "action_integral": lambda: action_integral(H, z0[:1], z0[1:], 0.0, t1, steps),
        "phase_transport": lambda: phase_transport(0.0, H, z0, 0.0, t1, steps),
    }
    for name, view in views.items():
        with pytest.raises(DivergenceError) as exc:
            view()
        assert exc.value.last_time == last_time, name


def _reference_leapfrog(x, p, jac, dt, H):
    # reference quartic step: one Yoshida leapfrog triple, with the potential's
    # gradient and Hessian evaluated afresh at every half-kick
    n = H.n
    w2 = H.masses * H.omegas**2

    def v_grad(x):
        return w2 * x + 4.0 * H.coupling * x**3

    def v_hess_diag(x):
        return w2 + 12.0 * H.coupling * x**2

    for w in (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1):
        h = w * dt
        p = p - 0.5 * h * v_grad(x)
        jac[n:] -= 0.5 * h * v_hess_diag(x)[:, None] * jac[:n]
        x = x + h * p / H.masses
        jac[:n] += (h / H.masses)[:, None] * jac[n:]
        p = p - 0.5 * h * v_grad(x)
        jac[n:] -= 0.5 * h * v_hess_diag(x)[:, None] * jac[:n]
    return x, p, jac


@pytest.mark.parametrize("H, z0", [
    (quartic_hamiltonian([1.0], 0.1), [0.6, 0.3]),
    (quartic_hamiltonian([1.0, 1.7], 0.2, masses=[1.3, 0.6]), [0.3, -0.2, 0.1, 0.4]),
], ids=["n=1", "n=2-masses"])
def test_quartic_integrator_matches_reference_bitwise(H, z0):
    n, steps = H.n, 2000
    times, pts, jacs, act = flow_path(H, z0, 0.0, 2.0, steps)
    dt = times[1] - times[0]
    ref_pts = np.empty_like(pts)
    ref_jacs = np.empty_like(jacs)
    ref_pts[0], ref_jacs[0] = z0, np.eye(2 * n)
    x, p, jac = np.array(z0[:n], dtype=float), np.array(z0[n:], dtype=float), np.eye(2 * n)
    for k in range(1, steps + 1):
        x, p, jac = _reference_leapfrog(x, p, jac.copy(), dt, H)
        ref_pts[k, :n], ref_pts[k, n:] = x, p
        ref_jacs[k] = jac
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(jacs, ref_jacs)
    assert np.array_equal(act, _trapezoid_action(H, times, ref_pts))


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
        traj = integrate(H, z0, 0.0, 1.0, 4000)
        xdot = vector_field(H, traj.points)[:, :2]
        integrand = np.einsum("kj,kj->k", traj.points[:, 2:], xdot) - hamiltonian_value(
            H, traj.points
        )
        quad = simpson(integrand, x=traj.times)
        assert abs(traj.action[-1] - quad) < 1e-8
        assert abs(traj.action[-1] - quadratic_action_shortcut(z0, traj.points[-1])) < 1e-12


def test_action_integral_examples():
    H = harmonic_hamiltonian([1.0])
    s0, end = action_integral(H, [0.3], [0.7], 2.0, 2.0)
    assert s0 == 0.0 and np.allclose(end.as_vector(), [0.3, 0.7])
    # the state is checked on every window, the zero-length one included
    for t_end in (2.0, 2.5):
        with pytest.raises(ValueError, match="2n phase-space vector"):
            action_integral(H, [0.3, 0.1], [0.7, 0.2], 2.0, t_end)

    # eliminate p' via the two-point solve, then compare to the closed form
    tau = 1.1
    tp = two_point_action(H, [0.4], [0.7], 0.0, tau)
    assert abs(tp["action"] - harmonic_action_closed_form(0.7, 0.4, tau)) < 1e-8
    s, end = action_integral(H, [0.4], tp["p_start"], 0.0, tau)
    assert abs(s - tp["action"]) < 1e-10
    assert np.allclose(end.as_vector()[0], 0.7, atol=1e-10)

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

    detail = hamilton_jacobi_residual(Hf, s[:5, :5], x[:5], t[:5], detail=True)
    assert set(detail) == {"residual", "dx", "dt", "grid"}
    with pytest.raises(ValueError):
        hamilton_jacobi_residual(Hf, s[:2, :2], x[:2], t[:2])
    with pytest.raises(ValueError):
        hamilton_jacobi_residual(Hf, s[:5, :5], x[:5] ** 2, t[:5])


def test_generating_function_checks():
    H = harmonic_hamiltonian([1.0])
    rep = generating_function_check(H, 0.0, 0.1, sample_count=8)
    assert rep["passed"] and rep["free_window_violations"] == 0
    assert rep["grad_x_error"] <= 1e-5 and rep["grad_x_start_error"] <= 1e-5
    assert rep["min_abs_det_block"] == pytest.approx(np.sin(0.1), abs=1e-10)

    rep = generating_function_check(H, 0.0, np.pi, sample_count=4)
    assert not rep["passed"] and rep["free_window_violations"] == 4

    Hf = quadratic_hamiltonian([[0.0, 0.0], [0.0, 1.0]])
    rep = generating_function_check(Hf, 0.0, 3.7, sample_count=6)
    assert rep["passed"]
    assert rep["min_abs_det_block"] == pytest.approx(3.7, abs=1e-10)

    Hq = quartic_hamiltonian([1.0], 0.2)
    rep = generating_function_check(Hq, 0.0, 0.4, sample_count=4, steps=1500)
    assert rep["passed"]

    with pytest.raises(ConjugatePointError):
        two_point_action(H, [0.1], [0.2], 0.0, np.pi)


def test_phase_transport():
    H = harmonic_hamiltonian([1.0])
    assert phase_transport(0.25, H, [0.3, 0.4], 1.0, 1.0) == 0.25
    z0 = np.array([0.8, -0.3])
    z1, _, _ = flow_map(H, z0, 0.0, 1.3, 500)
    expected = 0.25 + quadratic_action_shortcut(z0, z1)
    assert abs(phase_transport(0.25, H, z0, 0.0, 1.3) - expected) < 1e-9


def test_shared_level_set_orbits():
    H = harmonic_hamiltonian([1.0])
    assert shared_level_set_orbit_check(H, [0.0, 2.0], [1.0, 0.0], 2 * np.pi) <= 1e-8
    assert shared_level_set_orbit_check(H, [0.0, 1.0, 1.0], [1.0, 0.0], 2 * np.pi) <= 1e-5
    assert shared_level_set_orbit_check(quartic_hamiltonian([1.0], 0.2), [0.0, 1.0], [1.0, 0.0], 3.0) == 0.0
    with pytest.raises(ValueError):
        shared_level_set_orbit_check(H, [0.0, -1.0], [1.0, 0.0], 1.0)


def test_reparameterized_quadratic_collapses():
    H = harmonic_hamiltonian([1.0])
    K = reparameterized_hamiltonian(H, [0.5, 2.0])
    assert K.kind == "quadratic"
    z = np.array([0.7, -0.2])
    # value differs by the affine offset, the flow does not
    assert np.allclose(hamiltonian_gradient(K, z), 2 * hamiltonian_gradient(H, z))


def test_hamiltonian_value_vectorized(rng):
    H = quartic_hamiltonian([1.0, 2.0], 0.1)
    z = rng.uniform(-1, 1, size=(6, 5, 4))
    vals = hamiltonian_value(H, z)
    assert vals.shape == (6, 5)
    assert np.isclose(vals[2, 3], hamiltonian_value(H, z[2, 3]))
    grads = hamiltonian_gradient(H, z)
    assert grads.shape == (6, 5, 4)
    assert np.allclose(grads[1, 4], hamiltonian_gradient(H, z[1, 4]))
