"""Hamiltonian flows with variational transport and action bookkeeping.

State vectors are ordered ``z = (x, p)``.  Hamilton's equations read
``dx/dt = dH/dp``, ``dp/dt = -dH/dx``, i.e. ``dz/dt = J grad H`` with
``J = [[0, I], [-I, 0]]``.  Alongside each trajectory the module transports
the Jacobian of the flow map (the solution of the variational equations) and
the Poincare-Cartan action ``integral(p dx - H dt)``.

Integrator policy: quadratic Hamiltonians use the exact matrix exponential
of the linearized system; separable anharmonic families use a fixed-step
fourth-order splitting; the magnetic family (and reparameterized wrappers)
fall back to the implicit midpoint rule, whose Cayley-form tangent update is
exactly symplectic.  Jacobians are never finite-differenced from nearby
trajectories: determinant signals near caustics need the variational
solution.  Each family (quadratic, harmonic included; quartic; magnetic;
reparam) is one table entry: value, gradient, Hessian, integrator, action.

`flow_path` is the one path function: it integrates, scans the path once for
overflow, then sums the action.  `integrate`, `flow_map`, `action_integral`
and `phase_transport` are views of its samples and fail as it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import ConjugatePointError, DivergenceError, NumericalError
from .polynomials import Polynomial
from .symplectic import PhasePoint, form_matrix

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1


def _jmat(n):
    # dz/dt = J grad H; this is the transpose of the form matrix
    return form_matrix(n).T


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian from one of the supported families.

    Use the constructor helpers (`quadratic_hamiltonian` etc.) rather than
    building instances directly; they validate the family parameters.
    """

    kind: str
    n: int
    time_dependent: bool = False
    matrix: np.ndarray | None = None  # quadratic: H = 1/2 z^T M z
    omegas: np.ndarray | None = None
    masses: np.ndarray | None = None
    coupling: float = 0.0  # quartic family
    potentials: tuple = ()  # magnetic: (A_1 .. A_n, U) polynomials
    base: "HamiltonianSpec | None" = None  # reparameterized wrapper
    g_coeffs: np.ndarray | None = None  # g(E) = sum_k c_k E^k

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")


def quadratic_hamiltonian(M):
    """H(z) = 1/2 z^T M z for a symmetric 2n x 2n matrix M."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise ValueError("quadratic form must be a 2n x 2n matrix")
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise ValueError("quadratic form must be symmetric")
    return HamiltonianSpec(kind="quadratic", n=M.shape[0] // 2, matrix=0.5 * (M + M.T))


def harmonic_hamiltonian(omegas, masses=None):
    """H = sum_j p_j^2 / (2 m_j) + m_j omega_j^2 x_j^2 / 2, a quadratic spec."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = omegas.size
    masses = np.ones(n) if masses is None else np.atleast_1d(np.asarray(masses, dtype=float))
    if masses.shape != omegas.shape:
        raise ValueError("masses must match the number of frequencies")
    if np.any(omegas <= 0) or np.any(masses <= 0):
        raise ValueError("frequencies and masses must be positive")
    matrix = np.diag(np.concatenate([masses * omegas**2, 1.0 / masses]))
    return HamiltonianSpec(kind="quadratic", n=n, matrix=matrix, omegas=omegas, masses=masses)


def quartic_hamiltonian(omegas, coupling, masses=None):
    """Anharmonic oscillator: harmonic part plus ``coupling * sum_j x_j^4``."""
    spec = harmonic_hamiltonian(omegas, masses)
    if coupling < 0:
        raise ValueError("quartic coupling must be nonnegative")
    return HamiltonianSpec(
        kind="quartic", n=spec.n, omegas=spec.omegas, masses=spec.masses,
        coupling=float(coupling),
    )


def magnetic_hamiltonian(A, U, mass=1.0):
    """H = sum_j (p_j - A_j(x))^2 / (2 m) + U(x) with polynomial A_j, U."""
    A = tuple(A)
    n = len(A)
    if n == 0:
        raise ValueError("need at least one vector-potential component")
    for comp in A + (U,):
        if not isinstance(comp, Polynomial) or comp.n != n:
            raise ValueError("A components and U must be polynomials in the n positions")
    if mass <= 0:
        raise ValueError("mass must be positive")
    return HamiltonianSpec(
        kind="magnetic", n=n, potentials=A + (U,),
        masses=np.full(n, float(mass)),
    )


def reparameterized_hamiltonian(H, g_coeffs):
    """K = g(H) for a polynomial g; K generates the same orbits, rescaled in time.

    A linear ``g`` applied to a quadratic-family Hamiltonian stays quadratic
    and keeps the exact integrator; anything else integrates via the implicit
    midpoint rule.
    """
    g = np.atleast_1d(np.asarray(g_coeffs, dtype=float))
    if g.size < 2 or np.all(g[1:] == 0):
        raise ValueError("reparameterization must actually depend on H")
    if np.all(g[2:] == 0) and H.matrix is not None:  # rescale the quadratic form
        return quadratic_hamiltonian(g[1] * H.matrix)
    return HamiltonianSpec(kind="reparam", n=H.n, base=H, g_coeffs=g)


def hamiltonian_value(H, z, t=0.0):
    """Evaluate H at phase points ``z`` (vectorized over leading axes)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 2 * H.n:
        raise ValueError("phase-space dimension mismatch")
    return _family(H).value(H, z, t)


def hamiltonian_gradient(H, z, t=0.0):
    """Full phase-space gradient (dH/dx, dH/dp), vectorized like the value."""
    return _family(H).gradient(H, np.asarray(z, dtype=float), t)


def hamiltonian_hessian(H, z, t=0.0):
    """Phase-space Hessian at a single point."""
    return _family(H).hessian(H, np.asarray(z, dtype=float), t)


def vector_field(H, z, t=0.0):
    """Hamiltonian vector field J grad H."""
    g = hamiltonian_gradient(H, z, t)
    n = H.n
    return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)


def _quartic_value(H, z, t):
    x, p = z[..., :H.n], z[..., H.n:]
    return (
        0.5 * np.einsum("...j,j->...", p**2, 1.0 / H.masses)
        + 0.5 * np.einsum("...j,j->...", x**2, H.masses * H.omegas**2)
        + H.coupling * (x**4).sum(axis=-1)
    )


def _quartic_gradient(H, z, t):
    x, p = z[..., :H.n], z[..., H.n:]
    gx = H.masses * H.omegas**2 * x + 4.0 * H.coupling * x**3
    gp = p / H.masses
    return np.concatenate([gx, gp], axis=-1)


def _quartic_hessian(H, z, t):
    x = z[:H.n]
    return np.diag(np.concatenate([H.masses * H.omegas**2 + 12.0 * H.coupling * x**2,
                                   1.0 / H.masses]))


def _magnetic_terms(H, z):
    # (A, U, m, x, p - A(x)): the kinetic momentum, computed once per evaluation
    *A, U = H.potentials
    x, p = z[..., :H.n], z[..., H.n:]
    return A, U, H.masses[0], x, p - np.stack([a.value(x) for a in A], axis=-1)


def _magnetic_value(H, z, t):
    _, U, m, x, shifted = _magnetic_terms(H, z)
    return 0.5 * (shifted**2).sum(axis=-1) / m + U.value(x)


def _magnetic_gradient(H, z, t):
    A, U, m, x, shifted = _magnetic_terms(H, z)
    gp = shifted / m
    gx = U.grad(x)
    for j, a in enumerate(A):
        gx = gx - shifted[..., j, None] * a.grad(x) / m
    return np.concatenate([gx, gp], axis=-1)


def _magnetic_hessian(H, z, t):
    A, U, m, x, shifted = _magnetic_terms(H, z)
    n = H.n
    G = np.stack([a.grad(x) for a in A], axis=1)  # G[i, j] = dA_j/dx_i
    hess = np.zeros((2 * n, 2 * n))
    hess[n:, n:] = np.eye(n) / m
    hess[:n, n:] = -G / m
    hess[n:, :n] = -G.T / m
    hxx = U.hess(x) + (G @ G.T) / m
    for j, a in enumerate(A):
        hxx -= shifted[j] * a.hess(x) / m
    hess[:n, :n] = hxx
    return hess


def _g_derivative(g_coeffs, e, order=1):
    # d^order g / dE^order at the energy e
    return _poly.polyval(e, _poly.polyder(g_coeffs, order))


def _reparam_gradient(H, z, t):
    g1 = _g_derivative(H.g_coeffs, hamiltonian_value(H.base, z, t))
    return g1[..., None] * hamiltonian_gradient(H.base, z, t)


def _reparam_hessian(H, z, t):
    e = float(hamiltonian_value(H.base, z, t))
    g1 = _g_derivative(H.g_coeffs, e)
    g2 = _g_derivative(H.g_coeffs, e, 2)
    grad = hamiltonian_gradient(H.base, z, t)
    return g2 * np.outer(grad, grad) + g1 * hamiltonian_hessian(H.base, z, t)


@dataclass(frozen=True)
class Trajectory:
    """An integrated flow segment.

    ``points[k]`` is the state at ``times[k]``; ``jacobians[k]`` solves the
    variational equations from ``times[0]`` to ``times[k]``; ``action[k]``
    accumulates ``integral(p dx - H dt)`` along the discrete path.
    """

    times: np.ndarray
    points: np.ndarray
    jacobians: np.ndarray
    action: np.ndarray
    symplectic_defect: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def point(self, k):
        return PhasePoint.from_vector(self.points[k])

    def endpoint(self):
        return self.point(len(self.times) - 1)


def _check_path_finite(times, pts):
    # the state before the first non-finite sample is the last valid one
    bad = ~np.all(np.isfinite(pts), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise DivergenceError("flow left the finite phase space",
                              last_time=float(times[max(0, k - 1)]))


# Each integrator fills points[1:] and jacobians[1:] from the start sample at
# two or more equally spaced times, and leaves overflow to the path scan.

def _integrate_quadratic(H, times, pts, jacs):
    from scipy.linalg import expm  # imported here: scipy costs ~0.45 s to load
    step = expm((times[1] - times[0]) * (_jmat(H.n) @ H.matrix))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            jacs[k] = step @ jacs[k - 1]
            pts[k] = jacs[k] @ pts[0]


def _quadratic_action(H, times, pts):
    # exact Poincare-Cartan action: see quadratic_action_shortcut
    n = H.n
    return 0.5 * (
        np.einsum("kj,kj->k", pts[:, n:], pts[:, :n])
        - pts[0, n:] @ pts[0, :n]
    )


def _integrate_quartic(H, times, pts, jacs):
    # Yoshida's triple of kick-drift-kick leapfrogs per step.  The potential's
    # gradient and Hessian diagonal depend on x alone, so each evaluation
    # serves both the half-kick after a drift and the one before the next.
    n = H.n
    dt = times[1] - times[0]
    m = H.masses
    w2 = m * H.omegas**2
    g4, g12 = 4.0 * H.coupling, 12.0 * H.coupling
    subs = [(h, 0.5 * h, (h / m)[:, None])
            for h in (w * dt for w in (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1))]
    x, p = pts[0, :n].copy(), pts[0, n:].copy()
    jac = np.eye(2 * n)
    top, bottom = jac[:n], jac[n:]  # dx/dz0 and dp/dz0, updated in place
    with np.errstate(over="ignore", invalid="ignore"):
        v_grad = w2 * x + g4 * x**3
        v_hess = w2 + g12 * x**2
        for k in range(1, len(times)):
            for h, half_h, h_over_m in subs:
                p = p - half_h * v_grad
                bottom -= (half_h * v_hess)[:, None] * top
                x = x + h * p / m
                top += h_over_m * bottom
                v_grad = w2 * x + g4 * x**3
                v_hess = w2 + g12 * x**2
                p = p - half_h * v_grad
                bottom -= (half_h * v_hess)[:, None] * top
            pts[k, :n], pts[k, n:] = x, p
            jacs[k] = jac


def _integrate_midpoint(H, times, pts, jacs, newton_tol=1e-13, max_iter=60):
    J = _jmat(H.n)
    eye = np.eye(2 * H.n)
    dt = times[1] - times[0]
    z = pts[0].copy()
    jac = eye.copy()
    scale0 = max(1.0, float(np.max(np.abs(z))))
    for k in range(1, len(times)):
        tm = 0.5 * (times[k - 1] + times[k])
        z_new = z + dt * vector_field(H, z, tm)  # explicit predictor
        for _ in range(max_iter):
            if not np.all(np.isfinite(z_new)):
                raise DivergenceError("flow left the finite phase space",
                                      last_time=float(times[k - 1]))
            mid = 0.5 * (z + z_new)
            resid = z_new - z - dt * vector_field(H, mid, tm)
            step_mat = eye - 0.5 * dt * J @ hamiltonian_hessian(H, mid, tm)
            delta = np.linalg.solve(step_mat, resid)
            z_new = z_new - delta
            if np.max(np.abs(delta)) <= newton_tol * max(1.0, np.max(np.abs(z_new))):
                break
        else:
            if np.max(np.abs(z)) > 1e6 * scale0:
                # the state ran away faster than the step size can track
                raise DivergenceError("flow blew up beyond the resolvable range",
                                      last_time=float(times[k - 1]))
            raise NumericalError("implicit midpoint step failed to converge")
        mid = 0.5 * (z + z_new)
        m_h = J @ hamiltonian_hessian(H, mid, tm)
        jac = np.linalg.solve(eye - 0.5 * dt * m_h, (eye + 0.5 * dt * m_h) @ jac)
        z = z_new
        pts[k], jacs[k] = z, jac


def _trapezoid_action(H, times, pts):
    n = H.n
    xdot = vector_field(H, pts, 0.0)[:, :n]
    lagrangian = np.einsum("kj,kj->k", pts[:, n:], xdot) - hamiltonian_value(H, pts)
    return np.concatenate([[0.0], np.cumsum(
        0.5 * (lagrangian[1:] + lagrangian[:-1]) * np.diff(times)
    )])


class _Family(NamedTuple):
    value: Callable  # (H, z, t) -> H(z), vectorized over leading axes
    gradient: Callable  # (H, z, t) -> (dH/dx, dH/dp), vectorized likewise
    hessian: Callable  # (H, z, t) -> Hessian at one point
    integrator: Callable  # (H, times, points, jacobians) -> None, fills the path
    action: Callable  # (H, times, points) -> accumulated action per sample


_FAMILIES = {
    "quadratic": _Family(
        lambda H, z, t: 0.5 * np.einsum("...i,ij,...j->...", z, H.matrix, z),
        lambda H, z, t: z @ H.matrix.T,
        lambda H, z, t: H.matrix.copy(),
        _integrate_quadratic, _quadratic_action),
    "quartic": _Family(_quartic_value, _quartic_gradient, _quartic_hessian,
                       _integrate_quartic, _trapezoid_action),
    "magnetic": _Family(_magnetic_value, _magnetic_gradient, _magnetic_hessian,
                        _integrate_midpoint, _trapezoid_action),
    "reparam": _Family(
        lambda H, z, t: _poly.polyval(hamiltonian_value(H.base, z, t), H.g_coeffs),
        _reparam_gradient, _reparam_hessian, _integrate_midpoint, _trapezoid_action),
}


def _family(H):
    return _FAMILIES[H.kind]


def _integrate_raw(H, z0, t0, t1, steps):
    # the one integrator dispatch and overflow scan; the action sums a finite path
    family = _family(H)
    times = np.linspace(t0, t1, steps + 1)
    pts = np.empty((steps + 1, 2 * H.n))
    jacs = np.empty((steps + 1, 2 * H.n, 2 * H.n))
    pts[0], jacs[0] = z0, np.eye(2 * H.n)
    family.integrator(H, times, pts, jacs)
    _check_path_finite(times, pts)
    return times, pts, jacs, family.action(H, times, pts)


def _as_state(z, n):
    if isinstance(z, PhasePoint):
        z = z.as_vector()
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * n,):
        raise ValueError("state must be a 2n phase-space vector")
    return z


def flow_path(H, z0, t0, t1, steps=1000):
    """Sampled path of the flow map: ``(times, points, jacobians, action)``.

    ``steps + 1`` samples as in `Trajectory`; ``t1 < t0`` integrates backward,
    ``t1 == t0`` returns the single-sample path.  Leaving the finite phase
    space raises `DivergenceError` with the last finite sample's time.
    """
    z0 = _as_state(z0, H.n)
    if t1 != t0:
        return _integrate_raw(H, z0, t0, t1, max(1, int(steps)))
    # nothing to integrate: the one sample is the start, checked here
    if not np.all(np.isfinite(z0)):
        raise DivergenceError("flow left the finite phase space", last_time=float(t0))
    return (np.array([float(t0)]), z0[None, :].copy(),
            np.eye(2 * H.n)[None], np.zeros(1))


def integrate(H, z0, t0, t1, steps):
    """Integrate Hamilton's equations from ``t0`` to ``t1``.

    Returns a `Trajectory` with states, flow Jacobians and accumulated
    action at ``steps + 1`` equally spaced times.  ``t1 == t0`` yields the
    length-one trajectory at ``z0``.  For backward flow maps use
    `flow_map`, which has no monotone-time requirement.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t1 < t0:
        raise ValueError("integrate requires t1 >= t0 (use flow_map for backward flow)")
    times, pts, jacs, act = flow_path(H, z0, t0, t1, steps)
    K = form_matrix(H.n)
    defect = float(np.max(np.abs(np.einsum("kji,jl,klm->kim", jacs, K, jacs) - K)))
    return Trajectory(times=times, points=pts, jacobians=jacs, action=act,
                      symplectic_defect=defect)


def flow_map(H, z0, t0, t1, steps=1000):
    """Endpoint, Jacobian and action of the flow map f_{t1,t0}: `flow_path`'s last sample."""
    _, pts, jacs, act = flow_path(H, z0, t0, t1, steps)
    return pts[-1], jacs[-1], float(act[-1])


def energy_drift(H, traj):
    """Max |H(z(t)) - H(z(0))| along a trajectory (autonomous H)."""
    e = hamiltonian_value(H, traj.points)
    return float(np.max(np.abs(e - e[0])))


def chapman_kolmogorov_residual(H, z0, t, t_mid, t_start, steps=1000):
    """Group-law defect ``|f_{t,t_mid}(f_{t_mid,t_start}(z0)) - f_{t,t_start}(z0)|``."""
    leg1, _, _ = flow_map(H, z0, t_start, t_mid, steps)
    two_leg, _, _ = flow_map(H, leg1, t_mid, t, steps)
    direct, _, _ = flow_map(H, z0, t_start, t, steps)
    return float(np.linalg.norm(two_leg - direct))


def quadratic_action_shortcut(z_start, z_end):
    """Exact Poincare-Cartan action for quadratic autonomous generators.

    Along any flow line of ``H = 1/2 z^T M z`` the accumulated
    ``integral(p dx - H dt)`` telescopes to ``(p.x - p'.x')/2``: integrate
    ``p dx`` by parts and apply Euler's homogeneous-function theorem
    (``z . grad H = 2H`` for a quadratic form), which cancels the ``H dt``
    term entirely.
    """
    z0 = np.asarray(z_start if not isinstance(z_start, PhasePoint) else z_start.as_vector(), dtype=float)
    z1 = np.asarray(z_end if not isinstance(z_end, PhasePoint) else z_end.as_vector(), dtype=float)
    n = z0.size // 2
    return 0.5 * (z1[n:] @ z1[:n] - z0[n:] @ z0[:n])


def action_integral(H, x_start, p_start, t_start, t_end, steps=2000):
    """Accumulated ``integral(p dx - H dt)`` from ``(x', p')``; returns (S, endpoint)."""
    z0 = np.concatenate([np.atleast_1d(np.asarray(x_start, dtype=float)),
                         np.atleast_1d(np.asarray(p_start, dtype=float))])
    _, pts, _, act = flow_path(H, z0, t_start, t_end, steps)
    return float(act[-1]), PhasePoint.from_vector(pts[-1])


def phase_transport(phi0, H, z_start, t_start, t_end, steps=2000):
    """Transport a phase value along the flow: ``phi0 + integral(p dx - H dt)``."""
    return float(phi0) + float(flow_path(H, z_start, t_start, t_end, steps)[3][-1])


def hamilton_jacobi_residual(H, s_grid, x_grid, t_grid, detail=False):
    """Max interior residual of ``dS/dt + H(x, dS/dx, t) = 0`` (n = 1 grids).

    ``s_grid[i, k]`` samples a candidate action ``S`` at ``x_grid[i]``,
    ``t_grid[k]``.  Derivatives use central differences, so the report is
    only as sharp as the grid: the spacings are returned alongside the
    residual when ``detail`` is set, and a grid too coarse for differencing
    is an error rather than a guess.
    """
    if H.n != 1:
        raise ValueError("grid residual is defined for one degree of freedom")
    s = np.asarray(s_grid, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if s.shape != (x.size, t.size):
        raise ValueError("S grid shape must be (len(x), len(t))")
    if x.size < 3 or t.size < 3:
        raise ValueError("need at least 3 grid points per axis for central differences")
    dx = x[1] - x[0]
    dt = t[1] - t[0]
    if not (np.allclose(np.diff(x), dx) and np.allclose(np.diff(t), dt)):
        raise ValueError("grids must be uniformly spaced")
    s_t = (s[1:-1, 2:] - s[1:-1, :-2]) / (2 * dt)
    s_x = (s[2:, 1:-1] - s[:-2, 1:-1]) / (2 * dx)
    xs = np.broadcast_to(x[1:-1, None], s_x.shape)
    z = np.stack([xs, s_x], axis=-1)
    resid = np.abs(s_t + hamiltonian_value(H, z))
    worst = float(resid.max())
    if detail:
        return {"residual": worst, "dx": float(dx), "dt": float(dt),
                "grid": (int(x.size), int(t.size))}
    return worst


_MAX_HALVINGS = 4  # a Newton step no halving within this cap improves has stalled


def _position_block(jacs, frame):
    """x-projection ``A X + B P`` of a frame ``[X; P]`` under (stacked) flow Jacobians."""
    n = frame.shape[1]
    return jacs[..., :n, :n] @ frame[:n] + jacs[..., :n, n:] @ frame[n:]


def _shoot(H, source, target, theta0, t0, t1, steps, tol, max_iter, det_tol):
    """Damped Newton for the source point whose flow line lands over ``target``.

    ``source(theta)`` returns the start point and 2n x n tangent frame
    ``[X; P]``; the Newton matrix is their `_position_block`.  Each flow is
    integrated once (an accepted trial's path is the next evaluation), and a
    diverging trial is a rejected step.  Quadratic generators take one exact
    step.  Returns ``(theta, path, frame)``.
    """
    n = H.n
    steps = 1 if H.matrix is not None else steps

    def evaluate(theta):
        z0, frame = source(theta)
        return flow_path(H, z0, t0, t1, steps), frame

    theta = theta0
    path, frame = evaluate(theta)
    scale = tol * max(1.0, float(np.max(np.abs(target))))
    for _ in range(max_iter):
        resid = path[1][-1, :n] - target
        err = float(np.max(np.abs(resid)))
        if err <= scale:
            return theta, path, frame
        D = _position_block(path[2][-1], frame)
        if abs(np.linalg.det(D)) < det_tol:
            raise ConjugatePointError("the source's x-projection is singular along the "
                                      "Newton path (a conjugate point at the end time)")
        step = -np.linalg.solve(D, resid)
        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = theta + lam * step
            try:
                trial_path, trial_frame = evaluate(trial)
            except DivergenceError:
                pass  # a trial flung off the bounded flow is a rejected step
            else:
                if float(np.max(np.abs(trial_path[1][-1, :n] - target))) < err:
                    theta, path, frame = trial, trial_path, trial_frame
                    break
            lam /= 2
        else:
            raise NumericalError(
                f"no source point found for grid position {target.tolist()}: the "
                "source-point solve stalled (past a fold of the flowed source, "
                "or the window is too wide)")
    raise NumericalError(
        f"source-point solve did not converge at grid position {target.tolist()}")


def two_point_action(H, x_start, x_end, t_start, t_end, steps=800,
                     p_guess=None, tol=1e-12, max_iter=50):
    """Solve the two-point boundary problem and return its action data.

    One damped shooting solve (`_shoot`) from the momentum fibre over
    ``x_start`` (frame ``[0; I]``) finds the ``p'`` whose flow line reaches
    ``x_end`` at ``t_end``, from ``p_guess`` or the straight-line momentum.
    Quadratic generators take one exact step per flow; a diverging trial is
    a rejected step.  Returns a dict with the action ``S``, the endpoint
    momenta, and ``det dx/dp'``.  Raises `ConjugatePointError` when the
    block is (near-)singular, i.e. outside the free window, and
    `NumericalError` ("no source point found") past a fold of the fibre.
    """
    n = H.n
    x0 = np.atleast_1d(np.asarray(x_start, dtype=float))
    x1 = np.atleast_1d(np.asarray(x_end, dtype=float))
    if x0.shape != (n,) or x1.shape != (n,):
        raise ValueError("positions must have length n")
    if not np.all(np.isfinite(np.concatenate([x0, x1]))):
        raise ValueError("positions must be finite")
    tau = t_end - t_start
    if tau == 0:
        raise ValueError("two-point problem needs distinct times")

    fibre = np.vstack([np.zeros((n, n)), np.eye(n)])
    p0 = np.asarray(p_guess, dtype=float) if p_guess is not None else (x1 - x0) / tau
    p0, (_, pts, jacs, act), _ = _shoot(
        H, lambda p: (np.concatenate([x0, p]), fibre), x1, p0, t_start, t_end, steps,
        tol, max_iter, 1e-12)
    det_b = np.linalg.det(jacs[-1, :n, n:])
    if abs(det_b) < 1e-10:
        raise ConjugatePointError("dx/dp' is singular at this time separation")
    return {"action": float(act[-1]), "p_start": p0, "p_end": pts[-1, n:],
            "det_block": float(det_b), "endpoint": pts[-1]}


def generating_function_check(H, t_start, t_end, sample_count=20, rng=None,
                              steps=800, fd_step=1e-4, det_tol=1e-8):
    """Check the action's generating-function identities at sampled endpoints.

    For seeded random ``(x', p')`` the flow's ``dx/dp'`` block must be
    nonsingular (free window), and central finite differences of the
    two-point action must reproduce ``dS/dx = p`` and ``dS/dx' = -p'``.
    Caustics are reported, not raised.
    """
    if rng is None:
        rng = np.random.default_rng(425411)
    n = H.n
    report = {
        "samples": int(sample_count),
        "free_window_violations": 0,
        "min_abs_det_block": np.inf,
        "grad_x_error": 0.0,
        "grad_x_start_error": 0.0,
    }
    for _ in range(sample_count):
        x0 = rng.uniform(-1, 1, size=n)
        p0 = rng.uniform(-1, 1, size=n)
        z1, jac, _ = flow_map(H, np.concatenate([x0, p0]), t_start, t_end, steps)
        det_b = float(np.linalg.det(jac[:n, n:]))
        report["min_abs_det_block"] = min(report["min_abs_det_block"], abs(det_b))
        if abs(det_b) < det_tol:
            report["free_window_violations"] += 1
            continue
        x1 = z1[:n]

        def action(xa, xb, warm):
            return two_point_action(H, xa, xb, t_start, t_end, steps=steps,
                                    p_guess=warm)["action"]

        for i in range(n):
            e = np.zeros(n)
            e[i] = fd_step
            d_end = (action(x0, x1 + e, p0) - action(x0, x1 - e, p0)) / (2 * fd_step)
            d_start = (action(x0 + e, x1, p0) - action(x0 - e, x1, p0)) / (2 * fd_step)
            report["grad_x_error"] = max(report["grad_x_error"], abs(d_end - z1[n + i]))
            report["grad_x_start_error"] = max(
                report["grad_x_start_error"], abs(d_start + p0[i])
            )
    report["passed"] = (
        report["free_window_violations"] == 0
        and report["grad_x_error"] <= 1e-5
        and report["grad_x_start_error"] <= 1e-5
    )
    return report


def shared_level_set_orbit_check(H, g_coeffs, z0, period, steps=4000):
    """Distance between the orbits of H and of K = g(H) through ``z0``.

    Both flows are confined to the level set of H through ``z0``; K
    traverses it at speed ``g'(E)``.  The K-trajectory is sampled over the
    matched window ``period / g'(E)`` so samples pair up point-by-point,
    and the largest paired distance (an upper bound for the Hausdorff
    distance of the orbit sets) is returned.
    """
    z0 = _as_state(z0, H.n)
    g = np.atleast_1d(np.asarray(g_coeffs, dtype=float))
    if g.size >= 2 and g[1] == 1.0 and np.all(g[2:] == 0):
        return 0.0  # shifted identity: literally the same flow
    e0 = float(hamiltonian_value(H, z0))
    g1 = float(_g_derivative(g, e0))
    if g1 <= 0:
        raise ValueError("reparameterization must be increasing near the orbit energy")
    K = reparameterized_hamiltonian(H, g)
    base = integrate(H, z0, 0.0, period, steps)
    other = integrate(K, z0, 0.0, period / g1, steps)
    return float(np.max(np.linalg.norm(base.points - other.points, axis=1)))
