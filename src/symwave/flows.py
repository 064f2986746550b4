"""Hamiltonian flows with variational transport and action bookkeeping.

States are ``z = (x, p)`` and ``dz/dt = J grad H``, ``J = [[0, I], [-I, 0]]``.
Each trajectory carries the Jacobian of its flow map, solved from the
variational equations (determinant signals near caustics need it, not finite
differences), and the Poincare-Cartan action ``integral(p dx - H dt)``.

Each family is one table entry: value, gradient, integrator, action, whether
one step is exact, and its turn rate.  Quadratic Hamiltonians (harmonic
included) step by the exact matrix exponential, built once per (matrix, time
step) and shared read-only.  The quartic family, whose degrees of freedom are
uncoupled, steps by Yoshida's triple of leapfrogs on Python floats, one
degree of freedom at a time with its exact 2x2 Jacobian block, and powers as
products so that its bits do not depend on numpy's SIMD ``pow``.  Each
integrator bounds how far each step can turn ``arg det(P - iX)`` of any
flowed plane ``[X; P]``: by at most ``n ||S||_2`` along ``exp(s J S)`` (the
crossing form), summed over the step's generators.  The caustic kernel
`maslov._end_lifts` refuses a bound of pi or more, where an index could alias.

`flow_path` is the one path function: it integrates, scans the path and then
its action for overflow, and returns one `Trajectory`; `flow_map` is its last
sample and fails as it fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CoarseDivergenceError, ConjugatePointError, DivergenceError, NumericalError
from .symplectic import _UNWRAP_STEP, _expm, form_matrix

__all__ = [
    "HamiltonianSpec", "Trajectory", "quadratic_hamiltonian", "harmonic_hamiltonian",
    "quartic_hamiltonian", "flow_path", "flow_map", "chapman_kolmogorov_residual",
    "quadratic_action_shortcut", "hamilton_jacobi_residual", "two_point_action",
]

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
    matrix: np.ndarray | None = None  # quadratic: H = 1/2 z^T M z
    omegas: np.ndarray | None = None
    masses: np.ndarray | None = None
    coupling: float = 0.0  # quartic family

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")


def quadratic_hamiltonian(M):
    """H(z) = 1/2 z^T M z for a symmetric 2n x 2n matrix M."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise ValueError("quadratic form must be a 2n x 2n matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("quadratic form must be finite")
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
    with np.errstate(over="ignore"):
        matrix = np.diag(np.concatenate([masses * omegas**2, 1.0 / masses]))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("frequencies and masses must be finite, and so must m omega^2 and 1/m")
    return HamiltonianSpec(kind="quadratic", n=n, matrix=matrix, omegas=omegas, masses=masses)


def quartic_hamiltonian(omegas, coupling, masses=None):
    """Anharmonic oscillator: harmonic part plus ``coupling * sum_j x_j^4``."""
    spec = harmonic_hamiltonian(omegas, masses)
    if not np.isfinite(coupling):
        raise ValueError("quartic coupling must be finite")
    if coupling < 0:
        raise ValueError("quartic coupling must be nonnegative")
    return HamiltonianSpec(
        kind="quartic", n=spec.n, omegas=spec.omegas, masses=spec.masses,
        coupling=float(coupling),
    )


def _hamiltonian_value(H, z):
    """Evaluate H at phase points ``z`` (vectorized over leading axes)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 2 * H.n:
        raise ValueError("phase-space dimension mismatch")
    return _family(H).value(H, z)


def _hamiltonian_gradient(H, z):
    """Full phase-space gradient (dH/dx, dH/dp), vectorized like the value."""
    return _family(H).gradient(H, np.asarray(z, dtype=float))


def _vector_field(H, z):
    """Hamiltonian vector field J grad H."""
    g = _hamiltonian_gradient(H, z)
    n = H.n
    return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)


def _quartic_value(H, z):
    x, p = z[..., :H.n], z[..., H.n:]
    return (
        0.5 * np.einsum("...j,j->...", p**2, 1.0 / H.masses)
        + 0.5 * np.einsum("...j,j->...", x**2, H.masses * H.omegas**2)
        + H.coupling * (x**4).sum(axis=-1)
    )


def _quartic_gradient(H, z):
    x, p = z[..., :H.n], z[..., H.n:]
    gx = H.masses * H.omegas**2 * x + 4.0 * H.coupling * x**3
    gp = p / H.masses
    return np.concatenate([gx, gp], axis=-1)


class Trajectory(NamedTuple):
    """A sampled flow path, as `flow_path` returns it.

    ``points[k]`` is the state at ``times[k]``; ``jacobians[k]`` solves the
    variational equations from ``times[0]`` to ``times[k]``; ``action[k]``
    accumulates ``integral(p dx - H dt)`` along the discrete path.
    ``turns[k]`` bounds how far the step from ``times[k]`` to ``times[k + 1]``
    can turn ``arg det(P - iX)`` of any flowed plane ``[X; P]``.
    """

    times: np.ndarray
    points: np.ndarray
    jacobians: np.ndarray
    action: np.ndarray
    turns: np.ndarray


def _check_path_finite(times, pts, what="flow left the finite phase space", turns=()):
    # the sample before the first non-finite one is the last valid one
    bad = ~np.all(np.isfinite(pts), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        far = np.flatnonzero(~(np.asarray(turns[: max(0, k - 1)]) < _UNWRAP_STEP))
        if far.size:
            what = (f"sampled path too coarse: step {far[0] + 1} may turn arg det u by "
                    f"{turns[far[0]]:.6g}, and the {what}")
        error = CoarseDivergenceError if far.size else DivergenceError
        raise error(what, last_time=float(times[max(0, k - 1)]))


# Each integrator fills points[1:] and jacobians[1:] from the start sample at
# two or more equally spaced times, and leaves overflow to the path scan; it
# fills turns[k] with its bound on how far step k + 1 turns arg det(P - iX).

@functools.lru_cache(maxsize=256)
def _quadratic_step(matrix, n, dt):
    """Read-only one-step map ``expm(dt J M)`` of ``M``'s float64 bytes.

    Shooting solves and grids repeat few (M, dt) pairs over many flows, so
    each step matrix is built once and shared; read-only, as every caller
    gets the same array.  An overflowing exponential raises `NumericalError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        step = _expm(dt * (_jmat(n) @ np.frombuffer(matrix).reshape(2 * n, 2 * n)))
    if not np.all(np.isfinite(step)):
        raise NumericalError(f"the quadratic step exponential expm(dt J M) overflowed "
                             f"at dt = {dt:.9g}; M is too stiff for this step")
    step.flags.writeable = False
    return step


@functools.lru_cache(maxsize=256)
def _quadratic_rate(matrix, n):
    # n ||M||_2 of M's bytes: along exp(t J M), arg det u turns at tr(Q^T M Q), Q orthonormal
    return n * float(np.linalg.norm(np.frombuffer(matrix).reshape(2 * n, 2 * n), 2))


def _integrate_quadratic(H, times, pts, jacs, turns):
    matrix = H.matrix.tobytes()
    step = _quadratic_step(matrix, H.n, float(times[1] - times[0]))
    turns[:] = _quadratic_rate(matrix, H.n) * np.abs(np.diff(times))
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


def _integrate_quartic(H, times, pts, jacs, turns):
    # Yoshida's triple of kick-drift-kick leapfrogs per step, one uncoupled
    # degree of freedom at a time on Python floats (numpy's per-call cost on
    # length-n arrays was nearly all of a step), with its exact 2x2 Jacobian
    # block; the off-block entries are 0.  Each potential evaluation serves
    # the half-kick after a drift and the one before the next.  Powers are
    # products: float ``**`` raises on overflow, and numpy's array pow rounds
    # unlike ``x * x * x``.  Overflow runs on as inf/nan to the path scan.
    # A kick's generator has norm |c| = |h/2| V''(x), a drift's |h|/m; the
    # degrees of freedom may step one after another, so n times the largest
    # of their per-step sums bounds the step's turn of arg det u.
    n = H.n
    dt = float(times[1] - times[0])
    hs = [w * dt for w in (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1)]
    g4, g12 = 4.0 * H.coupling, 12.0 * H.coupling
    jacs[1:] = 0.0
    turns[:] = 0.0
    for j, (m, w2) in enumerate(zip(H.masses.tolist(), (H.masses * H.omegas**2).tolist())):
        subs = [(h, 0.5 * h, h / m) for h in hs]
        drifts = sum(abs(h_over_m) for _, _, h_over_m in subs)
        x, p = float(pts[0, j]), float(pts[0, n + j])
        xx, xp, px, pp = 1.0, 0.0, 0.0, 1.0  # dx/dx0, dx/dp0, dp/dx0, dp/dp0
        v_grad = w2 * x + g4 * (x * x * x)
        v_hess = w2 + g12 * (x * x)
        rows = []
        for _ in range(len(times) - 1):
            turn = drifts
            for h, half_h, h_over_m in subs:
                c = half_h * v_hess
                turn += abs(c)
                p -= half_h * v_grad
                px -= c * xx
                pp -= c * xp
                x += h * p / m
                xx += h_over_m * px
                xp += h_over_m * pp
                v_grad = w2 * x + g4 * (x * x * x)
                v_hess = w2 + g12 * (x * x)
                c = half_h * v_hess
                turn += abs(c)
                p -= half_h * v_grad
                px -= c * xx
                pp -= c * xp
            rows.append((x, p, xx, xp, px, pp, turn))
        block = np.array(rows)
        pts[1:, [j, n + j]] = block[:, :2]
        jacs[1:, [j, j, n + j, n + j], [j, n + j, j, n + j]] = block[:, 2:6]
        np.maximum(turns, block[:, 6], out=turns)
    turns *= n


def _trapezoid_action(H, times, pts):
    n = H.n
    xdot = _vector_field(H, pts)[:, :n]
    lagrangian = np.einsum("kj,kj->k", pts[:, n:], xdot) - _hamiltonian_value(H, pts)
    return np.concatenate([[0.0], np.cumsum(
        0.5 * (lagrangian[1:] + lagrangian[:-1]) * np.diff(times)
    )])


class _Family(NamedTuple):
    value: Callable  # (H, z) -> H(z), vectorized over leading axes
    gradient: Callable  # (H, z) -> (dH/dx, dH/dp), vectorized likewise
    integrator: Callable  # (H, times, points, jacobians, turns) -> None, fills the path
    action: Callable  # (H, times, points) -> accumulated action per sample
    exact: bool  # one integrator step is the exact flow map, at any dt
    rate: Callable | None  # (H) -> n sup ||H''||_2, for a Hessian bounded over phase space


_FAMILIES = {
    "quadratic": _Family(
        lambda H, z: 0.5 * np.einsum("...i,ij,...j->...", z, H.matrix, z),
        lambda H, z: z @ H.matrix.T,
        _integrate_quadratic, _quadratic_action, True,
        lambda H: _quadratic_rate(H.matrix.tobytes(), H.n)),
    "quartic": _Family(_quartic_value, _quartic_gradient, _integrate_quartic,
                       _trapezoid_action, False, None),
}


def _family(H):
    return _FAMILIES[H.kind]


def _integrate_raw(H, z0, t0, t1, steps):
    # the one integrator dispatch and overflow scan; the action sums a finite
    # path, and a finite path can still overflow it (H squares p)
    family = _family(H)
    times = np.linspace(t0, t1, steps + 1)
    pts = np.empty((steps + 1, 2 * H.n))
    jacs = np.empty((steps + 1, 2 * H.n, 2 * H.n))
    turns = np.empty(steps)
    pts[0], jacs[0] = z0, np.eye(2 * H.n)
    family.integrator(H, times, pts, jacs, turns)
    _check_path_finite(times, pts, turns=() if family.exact else turns)
    with np.errstate(over="ignore", invalid="ignore"):
        action = family.action(H, times, pts)
    _check_path_finite(times, action[:, None], "flow action left the finite range")
    return Trajectory(times, pts, jacs, action, turns)


def _as_state(z, n):
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * n,):
        raise ValueError("state must be a 2n phase-space vector")
    return z


def _check_steps(steps):
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, not {steps!r}")


def flow_path(H, z0, t0, t1, steps=1000):
    """Sampled path of the flow map, a `Trajectory` of ``steps + 1`` samples.

    ``t1 < t0`` integrates backward, ``t1 == t0`` returns the single-sample
    path, with no step to bound.  Leaving the finite phase space raises
    `DivergenceError` with the last finite sample's time, as does an action
    that overflows on a finite path.  ``steps`` must be an integer >= 1, even then.
    """
    _check_steps(steps)
    z0 = _as_state(z0, H.n)
    if t1 != t0:
        return _integrate_raw(H, z0, t0, t1, steps)
    # nothing to integrate: the one sample is the start, checked here
    times, points = np.array([float(t0)]), z0[None, :].copy()
    _check_path_finite(times, points)
    return Trajectory(times, points, np.eye(2 * H.n)[None], np.zeros(1), np.zeros(0))


def flow_map(H, z0, t0, t1, steps=1000):
    """Endpoint, Jacobian and action of the flow map f_{t1,t0}: `flow_path`'s last sample."""
    path = flow_path(H, z0, t0, t1, steps)
    return path.points[-1], path.jacobians[-1], float(path.action[-1])


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
    z0 = np.asarray(z_start, dtype=float)
    z1 = np.asarray(z_end, dtype=float)
    n = z0.size // 2
    return 0.5 * (z1[n:] @ z1[:n] - z0[n:] @ z0[:n])


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
    resid = np.abs(s_t + _hamiltonian_value(H, z))
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
    diverging trial is a rejected step.  A family whose one step is exact
    takes one step.  Returns ``(theta, path, frame)``, ``path`` a `Trajectory`.
    """
    n = H.n
    steps = 1 if _family(H).exact else steps

    def evaluate(theta):
        z0, frame = source(theta)
        return flow_path(H, z0, t0, t1, steps), frame

    theta = theta0
    path, frame = evaluate(theta)
    scale = tol * max(1.0, float(np.max(np.abs(target))))
    for _ in range(max_iter):
        resid = path.points[-1, :n] - target
        err = float(np.max(np.abs(resid)))
        if err <= scale:
            return theta, path, frame
        D = _position_block(path.jacobians[-1], frame)
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
                if float(np.max(np.abs(trial_path.points[-1, :n] - target))) < err:
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
    p0, path, _ = _shoot(
        H, lambda p: (np.concatenate([x0, p]), fibre), x1, p0, t_start, t_end, steps,
        tol, max_iter, 1e-12)
    det_b = np.linalg.det(path.jacobians[-1, :n, n:])
    if abs(det_b) < 1e-10:
        raise ConjugatePointError("dx/dp' is singular at this time separation")
    return {"action": float(path.action[-1]), "p_start": p0, "p_end": path.points[-1, n:],
            "det_block": float(det_b), "endpoint": path.points[-1]}
