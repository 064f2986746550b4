"""Semiclassical waveforms on quantized circles, tori, and gradient graphs.

A waveform is the triple (phase, argument index, half-density) living on the
universal cover of a Lagrangian manifold, evaluated as

    psi(z~) = exp(i phi(z~) / hbar) * i**m(z~) * sqrt(rho(z)),

where ``phi`` integrates ``p dx`` along the manifold, ``m`` is the Leray
index of the lifted tangent plane against a reference lift, and ``rho`` is a
nonnegative density coefficient in the manifold parameter.  The supported
manifolds are parameterized circles ``x = r cos(theta), p = r sin(theta)``,
products of such circles with flat line factors, gradient graphs
``p = grad(Phi)(x)``, and Hamiltonian-flow images of any of these, whose
lifts are read from the flow's sampled Jacobians (one flow line kept).

Conventions
-----------
* The circle/torus parameter increases counterclockwise in each ``(x_j, p_j)``
  plane.  A torus keeps one loop record, `capacity.TorusSpec`'s
  ``loop_integral`` and ``loop_index``: the generator loop carries
  ``loop_integral = -pi r^2`` and the tangent loop index ``+2``, the deck
  shift of the torus cover lift's ``alpha`` over ``2 pi``, and the reversed
  loop carries both negated.  The deck
  factor ``exp(i (loop_integral / hbar + (pi/2) loop_index))`` and the
  quantization checks read this record, so they agree in either orientation.
* Every index read goes through the manifold's own ``cover_lift``: the
  Leray index of that lift against a base lift and its frame.
* The canonical index base is the vertical lift ``(I, 0)`` (the momentum
  fibre), matching the position-chart reading of shadows.  A horizontal
  plane ``{p = 0}``, such as a torus's flat factor, is lifted with
  ``arg det w = -pi`` per factor -- the limit of graph-plane lifts whose
  Hessian tends to zero.
* Gradient-graph manifolds use the generating function itself as the cover
  phase (it satisfies ``d phi = p dx`` and fixes the additive constant so
  that position-space formulas read ``exp(i Phi / hbar) * a``); their lifted
  tangent planes carry index 0 against the vertical base on every branch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import TorusSpec, _check_hbar, keller_maslov_check
from .errors import ConjugatePointError, NumericalError, RefinementError
from .flows import _check_steps, _family, _position_block, _shoot, flow_path
from .maslov import (
    LagrangianLift,
    _end_lifts,
    _vertical_crossings,
    deck_act,
    leray_index,
    vertical_lift,
)
from .symplectic import LagrangianFrame, _diagonal_torus_frame, frame_from_souriau, souriau_w

__all__ = [
    "CircleManifold",
    "TorusManifold",
    "GradientGraphManifold",
    "FlowedManifold",
    "CoverPoint",
    "Waveform",
    "Shadow",
    "argument_index_on_manifold",
    "sqrt_de_rham",
    "is_quantized",
    "evolve",
    "deck_covariance_check",
    "shadow",
    "van_vleck_propagate",
    "morse_index",
    "oscillator_spectrum_from_waveforms",
]

_IPOW = (1 + 0j, 1j, -1 + 0j, -1j)


def _ipow(m):
    """``i**m`` for integer ``m``, exact (no float power)."""
    return _IPOW[int(m) % 4]


def _circle_phase(theta, r):
    """Cover phase ``(r^2 / 2)(sin(theta) cos(theta) - theta)`` of the circle.

    The unique primitive of ``p dx = -r^2 sin^2(theta) dtheta`` vanishing at
    ``theta = 0``; one full parameter turn subtracts ``pi r^2``.
    """
    return float(0.5 * r * r * (np.sin(theta) * np.cos(theta) - theta))


def _coerce_param(theta, dim):
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.shape != (dim,):
        raise ValueError(f"parameter must have {dim} component(s), got shape {th.shape}")
    return th


class TorusManifold(TorusSpec):
    """Product of Lagrangian circles with optional flat ``{p_i = 0}`` line factors.

    The parameter stacks the circle angles first, then the flat positions.
    """

    @property
    def param_dim(self):
        return self.n

    def _split(self, theta):
        th = _coerce_param(theta, self.param_dim)
        k = len(self.radii)
        return th[:k], th[k:]

    def point(self, theta):
        ang, flat = self._split(theta)
        r = np.asarray(self.radii)
        x = np.concatenate([r * np.cos(ang), flat])
        p = np.concatenate([r * np.sin(ang), np.zeros(self.flat_dims)])
        return np.concatenate([x, p])

    def tangent_frame(self, theta):
        return _diagonal_torus_frame(self._split(theta)[0], self.flat_dims)

    def phase(self, theta):
        ang, _ = self._split(theta)
        return float(sum(_circle_phase(a, r) for a, r in zip(ang, self.radii)))

    def cover_lift(self, theta):
        """Lift ``w = diag(e^{2 i theta_j}, -1, ...)``, ``alpha = 2 sum theta_j - pi flat_dims``."""
        ang, _ = self._split(theta)
        diag = np.concatenate([np.exp(2j * ang), -np.ones(self.flat_dims)])
        return LagrangianLift(np.diag(diag), self._cover_alpha(ang))

    def deck(self, theta, mu):
        """Parameter of ``gamma^mu . z~`` (one full counterclockwise turn per unit)."""
        th = _coerce_param(theta, self.param_dim)
        shift = np.concatenate([2.0 * math.pi * self._winding(mu), np.zeros(self.flat_dims)])
        return th + shift


class CircleManifold(TorusManifold):
    """The Lagrangian circle ``x = r cos(theta), p = r sin(theta)``: the one-circle torus."""

    def __init__(self, radius):
        super().__init__((radius,))

    @property
    def radius(self):
        return self.radii[0]


@dataclass(frozen=True)
class GradientGraphManifold:
    """The graph ``p = grad(Phi)(x)`` of a potential with value/grad/hess methods.

    Simply connected, hence automatically quantized: every loop is trivial
    and carries index 0.  The cover phase is the generating function ``Phi``
    itself (``d Phi = p dx`` along the graph).
    """

    potential: object

    @property
    def n(self):
        return self.potential.n

    @property
    def param_dim(self):
        return self.potential.n

    def point(self, theta):
        x = _coerce_param(theta, self.param_dim)
        return np.concatenate([x, np.asarray(self.potential.grad(x), dtype=float)])

    def tangent_frame(self, theta):
        x = _coerce_param(theta, self.param_dim)
        return LagrangianFrame(np.eye(self.n), np.asarray(self.potential.hess(x)))

    def phase(self, theta):
        x = _coerce_param(theta, self.param_dim)
        return float(self.potential.value(x))

    def cover_lift(self, theta):
        """Lift with ``alpha = sum_j (2 arctan(lambda_j) - pi)`` over Hessian eigenvalues.

        This is the continuous section of lifts over the (contractible) set of
        graph planes that assigns each one-dimensional factor the line angle
        ``arctan(Phi'') - pi/2`` in ``(-pi, 0)``; its Leray index against the
        vertical base vanishes identically.
        """
        x = _coerce_param(theta, self.param_dim)
        S = np.asarray(self.potential.hess(x), dtype=float)
        w = souriau_w(LagrangianFrame(np.eye(self.n), S))
        alpha = float(np.sum(2.0 * np.arctan(np.linalg.eigvalsh(S)) - math.pi))
        return LagrangianLift(w, alpha)

    def deck(self, theta, mu):
        if np.any(np.asarray(mu, dtype=int) != 0):
            raise ValueError("gradient graphs are simply connected: no deck generators")
        return _coerce_param(theta, self.param_dim)

    def loop_integral(self, mu):
        self.deck(np.zeros(self.param_dim), mu)
        return 0.0

    def loop_index(self, mu):
        self.deck(np.zeros(self.param_dim), mu)
        return 0


class FlowedManifold:
    """The image of a base manifold under a Hamiltonian flow ``f_{t, t'}``.

    Points keep the *base* parameter (the flow carries labels along), so the
    density coefficient in the parameter is preserved exactly and the deck
    structure is inherited unchanged: Hamiltonian isotopies leave both the
    loop integrals of ``p dx`` (``f* (p dx) - p dx`` is exact) and the integer
    loop indices (homotopy invariance) untouched.  Cover lifts carry the base
    lift along the flow's sampled Jacobians through the caustic kernel
    `maslov._end_lifts`, so caustic crossings enter as plain index jumps.
    Only the last parameter's flow line is kept, which bounds memory.
    Nesting is supported: the base may itself be a `FlowedManifold`.
    """

    def __init__(self, base, hamiltonian, t_start, t_end, steps=1000):
        if hamiltonian.n != base.n:
            raise ValueError("Hamiltonian and manifold dimensions disagree")
        _check_steps(steps)
        self.base = base
        self.hamiltonian = hamiltonian
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.steps = int(steps)
        self._line = (None, None)

    @property
    def n(self):
        return self.base.n

    @property
    def param_dim(self):
        return self.base.param_dim

    def path(self, theta):
        """The flow line, a `flows.Trajectory`; the last one is kept, read-only."""
        th = _coerce_param(theta, self.param_dim)
        key = th.tobytes()
        if self._line[0] != key:
            data = flow_path(self.hamiltonian, self.base.point(th),
                             self.t_start, self.t_end, self.steps)
            for arr in data:
                arr.flags.writeable = False
            self._line = (key, data)
        return self._line[1]

    def point(self, theta):
        return self.path(theta).points[-1].copy()

    def action(self, theta):
        """Accumulated ``integral(p dx - H dt)`` along the flow line from the base point."""
        return float(self.path(theta).action[-1])

    def tangent_frame(self, theta):
        return self.base.tangent_frame(theta).transformed(self.path(theta).jacobians[-1])

    def phase(self, theta):
        return self.base.phase(theta) + self.action(theta)

    def cover_lift(self, theta):
        """The base lift carried along the sampled Jacobians of the flow line."""
        path, frame = self.path(theta), self.base.tangent_frame(theta).stacked()
        start, end = _end_lifts(path.jacobians @ frame, path.turns)
        return LagrangianLift(end.w, self.base.cover_lift(theta).alpha + end.alpha - start.alpha)

    def deck(self, theta, mu):
        return self.base.deck(theta, mu)

    def loop_integral(self, mu):
        return self.base.loop_integral(mu)

    def loop_index(self, mu):
        return self.base.loop_index(mu)


@dataclass(frozen=True)
class CoverPoint:
    """A point of the universal cover: a manifold plus an unwrapped parameter."""

    manifold: object
    theta: np.ndarray

    def __post_init__(self):
        th = _coerce_param(self.theta, self.manifold.param_dim)
        object.__setattr__(self, "theta", th)


def _cover_index(manifold, theta, base, base_frame):
    # the Leray index of the manifold's cover lift at theta against a base
    # lift and its frame
    return leray_index(manifold.cover_lift(theta), base,
                       frames=(manifold.tangent_frame(theta), base_frame))


def _cover_root(amplitude, manifold, theta, base, base_frame):
    # i**m sqrt(a) at the cover index m, and 0j without an index read when a is zero
    a = float(amplitude)
    if a < 0:
        raise ValueError("amplitude must be nonnegative")
    if a == 0:
        return 0j
    return _ipow(_cover_index(manifold, theta, base, base_frame)) * math.sqrt(a)


def argument_index_on_manifold(zcheck, base):
    """Leray index of the lifted tangent plane at a cover point against a base lift.

    The lift is the manifold's own ``cover_lift`` at the unwrapped
    parameter.  On the circle with the vertical base this is
    ``floor(theta / pi) + 1``.
    """
    return _cover_index(zcheck.manifold, zcheck.theta, base, frame_from_souriau(base.w))


def sqrt_de_rham(amplitude, zcheck, base, orientation=1):
    """Square root of a de Rham density value: ``i**m * sqrt(amplitude)``.

    ``orientation=+1`` uses the index against ``base`` itself; ``-1`` uses the
    deck-shifted base (the other orientation of the evaluation vector), which
    lowers the exponent by one.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    ref = base if orientation == 1 else deck_act(1, base)
    return _cover_root(amplitude, zcheck.manifold, zcheck.theta, ref, frame_from_souriau(ref.w))


@dataclass(frozen=True, eq=False)
class Waveform:
    """A semiclassical waveform ``exp(i phase / hbar) * i**index * sqrt(amplitude)``.

    ``amplitude`` is a callable returning the nonnegative density coefficient
    in the manifold parameter; ``phase`` defaults to the manifold phase and
    ``index_base`` to the vertical lift.  Waveforms are immutable; `evolve`
    produces a new value.
    """

    manifold: object
    amplitude: object
    hbar: float
    index_base: LagrangianLift = None
    phase: object = None

    def __post_init__(self):
        if not callable(self.amplitude):
            raise ValueError("amplitude must be callable on the manifold parameter")
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))
        if self.index_base is None:
            object.__setattr__(self, "index_base", vertical_lift(self.manifold.n))
        if self.phase is None:
            object.__setattr__(self, "phase", self.manifold.phase)
        object.__setattr__(self, "_base_frame", frame_from_souriau(self.index_base.w))

    def index(self, theta):
        """Leray index of the manifold's cover lift against the index base."""
        return _cover_index(self.manifold, theta, self.index_base, self._base_frame)

    def value(self, theta):
        root = _cover_root(self.amplitude(theta), self.manifold, theta, self.index_base,
                           self._base_frame)
        if root == 0:
            return 0j
        return np.exp(1j * float(self.phase(theta)) / self.hbar) * root


def is_quantized(manifold, hbar):
    """Whether every generator loop satisfies the half-integer action condition.

    Checks ``action / (2 pi hbar) - loop_index / 4`` for integrality within
    1e-9 (`capacity.keller_maslov_check`) on each circle generator; gradient
    graphs are simply connected and always pass.
    The check is insensitive to loop orientation (action and index flip sign
    together).
    """
    hbar = _check_hbar(hbar)
    while isinstance(manifold, FlowedManifold):
        manifold = manifold.base
    if isinstance(manifold, TorusSpec):
        return bool(keller_maslov_check(manifold, hbar))
    if isinstance(manifold, GradientGraphManifold):
        return True
    raise ValueError("unsupported manifold for quantization checks")


def evolve(psi, H, t_start, t_end, steps=1000):
    """Transport a waveform by the Hamiltonian flow over ``[t_start, t_end]``.

    The phase gains the accumulated ``integral(p dx - H dt)`` of each flow
    line, the index follows the transported tangent lift (index jumps at
    caustics), and the density coefficient rides along unchanged in the
    carried parameter -- mass is conserved exactly.  ``t_end == t_start``
    returns ``psi`` itself; compositions agree with the direct map within
    integrator tolerance.
    """
    if t_end == t_start:
        return psi
    manifold = FlowedManifold(psi.manifold, H, t_start, t_end, steps=steps)
    base_phase = psi.phase
    return Waveform(manifold, psi.amplitude, psi.hbar, index_base=psi.index_base,
                    phase=lambda th: float(base_phase(th)) + manifold.action(th))


def deck_covariance_check(psi, theta, mu):
    """Compare ``psi(gamma z~) / psi(z~)`` with the predicted deck factor.

    The factor is ``exp(i (loop_integral / hbar + (pi/2) loop_index))``; it
    equals 1 exactly when the manifold is quantized.
    """
    man = psi.manifold
    base_value = psi.value(theta)
    if base_value == 0:
        raise ValueError("deck covariance needs a nonvanishing amplitude")
    observed = psi.value(man.deck(theta, mu)) / base_value
    predicted = np.exp(1j * (man.loop_integral(mu) / psi.hbar
                             + 0.5 * math.pi * man.loop_index(mu)))
    return {"observed": complex(observed), "predicted": complex(predicted),
            "defect": float(abs(observed - predicted))}


@dataclass(frozen=True)
class Shadow:
    """Position-space samples of a waveform: branch sums with caustic flags."""

    positions: np.ndarray
    values: np.ndarray
    branch_count: np.ndarray
    caustic: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "branch_count", np.asarray(self.branch_count, dtype=int))
        object.__setattr__(self, "caustic", np.asarray(self.caustic, dtype=bool))


def shadow(psi, x_grid):
    """Sum the waveform's branch contributions over a position grid.

    Each branch contributes ``psi.value(theta_j) * |dtheta/dx|^{1/2}``; on the
    circle the two branches over ``|x| < r`` sit at ``theta = +/- arccos(x/r)``
    (principal sheet) with conversion ``(r^2 - x^2)^{-1/2}``, and grid points
    with ``|x|`` within 1e-8 of ``r`` are flagged rather than
    evaluated.  Gradient graphs have the single branch ``theta = x`` and no
    caustics, so the shadow is exactly ``exp(i Phi(x) / hbar) * sqrt(a(x))``
    with the default vertical index base.
    """
    x_grid = np.asarray(x_grid, dtype=float).reshape(-1)
    man = psi.manifold
    values = np.zeros(x_grid.shape, dtype=complex)
    branches = np.zeros(x_grid.shape, dtype=int)
    caustic = np.zeros(x_grid.shape, dtype=bool)
    if isinstance(man, GradientGraphManifold):
        if man.n != 1:
            raise ValueError("shadows are one-dimensional: need a graph over the line")
        for k, x in enumerate(x_grid):
            values[k] = psi.value(np.array([x]))
            branches[k] = 1
    elif isinstance(man, CircleManifold):
        r = man.radius
        for k, x in enumerate(x_grid):
            gap = r - abs(x)
            if abs(gap) <= 1e-8:
                caustic[k] = True
                branches[k] = 2
                values[k] = complex(np.nan, np.nan)
            elif gap < 0:
                branches[k] = 0
            else:
                theta_up = math.acos(x / r)
                conv = (r * r - x * x) ** -0.25
                values[k] = (psi.value(theta_up) + psi.value(-theta_up)) * conv
                branches[k] = 2
    else:
        raise ValueError("shadows support circle and gradient-graph manifolds")
    return Shadow(x_grid, values, branches, caustic)


_SCAN_MAX = 1_000_000  # steps of an exact window's conjugate scan, as many as a flow in `evolve`


def van_vleck_propagate(phi, amplitude, H, t_start, t_end, x_grid, hbar, det_tol=1e-10):
    """Short-time propagation of graph data ``exp(i phi / hbar) * amplitude``.

    For each grid position one damped shooting solve (`flows._shoot`, seeded
    from the previous grid point, at most 60 Newton steps to a relative miss
    of 1e-12) finds the unique source ``x'`` on the initial graph
    ``p = grad(phi)(x')``, frame ``[I; Hess(phi)]``; the value is

        exp(i (phi(x') + S) / hbar) * amplitude(x') * |det dx/dx'|^{-1/2},

    with ``S`` the flow-line action and ``dx/dx' = A + B Hess(phi)(x')`` from
    the variational Jacobian blocks.  A generator whose one step is exact
    takes one step per flow (the formula is then exact with constant
    amplitude), the others 400 steps.  A diverging trial is a rejected
    step.  A caustic at or inside the window (`maslov._vertical_crossings`
    of the flowed source plane) raises `ConjugatePointError`: the
    multi-branch sum applies there instead; ``det_tol`` only guards the
    Newton matrix.  Such a window is
    scanned once for all positions in max(64, ceil(2 rate T / pi)) exact
    steps, ``rate`` the family's ``n sup ||H''||_2``, so no step turns the
    plane by more than pi/2; a scan past `_SCAN_MAX` steps raises
    `RefinementError`.  Otherwise each source's path is scanned, and refused
    as too coarse if a step's turn bound reaches pi.  A grid position with no
    source point, such as one past a fold of the flowed graph, raises
    `NumericalError` ("no source point found") once a Newton step stalls
    through a few halvings.  ``phi`` must expose value/grad/hess.
    """
    n = H.n
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim == 1 and n == 1:
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != n:
        raise ValueError("x_grid must be a sequence of n-dimensional positions")
    if not np.all(np.isfinite(grid)):
        raise ValueError("positions must be finite")
    hbar = _check_hbar(hbar)

    if t_end == t_start:
        return np.array([np.exp(1j * float(phi.value(x)) / hbar) * float(amplitude(x))
                         for x in grid], dtype=complex)

    family = _family(H)
    if family.exact:  # one state-independent exact time scan, no step turning past pi/2
        need = 2 * family.rate(H) * abs(t_end - t_start) / math.pi
        if not need <= _SCAN_MAX:  # nor a span that overflows
            raise RefinementError(f"window too long to scan for conjugate points in "
                                  f"{_SCAN_MAX} steps")
        scan = flow_path(H, np.zeros(2 * n), t_start, t_end, steps=max(64, math.ceil(need)))

    def graph(xp):
        return (np.concatenate([xp, np.asarray(phi.grad(xp), dtype=float)]),
                np.vstack([np.eye(n), np.asarray(phi.hess(xp), dtype=float)]))

    out = np.empty(len(grid), dtype=complex)
    for k, x in enumerate(grid):
        # warm start from the previous source shifted by the grid step; the
        # converged path feeds the scan and the action
        xp = x.copy() if k == 0 else xp + (x - grid[k - 1])
        xp, path, frame = _shoot(H, graph, x, xp, t_start, t_end, 400, 1e-12, 60, det_tol)
        window = scan if family.exact else path
        if _vertical_crossings(window.jacobians @ frame, window.turns):
            raise ConjugatePointError(
                "conjugate point inside the window; use the multi-branch shadow sum")
        det = np.linalg.det(_position_block(window.jacobians, frame))[-1]
        out[k] = (np.exp(1j * (float(phi.value(xp)) + float(path.action[-1])) / hbar)
                  * float(amplitude(xp)) * abs(det) ** -0.5)
    return out


def morse_index(H, x_start, p_start, t_start, t_end):
    """Number of focal points strictly inside the trajectory window.

    Counted with multiplicity by `maslov._vertical_crossings`, as the
    Leray-index change of the flowed momentum fibre ``[0; I]`` against
    ``{x = 0}`` over the 2,000 samples after ``t_start`` of one
    integrated trajectory (variational Jacobians, no finite differences).
    This assumes a definite ``d^2 H / dp^2``, as every generator the
    commands build has; otherwise it is the net crossing number.  A
    conjugate endpoint raises `ConjugatePointError`, and a step whose turn
    bound (`flows.Trajectory.turns`) reaches pi raises `RefinementError`, as
    the count could alias.
    """
    n = H.n
    z0 = np.concatenate([np.atleast_1d(np.asarray(x_start, dtype=float)),
                         np.atleast_1d(np.asarray(p_start, dtype=float))])
    if z0.shape != (2 * n,):
        raise ValueError("x_start and p_start must each have length n")
    if t_end <= t_start:
        raise ValueError("need t_end > t_start")
    path = flow_path(H, z0, t_start, t_end, 2000)
    # the fibre starts on the vertical plane: count from the next sample, but
    # certify every step, or a focal point inside the first would go uncounted
    return _vertical_crossings(path.jacobians[1:, :, n:], path.turns)


def _ladder_residual(r2, hbar, density_only):
    # keller_maslov_check's residual of the circle r^2 = r2
    torus = TorusSpec((math.sqrt(r2),))
    value = -torus.loop_integral(1) / (2 * math.pi * hbar)
    if not density_only:
        value -= torus.loop_index(1) / 4.0
    return abs(value - round(value))


def oscillator_spectrum_from_waveforms(hbar, n_max, density_only=False,
                                       scan_divisions=100, tol=1e-9):
    """Oscillator energies found by scanning circle radii for quantized waveforms.

    Scans ``r^2`` over ``(0, (2 n_max + 2) hbar]`` in steps of
    ``hbar / scan_divisions``, refines every residual minimum of the
    quantization condition, and returns ``E = r^2 / 2`` for each accepted
    radius: the half-integer ladder ``(N + 1/2) hbar``.  ``density_only``
    drops the index correction -- the documented contrast construction that
    instead lands on the integer ladder ``N hbar`` (the ``N = 0`` member
    degenerates to the origin and is unreachable by any circle).
    """
    hbar = _check_hbar(hbar)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    r2_max = (2 * n_max + 2) * hbar
    grid = np.linspace(hbar / scan_divisions, r2_max,
                       scan_divisions * (2 * n_max + 2))
    resid = np.array([_ladder_residual(v, hbar, density_only)
                      for v in grid])

    minima = [k for k in range(len(grid))
              if (k == 0 or resid[k] <= resid[k - 1])
              and (k == len(grid) - 1 or resid[k] <= resid[k + 1])]
    levels = []
    for k in minima:
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if (_ladder_residual(m1, hbar, density_only)
                    <= _ladder_residual(m2, hbar, density_only)):
                hi = m2
            else:
                lo = m1
        r2 = 0.5 * (lo + hi)
        if _ladder_residual(r2, hbar, density_only) > tol:
            continue
        if not density_only and not keller_maslov_check(
                TorusSpec((math.sqrt(r2),)), hbar, tol=math.sqrt(tol)).passed:
            continue
        if not any(abs(r2 - 2 * e) <= 1e-6 * hbar for e in levels):
            levels.append(r2 / 2)
    levels.sort()
    if len(levels) != n_max + 1:
        raise NumericalError(
            f"radius scan found {len(levels)} quantized levels, expected {n_max + 1}")
    return levels
