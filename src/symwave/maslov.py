"""Index calculus on the Lagrangian Grassmannian and its universal cover.

A point of the cover is represented by a :class:`LagrangianLift` ``(w, alpha)``
with ``w`` the Souriau image of the plane and ``alpha`` a winding-resolved
argument of ``det w``.  The deck transformation shifts ``alpha`` by ``2 pi``.
The Leray index of a transversal pair is

    m(a, b) = (alpha_a - alpha_b + i Tr Log(-w_a w_b^{-1})) / (2 pi) + n / 2

with the principal logarithm; non-transversal pairs are reduced to the
transversal case through an auxiliary plane and the inertia cocycle.

A sampled path of frames ``[X; P]`` is lifted from one batched
``det(P - iX)`` over the whole stack.  Plane paths (`lift_path`,
`lift_path_adaptive`) unwrap ``arg det w = 2 arg det u``, blind to each
sample's basis; flowed frames (`_end_lifts`) unwrap ``arg det u`` itself.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutError,
    ConjugatePointError,
    IntegralityError,
    NumericalError,
    RefinementError,
    TransversalityError,
)
from .symplectic import (
    _BRANCH_TOL,
    _INT_TOL,
    _SAME_TOL,
    _UNWRAP_STEP,
    LagrangianFrame,
    _band_dim,
    _lagrangian_stack,
    _orthonormal_frames,
    _pair_spectrum,
    _spectrum,
    _triples,
    frame_from_souriau,
    souriau_w,
)

__all__ = [
    "LagrangianLift",
    "lift_from_frame",
    "vertical_lift",
    "deck_act",
    "lift_path",
    "lift_path_adaptive",
    "transport_lift",
    "principal_log_trace",
    "leray_index_transversal",
    "inert",
    "leray_index",
    "maslov_loop_index",
    "maslov_loop_index_adaptive",
]


@dataclass(frozen=True, eq=False)
class LagrangianLift:
    """A Lagrangian plane together with a winding-resolved ``arg det w``."""

    w: np.ndarray
    alpha: float

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=complex))
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, not {alpha}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self):
        return self.w.shape[0]


def _lifts(W, windings):
    # lifts of a (K, n, n) stack of Souriau images, alpha = principal arg det w + 2 pi k
    alphas = np.angle(np.linalg.det(W)) + 2 * np.pi * np.asarray(windings)
    return [LagrangianLift(w, a) for w, a in zip(W, alphas.tolist())]


def lift_from_frame(frame, windings=0):
    """Lift of a plane with ``alpha`` = principal ``arg det w`` + ``2 pi k``."""
    return _lifts(souriau_w(frame)[None], [windings])[0]


def vertical_lift(n):
    """Lift ``(I, 0)`` of the vertical plane ``{x = 0}``; `deck_act` shifts it."""
    return LagrangianLift(np.eye(n, dtype=complex), 0.0)


def deck_act(k, lift):
    """Deck transformation: shift the winding count by the integer ``k``."""
    return LagrangianLift(lift.w, lift.alpha + 2 * np.pi * int(k))


def _arg_det_u(F):
    # principal arg det u, u = P - iX, of each sample of a (K, 2n, n) stack
    n = F.shape[-1]
    return np.angle(np.linalg.det(F[:, n:] - 1j * F[:, :n]))


def _souriau(F):
    # w = u (F^T F)^-1 u^T of each sample of a (K, 2n, n) stack, whatever its basis
    n = F.shape[-1]
    u = F[:, n:] - 1j * F[:, :n]
    return u @ np.linalg.solve(np.swapaxes(F, 1, 2) @ F, np.swapaxes(u, 1, 2))


def _steps(arg):
    # steps of arg det w = 2 arg det u, wrapped to [-pi, pi): a flipped column moves nothing
    return np.mod(np.diff(2.0 * arg) + np.pi, 2 * np.pi) - np.pi


def _too_coarse(d, what, first=False):
    # the one unwrap decision over the steps d of a sampled angle: a step of
    # _UNWRAP_STEP or more is ambiguous.  Either the first such step is
    # reported, or the largest step is tested (a NaN step then passes them all)
    a = np.abs(d)
    if a.size:
        k = int(np.argmax(a >= _UNWRAP_STEP if first else a))
        if a[k] >= _UNWRAP_STEP:
            raise RefinementError(
                f"sampled path too coarse: {what} moved by {d[k]:+.6f} at step {k + 1}")


def _lift_stack(F, arg, alpha0, tol):
    # lifts of a stack from alpha0 at its first sample, unwrapping arg det w
    if abs(np.exp(2j * arg[0]) - np.exp(1j * alpha0)) > tol:
        raise ValueError("alpha0 is not an argument of det w at the first sample")
    d = _steps(arg)
    _too_coarse(d, "arg det w", first=True)
    alphas = np.cumsum(np.concatenate(([float(alpha0)], d)))
    return [LagrangianLift(w, a) for w, a in zip(_souriau(F), alphas)]


def lift_path(frames, alpha0):
    """Lift a discretely sampled path of planes starting from ``alpha0``.

    ``alpha0`` must be an admissible argument for the first sample.  Each
    consecutive pair must move ``arg det w`` by less than pi, otherwise the
    unwrapping is ambiguous and a :class:`RefinementError` is raised.
    """
    if len(frames) == 0:
        raise ValueError("empty path")
    F = _lagrangian_stack(frames)
    return _lift_stack(F, _arg_det_u(F), alpha0, _SAME_TOL)


def lift_path_adaptive(frame_fn, t0, t1, alpha0):
    """Lift ``t -> frame_fn(t)`` over ``[t0, t1]`` from 33 equally spaced
    samples, bisecting until each step moves ``arg det w`` by less than pi/4.

    Bisection is level-wise: each level reads the midpoints of all steps still
    too coarse in one batch, and 48 levels raise `RefinementError`.  It only
    *refines*: a turn of ``arg det w`` between two of the 33 initial samples
    is read modulo 2 pi, so a turn of 2 pi there reads as none and the
    winding aliases away; no command lifts such a path.  Returns
    ``(times, lifts)`` at the accepted sample points.
    """
    times = np.linspace(t0, t1, 33)
    F = _lagrangian_stack([frame_fn(t) for t in times])
    arg = _arg_det_u(F)
    for depth in range(49):
        coarse = np.flatnonzero(np.abs(_steps(arg)) >= np.pi / 4)
        if coarse.size == 0:
            break
        if depth == 48:
            raise RefinementError("path refinement exceeded maximum depth")
        mid = 0.5 * (times[coarse] + times[coarse + 1])
        Fm = _lagrangian_stack([frame_fn(t) for t in mid])
        times = np.insert(times, coarse + 1, mid)
        F = np.insert(F, coarse + 1, Fm, axis=0)
        arg = np.insert(arg, coarse + 1, _arg_det_u(Fm))
    return times, _lift_stack(F, arg, alpha0, _SAME_TOL)


def transport_lift(lift, frame, s_fn):
    """Transport a lift along a family ``s_fn(t)``, ``t`` in ``[0, 1]``, of
    symplectic matrices.

    ``frame`` must span the plane of ``lift`` and ``s_fn(0)`` must fix it
    (typically ``s_fn(0) = I``); the lifted path starts at ``lift.alpha``.
    """
    if np.max(np.abs(souriau_w(frame) - lift.w)) > _SAME_TOL:
        raise ValueError("frame does not span the plane of the lift")
    _, lifts = lift_path_adaptive(lambda t: frame.transformed(s_fn(t)), 0.0, 1.0, lift.alpha)
    return lifts[-1]


def _log_trace(lam, branch_tol=_BRANCH_TOL):
    # Tr Log over a spectrum of Python complexes, in one pass; a singular
    # eigenvalue anywhere outranks one on the cut
    re = im = 0.0
    cut = False
    for z in lam:
        r = abs(z)
        if r <= branch_tol:
            raise BranchCutError("singular matrix has no logarithm")
        t = cmath.phase(z)
        if math.pi - abs(t) <= branch_tol:
            cut = True
        re += math.log(r)
        im += t
    if cut:
        raise BranchCutError("eigenvalue on the negative real axis")
    return complex(re, im)


def principal_log_trace(M):
    """Trace of the principal matrix logarithm via the spectrum.

    Each eigenvalue contributes ``log|lambda| + i arg(lambda)`` with the
    argument in ``(-pi, pi)``; eigenvalues on (or within ``_BRANCH_TOL`` of)
    the closed negative real axis raise :class:`BranchCutError`.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return _log_trace(_spectrum(M))


def _integer(v, what, tol):
    # the one integrality decision, on a Python float or complex (no numpy:
    # the index grid makes it once per pair)
    if abs(v.imag) > tol or abs(v.real - round(v.real)) > tol:
        raise IntegralityError(f"{what} {v} is not an integer")
    return int(round(v.real))


def _leray_log(a, b, lam):
    # the logarithm formula on the spectrum lam of w_a w_b^*, which the caller
    # has found transversal; -w_a w_b^* has the spectrum -lam
    v = (a.alpha - b.alpha + 1j * _log_trace([-z for z in lam])) / (2 * math.pi) + a.n / 2
    return _integer(v, "Leray index", _INT_TOL)


def leray_index_transversal(a, b):
    """Leray index of a transversal pair of lifts."""
    if a.n != b.n:
        raise ValueError("lifts live in different dimensions")
    lam = _pair_spectrum(a.w, b.w)
    if _band_dim(lam):
        raise TransversalityError("planes are not transversal")
    return _leray_log(a, b, lam)


def _end_lifts(frames, turns):
    """Lifts of the two ends of a sampled path of frames ``[X; P]``, stacked ``(K, 2n, n)``.

    ``w = u (F^T F)^-1 u^T`` with ``u = P - iX``, so one batched ``det u``
    lifts every sample.  Each end's ``w`` is read off a QR basis of its
    frame: a flowed frame can be ill-conditioned, and ``F^T F`` would square
    its condition number.  ``turns[k]`` bounds how far step ``k + 1`` can turn
    ``arg det u`` (`flows.Trajectory.turns`).  A bound that reaches pi raises
    `RefinementError`, since a full turn inside the step would read as none;
    so does a sampled step moving ``arg det u`` by pi or more.
    """
    far = np.flatnonzero(~(np.asarray(turns) < _UNWRAP_STEP))  # NaN certifies nothing
    if far.size:
        raise RefinementError(f"sampled path too coarse: step {far[0] + 1} may turn "
                              f"arg det u by {turns[far[0]]:.6g}")
    F = np.asarray(frames, dtype=float)
    half = np.unwrap(_arg_det_u(F))
    _too_coarse(np.diff(half), "arg det u")
    w = _souriau(np.linalg.qr(F[[0, -1]])[0])
    return LagrangianLift(w[0], 2.0 * half[0]), LagrangianLift(w[1], 2.0 * half[-1])


def _vertical_crossings(frames, turns):
    """Net caustic count of a sampled path of frames ``[X; P]``, stacked ``(K, 2n, n)``.

    The absolute Leray-index change of the `_end_lifts` against ``{x = 0}``:
    crossings with multiplicity, opposite signs cancelling.  A step whose
    bound in ``turns`` reaches pi, or that moves ``arg det u`` by pi or more,
    raises `RefinementError`, an end on ``{x = 0}`` `ConjugatePointError`.
    """
    m = []
    for end in _end_lifts(frames, turns):
        lam = _spectrum(end.w)  # the pair spectrum against w = I
        if _band_dim(lam):
            raise ConjugatePointError(
                "conjugate point at an end of the window: the plane meets {x = 0}")
        m.append(_leray_log(end, vertical_lift(end.n), lam))
    return abs(m[1] - m[0])


def inert(f1, f2, f3):
    """Inertia index of a triple of Lagrangian planes (given as frames).

    Half of ``signature + n + (dim23 - dim13 + dim12)``; the parity identity
    ``signature = n + dim23 - dim13 + dim12  (mod 2)``, which holds by
    construction of the signature's nullity, makes it an integer.
    """
    return _inerts(*_triples(np.stack([f.stacked() for f in (f1, f2, f3)])[None])[3:], f1.n)[0]


def _inerts(dims, sig, n):
    # inert of each triple from its signature and pair band counts (d12, d23, d13)
    total = sig + n + np.reshape(dims, (-1, 3)) @ [1, 1, -1]
    if np.any(total % 2):
        raise IntegralityError("signature parity identity failed")
    return (total // 2).tolist()


def _random_aux_plane(n, rng):
    # symmetric unitary built from explicit factors, so an exact orthonormal
    # frame comes for free: u = Q e^{i theta/2} Q^T, w = u u^T = Q e^{i theta} Q^T
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta = rng.uniform(-np.pi, np.pi, size=n)
    u = (Q * np.exp(0.5j * theta)) @ Q.T
    w = (Q * np.exp(1j * theta)) @ Q.T
    return LagrangianFrame(-u.imag, u.real), w


def _leray_via_auxiliary(a, b, frame_a, frame_b, rng):
    for _ in range(60):
        frame_c, wc = _random_aux_plane(a.n, rng)
        lam_ac, lam_bc = _pair_spectrum(a.w, wc), _pair_spectrum(b.w, wc)
        if _band_dim(lam_ac) == 0 and _band_dim(lam_bc) == 0:
            c = LagrangianLift(wc, float(np.mod(np.angle(np.linalg.det(wc)), 2 * np.pi)))
            m_ac, m_bc = _leray_log(a, c, lam_ac), _leray_log(b, c, lam_bc)
            return m_ac - m_bc + inert(frame_a, frame_b, frame_c)
    raise NumericalError("failed to find an auxiliary transversal plane")


def leray_index(a, b, frames=None, rng=None):
    """Leray index of an arbitrary pair of lifts.

    Transversal pairs use the logarithm formula directly.  Otherwise the
    index is computed through an auxiliary plane transversal to both
    arguments and the inertia cocycle; two independent auxiliary choices are
    evaluated and must agree.  ``frames`` may supply ``(frame_a, frame_b)``
    to skip reconstructing frames from the Souriau images; they are checked
    (``ValueError`` for a non-Lagrangian frame) and orthonormalized once, for
    both evaluations.
    """
    lam = _pair_spectrum(a.w, b.w)
    if _band_dim(lam) == 0:
        return _leray_log(a, b, lam)
    frames = frames or (frame_from_souriau(a.w), frame_from_souriau(b.w))
    F = _orthonormal_frames(np.array([f.stacked() for f in frames]))
    frame_a, frame_b = (LagrangianFrame(f[: a.n], f[a.n :]) for f in F)
    rng = np.random.default_rng(813970) if rng is None else rng
    m1, m2 = (_leray_via_auxiliary(a, b, frame_a, frame_b, rng) for _ in range(2))
    if m1 != m2:
        raise NumericalError("auxiliary-plane evaluations disagree")
    return m1


def _loop_winding(lifts):
    if np.max(np.abs(lifts[0].w - lifts[-1].w)) > _SAME_TOL:
        raise ValueError("path of planes does not close up")
    return _integer((lifts[-1].alpha - lifts[0].alpha) / (2 * np.pi), "loop winding", _INT_TOL)


def maslov_loop_index(frames):
    """Index of a closed loop of Lagrangian planes (discrete samples).

    The winding number of ``det w`` around the unit circle; even for every
    loop of *oriented* planes (e.g. tangent loops of oriented curves), odd
    values occur only for loops that reverse orientation, such as a half
    turn of a line.
    """
    return _loop_winding(lift_path(frames, lift_from_frame(frames[0]).alpha))


def maslov_loop_index_adaptive(frame_fn, t0, t1):
    """Adaptive-refinement variant of :func:`maslov_loop_index`, with the
    aliasing limit of :func:`lift_path_adaptive`."""
    _, lifts = lift_path_adaptive(frame_fn, t0, t1, lift_from_frame(frame_fn(t0)).alpha)
    return _loop_winding(lifts)
