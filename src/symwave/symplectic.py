"""Linear symplectic algebra on the standard phase space.

Conventions used throughout the package:

* phase-space points are ``z = (x, p)`` stacked as a ``2n`` vector ``[x; p]``;
* the symplectic form is ``Omega(z, z') = p . x' - p' . x``, i.e.
  ``Omega(z, z') = z^T K z'`` with ``K = [[0, -I], [I, 0]]``;
* a Lagrangian plane is handled either as a frame (a ``2n x n`` matrix
  ``[X; P]`` of full rank with ``X^T P`` symmetric) or as its Souriau image,
  the symmetric unitary ``w = u u^T`` built from an orthonormal frame via
  ``u = P - iX``;
* the vertical plane ``{x = 0}`` has ``w = I``, the horizontal plane
  ``{p = 0}`` has ``w = -I``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "PhasePoint",
    "LagrangianFrame",
    "form_matrix",
    "symplectic_form",
    "is_symplectic_matrix",
    "is_lagrangian_frame",
    "orthonormalize_frame",
    "souriau_w",
    "is_souriau_point",
    "transversal",
    "intersection_dim",
    "signature",
    "vertical_frame",
    "horizontal_frame",
    "frame_from_souriau",
    "random_symplectic",
    "random_lagrangian_frame",
    "random_symmetric_unitary",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point ``z = (x, p)`` of the standard phase space R^{2n}."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if x.ndim != 1 or p.ndim != 1 or x.shape != p.shape or x.size == 0:
            raise ValueError("x and p must be 1-d arrays of equal positive length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("phase-space coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def n(self):
        return self.x.size

    def as_vector(self):
        """Return the stacked ``[x; p]`` vector."""
        return np.concatenate([self.x, self.p])

    @classmethod
    def from_vector(cls, z):
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or z.size % 2:
            raise ValueError("phase-space vector must have even length")
        n = z.size // 2
        return cls(z[:n], z[n:])


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """A basis ``[X; P]`` of a Lagrangian plane (columns span the plane)."""

    X: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if X.shape != P.shape or X.shape[0] != X.shape[1]:
            raise ValueError("X and P must be square matrices of equal shape")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "P", P)

    @property
    def n(self):
        return self.X.shape[0]

    def stacked(self):
        """Return the ``2n x n`` matrix ``[X; P]``."""
        return np.vstack([self.X, self.P])

    def transformed(self, S):
        """Frame of the image plane under the linear map ``S`` (2n x 2n)."""
        n = self.n
        F = np.asarray(S, dtype=float) @ self.stacked()
        return LagrangianFrame(F[:n], F[n:])


def form_matrix(n):
    """Matrix ``K`` of the symplectic form: ``Omega(z, z') = z^T K z'``."""
    K = np.zeros((2 * n, 2 * n))
    K[:n, n:] = -np.eye(n)
    K[n:, :n] = np.eye(n)
    return K


def symplectic_form(z, zp):
    """Evaluate ``Omega(z, z') = p . x' - p' . x``.

    Antisymmetric and bilinear; ``Omega(e_xj, e_pj) = -1`` in the
    convention used here.
    """
    if z.n != zp.n:
        raise ValueError("phase points live in different dimensions")
    return float(z.p @ zp.x - zp.p @ z.x)


def is_symplectic_matrix(S, tol=DEFAULT_TOL):
    """True iff ``S^T K S = K`` entrywise within ``tol``."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ValueError("a symplectic matrix must be square of even size")
    K = form_matrix(S.shape[0] // 2)
    return bool(np.max(np.abs(S.T @ K @ S - K)) <= tol)


def is_lagrangian_frame(frame, tol=DEFAULT_TOL):
    """True iff the frame has full rank and isotropic span.

    Isotropy of the span is equivalent to ``X^T P`` symmetric; full rank is
    checked through the smallest singular value of ``[X; P]``.
    """
    sv = np.linalg.svd(frame.stacked(), compute_uv=False)
    if sv[-1] <= tol * max(1.0, sv[0]):
        return False
    asym = frame.X.T @ frame.P - frame.P.T @ frame.X
    return bool(np.max(np.abs(asym)) <= tol * max(1.0, sv[0] ** 2))


def orthonormalize_frame(frame, tol=1e-12):
    """Orthonormal frame with the same span (QR with positive diagonal)."""
    Q, R = np.linalg.qr(frame.stacked())
    d = np.diag(R)
    if np.min(np.abs(d)) <= tol * max(1.0, np.max(np.abs(d))):
        raise ValueError("frame is rank deficient")
    Q = Q * np.sign(d)
    n = frame.n
    return LagrangianFrame(Q[:n], Q[n:])


def _orthonormal_lagrangian(frame, tol=DEFAULT_TOL):
    tol = max(tol, 1e-9)
    F = frame.stacked()
    if np.max(np.abs(F.T @ F - np.eye(frame.n))) <= 1e-13:
        # orthonormal, so of full rank, and QR would only flip column signs:
        # the frame is used as it is once its span is isotropic
        if np.max(np.abs(frame.X.T @ frame.P - frame.P.T @ frame.X)) <= tol:
            return frame
    elif is_lagrangian_frame(frame, tol=tol):
        return orthonormalize_frame(frame)
    raise ValueError("not a Lagrangian frame (rank or isotropy failure)")


def _orthonormal_souriau(frame, tol=DEFAULT_TOL):
    on = _orthonormal_lagrangian(frame, tol)
    u = on.P - 1j * on.X
    return on, u @ u.T


def souriau_w(frame, tol=DEFAULT_TOL):
    """Souriau image ``w = u u^T`` of a Lagrangian plane.

    ``u = P - iX`` is unitary once the frame is orthonormal, and ``w`` is the
    symmetric unitary that labels the plane uniquely: it depends on the span
    only, not on the chosen basis.
    """
    return _orthonormal_souriau(frame, tol)[1]


def is_souriau_point(w, tol=DEFAULT_TOL):
    """True iff ``w`` is symmetric and unitary within ``tol``."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    sym = np.max(np.abs(w - w.T))
    uni = np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0])))
    return bool(max(sym, uni) <= tol)


def _pair_spectrum(w, wp):
    # unimodular eigenvalues of w (w')^*; 1 has multiplicity dim(l ^ l')
    return np.linalg.eigvals(np.asarray(w) @ np.asarray(wp).conj().T)


def _band_dim(lam, tol=DEFAULT_TOL):
    # the one zero-band rule: rank, transversality and nullity are decided here
    return int(np.sum(np.abs(lam - 1.0) <= tol))


def transversal(w, wp, tol=DEFAULT_TOL):
    """True iff the two planes meet only at the origin.

    The intersection dimension equals the multiplicity of the eigenvalue 1
    of ``w (w')^{-1}``, so transversality means no eigenvalue within ``tol``
    of 1.
    """
    return _band_dim(_pair_spectrum(w, wp), tol) == 0


def intersection_dim(w, wp, tol=DEFAULT_TOL):
    """Dimension of the intersection of two Lagrangian planes."""
    return _band_dim(_pair_spectrum(w, wp), tol)


def _signature_and_dims(f1, f2, f3, tol=DEFAULT_TOL):
    # ker Q = (l1^l2) + (l2^l3) + (l3^l1): the d12 + d23 + d13 Gram eigenvalues
    # of smallest modulus are its zeros, the rest count by their sign
    n = f1.n
    if f2.n != n or f3.n != n:
        raise ValueError("frames live in different dimensions")
    (o1, w1), (o2, w2), (o3, w3) = (_orthonormal_souriau(f) for f in (f1, f2, f3))
    dims = tuple(_band_dim(_pair_spectrum(u, v), tol) for u, v in ((w1, w2), (w2, w3), (w1, w3)))
    F = np.hstack([o1.stacked(), o2.stacked(), o3.stacked()])
    # keep the blocks Omega(l1, l2), Omega(l2, l3), Omega(l3, l1) of the cyclic form
    B = F.T @ form_matrix(n) @ F * np.kron([[0, 1, 0], [0, 0, 1], [1, 0, 0]], np.ones((n, n)))
    lam = np.linalg.eigvalsh((B + B.T) / 2)
    live = lam[np.argsort(np.abs(lam))[sum(dims) :]]
    return int(np.sum(live > 0) - np.sum(live < 0)), dims


def signature(f1, f2, f3, tol=DEFAULT_TOL):
    """Signature of the form ``Q(z, z', z'') = Omega(z,z') + Omega(z',z'') + Omega(z'',z)``
    restricted to the direct sum of three Lagrangian planes.

    The planes enter through frames; the value depends on the spans only
    (congruent Gram matrices share their signature).  Antisymmetric with
    respect to swapping two arguments and invariant under a common
    symplectic transformation.  The nullity of ``Q``, the sum of the pairwise
    intersection dimensions, is decided as in :func:`intersection_dim`.
    """
    return _signature_and_dims(f1, f2, f3, tol)[0]


def vertical_frame(n):
    """Frame of the plane ``{x = 0}`` (Souriau image ``I``)."""
    return LagrangianFrame(np.zeros((n, n)), np.eye(n))


def horizontal_frame(n):
    """Frame of the plane ``{p = 0}`` (Souriau image ``-I``)."""
    return LagrangianFrame(np.eye(n), np.zeros((n, n)))


def _diagonal_torus_frame(ang, flat_dims):
    # torus tangent frame: lines along (-sin a, cos a), then flat_dims lines {p = 0}
    X = np.diag(np.concatenate([-np.sin(ang), np.ones(flat_dims)]))
    P = np.diag(np.concatenate([np.cos(ang), np.zeros(flat_dims)]))
    return LagrangianFrame(X, P)


def _real_diagonalize_symmetric_unitary(w, tol=1e-10):
    # A symmetric unitary splits as A + iB with A, B real symmetric and
    # commuting, hence is diagonalized by a real orthogonal basis.  A generic
    # real combination of A and B exposes that basis through eigh; retry with
    # other combinations when a degenerate combination mixes eigenspaces.
    A, B = w.real, w.imag
    A = (A + A.T) / 2
    B = (B + B.T) / 2
    for t in (0.0, 0.7, 2.3, 0.31, 1.9, 4.1):
        _, Q = np.linalg.eigh(np.cos(t) * A + np.sin(t) * B)
        D = Q.T @ w @ Q
        off = np.max(np.abs(D - np.diag(np.diag(D))))
        if off <= tol:
            return Q, np.diag(D)
    raise NumericalError("could not diagonalize symmetric unitary in a real basis")


def frame_from_souriau(w):
    """An orthonormal Lagrangian frame whose Souriau image is ``w``.

    Uses a real orthogonal diagonalization ``w = Q e^{i Theta} Q^T`` and the
    symmetric unitary square root ``u = Q e^{i Theta / 2} Q^T``, which
    satisfies ``u u^T = u^2 = w``; the frame is then ``X = -Im u, P = Re u``.
    """
    w = np.asarray(w, dtype=complex)
    if not is_souriau_point(w, tol=1e-8):
        raise ValueError("not a symmetric unitary matrix")
    Q, d = _real_diagonalize_symmetric_unitary(w)
    u = (Q * np.exp(0.5j * np.angle(d))) @ Q.T
    frame = LagrangianFrame(-u.imag, u.real)
    if np.max(np.abs(souriau_w(frame) - w)) > 1e-8:
        raise NumericalError("frame reconstruction failed to round-trip")
    return frame


def random_symplectic(n, rng, scale=1.0):
    """Random symplectic matrix ``expm(K A)`` with ``A`` symmetric.

    Entries of ``A`` are uniform in ``[-scale, scale]``; ``K A`` lies in the
    symplectic Lie algebra, so the exponential is exactly symplectic.
    """
    from scipy.linalg import expm  # imported here: scipy costs ~0.45 s to load
    A = rng.uniform(-scale, scale, size=(2 * n, 2 * n))
    A = (A + A.T) / 2
    return expm(form_matrix(n) @ A)


def random_lagrangian_frame(n, rng, scale=1.0):
    """Random Lagrangian frame: a random symplectic image of the vertical plane."""
    return vertical_frame(n).transformed(random_symplectic(n, rng, scale))


def random_symmetric_unitary(n, rng, margin=0.0):
    """Random symmetric unitary ``Q e^{i Theta} Q^T`` with real orthogonal ``Q``.

    ``margin > 0`` keeps every eigenphase at least ``margin`` away from the
    cut at pi, i.e. the spectrum away from -1.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta = rng.uniform(-np.pi + margin, np.pi - margin, size=n)
    return (Q * np.exp(1j * theta)) @ Q.T
