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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "LagrangianFrame",
    "form_matrix",
    "orthonormalize_frame",
    "souriau_w",
    "transversal",
    "intersection_dim",
    "signature",
    "vertical_frame",
    "frame_from_souriau",
    "random_symplectic",
    "random_lagrangian_frame",
    "random_symmetric_unitary",
]

# The numerical decisions of the index calculus, each written once: every
# integer the package reports is read off floating-point data through these.
# band: an eigenvalue within it of 1 counts towards dim(l ^ l'); also the
# least rank and isotropy tolerance of a frame
DEFAULT_TOL = 1e-9
# integral: a Leray index or a loop winding within it of an integer
_INT_TOL = 1e-6
# same point: two Souriau images, or a loop's two ends, agree entrywise within it
_SAME_TOL = 1e-8
# unwrap step: a sampled step of arg det this large is ambiguous
_UNWRAP_STEP = math.pi - 1e-9
# branch cut: an eigenvalue within it of 0 or of the negative real axis has no log
_BRANCH_TOL = 1e-12
# rank: QR's diagonal floor, relative to its largest entry; the distance of
# F^T F from I within which a frame is used as it is; the off-diagonal residue
# of a real diagonalization
_QR_TOL = 1e-12
_ORTHONORMAL_TOL = 1e-13
_DIAG_TOL = 1e-10
# not a tolerance: LAPACK's zgeev rescales a matrix whose largest entry lies
# outside about [6.7e-139, 1.5e138]; inside, a 1 x 1 matrix's eigenvalue is its entry
_UNSCALED_MIN, _UNSCALED_MAX = 1e-138, 1e138


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
        return np.concatenate((self.X, self.P))

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


@functools.lru_cache(maxsize=64)
def _form(n):
    # form_matrix(n), built once per n and read-only: every caller shares it
    K = form_matrix(n)
    K.flags.writeable = False
    return K


def _symplectic_defect(S):
    """``max |S^T K S - K|`` over a ``2n x 2n`` matrix or a stack of them."""
    K = _form(S.shape[-1] // 2)
    return float(np.max(np.abs(np.swapaxes(S, -1, -2) @ K @ S - K)))


def _non_lagrangian(F, tol=DEFAULT_TOL):
    # which frames of a (K, 2n, n) stack fail the rank or the isotropy test,
    # both relative to the largest singular value
    n = F.shape[-1]
    sv = np.linalg.svd(F, compute_uv=False)
    scale = np.maximum(1.0, sv[:, 0])
    XtP = F[:, :n].transpose(0, 2, 1) @ F[:, n:]
    asym = np.abs(XtP - XtP.transpose(0, 2, 1)).max(axis=(1, 2))
    return (sv[:, -1] <= tol * scale) | (asym > tol * scale**2)


def _lagrangian_stack(frames):
    # the frames stacked (K, 2n, n), checked in one batch as souriau_w checks one
    F = np.stack([f.stacked() for f in frames])
    bad = np.flatnonzero(_non_lagrangian(F))
    if bad.size:
        raise ValueError(f"not a Lagrangian frame (rank or isotropy failure) at sample {bad[0]}")
    return F


def _qr_frames(F):
    # orthonormal frames of a (K, 2n, n) stack: QR, positive diagonal, floored
    Q, R = np.linalg.qr(F)
    d = np.diagonal(R, axis1=1, axis2=2)
    bad = np.flatnonzero(np.min(abs(d), 1) <= _QR_TOL * np.maximum(1.0, np.max(abs(d), 1)))
    if bad.size:
        raise ValueError(f"frame is rank deficient at sample {bad[0]}")
    return Q * np.sign(d)[:, None, :]


def orthonormalize_frame(frame):
    """Orthonormal frame with the same span (QR with positive diagonal)."""
    F = _qr_frames(frame.stacked()[None])[0]
    return LagrangianFrame(F[: frame.n], F[frame.n :])


def _orthonormal_frames(F):
    # a (K, 2n, n) stack of Lagrangian frames made orthonormal, F itself if it
    # is: a frame with F^T F = I is used as it is once its span is isotropic
    # (QR would flip column signs), the others pass the rank and isotropy test
    n = F.shape[-1]
    Ft = np.swapaxes(F, 1, 2)
    XtP = Ft[:, :, :n] @ F[:, n:]
    on = np.abs(Ft @ F - np.eye(n)).max(axis=(1, 2)) <= _ORTHONORMAL_TOL
    bad = on & (np.abs(XtP - np.swapaxes(XtP, 1, 2)).max(axis=(1, 2)) > DEFAULT_TOL)
    if not on.all():
        bad[~on] = _non_lagrangian(F[~on])
    if bad.any():
        raise ValueError(f"not a Lagrangian frame (rank or isotropy failure) at sample {bad.argmax()}")
    return F if on.all() else np.where(on[:, None, None], F, _qr_frames(F))


def _orthonormal_souriau(F):
    # a (K, 2n, n) stack made orthonormal, and each plane's w = u u^T, u = P - iX
    F = _orthonormal_frames(F)
    n = F.shape[-1]
    u = F[:, n:] - 1j * F[:, :n]
    return F, u @ np.swapaxes(u, 1, 2)


def souriau_w(frame):
    """Souriau image ``w = u u^T`` of a Lagrangian plane.

    ``u = P - iX`` is unitary once the frame is orthonormal, and ``w`` is the
    symmetric unitary that labels the plane uniquely: it depends on the span
    only, not on the chosen basis.
    """
    return _orthonormal_souriau(frame.stacked()[None])[1][0]


def _is_souriau_point(w, tol=DEFAULT_TOL):
    # whether w is symmetric and unitary within tol
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    sym = np.max(np.abs(w - w.T))
    uni = np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0])))
    return bool(max(sym, uni) <= tol)


def _unscaled(z):
    return _UNSCALED_MIN <= abs(z) <= _UNSCALED_MAX


def _spectrum(M):
    """Eigenvalues of a square complex matrix as a list of Python complexes,
    or of each matrix of a ``(K, n, n)`` stack as a list of such lists.

    The package's one eigenvalue kernel, one LAPACK call per stack.  A 1 x 1
    matrix is read as its entry, without LAPACK, whenever LAPACK would return
    that entry unscaled, so a list is bitwise ``np.linalg.eigvals(M).tolist()``
    either way; a non-finite entry goes to LAPACK and raises its ``LinAlgError``.
    """
    if M.ndim == 3 and M.shape[1:] == (1, 1):
        return [_spectrum(m) for m in M]
    if M.shape == (1, 1):
        z = M.item()
        if _unscaled(z):
            return [z]
    return np.linalg.eigvals(M).tolist()


def _pair_spectrum(w, wp):
    # unimodular eigenvalues of w (w')^* as a list of Python complexes: its
    # readers reduce 1 to 6 numbers, where numpy's per-call cost dominates;
    # 1 has multiplicity dim(l ^ l').  For n = 1, +0 plus the product of the
    # entries is the 1 x 1 matmul's entry bit for bit (its sum starts at +0).
    w, wp = np.asarray(w), np.asarray(wp)
    if w.shape == wp.shape == (1, 1):
        z = 0j + w.item() * wp.item().conjugate()
        return [z] if _unscaled(z) else _spectrum(np.array([[z]]))
    return _spectrum(w @ wp.conj().T)


def _band_dim(lam, tol=DEFAULT_TOL):
    # the one zero-band rule: rank, transversality and nullity are decided here
    return sum(abs(z - 1.0) <= tol for z in lam)


def transversal(w, wp):
    """True iff the two planes meet only at the origin.

    The intersection dimension equals the multiplicity of the eigenvalue 1
    of ``w (w')^{-1}``, so transversality means no eigenvalue within
    ``DEFAULT_TOL`` of 1.
    """
    return _band_dim(_pair_spectrum(w, wp)) == 0


def intersection_dim(w, wp):
    """Dimension of the intersection of two Lagrangian planes."""
    return _band_dim(_pair_spectrum(w, wp))


@functools.lru_cache(maxsize=64)
def _cyclic_mask(n):
    # 0/1 mask keeping the blocks Omega(l1, l2), Omega(l2, l3), Omega(l3, l1)
    # of the cyclic form, built once per n and read-only
    mask = np.kron([[0, 1, 0], [0, 0, 1], [1, 0, 0]], np.ones((n, n)))
    mask.flags.writeable = False
    return mask


def _triples(F):
    # a (K, 3, 2n, n) stack of triples made orthonormal, their Souriau images
    # (both flat), the spectra and band counts of the pairs (1, 2), (2, 3),
    # (1, 3) of each, and the signature of Q, whose kernel (l1^l2) + (l2^l3) +
    # (l3^l1) takes that many Gram eigenvalues of least modulus off the count
    K, _, m, n = F.shape
    F, W = _orthonormal_souriau(F.reshape(3 * K, m, n))
    V = W.reshape(K, 3, n, n)
    lams = _spectrum((V[:, [0, 1, 0]] @ np.swapaxes(V[:, [1, 2, 2]].conj(), 2, 3)).reshape(W.shape))
    dims = [_band_dim(lam) for lam in lams]
    G = F.reshape(K, 3, m, n).transpose(0, 2, 1, 3).reshape(K, m, 3 * n)
    B = np.swapaxes(G, 1, 2) @ _form(n) @ G * _cyclic_mask(n)
    lam = np.linalg.eigvalsh((B + np.swapaxes(B, 1, 2)) / 2)
    zero = np.argsort(np.argsort(np.abs(lam))) < np.reshape(dims, (K, 3)).sum(1)[:, None]
    return F, W, lams, dims, np.sum(np.where(zero, 0.0, np.sign(lam)), axis=1).astype(int)


def signature(f1, f2, f3):
    """Signature of the form ``Q(z, z', z'') = Omega(z,z') + Omega(z',z'') + Omega(z'',z)``
    restricted to the direct sum of three Lagrangian planes.

    The planes enter through frames; the value depends on the spans only
    (congruent Gram matrices share their signature).  Antisymmetric with
    respect to swapping two arguments and invariant under a common
    symplectic transformation.  The nullity of ``Q``, the sum of the pairwise
    intersection dimensions, is decided as in :func:`intersection_dim`.
    """
    return int(_triples(np.stack([f.stacked() for f in (f1, f2, f3)])[None])[4][0])


def vertical_frame(n):
    """Frame of the plane ``{x = 0}`` (Souriau image ``I``)."""
    return LagrangianFrame(np.zeros((n, n)), np.eye(n))


def _diagonal_torus_frame(ang, flat_dims):
    # torus tangent frame: lines along (-sin a, cos a), then flat_dims lines {p = 0}
    X = np.diag(np.concatenate([-np.sin(ang), np.ones(flat_dims)]))
    P = np.diag(np.concatenate([np.cos(ang), np.zeros(flat_dims)]))
    return LagrangianFrame(X, P)


def _real_diagonalize_symmetric_unitary(w):
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
        if off <= _DIAG_TOL:
            return Q, np.diag(D)
    raise NumericalError("could not diagonalize symmetric unitary in a real basis")


def frame_from_souriau(w):
    """An orthonormal Lagrangian frame whose Souriau image is ``w``.

    Uses a real orthogonal diagonalization ``w = Q e^{i Theta} Q^T`` and the
    symmetric unitary square root ``u = Q e^{i Theta / 2} Q^T``, which
    satisfies ``u u^T = u^2 = w``; the frame is then ``X = -Im u, P = Re u``.
    """
    w = np.asarray(w, dtype=complex)
    if not _is_souriau_point(w, tol=_SAME_TOL):
        raise ValueError("not a symmetric unitary matrix")
    Q, d = _real_diagonalize_symmetric_unitary(w)
    u = (Q * np.exp(0.5j * np.angle(d))) @ Q.T
    frame = LagrangianFrame(-u.imag, u.real)
    if np.max(np.abs(souriau_w(frame) - w)) > _SAME_TOL:
        raise NumericalError("frame reconstruction failed to round-trip")
    return frame


# numerator coefficients of the [13/13] Pade approximant of e^x, and the
# 1-norm up to which it meets double precision unscaled (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A):
    """Matrix exponential: the [13/13] Pade approximant with scaling and squaring,
    of one matrix or of each of a ``(K, m, m)`` stack; NaN for a non-finite one."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        return _expm(A[None])[0]
    norm = np.linalg.norm(A, 1, axis=(1, 2))
    ok = np.isfinite(norm)
    s = np.array([math.ceil(math.log2(v / _THETA13)) if v > _THETA13 else 0
                  for v in np.where(ok, norm, 0.0).tolist()])
    A = np.where(ok[:, None, None], A, 0.0) / np.ldexp(1.0, s)[:, None, None]
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for k in range(s.max()):
        sq = np.flatnonzero(s > k)
        E[sq] = E[sq] @ E[sq]
    E[~ok] = math.nan
    return E


def _exp_symmetric(A):
    # expm(K (A + A^T) / 2), symplectic, of a 2n x 2n matrix or of each of a stack
    return _expm(_form(A.shape[-1] // 2) @ ((A + np.swapaxes(A, -1, -2)) / 2))


def random_symplectic(n, rng, scale=1.0):
    """Random symplectic matrix ``expm(K A)`` with ``A`` symmetric.

    Entries of ``A`` are uniform in ``[-scale, scale]``; ``K A`` lies in the
    symplectic Lie algebra, so the exponential is exactly symplectic.
    """
    return _exp_symmetric(rng.uniform(-scale, scale, size=(2 * n, 2 * n)))


def random_lagrangian_frame(n, rng):
    """Random Lagrangian frame: a random symplectic image of the vertical plane."""
    return vertical_frame(n).transformed(random_symplectic(n, rng))


def random_symmetric_unitary(n, rng, margin=0.0):
    """Random symmetric unitary ``Q e^{i Theta} Q^T`` with real orthogonal ``Q``.

    ``margin > 0`` keeps every eigenphase at least ``margin`` away from the
    cut at pi, i.e. the spectrum away from -1.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta = rng.uniform(-np.pi + margin, np.pi - margin, size=n)
    return (Q * np.exp(1j * theta)) @ Q.T
