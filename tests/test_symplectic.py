import numpy as np
import pytest
import scipy.linalg

from conftest import theta_frame
from symwave.symplectic import (
    DEFAULT_TOL,
    LagrangianFrame,
    _expm,
    _is_souriau_point,
    _non_lagrangian,
    _symplectic_defect,
    form_matrix,
    frame_from_souriau,
    intersection_dim,
    orthonormalize_frame,
    random_lagrangian_frame,
    random_symmetric_unitary,
    random_symplectic,
    signature,
    souriau_w,
    transversal,
    vertical_frame,
)


def rank_intersection_dim(f1, f2):
    # oracle: dim(l1 ^ l2) = 2n - rank([F1 F2]) for spanning frames
    M = np.hstack([orthonormalize_frame(f1).stacked(), orthonormalize_frame(f2).stacked()])
    return 2 * f1.n - np.linalg.matrix_rank(M, tol=1e-9)


def lagrangian(*frames):
    # the package's rank and isotropy test, frame by frame
    return (~_non_lagrangian(np.stack([f.stacked() for f in frames]))).tolist()


def test_form_on_standard_basis():
    # Omega(z, z') = z^T K z' = p . x' - p' . x, so Omega(e_x, e_p) = -1
    K = form_matrix(1)
    ex, ep = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert ex @ K @ ep == -1.0
    assert ep @ K @ ex == 1.0
    assert ex @ K @ ex == 0.0


def test_form_matches_matrix_representation(rng):
    for n in (1, 2, 3):
        K = form_matrix(n)
        for _ in range(50):
            a, b = rng.standard_normal((2, 2 * n))
            assert np.isclose(a @ K @ b, a[n:] @ b[:n] - b[n:] @ a[:n])
            assert np.isclose(a @ K @ b, -(b @ K @ a))


def test_form_bilinear(rng):
    K = form_matrix(2)
    for _ in range(20):
        a, b, c = rng.standard_normal((3, 4))
        s, t = rng.standard_normal(2)
        assert np.isclose((s * a + t * b) @ K @ c, s * (a @ K @ c) + t * (b @ K @ c))


def test_is_symplectic_examples(rng):
    assert _symplectic_defect(np.diag([2.0, 0.5])) <= DEFAULT_TOL
    assert _symplectic_defect(np.diag([2.0, 2.0])) > DEFAULT_TOL
    assert _symplectic_defect(form_matrix(3)) <= DEFAULT_TOL
    for n in (1, 2, 3):
        S = np.stack([random_symplectic(n, rng) for _ in range(10)])
        assert _symplectic_defect(S) <= DEFAULT_TOL


def test_symplectic_preserves_form(rng):
    for _ in range(20):
        S = random_symplectic(2, rng)
        a, b = rng.standard_normal((2, 4))
        K = form_matrix(2)
        assert np.isclose((S @ a) @ K @ (S @ b), a @ K @ b)


def test_lagrangian_frame_checks():
    assert lagrangian(vertical_frame(3)) == [True]
    assert lagrangian(
        LagrangianFrame(np.eye(2), np.zeros((2, 2))),
        # diagonal plane {(a, a)} is Lagrangian
        LagrangianFrame(np.eye(2), np.eye(2)),
        # non-symmetric X^T P -> not isotropic
        LagrangianFrame(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]),
        # rank deficient
        LagrangianFrame(np.zeros((2, 2)), [[1.0, 0.0], [1.0, 0.0]]),
    ) == [True, True, False, False]


def test_random_frames_are_lagrangian(rng):
    for n in (1, 2, 3):
        for _ in range(20):
            assert lagrangian(random_lagrangian_frame(n, rng)) == [True]


def test_orthonormalize_examples(rng):
    f = orthonormalize_frame(LagrangianFrame(np.zeros((2, 2)), 2 * np.eye(2)))
    assert np.allclose(f.X, 0) and np.allclose(f.P, np.eye(2))
    f = orthonormalize_frame(LagrangianFrame([[1.0]], [[1.0]]))
    assert np.allclose(f.stacked(), [[1 / np.sqrt(2)], [1 / np.sqrt(2)]])
    # span is preserved: compare orthogonal projectors
    for _ in range(20):
        g = random_lagrangian_frame(2, rng)
        gm = LagrangianFrame(g.X @ np.diag([3.0, 0.25]), g.P @ np.diag([3.0, 0.25]))
        q1, q2 = orthonormalize_frame(g).stacked(), orthonormalize_frame(gm).stacked()
        assert np.allclose(q1 @ q1.T, q2 @ q2.T, atol=1e-10)
    with pytest.raises(ValueError):
        orthonormalize_frame(LagrangianFrame(np.zeros((2, 2)), [[1.0, 0.0], [1.0, 0.0]]))


def test_souriau_reference_planes():
    assert np.allclose(souriau_w(vertical_frame(3)), np.eye(3))
    assert np.allclose(souriau_w(LagrangianFrame(np.eye(3), np.zeros((3, 3)))), -np.eye(3))
    for theta in (0.1, 1.0, 2.5, -0.7):
        assert np.allclose(souriau_w(theta_frame(theta)), np.exp(2j * theta))


def test_souriau_well_defined_and_structured(rng):
    for n in (1, 2, 3):
        for _ in range(15):
            f = random_lagrangian_frame(n, rng)
            w = souriau_w(f)
            assert _is_souriau_point(w)
            # any other basis of the same plane gives the same w
            C = rng.standard_normal((n, n)) + 3 * np.eye(n)
            g = LagrangianFrame(f.X @ C, f.P @ C)
            assert np.allclose(souriau_w(g), w, atol=1e-9)


def test_souriau_rejects_non_lagrangian():
    with pytest.raises(ValueError):
        souriau_w(LagrangianFrame(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]))


def test_transversal_circle_cases():
    w0 = souriau_w(theta_frame(0.0))
    assert transversal(souriau_w(theta_frame(np.pi / 2)), w0)
    assert not transversal(souriau_w(theta_frame(0.0)), w0)
    assert not transversal(souriau_w(theta_frame(np.pi)), w0)  # same line again


def test_intersection_dim_examples():
    n2_mixed = LagrangianFrame([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
    assert intersection_dim(souriau_w(n2_mixed), souriau_w(vertical_frame(2))) == 1
    w = souriau_w(vertical_frame(3))
    assert intersection_dim(w, w) == 3


def test_intersection_dim_against_rank_oracle(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            f1 = random_lagrangian_frame(n, rng)
            f2 = random_lagrangian_frame(n, rng)
            d = intersection_dim(souriau_w(f1), souriau_w(f2))
            assert d == rank_intersection_dim(f1, f2)
    # engineered partial intersections, transported by a common symplectic map
    for n in (2, 3):
        for k in range(n + 1):
            S = random_symplectic(n, rng)
            f1 = vertical_frame(n).transformed(S)
            mixed = LagrangianFrame(
                np.diag([0.0] * k + [1.0] * (n - k)), np.diag([1.0] * k + [0.0] * (n - k))
            )
            f2 = mixed.transformed(S)
            assert intersection_dim(souriau_w(f1), souriau_w(f2)) == k
            assert rank_intersection_dim(f1, f2) == k


def test_signature_regression_and_symmetries(rng):
    # hand-derived: Gram eigenvalues {2, -1, -1} * (sqrt(3)/4) for these lines
    assert signature(theta_frame(0.0), theta_frame(np.pi / 3), theta_frame(2 * np.pi / 3)) == -1
    assert signature(theta_frame(0.0), theta_frame(2 * np.pi / 3), theta_frame(np.pi / 3)) == 1
    for n in (1, 2):
        for _ in range(25):
            f1, f2, f3 = (random_lagrangian_frame(n, rng) for _ in range(3))
            s = signature(f1, f2, f3)
            assert signature(f2, f1, f3) == -s
            assert signature(f1, f3, f2) == -s
            assert signature(f3, f1, f2) == s  # even permutation
            S = random_symplectic(n, rng)
            assert (
                signature(f1.transformed(S), f2.transformed(S), f3.transformed(S)) == s
            )


def test_signature_repeated_plane_collapses(rng):
    for n in (1, 2, 3):
        f = random_lagrangian_frame(n, rng)
        g = random_lagrangian_frame(n, rng)
        assert signature(f, f, g) == 0
        assert signature(f, g, g) == 0
        assert signature(f, g, f) == 0


def test_signature_mod2_relation(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            f1, f2, f3 = (random_lagrangian_frame(n, rng) for _ in range(3))
            s = signature(f1, f2, f3)
            ddim = (
                intersection_dim(souriau_w(f2), souriau_w(f3))
                - intersection_dim(souriau_w(f1), souriau_w(f3))
                + intersection_dim(souriau_w(f1), souriau_w(f2))
            )
            assert (s - n - ddim) % 2 == 0


def test_frame_from_souriau_round_trip(rng):
    for n in (1, 2, 3):
        for _ in range(15):
            w = random_symmetric_unitary(n, rng)
            f = frame_from_souriau(w)
            assert lagrangian(f) == [True]
            assert np.allclose(souriau_w(f), w, atol=1e-9)
    # eigenvalue at / near the cut and the reference planes
    for w in (np.eye(3, dtype=complex), -np.eye(3, dtype=complex), np.diag([-1.0 + 0j, 1.0, 1j])):
        assert np.allclose(souriau_w(frame_from_souriau(w)), w, atol=1e-9)


def test_expm_matches_scipy_and_stays_symplectic(rng):
    # Hamiltonian matrices K A, A symmetric, from inside the unscaled Pade
    # range to norms that take several squarings
    for k in range(300):
        n = 1 + k % 3
        A = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
        M = form_matrix(n) @ (A + A.T) * (0.01, 0.35, 1.0, 3.0)[k % 4]
        E, want = _expm(M), scipy.linalg.expm(M)
        assert np.max(np.abs(E - want)) <= 1e-12 * np.max(np.abs(want))
        assert _symplectic_defect(E) <= 1e-9 * max(1.0, np.max(np.abs(E)) ** 2)
    assert np.max(np.abs(_expm(np.zeros((2, 2))) - np.eye(2))) <= 2.3e-16
    assert np.isnan(_expm(np.array([[0.0, np.inf], [-1.0, 0.0]]))).all()
