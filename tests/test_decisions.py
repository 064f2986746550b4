"""Edge tests of the numerical decisions of the index calculus.

Each decision has one constant in the block at the top of
``symwave/symplectic.py``.  Each is tested at its threshold and one
``math.nextafter`` past it, so a flipped ``>`` / ``>=`` shows, and through
one public caller for its error class.  Every input is fixed.
"""

import inspect
import math

import numpy as np
import pytest

from symwave.errors import (
    BranchCutError,
    IntegralityError,
    NumericalError,
    RefinementError,
)
from symwave.maslov import (
    LagrangianLift,
    _integer,
    _log_trace,
    _too_coarse,
    leray_index_transversal,
    lift_path,
    maslov_loop_index,
    principal_log_trace,
    transport_lift,
)
from symwave.symplectic import (
    _BRANCH_TOL,
    _DIAG_TOL,
    _INT_TOL,
    _ORTHONORMAL_TOL,
    _QR_TOL,
    _SAME_TOL,
    _UNSCALED_MAX,
    _UNSCALED_MIN,
    _UNWRAP_STEP,
    DEFAULT_TOL,
    LagrangianFrame,
    _cyclic_mask,
    _form,
    _orthonormal_frames,
    _real_diagonalize_symmetric_unitary,
    _symplectic_defect,
    _unscaled,
    form_matrix,
    frame_from_souriau,
    orthonormalize_frame,
    random_symplectic,
    souriau_w,
    vertical_frame,
)


def past(x):
    """The next float beyond ``x``, away from zero."""
    return math.nextafter(x, math.copysign(math.inf, x))


def line(theta):
    # the line through (cos theta, sin theta) in the (x, p) plane
    return LagrangianFrame([[math.cos(theta)]], [[math.sin(theta)]])


# integral: _INT_TOL

def test_integer_accepts_its_tolerance_and_refuses_one_ulp_past():
    assert _integer(_INT_TOL, "v", _INT_TOL) == 0
    assert _integer(-_INT_TOL, "v", _INT_TOL) == 0
    assert _integer(complex(2.0, _INT_TOL), "v", _INT_TOL) == 2
    for v in (past(_INT_TOL), -past(_INT_TOL), complex(2.0, past(_INT_TOL))):
        with pytest.raises(IntegralityError, match="v .* is not an integer"):
            _integer(v, "v", _INT_TOL)


def test_leray_index_off_the_integers_is_an_integrality_error():
    # {x = 0} against {p = 0}, with the first lift's angle moved off its value
    a, b = LagrangianLift(np.eye(1), 0.5), LagrangianLift(-np.eye(1), math.pi)
    with pytest.raises(IntegralityError, match="Leray index"):
        leray_index_transversal(a, b)
    assert leray_index_transversal(LagrangianLift(np.eye(1), 0.0), b) == 0


def test_loop_winding_off_the_integers_is_an_integrality_error():
    # a half turn of a line, closed up to 2e-9 rad: within _SAME_TOL, and
    # about 6e-10 turns off the integer
    frames = [line(t) for t in np.linspace(0.0, math.pi + 2e-9, 9)]
    assert maslov_loop_index(frames) == 1
    with pytest.raises(IntegralityError, match="loop winding"):
        maslov_loop_index(frames, tol=1e-12)


# same point: _SAME_TOL

def test_transport_lift_checks_its_frame_at_the_same_point_tolerance():
    frame, fixed = vertical_frame(1), (lambda t: np.eye(2))
    assert souriau_w(frame)[0, 0].real == 1.0
    lift = transport_lift(LagrangianLift([[1 + 1j * _SAME_TOL]], 0.0), frame, fixed)
    assert lift.alpha == 0.0
    with pytest.raises(ValueError, match="does not span"):
        transport_lift(LagrangianLift([[1 + 1j * past(_SAME_TOL)]], 0.0), frame, fixed)


def test_frame_from_souriau_checks_unitarity_at_the_same_point_tolerance():
    # [[1, d], [d, 1]] is symmetric, and w w* - I has off-diagonal 2d exactly
    d = _SAME_TOL / 2
    frame = frame_from_souriau(np.array([[1.0, d], [d, 1.0]]))
    assert np.max(np.abs(souriau_w(frame) - np.eye(2))) < 1e-15
    d = past(_SAME_TOL) / 2
    with pytest.raises(ValueError, match="not a symmetric unitary"):
        frame_from_souriau(np.array([[1.0, d], [d, 1.0]]))


def test_maslov_loop_index_refuses_an_open_loop():
    frames = [line(t) for t in np.linspace(0.0, math.pi + 1e-8, 9)]
    with pytest.raises(ValueError, match="does not close up"):
        maslov_loop_index(frames)


def test_lift_path_checks_alpha0_with_its_tolerance():
    assert inspect.signature(lift_path).parameters["tol"].default == _SAME_TOL
    frames, alpha0 = [vertical_frame(1)], 1e-8
    gap = abs(1.0 - np.exp(1j * alpha0))  # arg det w is 0 on {x = 0}
    assert lift_path(frames, alpha0, tol=gap)[0].alpha == alpha0
    with pytest.raises(ValueError, match="alpha0"):
        lift_path(frames, alpha0, tol=math.nextafter(gap, 0.0))
    with pytest.raises(ValueError, match="alpha0"):
        lift_path(frames, 1.0)


# unwrap step: _UNWRAP_STEP

@pytest.mark.parametrize("first", [True, False])
def test_too_coarse_refuses_a_step_from_its_threshold_on(first):
    below = math.nextafter(_UNWRAP_STEP, 0.0)
    _too_coarse(np.array([0.1, below, -below]), "arg", first)
    _too_coarse(np.array([]), "arg", first)
    for step in (_UNWRAP_STEP, -_UNWRAP_STEP):
        with pytest.raises(RefinementError, match=r"too coarse: arg moved by .* at step 2"):
            _too_coarse(np.array([0.1, step, 0.2]), "arg", first)


def test_too_coarse_reports_the_first_or_the_largest_step():
    d = np.array([0.1, 3.2, -3.5])
    with pytest.raises(RefinementError, match=r"\+3\.200000 at step 2"):
        _too_coarse(d, "arg", first=True)
    with pytest.raises(RefinementError, match=r"-3\.500000 at step 3"):
        _too_coarse(d, "arg")
    # a NaN step is no step to the first test, and the largest to the other
    with pytest.raises(RefinementError, match="at step 2"):
        _too_coarse(np.array([math.nan, 4.0]), "arg", first=True)
    _too_coarse(np.array([math.nan, 4.0]), "arg")


def test_lift_path_refuses_a_quarter_turn_of_a_line_as_too_coarse():
    # arg det w turns twice as fast as the line: a quarter turn moves it by pi;
    # on {p = 0}, w = -1
    with pytest.raises(RefinementError, match="too coarse"):
        lift_path([line(0.0), line(math.pi / 2)], math.pi)
    assert len(lift_path([line(0.0), line(1.5)], math.pi)) == 2


# branch cut: _BRANCH_TOL

def test_log_trace_refuses_a_singular_eigenvalue_up_to_the_branch_tolerance():
    for f in (_log_trace, principal_log_trace):
        assert inspect.signature(f).parameters["branch_tol"].default == _BRANCH_TOL
    with pytest.raises(BranchCutError, match="singular"):
        _log_trace([complex(_BRANCH_TOL, 0.0)])
    assert _log_trace([complex(past(_BRANCH_TOL), 0.0)]).imag == 0.0


def test_principal_log_trace_refuses_the_cut_up_to_its_tolerance():
    z = complex(-1.0, 1e-12)
    gap = math.pi - abs(np.angle(z))
    with pytest.raises(BranchCutError, match="negative real axis"):
        principal_log_trace([[z]], branch_tol=gap)
    assert principal_log_trace([[z]], branch_tol=math.nextafter(gap, 0.0)).imag > 0
    with pytest.raises(BranchCutError):
        principal_log_trace([[-1.0]])


# rank: DEFAULT_TOL (floor), _QR_TOL, _ORTHONORMAL_TOL, _DIAG_TOL

def test_orthonormalize_frame_refuses_a_diagonal_at_the_qr_floor():
    assert inspect.signature(orthonormalize_frame).parameters["tol"].default == _QR_TOL
    ok = orthonormalize_frame(LagrangianFrame(np.diag([1.0, past(_QR_TOL)]), np.zeros((2, 2))))
    assert np.allclose(ok.stacked().T @ ok.stacked(), np.eye(2))
    with pytest.raises(ValueError, match="rank deficient"):
        orthonormalize_frame(LagrangianFrame(np.diag([1.0, _QR_TOL]), np.zeros((2, 2))))


def test_orthonormal_frames_are_used_as_they_are_up_to_the_tolerance():
    # the columns (1, 0; 0, 0) and (d, 1; 0, 0): F^T F - I is d off the diagonal
    def frame(d):
        return LagrangianFrame([[1.0, d], [0.0, 1.0]], np.zeros((2, 2)))
    f = frame(_ORTHONORMAL_TOL).stacked()[None]
    assert _orthonormal_frames(f) is f
    g = frame(past(_ORTHONORMAL_TOL)).stacked()[None]
    assert _orthonormal_frames(g) is not g


def test_isotropy_is_decided_at_the_default_tolerance_however_small_the_request():
    # orthonormal columns (1, 0; 0, 0) and (0, 1; s, 0): X^T P - P^T X is s off the diagonal
    def frame(s):
        return LagrangianFrame([[1.0, 0.0], [0.0, math.sqrt(1.0 - s * s)]],
                               [[0.0, s], [0.0, 0.0]])
    souriau_w(frame(DEFAULT_TOL), tol=1e-15)
    with pytest.raises(ValueError, match="not a Lagrangian frame"):
        souriau_w(frame(past(DEFAULT_TOL)), tol=1e-15)


def test_real_diagonalization_accepts_its_residue_and_refuses_one_ulp_past():
    # every real combination of Re w and Im w is diagonal, so each attempt
    # leaves the antisymmetric off-diagonal d of w as it is
    def w(d):
        return np.array([[1.0, d], [-d, 1j]])
    Q, _ = _real_diagonalize_symmetric_unitary(w(_DIAG_TOL))
    assert np.array_equal(np.abs(Q), [[0.0, 1.0], [1.0, 0.0]])
    frame_from_souriau(w(_DIAG_TOL))
    with pytest.raises(NumericalError, match="could not diagonalize"):
        _real_diagonalize_symmetric_unitary(w(past(_DIAG_TOL)))
    with pytest.raises(NumericalError, match="could not diagonalize"):
        frame_from_souriau(w(past(_DIAG_TOL)))


# LAPACK range: _UNSCALED_MIN, _UNSCALED_MAX

def test_one_by_one_spectra_skip_lapack_exactly_inside_its_unscaled_range():
    for edge, out in ((_UNSCALED_MIN, 0.0), (_UNSCALED_MAX, math.inf)):
        assert _unscaled(edge) and _unscaled(complex(0.0, -edge))
        assert not _unscaled(math.nextafter(edge, out))
    assert not _unscaled(math.nan)


# the symplectic defect and the cached matrices of the signature

def test_symplectic_defect_of_a_matrix_and_of_a_stack():
    rng = np.random.default_rng(5)
    S = np.stack([random_symplectic(2, rng, scale=0.5) for _ in range(4)])
    K = form_matrix(2)
    one = [float(np.max(np.abs(s.T @ K @ s - K))) for s in S]
    assert [_symplectic_defect(s) for s in S] == one
    assert _symplectic_defect(S) == max(one)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signature_matrices_are_built_once_per_dimension_and_read_only(n):
    mask = np.kron([[0, 1, 0], [0, 0, 1], [1, 0, 0]], np.ones((n, n)))
    for cached, fresh in ((_cyclic_mask, mask), (_form, form_matrix(n))):
        assert cached(n) is cached(n)
        assert np.array_equal(cached(n), fresh) and cached(n).dtype == fresh.dtype
        assert not cached(n).flags.writeable
