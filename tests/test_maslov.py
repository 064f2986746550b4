import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import theta_frame, theta_lift
from symwave.errors import (
    BranchCutError,
    IntegralityError,
    RefinementError,
    TransversalityError,
)
from symwave.maslov import (
    LagrangianLift,
    deck_act,
    inert,
    leray_index,
    leray_index_transversal,
    lift_from_frame,
    lift_path,
    lift_path_adaptive,
    maslov_loop_index,
    maslov_loop_index_adaptive,
    principal_log_trace,
    transport_lift,
    vertical_lift,
)
from symwave.symplectic import (
    LagrangianFrame,
    frame_from_souriau,
    intersection_dim,
    random_lagrangian_frame,
    random_symmetric_unitary,
    random_symplectic,
    souriau_w,
    vertical_frame,
)
from scipy.linalg import expm

from symwave.symplectic import form_matrix


def log_trace_quadrature(M):
    """Oracle: Tr Log M as the resolvent integral over the negative real axis,
    transformed by lambda = -tan(s) onto s in (0, pi/2)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    I = np.eye(n)

    def integrand(s, part):
        lam = -np.tan(s)
        val = np.trace(np.linalg.inv(lam * I - M)) - n / (lam - 1.0)
        val = val / np.cos(s) ** 2
        return val.real if part == 0 else val.imag

    re = quad(integrand, 0.0, np.pi / 2, args=(0,), limit=200)[0]
    im = quad(integrand, 0.0, np.pi / 2, args=(1,), limit=200)[0]
    return complex(re, im)


def random_lift(n, rng, k_range=3):
    f = random_lagrangian_frame(n, rng)
    return lift_from_frame(f, windings=int(rng.integers(-k_range, k_range + 1))), f


def closed_form_n1(theta, theta_p):
    return int(np.floor((theta - theta_p) / np.pi)) + 1


def test_lift_validity_and_deck():
    def det_defect(lift):
        # how far det w is from e^{i alpha}: 0 for a valid lift
        return abs(np.linalg.det(lift.w) - np.exp(1j * lift.alpha))

    a = theta_lift(0.4, windings=2)
    assert det_defect(a) < 1e-12
    b = deck_act(-3, a)
    assert np.isclose(b.alpha, a.alpha - 6 * np.pi)
    assert det_defect(b) < 1e-12


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_lift_rejects_a_non_finite_alpha(alpha):
    # the index of such a lift used to fail in round(): ValueError for NaN,
    # OverflowError for an infinity
    with pytest.raises(ValueError, match="alpha must be finite"):
        LagrangianLift(np.eye(1), alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        leray_index(LagrangianLift(np.eye(1), alpha), LagrangianLift(-np.eye(1), np.pi))


def test_principal_log_scalar_and_branch():
    assert np.isclose(principal_log_trace([[1j]]), 1j * np.pi / 2)
    assert np.isclose(principal_log_trace([[np.exp(0.3j)]]), 0.3j)
    with pytest.raises(BranchCutError):
        principal_log_trace([[-1.0 + 0j]])
    with pytest.raises(BranchCutError):
        principal_log_trace(np.diag([1.0 + 0j, 0.0]))


def test_principal_log_against_quadrature(rng):
    for n in (1, 2, 3):
        for _ in range(6):
            M = random_symmetric_unitary(n, rng, margin=0.2)
            assert abs(principal_log_trace(M) - log_trace_quadrature(M)) < 1e-8
    # non-unitary spot check: eigendecomposition vs resolvent integral
    M = np.array([[0.5, 0.2], [0.1, 2.0]], dtype=complex)
    assert abs(principal_log_trace(M) - log_trace_quadrature(M)) < 1e-8


def test_leray_transversal_circle_values():
    base = vertical_lift(1)
    assert leray_index_transversal(theta_lift(np.pi / 2), base) == 1
    assert leray_index_transversal(theta_lift(-np.pi / 4), base) == 0
    with pytest.raises(TransversalityError):
        leray_index_transversal(theta_lift(np.pi), base)


def test_leray_transversal_block_additivity(rng):
    for _ in range(20):
        t1, t1p, t2, t2p = rng.uniform(-3 * np.pi, 3 * np.pi, size=4)
        if min(abs((t1 - t1p) % np.pi), abs((t2 - t2p) % np.pi)) < 1e-3:
            continue
        m1 = leray_index_transversal(theta_lift(t1), theta_lift(t1p))
        m2 = leray_index_transversal(theta_lift(t2), theta_lift(t2p))
        a = LagrangianLift(np.diag([np.exp(2j * t1), np.exp(2j * t2)]), 2 * t1 + 2 * t2)
        b = LagrangianLift(np.diag([np.exp(2j * t1p), np.exp(2j * t2p)]), 2 * t1p + 2 * t2p)
        assert leray_index_transversal(a, b) == m1 + m2


def test_leray_closed_form_n1(rng):
    for _ in range(200):
        t, tp = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        if abs(((t - tp) + np.pi / 2) % np.pi - np.pi / 2) < 1e-6:
            continue
        assert leray_index(theta_lift(t), theta_lift(tp)) == closed_form_n1(t, tp)


def test_leray_degenerate_lattice(rng):
    # theta - theta' = k pi: same line, index k + 1
    for k in range(-3, 4):
        for t in rng.uniform(-np.pi, np.pi, size=5):
            a = theta_lift(t + k * np.pi)
            b = theta_lift(t)
            assert leray_index(a, b, rng=np.random.default_rng(7)) == k + 1


def test_integrality_guard():
    # corrupt alpha by a non-multiple of 2 pi -> the formula leaves the integers
    a = LagrangianLift(np.array([[np.exp(1j * np.pi)]]), np.pi + 0.3)
    with pytest.raises(IntegralityError):
        leray_index_transversal(a, vertical_lift(1))


def test_inert_examples_and_regression():
    f = vertical_frame(1)
    assert inert(f, f, f) == 1
    assert inert(theta_frame(0.0), theta_frame(np.pi / 3), theta_frame(2 * np.pi / 3)) == 0
    assert inert(theta_frame(0.0), theta_frame(2 * np.pi / 3), theta_frame(np.pi / 3)) == 1


def test_cobord_cocycle(rng):
    for n in (1, 2, 3):
        for _ in range(40):
            (a, fa), (b, fb), (c, fc) = (random_lift(n, rng) for _ in range(3))
            lhs = (
                leray_index(a, b, frames=(fa, fb))
                - leray_index(a, c, frames=(fa, fc))
                + leray_index(b, c, frames=(fb, fc))
            )
            assert lhs == inert(fa, fb, fc)


def test_deck_shift_property(rng):
    for n in (1, 2):
        for _ in range(40):
            (a, fa), (b, fb) = (random_lift(n, rng) for _ in range(2))
            m = leray_index(a, b, frames=(fa, fb))
            k, kp = rng.integers(-4, 5, size=2)
            assert (
                leray_index(deck_act(k, a), deck_act(kp, b), frames=(fa, fb))
                == m + k - kp
            )


def test_partic_identities(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            a, fa = random_lift(n, rng)
            assert leray_index(a, a, frames=(fa, fa)) == n
            b, fb = random_lift(n, rng)
            d = intersection_dim(a.w, b.w)
            assert (
                leray_index(a, b, frames=(fa, fb))
                + leray_index(b, a, frames=(fb, fa))
                == n + d
            )
    # engineered non-transversal pairs with every intersection dimension
    for n in (2, 3):
        for k in range(n + 1):
            S = random_symplectic(n, rng)
            f1 = vertical_frame(n).transformed(S)
            mixed = LagrangianFrame(
                np.diag([0.0] * k + [1.0] * (n - k)), np.diag([1.0] * k + [0.0] * (n - k))
            )
            f2 = mixed.transformed(S)
            a = lift_from_frame(f1, windings=1)
            b = lift_from_frame(f2, windings=-2)
            d = intersection_dim(a.w, b.w)
            assert d == k
            assert (
                leray_index(a, b, frames=(f1, f2))
                + leray_index(b, a, frames=(f2, f1))
                == n + k
            )


def test_symplectic_invariance_of_index(rng):
    for n in (1, 2):
        for _ in range(15):
            (a, fa), (b, fb) = (random_lift(n, rng) for _ in range(2))
            m = leray_index(a, b, frames=(fa, fb))
            A = rng.uniform(-1, 1, size=(2 * n, 2 * n))
            A = (A + A.T) / 2
            X = form_matrix(n) @ A

            def s_fn(t):
                return expm(t * X)

            ta = transport_lift(a, fa, s_fn)
            tb = transport_lift(b, fb, s_fn)
            S = s_fn(1.0)
            assert (
                leray_index(ta, tb, frames=(fa.transformed(S), fb.transformed(S))) == m
            )


def test_lift_path_errors_and_unwrapping():
    # pi jump in arg det w between consecutive samples is ambiguous
    with pytest.raises(RefinementError):
        lift_path([theta_frame(0.0), theta_frame(np.pi / 2)], 0.0)
    with pytest.raises(ValueError):
        lift_path([theta_frame(0.3)], 0.0)  # alpha0 inconsistent with w
    thetas = np.linspace(0.0, 3 * np.pi, 200)
    lifts = lift_path([theta_frame(t) for t in thetas], 0.0)
    assert np.isclose(lifts[-1].alpha, 6 * np.pi)


def test_adaptive_lift_matches_dense(rng):
    S = random_symplectic(2, rng)
    f = vertical_frame(2).transformed(S)

    def fn(t):
        return LagrangianFrame(
            f.X * np.cos(t) - f.P * np.sin(t), f.X * np.sin(t) + f.P * np.cos(t)
        )

    # the rotated family stays Lagrangian; compare the adaptive endpoint
    # against a very dense fixed-step lift
    a0 = float(np.angle(np.linalg.det(souriau_w(fn(0.0)))))
    _, lifts = lift_path_adaptive(fn, 0.0, 2.0, a0)
    dense = lift_path([fn(t) for t in np.linspace(0, 2.0, 4000)], a0)
    assert np.isclose(lifts[-1].alpha, dense[-1].alpha, atol=1e-9)


def oracle_lift(frames, alpha0):
    """Per-sample reference lift: ``arg det w`` of each ``souriau_w``, steps
    wrapped to (-pi, pi]; returns ``(alphas, largest step)``."""
    args = np.array([np.angle(np.linalg.det(souriau_w(f))) for f in frames])
    steps = np.angle(np.exp(1j * np.diff(args)))
    largest = float(np.max(np.abs(steps), initial=0.0))
    return alpha0 + np.concatenate(([0.0], np.cumsum(steps))), largest


def rotation_path(n, rng):
    """``t -> e^{itH} u0`` with H Hermitian, read as frames ``[X; P]``, u = P - iX.

    Each sample's columns are rescaled and flipped at random, so the frames
    are neither orthonormal nor consistently oriented; the plane moves only
    with ``t`` and ``arg det w`` turns at the rate ``2 tr H``."""
    S = rng.uniform(-1.5, 1.5, (n, n))
    T = rng.uniform(-1.5, 1.5, (n, n))
    H = (S + S.T) / 2 + 1j * (T - T.T) / 2
    f = random_lagrangian_frame(n, rng)
    u0 = f.P - 1j * f.X

    def frame_at(t):
        u = expm(1j * t * H) @ u0 * (rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n))
        return LagrangianFrame(-u.imag, u.real)

    return frame_at, 2 * np.trace(H).real


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(2, 40), st.floats(0.1, 5.0),
       st.booleans())
def test_batched_lift_matches_the_per_sample_oracle(n, seed, samples, span, half_turn):
    rng = np.random.default_rng(seed)
    frame_at, rate = rotation_path(n, rng)
    times = np.linspace(0.0, span, samples)
    if half_turn:  # the last step turns arg det w by pi, which no unwrapping can resolve
        assume(abs(rate) > 0.1)
        times[-1] = times[-2] + np.pi / abs(rate)
    frames = [frame_at(t) for t in times]
    alpha0 = float(np.angle(np.linalg.det(souriau_w(frames[0])))) + 2 * np.pi * int(rng.integers(-2, 3))
    expected, largest = oracle_lift(frames, alpha0)
    # the two reads of arg det w agree to rounding, not at the threshold itself
    assume(abs(largest - (np.pi - 1e-9)) > 1e-12)
    if largest >= np.pi - 1e-9:
        with pytest.raises(RefinementError):
            lift_path(frames, alpha0)
    else:
        alphas = [lift.alpha for lift in lift_path(frames, alpha0)]
        assert np.allclose(alphas, expected, rtol=0, atol=1e-9)

    # the default 33-point start grid turns arg det w by at most 2 * 4.5 * 5 / 32 < pi a step
    times, lifts = lift_path_adaptive(frame_at, 0.0, span, alpha0)
    got, largest = oracle_lift([frame_at(t) for t in times], alpha0)
    assert largest < np.pi / 4
    assert np.allclose([lift.alpha for lift in lifts], got, rtol=0, atol=1e-9)
    dense = lift_path([frame_at(t) for t in np.linspace(0.0, span, 400)], alpha0)
    assert abs(lifts[-1].alpha - dense[-1].alpha) <= 1e-9
    assert abs(dense[-1].alpha - alpha0 - rate * span) <= 1e-9


def test_circle_loop_index():
    # full tangent loop of the circle: det w sweeps two turns
    thetas = np.linspace(0.0, 2 * np.pi, 400)
    assert maslov_loop_index([theta_frame(t) for t in thetas]) == 2
    assert maslov_loop_index_adaptive(theta_frame, 0.0, 2 * np.pi) == 2
    # half turn of a line is already a closed (orientation-reversing) loop
    assert maslov_loop_index_adaptive(theta_frame, 0.0, np.pi) == 1
    assert maslov_loop_index_adaptive(theta_frame, 0.0, -2 * np.pi) == -2
    assert maslov_loop_index_adaptive(theta_frame, 0.0, 6 * np.pi) == 6


def test_torus_loop_index(rng):
    # block product of circle factors, windings mu over one torus loop
    for _ in range(10):
        mu = rng.integers(-3, 4, size=2)

        def fn(t, mu=mu):
            X = np.diag([-np.sin(mu[0] * t), -np.sin(mu[1] * t)])
            P = np.diag([np.cos(mu[0] * t), np.cos(mu[1] * t)])
            return LagrangianFrame(X, P)

        assert maslov_loop_index_adaptive(fn, 0.0, 2 * np.pi) == 2 * int(mu.sum())


def test_loop_closure_guard():
    thetas = np.linspace(0.0, 0.8 * np.pi, 100)
    with pytest.raises(ValueError):
        maslov_loop_index([theta_frame(t) for t in thetas])


def test_argument_index_on_circle_and_jump():
    base = vertical_lift(1)
    for theta in (0.3, 1.2, 2.6):
        _, lifts = lift_path_adaptive(theta_frame, 0.0, theta, 0.0)
        # the argument index is the Leray index of the path's end lift
        m = leray_index(lifts[-1], base)
        assert m == closed_form_n1(theta, 0.0)
    # appending a loop gamma shifts the argument index by the loop index
    _, lifts = lift_path_adaptive(theta_frame, 0.0, 0.3 + 2 * np.pi, 0.0)
    assert leray_index(lifts[-1], base) == closed_form_n1(0.3, 0.0) + 2
    _, lifts = lift_path_adaptive(theta_frame, 0.0, 0.3 + np.pi, 0.0)
    assert leray_index(lifts[-1], base) == closed_form_n1(0.3, 0.0) + 1


def test_chart_change_identity(rng):
    # base-change rule, a direct consequence of the cocycle identity:
    # m_a(z) - m_b(z) = inert(l(z), l_a, l_b) - m(base_a, base_b)
    base_a = vertical_lift(1)
    base_b = lift_from_frame(theta_frame(np.pi / 2))  # horizontal line
    fa, fb = vertical_frame(1), theta_frame(np.pi / 2)
    mab = leray_index(base_a, base_b, frames=(fa, fb))
    for theta in rng.uniform(0.05, np.pi / 2 - 0.05, size=8):
        _, lifts = lift_path_adaptive(theta_frame, 0.0, float(theta), 0.0)
        ma = leray_index(lifts[-1], base_a, frames=(theta_frame(theta), fa))
        mb = leray_index(lifts[-1], base_b, frames=(theta_frame(theta), fb))
        assert ma - mb == inert(theta_frame(theta), fa, fb) - mab


def near_frame(f, eps, rng):
    """Image of ``f`` under ``expm(eps K A)`` with ``A`` random symmetric."""
    A = rng.standard_normal((2 * f.n, 2 * f.n))
    return f.transformed(expm(eps * form_matrix(f.n) @ (A + A.T) / 2))


@pytest.mark.parametrize("eps", [3e-9, 1e-9, 5e-10])
def test_near_coincident_pair_is_integral(eps):
    # near-coincident planes used to fail the parity identity: the signature
    # and the intersection dimensions decided their zeros on different scales
    rng = np.random.default_rng(1)
    f = random_lagrangian_frame(2, rng)
    for _ in range(20):
        g = near_frame(f, eps, rng)
        a, b = lift_from_frame(f), lift_from_frame(g)
        m_ab = leray_index(a, b, frames=(f, g))
        m_ba = leray_index(b, a, frames=(g, f))
        assert m_ab + m_ba == 2 + intersection_dim(a.w, b.w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cocycle_at_near_coincident_pairs(n):
    rng = np.random.default_rng(20261018 + n)
    for eps in np.logspace(-12, -4, 9):
        for _ in range(10):
            fa = random_lagrangian_frame(n, rng)
            fb, fc = near_frame(fa, eps, rng), random_lagrangian_frame(n, rng)
            a, b, c = (lift_from_frame(f, windings=int(rng.integers(-3, 4))) for f in (fa, fb, fc))
            lhs = (
                leray_index(a, b, frames=(fa, fb))
                - leray_index(a, c, frames=(fa, fc))
                + leray_index(b, c, frames=(fb, fc))
            )
            assert lhs == inert(fa, fb, fc), (n, eps)
