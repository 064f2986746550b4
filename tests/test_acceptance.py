"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with::

    pytest tests/test_acceptance.py -v -s

Every check prints a single ``[PASS] criterion NN: ...`` (or ``[FAIL]``)
line carrying the measured numbers.  Criterion 6 runs the full 200-map
shadow-area batch at production resolution and takes several minutes;
everything else finishes in seconds.  All tolerances are pinned below,
next to the assertion they govern.
"""

import functools
import math
import time

import numpy as np
from scipy.linalg import expm

from test_maslov import log_trace_quadrature
from test_waveforms import gaussian_oracle, quantized_circle, uniform_density

from symwave.capacity import (
    TorusSpec,
    ground_energy,
    identity_symplectomorphism,
    keller_maslov_check,
    nonsqueezing_experiment,
    oscillator_levels,
    shadow_area,
)
from symwave.errors import ConjugatePointError
from symwave.flows import (
    chapman_kolmogorov_residual,
    flow_path,
    hamilton_jacobi_residual,
    harmonic_hamiltonian,
    quadratic_action_shortcut,
    quadratic_hamiltonian,
    quartic_hamiltonian,
    two_point_action,
)
from symwave.maslov import (
    LagrangianLift,
    deck_act,
    inert,
    leray_index,
    lift_from_frame,
    maslov_loop_index_adaptive,
    principal_log_trace,
    transport_lift,
)
from symwave.polynomials import Polynomial
from symwave.symplectic import (
    LagrangianFrame,
    _symplectic_defect,
    form_matrix,
    random_lagrangian_frame,
    random_symmetric_unitary,
)
from symwave.waveforms import (
    CircleManifold,
    FlowedManifold,
    TorusManifold,
    Waveform,
    deck_covariance_check,
    is_quantized,
    morse_index,
    oscillator_spectrum_from_waveforms,
    shadow,
    van_vleck_propagate,
)


def criterion(num, text):
    """Print one `[PASS]/[FAIL] criterion NN: ...` line around the check body."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"[FAIL] criterion {num:02d}: {text} -- {type(exc).__name__}: {exc}",
                      flush=True)
                raise
            suffix = f" -- {detail}" if detail else ""
            print(f"[PASS] criterion {num:02d}: {text}{suffix}", flush=True)

        return run

    return wrap


def circle_lift(theta, windings=0):
    """Lift of the n=1 line at angle theta on the principal sheet + windings."""
    return LagrangianLift(np.array([[np.exp(2j * theta)]]),
                          2.0 * theta + 2.0 * np.pi * windings)


def random_lift(n, rng, k_range=3):
    """A random Lagrangian frame together with a random-sheet lift of it."""
    f = random_lagrangian_frame(n, rng)
    return lift_from_frame(f, windings=int(rng.integers(-k_range, k_range + 1))), f


def harmonic_action_closed_form(x, x_start, tau):
    """Two-point action of the unit oscillator, valid away from tau = k*pi."""
    return ((x**2 + x_start**2) * np.cos(tau) - 2.0 * x * x_start) / (2.0 * np.sin(tau))


def free_hamiltonian():
    return quadratic_hamiltonian([[0.0, 0.0], [0.0, 1.0]])


@criterion(1, "n=1 index equals floor((a-b)/pi)+1 on a 200x200 grid plus the k*pi lattice")
def test_criterion_01_closed_form_grid():
    t0 = time.perf_counter()
    thetas = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 202)[1:-1]  # 200 angles, spacing 4pi/201
    lifts = [circle_lift(th) for th in thetas]
    checked = mismatches = 0
    for i, th in enumerate(thetas):
        for j, tp in enumerate(thetas):
            if i == j:  # the only pairs with th - tp in pi*Z; covered by the lattice below
                continue
            checked += 1
            if leray_index(lifts[i], lifts[j]) != math.floor((th - tp) / math.pi) + 1:
                mismatches += 1
    assert checked == 200 * 200 - 200
    assert mismatches == 0

    # same-line pairs: theta - theta' = k*pi must give exactly k + 1
    lattice_rng = np.random.default_rng(7)
    for k in range(-3, 4):
        for tp in (-2.1, -0.4, 0.0, 0.9, 2.8):
            a = circle_lift(tp + k * math.pi)
            b = circle_lift(tp)
            assert leray_index(a, b, rng=lattice_rng) == k + 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    return f"{checked} transversal pairs + 35 lattice pairs exact in {elapsed:.1f}s"


@criterion(2, "cocycle, self-index, and deck-shift identities on 1000 random triples per n in {1,2,3}")
def test_criterion_02_index_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    cocycle_bad = self_bad = shift_bad = 0
    per_dim = 1000
    for n in (1, 2, 3):
        for _ in range(per_dim):
            (a, fa), (b, fb), (c, fc) = (random_lift(n, rng) for _ in range(3))
            mab = leray_index(a, b, frames=(fa, fb))
            alternating = (mab
                           - leray_index(a, c, frames=(fa, fc))
                           + leray_index(b, c, frames=(fb, fc)))
            cocycle_bad += alternating != inert(fa, fb, fc)
            self_bad += leray_index(a, a, frames=(fa, fa)) != n
            k, kp = (int(v) for v in rng.integers(-4, 5, size=2))
            shifted = leray_index(deck_act(k, a), deck_act(kp, b), frames=(fa, fb))
            shift_bad += shifted != mab + k - kp
    assert cocycle_bad == 0
    assert self_bad == 0
    assert shift_bad == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return f"3x{per_dim} triples, zero defects in {elapsed:.1f}s"


@criterion(3, "index is invariant under 200 random symplectic transports per n in {1,2}")
def test_criterion_03_symplectic_invariance():
    rng = np.random.default_rng(3)
    trials = 0
    for n in (1, 2):
        K = form_matrix(n)
        for _ in range(200):
            (a, fa), (b, fb) = random_lift(n, rng), random_lift(n, rng)
            m = leray_index(a, b, frames=(fa, fb))
            A = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
            A = 0.5 * (A + A.T)
            generator = K @ A

            def s_fn(t, generator=generator):
                return expm(t * generator)

            ta = transport_lift(a, fa, s_fn)
            tb = transport_lift(b, fb, s_fn)
            S = s_fn(1.0)
            moved = leray_index(ta, tb, frames=(fa.transformed(S), fb.transformed(S)))
            assert moved == m
            trials += 1
    return f"{trials} transported pairs, all indices unchanged"


@criterion(4, "loop index: circle tangent loop -> 2; torus windings mu -> 2*sum(mu)")
def test_criterion_04_loop_indices():
    def line_frame(t):
        return LagrangianFrame([[-np.sin(t)]], [[np.cos(t)]])

    # one full turn of the circle's tangent line, both orientations, and a half turn
    assert maslov_loop_index_adaptive(line_frame, 0.0, 2.0 * np.pi) == 2
    assert maslov_loop_index_adaptive(line_frame, 0.0, -2.0 * np.pi) == -2
    assert maslov_loop_index_adaptive(line_frame, 0.0, np.pi) == 1

    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(50):
        factors = int(rng.integers(1, 4))
        mu = rng.integers(-3, 4, size=factors)

        def torus_frame(t, mu=mu):
            ang = mu * t
            return LagrangianFrame(np.diag(-np.sin(ang)), np.diag(np.cos(ang)))

        idx = maslov_loop_index_adaptive(torus_frame, 0.0, 2.0 * np.pi)
        assert idx == 2 * int(mu.sum())
        checked += 1
    return f"circle turns exact, {checked} random winding vectors exact"


@criterion(5, "eigenvalue-branch log trace matches resolvent quadrature within 1e-6 on 100 matrices")
def test_criterion_05_log_trace_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(100):
        n = 1 + trial % 3
        M = random_symmetric_unitary(n, rng, margin=0.1)
        diff = abs(principal_log_trace(M) - log_trace_quadrature(M))
        worst = max(worst, diff)
    assert worst <= 1e-6
    return f"100 matrices (n cycles 1..3), worst |branch - quadrature| = {worst:.1e}"


@criterion(6, "200 random-map shadow areas stay >= 0.95*pi*R^2; identity calibrated to 1%")
def test_criterion_06_nonsqueezing_batch():
    t0 = time.perf_counter()
    identity = identity_symplectomorphism(2)
    calib_errors = []
    for plane in (0, 1):
        est = shadow_area(identity, 1.0, plane, grid_res=512, samples=1_000_000, seed=0)
        calib_errors.append(abs(est.corrected_area - math.pi) / math.pi)
    assert max(calib_errors) < 0.01

    result = nonsqueezing_experiment(2, R=1.0, n_maps=200, grid_res=512,
                                     samples=1_000_000, seed=0, margin=0.05)
    elapsed = time.perf_counter() - t0
    assert result["all_pass"]
    assert result["min_conjugate_area"] >= 0.95 * math.pi
    assert len(result["maps"]) == 200
    assert elapsed < 600.0
    return (f"min conjugate area {result['min_conjugate_area']:.4f} >= "
            f"{0.95 * math.pi:.4f}, calibration error {max(calib_errors):.2%}, "
            f"{elapsed:.0f}s")


@criterion(7, "quantization ladder r^2=(2N+1)hbar on a 1000-point scan; spectrum (N+1/2)hbar")
def test_criterion_07_quantization_ladder():
    hbar = 0.5
    passing = [k for k in range(1, 1001)
               if keller_maslov_check(TorusSpec((math.sqrt(k * hbar / 100.0),)), hbar).passed]
    assert passing == [100, 300, 500, 700, 900]

    # the nearest miss is rejected by a wide margin, not by luck at the tolerance edge
    near = keller_maslov_check(TorusSpec((math.sqrt(101 * hbar / 100.0),)), hbar)
    assert not near.passed
    assert near.generators[0].residual > 1e-3

    energies = oscillator_spectrum_from_waveforms(hbar, 6)
    spectrum_err = max(abs(e - (level + 0.5) * hbar) for level, e in enumerate(energies))
    assert spectrum_err <= 1e-9 * hbar

    assert ground_energy([1.0, 2.0, 3.0], hbar) == 3.0 * hbar
    torus = TorusSpec((math.sqrt(hbar), math.sqrt(3 * hbar), math.sqrt(5 * hbar)))
    total = oscillator_levels(torus, [1.0, 2.0, 3.0], hbar)
    assert total == (1.0 * 0.5 + 2.0 * 1.5 + 3.0 * 2.5) * hbar
    return (f"ladder hits exactly N=0..4, near-miss residual "
            f"{near.generators[0].residual:.3f}, spectrum error {spectrum_err:.1e}")


@criterion(8, "flow symplecticity, composition residual, and Hamilton-Jacobi residual bounds")
def test_criterion_08_flow_quality():
    rng = np.random.default_rng(8)

    H2 = harmonic_hamiltonian([1.0, 0.5])
    z0 = rng.uniform(-1.0, 1.0, size=4)
    quad_defect = _symplectic_defect(flow_path(H2, z0, 0.0, 2.3, steps=500).jacobians)
    assert quad_defect <= 1e-8

    H4 = quartic_hamiltonian([1.0, 0.7], 0.08)
    z4 = rng.uniform(-0.8, 0.8, size=4)
    quartic_defect = _symplectic_defect(flow_path(H4, z4, 0.0, 1.5, steps=10_000).jacobians)
    assert quartic_defect <= 1e-6

    ck_quad = chapman_kolmogorov_residual(H2, z0, 2.0, 0.7, 0.0, steps=1000)
    assert ck_quad <= 1e-8
    ck_quartic = chapman_kolmogorov_residual(H4, [0.3, -0.2, 0.1, 0.4], 1.2, 0.5, 0.0,
                                             steps=10_000)
    assert ck_quartic <= 1e-6

    # action telescopes exactly along quadratic flows
    shortcut_worst = 0.0
    for _ in range(50):
        z = rng.uniform(-1.0, 1.0, size=4)
        tau = float(rng.uniform(0.2, 2.5))
        traj = flow_path(H2, z, 0.0, tau, steps=400)
        shortcut_worst = max(shortcut_worst,
                             abs(traj.action[-1] - quadratic_action_shortcut(z, traj.points[-1])))
    assert shortcut_worst <= 1e-8

    # two-point actions solve the evolution PDE on a 100x100 grid and match closed forms
    x_grid = np.linspace(-0.5, 0.5, 100)
    t_grid = np.linspace(1.0, 1.2, 100)
    x_start = 0.1
    H1 = harmonic_hamiltonian([1.0])
    Hf = free_hamiltonian()
    S_osc = np.empty((100, 100))
    S_free = np.empty((100, 100))
    for k, t in enumerate(t_grid):
        for i, x in enumerate(x_grid):
            S_osc[i, k] = two_point_action(H1, [x_start], [x], 0.0, float(t))["action"]
            S_free[i, k] = two_point_action(Hf, [x_start], [x], 0.0, float(t))["action"]

    osc_closed = harmonic_action_closed_form(x_grid[:, None], x_start, t_grid[None, :])
    free_closed = (x_grid[:, None] - x_start) ** 2 / (2.0 * t_grid[None, :])
    osc_gap = float(np.max(np.abs(S_osc - osc_closed)))
    free_gap = float(np.max(np.abs(S_free - free_closed)))
    assert osc_gap <= 1e-6
    assert free_gap <= 1e-6

    hj_osc = hamilton_jacobi_residual(H1, S_osc, x_grid, t_grid)
    hj_free = hamilton_jacobi_residual(Hf, S_free, x_grid, t_grid)
    assert hj_osc <= 1e-6
    assert hj_free <= 1e-6
    return (f"defects {quad_defect:.1e}/{quartic_defect:.1e}, composition "
            f"{ck_quad:.1e}/{ck_quartic:.1e}, action gaps {osc_gap:.1e}/{free_gap:.1e}, "
            f"PDE residuals {hj_osc:.1e}/{hj_free:.1e}")


# Regression snapshot for the two-branch circle shadow pinned by criterion 9:
# quantized circle at N=2, hbar=0.5, uniform density, principal-sheet branches.
_SHADOW_POSITIONS = np.array([-1.2, -0.5, 0.0, 0.7, 1.3])
_SHADOW_VALUES = np.array([
    0.5390028177202603 + 0.5390028177202603j,
    -0.00756365142061801 - 0.00756365142061801j,
    -0.448683461270803 - 0.448683461270803j,
    0.25497605587582706 + 0.25497605587582706j,
    0.5376732408234592 + 0.5376732408234592j,
])


@criterion(9, "Van Vleck transport reproduces the closed-form propagator; Morse counts exact")
def test_criterion_09_van_vleck():
    hbar = 1e-8
    sigma, center = 0.8, 0.1
    phi = Polynomial(1, [(0.03, (1,)), (0.1, (2,))])

    def amplitude(theta):
        x = float(theta[0])
        return float(np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma)))

    # complex-Gaussian data coefficients equivalent to phi * Gaussian envelope
    alpha = 2.0 * 0.1 + 1j * hbar / sigma**2
    beta = 0.03 - 1j * hbar * center / sigma**2
    gamma = 1j * hbar * center**2 / sigma**2

    xs = np.linspace(-3.0, 3.0, 1024)
    H = harmonic_hamiltonian([1.0])
    rel_errors = []
    for tau in (0.1, 0.3, 1.0):
        values = van_vleck_propagate(phi, amplitude, H, 0.0, tau, xs, hbar)
        reference = gaussian_oracle(xs, hbar, alpha, beta, gamma,
                                    math.cos(tau), math.sin(tau), math.cos(tau))
        rel_errors.append(float(np.linalg.norm(values - reference)
                                / np.linalg.norm(reference)))
    Hf = free_hamiltonian()
    tau_free = 0.7
    values = van_vleck_propagate(phi, amplitude, Hf, 0.0, tau_free, xs, hbar)
    reference = gaussian_oracle(xs, hbar, alpha, beta, gamma, 1.0, tau_free, 1.0)
    rel_errors.append(float(np.linalg.norm(values - reference) / np.linalg.norm(reference)))
    worst_rel = max(rel_errors)
    assert worst_rel <= 1e-6

    # Morse counts: one per focal crossing strictly inside the window
    for (a, b), want in (((0.0, 0.5 * math.pi), 0), ((0.0, 1.5 * math.pi), 1),
                         ((0.0, 2.5 * math.pi), 2), ((math.pi, 2.5 * math.pi), 1)):
        assert morse_index(H, [0.3], [0.2], a, b) == want
    assert morse_index(Hf, [0.3], [0.2], 0.0, 2.0) == 0
    try:
        morse_index(H, [0.3], [0.2], 0.0, math.pi)
        raise AssertionError("window ending on a focal point must be rejected")
    except ConjugatePointError:
        pass

    # two-branch shadow regression: stable across fresh computations and runs
    psi = Waveform(quantized_circle(2, 0.5), uniform_density, 0.5)
    first = shadow(psi, _SHADOW_POSITIONS)
    second = shadow(psi, _SHADOW_POSITIONS)
    assert np.array_equal(first.values, second.values)
    assert np.all(first.branch_count == 2)
    assert not np.any(first.caustic)
    snapshot_gap = float(np.max(np.abs(first.values - _SHADOW_VALUES)))
    assert snapshot_gap <= 1e-9
    return (f"worst rel L2 {worst_rel:.1e} at hbar=1e-8, Morse counts 0/1/2/1 exact, "
            f"shadow snapshot gap {snapshot_gap:.1e}")


@criterion(10, "deck covariance: quantized waveforms are single-valued; the defect is predicted otherwise")
def test_criterion_10_single_valuedness():
    hbar = 0.5
    worst_quantized = 0.0
    for level in (0, 2):
        psi = Waveform(quantized_circle(level, hbar), uniform_density, hbar)
        for theta in (0.3, 2.0):
            for mu in (1, -2, 3):
                check = deck_covariance_check(psi, theta, mu)
                worst_quantized = max(worst_quantized, check["defect"],
                                      abs(check["predicted"] - 1.0))
    torus = TorusManifold((math.sqrt(hbar), math.sqrt(3.0 * hbar)))
    psi_torus = Waveform(torus, lambda th: 1.0 / (4.0 * math.pi**2), hbar)
    for mu in ((1, 0), (0, 1), (2, -1)):
        check = deck_covariance_check(psi_torus, np.array([0.3, 1.1]), np.array(mu))
        worst_quantized = max(worst_quantized, check["defect"],
                              abs(check["predicted"] - 1.0))
    assert worst_quantized <= 1e-10

    # r^2 = 2*hbar misses the ladder: one loop flips the sign, two loops restore it
    psi_bad = Waveform(CircleManifold(math.sqrt(2.0 * hbar)), uniform_density, hbar)
    single = deck_covariance_check(psi_bad, 0.4, 1)
    double = deck_covariance_check(psi_bad, 0.4, 2)
    assert single["defect"] <= 1e-10
    assert double["defect"] <= 1e-10
    assert abs(single["predicted"] + 1.0) <= 1e-12
    assert abs(double["predicted"] - 1.0) <= 1e-12
    return (f"quantized defect <= {worst_quantized:.1e}; unquantized loop factor -1 "
            f"observed and predicted")


def _flowed_loop_action(manifold, radius, theta, j, points=64):
    """``oint p dx`` once around circle j of a flowed torus, read from its tangent frame.

    ``dx/dtheta_j = radius X[:, j]`` with ``X`` the flowed tangent frame's
    position block, summed by the periodic trapezoid rule.
    """
    n, total = manifold.n, 0.0
    for k in range(points):
        th = theta.copy()
        th[j] = 2.0 * math.pi * k / points
        p = manifold.point(th)[n:]
        total += float(p @ (radius * manifold.tangent_frame(th).X[:, j]))
    return total * 2.0 * math.pi / points


_LOOP_FLOWS = {
    "harmonic": lambda n: harmonic_hamiltonian([1.0, 0.7][:n]),
    "quadratic": lambda n: quadratic_hamiltonian(
        [[1.3, 0.4], [0.4, 0.8]] if n == 1 else
        [[1.2, 0.3, 0.2, 0.0], [0.3, 0.9, 0.0, 0.1],
         [0.2, 0.0, 1.1, 0.25], [0.0, 0.1, 0.25, 0.7]]),
    "quartic": lambda n: quartic_hamiltonian([1.0, 0.8][:n], 0.3),
}


@criterion(11, "flowed tori keep their loop action and index; is_quantized agrees for a computed reason")
def test_criterion_11_flowed_loop_invariants():
    r = math.sqrt(1.5)
    bases = [(CircleManifold(r), np.zeros(1)),
             (TorusManifold((r,), flat_dims=1), np.array([0.0, 0.3]))]
    worst, loops = 0.0, 0
    for flow in _LOOP_FLOWS.values():
        for base, theta in bases:
            for t_end in (0.5, 2.0):
                man = FlowedManifold(base, flow(base.n), 0.0, t_end, steps=400)
                action = _flowed_loop_action(man, r, theta, 0)
                gap = abs(action - base.loop_integral([1]))  # the base's -pi r^2
                assert gap <= 1e-10
                worst = max(worst, gap)

                def loop(t, man=man, theta=theta):
                    th = theta.copy()
                    th[0] = t
                    return man.tangent_frame(th)

                index = maslov_loop_index_adaptive(loop, 0.0, 2.0 * math.pi)
                assert index == base.loop_index([1]) == 2
                # r^2 = 3 hbar is on the ladder at hbar = 0.5, off it at 0.6
                for hbar in (0.5, 0.6):
                    value = -action / (2.0 * math.pi * hbar) - index / 4.0
                    measured = abs(value - round(value)) <= 1e-9 and round(value) >= 0
                    assert measured == is_quantized(man, hbar) == is_quantized(base, hbar)
                    assert measured == (hbar == 0.5)
                loops += 1
    return (f"{loops} flowed loops (3 flows, circle and 2-torus with a flat factor, "
            f"T 0.5 and 2.0): worst action gap {worst:.1e}, index 2 each")
