"""Tests for semiclassical waveforms, shadows, and the short-time propagator."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symwave import capacity, cli
from symwave.capacity import TorusSpec, ground_energy, keller_maslov_check
from symwave.errors import (
    ConjugatePointError,
    DivergenceError,
    NumericalError,
    RefinementError,
)
from symwave.flows import (
    flow_map,
    harmonic_hamiltonian,
    quadratic_hamiltonian,
    quartic_hamiltonian,
)
from symwave.maslov import (
    _vertical_crossings,
    leray_index,
    lift_path,
    lift_path_adaptive,
    vertical_lift,
)
from symwave.polynomials import Polynomial
from symwave.symplectic import frame_from_souriau, vertical_frame
from symwave.waveforms import (
    CircleManifold,
    CoverPoint,
    FlowedManifold,
    GradientGraphManifold,
    TorusManifold,
    Waveform,
    argument_index_on_manifold,
    chart_cocycle,
    chart_index,
    chart_shadow_value,
    circle_phase,
    cover_phase,
    deck_covariance_check,
    evolve,
    horizontal_base,
    is_quantized,
    morse_index,
    oscillator_spectrum_from_waveforms,
    phase_defect,
    shadow,
    sqrt_de_rham,
    van_vleck_propagate,
)
from symwave.maslov import inert


def quantized_circle(N, hbar):
    return CircleManifold(math.sqrt((2 * N + 1) * hbar))


def uniform_density(th):
    return 1.0 / (2 * math.pi)


def gaussian_oracle(x, hbar, alpha, beta, gamma, A, B, D):
    """Exact quadratic-flow evolution of ``exp[(i/2h)(a x^2 + 2 b x + c)]``.

    Fresnel integral of the Van Vleck kernel against complex-Gaussian data;
    ``(A, B, D)`` are the position/momentum blocks of the flow matrix.
    """
    if B == 0:
        return np.exp(0.5j * (alpha * x**2 + 2 * beta * x + gamma) / hbar)
    c2 = (A + alpha * B) / B
    c1 = beta - x / B
    return (A + alpha * B) ** -0.5 * np.exp(
        0.5j * (D * x**2 / B + gamma - c1**2 / c2) / hbar
    )


def test_circle_phase_closed_form():
    assert circle_phase(0.0, 1.3) == 0.0
    assert abs(circle_phase(math.pi / 2, 1.0) + math.pi / 4) < 1e-15
    # one full turn subtracts pi r^2
    r = 1.7
    for th in (-1.0, 0.4, 2.9):
        shift = circle_phase(th + 2 * math.pi, r) - circle_phase(th, r)
        assert abs(shift + math.pi * r * r) < 1e-12
    # derivative oracle: dphi/dtheta = -r^2 sin^2(theta)
    h = 1e-6
    for th in np.linspace(-7, 7, 41):
        fd = (circle_phase(th + h, r) - circle_phase(th - h, r)) / (2 * h)
        assert abs(fd + r * r * math.sin(th) ** 2) < 1e-6


def test_cover_phase_circle_and_loops():
    r = 1.4
    man = CircleManifold(r)
    theta_end = 2.2

    def sampled(count):
        thetas = np.linspace(0.0, theta_end, count)
        return [man.point(t) for t in thetas]

    coarse = cover_phase(sampled(4001), man)
    fine = cover_phase(sampled(16001), man)
    assert abs(coarse - circle_phase(theta_end, r)) < 1e-6
    assert abs(fine - circle_phase(theta_end, r)) < 1e-8
    assert abs(coarse - fine) < 1e-6  # discretization independence

    # constant path
    assert cover_phase([man.point(0.5)] * 7, man) == 0.0

    # a full loop adds the loop integral -pi r^2
    loop = [man.point(t) for t in np.linspace(0.3, 0.3 + 2 * math.pi, 40001)]
    assert abs(cover_phase(loop, man) + math.pi * r * r) < 1e-7

    with pytest.raises(ValueError):
        cover_phase([np.array([r + 0.1, 0.0])], man)
    with pytest.raises(ValueError):
        cover_phase([np.zeros(3)], man)


def test_circle_argument_index_examples():
    # the circle's tangent lift against the vertical base: one unit per half
    # turn, and the deck loop adds its index 2
    man = CircleManifold(1.0)
    base = vertical_lift(1)
    assert argument_index_on_manifold(CoverPoint(man, math.pi / 2), base) == 1
    assert argument_index_on_manifold(CoverPoint(man, -math.pi / 4), base) == 0
    for th in np.linspace(-5, 5, 23):
        m0 = argument_index_on_manifold(CoverPoint(man, th), base)
        m1 = argument_index_on_manifold(CoverPoint(man, man.deck(th, (1,))), base)
        assert m1 == m0 + 2


def test_argument_index_machinery_matches_closed_form():
    man = CircleManifold(1.2)
    base = vertical_lift(1)
    for th in list(np.linspace(-4.7, 7.3, 25)) + [0.0, math.pi, -math.pi, 2 * math.pi]:
        m = argument_index_on_manifold(CoverPoint(man, th), base)
        assert m == math.floor(th / math.pi) + 1


def test_torus_loop_raises_index_by_four():
    man = TorusManifold((1.0, 1.3))
    base = vertical_lift(2)
    th = np.array([0.7, -0.4])
    m0 = argument_index_on_manifold(CoverPoint(man, th), base)
    m1 = argument_index_on_manifold(CoverPoint(man, man.deck(th, (1, 1))), base)
    assert m1 - m0 == 4
    assert man.loop_index((1, 1)) == 4
    assert abs(man.loop_integral((1, 1)) + math.pi * (1.0 + 1.3**2)) < 1e-12


def test_base_change_matches_inertia_identity():
    # m_a(z) - m_b(z) = inert(l(z), l_a, l_b) - m(base_a, base_b)
    man = CircleManifold(1.0)
    base_a = vertical_lift(1)
    base_b = horizontal_base(1)
    fa = vertical_frame(1)
    fb = frame_from_souriau(base_b.w)
    mab = leray_index(base_a, base_b, frames=(fa, fb))
    for th in (0.3, 1.2, 2.0, -0.8, 4.4, -2.9):
        z = CoverPoint(man, th)
        ma = argument_index_on_manifold(z, base_a)
        mb = argument_index_on_manifold(z, base_b)
        assert ma - mb == inert(man.tangent_frame(th), fa, fb) - mab


def test_phase_defect_small_everywhere():
    manifolds = [
        (CircleManifold(1.3), [0.9]),
        (TorusManifold((0.8, 1.1), flat_dims=1), [0.5, -1.2, 0.7]),
        (GradientGraphManifold(Polynomial(1, [(0.3, (2,)), (0.1, (4,))])), [0.6]),
    ]
    for man, th in manifolds:
        assert phase_defect(man, th) < 1e-6


def test_sqrt_de_rham_values():
    man = CircleManifold(1.0)
    z = CoverPoint(man, 0.8)
    base = vertical_lift(1)
    assert sqrt_de_rham(0.0, z, base) == 0
    plus = sqrt_de_rham(0.49, z, base, +1)
    minus = sqrt_de_rham(0.49, z, base, -1)
    assert plus == 1j * 0.7  # index 1 on the upper branch
    assert abs(minus / plus - (1j) ** -1) < 1e-15  # orientation flip
    # chart change multiplies by i^{m_ab}
    other = sqrt_de_rham(0.49, z, horizontal_base(1))
    cocycle = chart_cocycle(man, 0.8, "up", "right")
    assert abs(plus / other - 1j**cocycle) < 1e-15
    with pytest.raises(ValueError):
        sqrt_de_rham(-0.1, z, base)
    with pytest.raises(ValueError):
        sqrt_de_rham(0.1, z, base, orientation=0)


def test_waveform_validation():
    man = CircleManifold(1.0)
    with pytest.raises(ValueError):
        Waveform(man, lambda th: 1.0, hbar=0.0)
    with pytest.raises(ValueError):
        Waveform(man, "not callable", hbar=1.0)
    psi = Waveform(man, lambda th: -1.0, hbar=1.0)
    with pytest.raises(ValueError):
        psi.value(0.3)
    assert Waveform(man, lambda th: 0.0, hbar=1.0).value(0.3) == 0


def test_values_are_the_values_at_each_parameter():
    hbar = 0.5
    circle = Waveform(quantized_circle(1, hbar), lambda th: (th - 0.5) ** 2, hbar)
    thetas = [-2.0, 0.5, 1.3, 3.0]  # the amplitude vanishes at 0.5 only
    vals = circle.values(thetas)
    assert vals.dtype == complex and vals[1] == 0
    assert np.array_equal(vals, [circle.value(th) for th in thetas])

    graph = Waveform(GradientGraphManifold(Polynomial(1, [(0.3, (2,)), (0.1, (4,))])),
                     lambda x: math.exp(-float(x[0]) ** 2), 0.1)
    evolved = evolve(graph, harmonic_hamiltonian([1.0]), 0.0, 0.4, steps=40)
    xs = [np.array([x]) for x in (-0.5, 0.0, 0.2, 0.9)]
    vals = evolved.values(xs)
    assert np.all(vals != 0)
    assert np.array_equal(vals, [evolved.value(x) for x in xs])


def test_deck_covariance_and_single_valuedness():
    hbar = 0.4
    psi = Waveform(quantized_circle(2, hbar), uniform_density, hbar)
    for th in (0.3, 1.9, -1.0):
        chk = deck_covariance_check(psi, th, 1)
        assert abs(chk["predicted"] - 1) < 1e-12
        assert chk["defect"] < 1e-12
        gamma_psi = psi.value(psi.manifold.deck(th, 1))
        assert abs(gamma_psi - psi.value(th)) < 1e-12

    # unquantized circle picks up exactly the predicted defect factor
    psi2 = Waveform(CircleManifold(1.1), lambda th: 1.0, hbar)
    chk = deck_covariance_check(psi2, 0.7, 2)
    predicted = np.exp(1j * (-math.pi * 1.1**2 * 2 / hbar + math.pi * 2))
    assert abs(chk["predicted"] - predicted) < 1e-12
    assert abs(chk["predicted"] - 1) > 0.1
    assert chk["defect"] < 1e-12

    # torus generators, including a mixed winding
    tor = TorusManifold((math.sqrt(3 * hbar), math.sqrt(5 * hbar)))
    tpsi = Waveform(tor, lambda th: 1.0, hbar)
    chk = deck_covariance_check(tpsi, np.array([0.4, -0.9]), (1, 1))
    assert abs(chk["predicted"] - 1) < 1e-12
    assert chk["defect"] < 1e-12


def test_is_quantized_cases():
    hbar = 0.7
    assert is_quantized(quantized_circle(0, hbar), hbar)
    assert is_quantized(quantized_circle(3, hbar), hbar)
    assert not is_quantized(CircleManifold(math.sqrt(4 * hbar)), hbar)
    assert not is_quantized(CircleManifold(1.01 * math.sqrt(hbar)), hbar)
    assert is_quantized(TorusSpec((math.sqrt(hbar), math.sqrt(3 * hbar))), hbar)
    graph = GradientGraphManifold(Polynomial(1, [(1.0, (2,))]))
    assert is_quantized(graph, hbar)
    evolved = evolve(
        Waveform(quantized_circle(1, hbar), uniform_density, hbar),
        harmonic_hamiltonian([1.0]), 0.0, 0.3, steps=100,
    )
    assert is_quantized(evolved.manifold, hbar)
    with pytest.raises(ValueError):
        is_quantized("pretzel", hbar)


def test_evolve_identity_and_full_period():
    hbar = 0.5
    psi = Waveform(quantized_circle(1, hbar), uniform_density, hbar)
    H = harmonic_hamiltonian([1.0])
    assert evolve(psi, H, 0.2, 0.2) is psi

    # E_N = 1.5 hbar, so one period multiplies by e^{-2 pi i E/hbar} = -1,
    # with the waveform staying single-valued on the same circle
    ev = evolve(psi, H, 0.0, 2 * math.pi, steps=1500)
    for th in (0.3, 2.2, -1.4):
        assert abs(ev.value(th) + psi.value(th)) < 1e-8
    assert abs(ev.manifold.point(0.7) - psi.manifold.point(0.7)).max() < 1e-12

    # intermediate time: the label rides along the clockwise rotation
    ev2 = evolve(psi, H, 0.0, 0.9, steps=600)
    tau = 0.9
    rot = np.array([[math.cos(tau), math.sin(tau)], [-math.sin(tau), math.cos(tau)]])
    assert np.max(np.abs(ev2.manifold.point(0.7) - rot @ psi.manifold.point(0.7))) < 1e-12
    assert phase_defect(ev2.manifold, [0.7]) < 1e-6
    # the evolved phase still generates p dx, and mass rides the parameter
    assert ev2.amplitude is psi.amplitude


def test_evolved_lift_on_too_coarse_a_path_is_a_refinement_error():
    # two samples per period: the Jacobians at 0, pi, 2 pi are I, -I, I, so
    # each step turns det(P - iX) by pi and the sampled lift is ambiguous,
    # not the input bad
    psi = Waveform(CircleManifold(1.0), lambda th: 1.0, 0.5)
    H = harmonic_hamiltonian([1.0])
    with pytest.raises(RefinementError, match="too coarse"):
        evolve(psi, H, 0.0, 2 * math.pi, steps=2).index(0.3)
    assert evolve(psi, H, 0.0, 2 * math.pi, steps=8).index(0.3) == -1


COUPLED = quadratic_hamiltonian(np.array([[1.0, 0.3, 0.0, 0.2], [0.3, 1.5, 0.1, 0.0],
                                           [0.0, 0.1, 1.0, 0.4], [0.2, 0.0, 0.4, 0.8]]))


@pytest.mark.parametrize("steps", [10, 1000])
@pytest.mark.parametrize("manifold, theta, expected", [
    (TorusManifold((1.0, 1.5)), [0.3, 1.1], 0),
    (GradientGraphManifold(Polynomial(2, [(0.3, (2, 0)), (0.2, (1, 1)), (0.1, (0, 2))])),
     [0.3, -0.2], -1),
], ids=["torus", "graph"])
def test_coupled_flow_index_lifts_the_sampled_frames(manifold, theta, expected, steps):
    # a coupled flow in n = 2: a linear interpolant of its Jacobians is not
    # symplectic, so the index must come from the exact sampled frames
    psi = Waveform(manifold, lambda th: 1.0, 0.5)
    ev = evolve(psi, COUPLED, 0.0, 2.0, steps=steps)
    jacs = ev.manifold.path(theta)[2]
    frame = manifold.tangent_frame(theta)
    lifts = lift_path([frame.transformed(J) for J in jacs], manifold.cover_lift(theta).alpha)
    assert ev.index(theta) == leray_index(lifts[-1], psi.index_base) == expected


def test_caustic_kernel_rejects_a_flipped_basis():
    # one line {p = 0} with its basis flipped: nothing moves, yet det(P - iX)
    # jumps by pi, which no sampled step may do -- not a phantom caustic
    with pytest.raises(RefinementError, match="too coarse"):
        _vertical_crossings(np.array([[[1.0], [0.0]], [[-1.0], [0.0]]]), [0.0])


def test_evolve_composition_matches_direct():
    hbar = 0.3
    H = quartic_hamiltonian([1.0], 0.4)
    graph = GradientGraphManifold(Polynomial(1, [(0.25, (2,)), (0.05, (4,))]))
    psi = Waveform(graph, lambda x: math.exp(-float(np.square(x).sum())), hbar)
    two = evolve(evolve(psi, H, 0.0, 0.35, steps=1200), H, 0.35, 0.8, steps=1200)
    one = evolve(psi, H, 0.0, 0.8, steps=2400)
    for x in (-0.6, 0.1, 0.9):
        assert abs(two.value([x]) - one.value([x])) < 1e-7


def test_evolve_preserves_deck_structure():
    # Hamiltonian isotopies leave loop integrals and loop indices alone, so
    # the deck-covariance factor of an unquantized circle survives evolution.
    hbar = 0.45
    psi = Waveform(CircleManifold(1.2), lambda th: 1.0, hbar)
    H = harmonic_hamiltonian([1.0])
    ev = evolve(psi, H, 0.0, 1.1, steps=800)
    chk0 = deck_covariance_check(psi, 0.6, 1)
    chk1 = deck_covariance_check(ev, 0.6, 1)
    assert abs(chk0["predicted"] - chk1["predicted"]) < 1e-12
    assert chk1["defect"] < 1e-7


def test_shadow_graph_is_exact():
    hbar = 0.3
    Phi = Polynomial(1, [(0.4, (1,)), (-0.35, (2,)), (0.12, (3,))])
    graph = GradientGraphManifold(Phi)

    def amp(x):
        return math.exp(-float(np.asarray(x).reshape(-1)[0]) ** 2)

    psi = Waveform(graph, amp, hbar)
    xs = np.linspace(-1.5, 1.5, 31)
    sh = shadow(psi, xs)
    exact = np.array(
        [np.exp(1j * Phi.value(np.array([x])) / hbar) * math.sqrt(amp(x)) for x in xs]
    )
    assert np.max(np.abs(sh.values - exact)) == 0.0
    assert (sh.branch_count == 1).all()
    assert not sh.caustic.any()


def test_shadow_circle_structure_and_snapshot():
    psi = Waveform(CircleManifold(1.0), uniform_density, 0.3)
    grid = np.array([-1.5, -1.0, -0.4, 0.0, 0.6, 1.0 - 5e-9, 1.3])
    sh = shadow(psi, grid)
    assert sh.branch_count.tolist() == [0, 2, 2, 2, 2, 2, 0]
    assert sh.caustic.tolist() == [False, True, False, False, False, True, False]
    assert np.isnan(sh.values[1]) and np.isnan(sh.values[5])
    assert sh.values[0] == 0 and sh.values[6] == 0
    finite = sh.values[[2, 3, 4]]
    assert np.all(np.isfinite(finite))

    # two-branch interference: value = 2 sqrt(rho |dtheta/dx|) e^{i pi/4}
    #                                  * cos(phase/hbar + pi/4)
    for x, v in zip(grid[[2, 3, 4]], finite):
        theta = math.acos(x)
        expected = (
            2.0 * math.sqrt(uniform_density(theta) / math.sin(theta))
            * np.exp(0.25j * math.pi)
            * math.cos(circle_phase(theta, 1.0) / 0.3 + math.pi / 4)
        )
        assert abs(v - expected) < 1e-12

    # regression snapshot (r=1, hbar=0.3, uniform density)
    snapshot = {
        -0.8: -0.3709127556286254,
        -0.4: -0.5892821893228278,
        0.0: -0.14602300927061918,
        0.3: 0.3821908598479786,
        0.6: 0.6302809362512319,
    }
    sh2 = shadow(psi, np.array(sorted(snapshot)))
    for v, (_, ref) in zip(sh2.values, sorted(snapshot.items())):
        assert abs(v - (ref + 1j * ref)) < 1e-12

    # the N=3 level has a node at the origin (odd parity)
    psi3 = Waveform(CircleManifold(math.sqrt(0.7)), uniform_density, 0.1)
    assert abs(shadow(psi3, np.array([0.0])).values[0]) < 1e-12

    with pytest.raises(ValueError):
        shadow(Waveform(TorusManifold((1.0,)), lambda th: 1.0, 0.3), grid)
    with pytest.raises(ValueError):
        shadow(
            Waveform(GradientGraphManifold(Polynomial(2, [(1.0, (2, 0))])),
                     lambda x: 1.0, 0.3),
            grid,
        )


def test_chart_overlap_consistency():
    psi = Waveform(CircleManifold(1.0), uniform_density, 0.3)
    overlaps = [
        (0.5, ("up", "right")),
        (2.2, ("up", "left")),
        (-0.5, ("down", "right")),
        (-2.4, ("down", "left")),
    ]
    for th, (ca, cb) in overlaps:
        co = chart_cocycle(psi.manifold, th, ca, cb)
        va = chart_shadow_value(psi, th, ca)
        vb = chart_shadow_value(psi, th, cb)
        assert abs(va - (1j) ** co * vb) < 1e-8
        # the cocycle lives on the base manifold: deck shifts cancel
        assert chart_cocycle(psi.manifold, th + 2 * math.pi, ca, cb) == co
        assert chart_index(psi, th + 2 * math.pi, ca) == chart_index(psi, th, ca) + 2
    with pytest.raises(ValueError):
        chart_shadow_value(psi, 0.5, "down")  # wrong chart for this point
    with pytest.raises(ValueError):
        chart_shadow_value(psi, 0.5, "sideways")


def test_gaussian_oracle_against_quadrature():
    # validate the closed form once at moderate hbar before leaning on it
    hbar, tau = 0.05, 0.4
    sigma, x0 = 0.7, 0.2
    alpha = 0.3 + 1j * hbar / sigma**2
    beta = -0.1 - 1j * hbar * x0 / sigma**2
    gamma = 1j * hbar * x0**2 / sigma**2
    A, B, D = math.cos(tau), math.sin(tau), math.cos(tau)
    xq = np.linspace(-6, 6, 20001)
    data = np.exp(0.5j * (alpha * xq**2 + 2 * beta * xq + gamma) / hbar)
    for x in (-0.4, 0.0, 0.5):
        kern = np.exp(0.5j * (A * xq**2 - 2 * x * xq + D * x**2) / (hbar * B))
        kern = kern / np.sqrt(2j * math.pi * hbar * B)
        brute = np.trapezoid(kern * data, xq)
        assert abs(gaussian_oracle(x, hbar, alpha, beta, gamma, A, B, D) - brute) < 1e-9


def test_van_vleck_exact_for_quadratic_phase():
    # constant amplitude + quadratic phase: the formula is exact at ANY hbar
    H = harmonic_hamiltonian([1.0])
    phi = Polynomial(1, [(0.15, (2,)), (-0.2, (1,))])
    grid = np.linspace(-1.2, 1.2, 41)
    hbar, tau = 0.21, 0.9
    vv = van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, tau, grid, hbar)
    oracle = gaussian_oracle(grid, hbar, 0.3, -0.2, 0.0,
                             math.cos(tau), math.sin(tau), math.cos(tau))
    assert np.linalg.norm(vv - oracle) / np.linalg.norm(oracle) < 1e-12

    free = quadratic_hamiltonian(np.diag([0.0, 1.0]))
    vv = van_vleck_propagate(phi, lambda x: 1.0, free, 0.0, 0.7, grid, hbar)
    oracle = gaussian_oracle(grid, hbar, 0.3, -0.2, 0.0, 1.0, 0.7, 1.0)
    assert np.linalg.norm(vv - oracle) / np.linalg.norm(oracle) < 1e-12


def test_van_vleck_gaussian_data_small_hbar():
    # O(hbar) transport error: tiny hbar pushes it far below the tolerance
    H = harmonic_hamiltonian([1.0])
    hbar, tau = 1e-8, 0.3
    sigma, x0 = 0.8, 0.1
    phi = Polynomial(1, [(0.1, (2,)), (0.03, (1,))])

    def amp(xp):
        return math.exp(-(float(np.asarray(xp).reshape(-1)[0]) - x0) ** 2
                        / (2 * sigma**2))

    grid = np.linspace(-1.0, 1.2, 257)
    vv = van_vleck_propagate(phi, amp, H, 0.0, tau, grid, hbar)
    oracle = gaussian_oracle(
        grid, hbar,
        0.2 + 1j * hbar / sigma**2,
        0.03 - 1j * hbar * x0 / sigma**2,
        1j * hbar * x0**2 / sigma**2,
        math.cos(tau), math.sin(tau), math.cos(tau),
    )
    assert np.linalg.norm(vv - oracle) / np.linalg.norm(oracle) < 1e-6

    # unitarity: the transported density integrates to the input mass
    wide = np.linspace(-6, 6, 2001)
    vvw = van_vleck_propagate(phi, amp, H, 0.0, tau, wide, hbar)
    mass_in = np.trapezoid([amp(x) ** 2 for x in wide], wide)
    mass_out = np.trapezoid(np.abs(vvw) ** 2, wide)
    assert abs(mass_out - mass_in) / mass_in < 1e-6


def test_van_vleck_identity_and_generic_hamiltonian():
    phi = Polynomial(1, [(0.15, (2,))])
    grid = np.linspace(-0.8, 0.8, 9)
    hbar = 0.17
    H = harmonic_hamiltonian([1.0])
    same = van_vleck_propagate(phi, lambda x: 1.0, H, 0.5, 0.5, grid, hbar)
    expected = np.exp(1j * np.array([phi.value(np.array([x])) for x in grid]) / hbar)
    assert np.max(np.abs(same - expected)) < 1e-15

    # a quartic generator at short time stays close to its quadratic part
    Hq = quartic_hamiltonian([1.0], 0.05)
    tau = 0.1
    vq = van_vleck_propagate(phi, lambda x: 1.0, Hq, 0.0, tau, grid, hbar, steps=200)
    vh = van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, tau, grid, hbar)
    assert np.max(np.abs(vq - vh)) < 5e-2
    assert np.max(np.abs(vq - vh)) > 1e-6  # but not identical


def test_van_vleck_conjugate_point_errors():
    H = harmonic_hamiltonian([1.0])
    phi = Polynomial(1, [(0.15, (2,))])
    grid = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(ConjugatePointError):
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, math.pi, grid, 0.2)
    with pytest.raises(ConjugatePointError):
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 1.2 * math.pi, grid, 0.2)
    # just inside the free window is fine
    values = van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 1.2, grid, 0.2)
    assert np.all(np.isfinite(values))
    # omega = (1, 1) focuses both directions of phi = 0.15 |x|^2 together: a
    # double caustic inside [0, 1.5 pi], across which det dx/dx' keeps its sign
    H2 = harmonic_hamiltonian([1.0, 1.0])
    phi2 = Polynomial(2, [(0.15, (2, 0)), (0.15, (0, 2))])
    with pytest.raises(ConjugatePointError, match="inside the window"):
        van_vleck_propagate(phi2, lambda x: 1.0, H2, 0.0, 1.5 * math.pi,
                            [[0.1, 0.2], [0.0, -0.1]], 0.1)


def test_van_vleck_empty_grid():
    phi = Polynomial(1, [(0.15, (2,))])
    for H, t_end in ((harmonic_hamiltonian([1.0]), 0.0), (harmonic_hamiltonian([1.0]), 0.5),
                     (quartic_hamiltonian([1.0], 0.1), 0.5)):
        values = van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, t_end, [], 0.1)
        assert values.shape == (0,) and values.dtype == complex


def test_van_vleck_rejects_non_finite_positions():
    phi = Polynomial(1, [(0.15, (2,))])
    for H in (harmonic_hamiltonian([1.0]), quartic_hamiltonian([1.0], 0.1)):
        for grid in ([0.3, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="positions must be finite"):
                van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 0.5, grid, 0.1)


def test_van_vleck_past_the_fold_has_no_source():
    # the flowed graph's image tops out at x ~ 1.243, so the last grid point
    # has no source; its damped Newton trials must not end in a divergence
    H = quartic_hamiltonian([1.0], 0.1)
    phi = Polynomial(1, [(0.2, (1,)), (0.25, (2,))])
    grid = np.linspace(0.3, 1.3, 8)
    with pytest.raises(NumericalError) as exc:
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 0.8, grid, 0.05)
    assert not isinstance(exc.value, DivergenceError)
    assert "no source point" in str(exc.value) and "1.3" in str(exc.value)


def test_morse_index_windows():
    H = harmonic_hamiltonian([1.0])
    assert morse_index(H, [0.3], [0.4], 0.0, 0.9 * math.pi) == 0
    assert morse_index(H, [0.3], [0.4], 0.0, 1.5 * math.pi) == 1
    assert morse_index(H, [0.3], [0.4], 0.0, 2.7 * math.pi) == 2
    assert morse_index(H, [0.3], [0.4], 1.0, 1.0 + 0.5 * math.pi) == 0
    free = quadratic_hamiltonian(np.diag([0.0, 1.0]))
    assert morse_index(free, [0.3], [0.4], 0.0, 5.0) == 0
    with pytest.raises(ConjugatePointError):
        morse_index(H, [0.3], [0.4], 0.0, math.pi)
    with pytest.raises(ValueError):
        morse_index(H, [0.3], [0.4], 1.0, 1.0)
    # the fibre never leaves {x = 0} under the zero Hamiltonian
    with pytest.raises(ConjugatePointError):
        morse_index(quadratic_hamiltonian(np.zeros((2, 2))), [0.3], [0.2], 0.0, 1.0)
    # decoupled 2-D oscillators: sum_j floor(omega_j T / pi) focal points; at
    # equal frequencies each one is double
    for omegas, want in (([1.0, 1.0], (0, 2, 4)), ([1.0, 1.3], (1, 2, 5))):
        H = harmonic_hamiltonian(omegas)
        got = tuple(morse_index(H, [0.3, 0.1], [0.2, 0.4], 0.0, b * math.pi)
                    for b in (0.9, 1.5, 2.5))
        assert got == want


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.booleans(), st.floats(0.5, 12.0))
def test_morse_index_matches_harmonic_closed_form(w1, w2, equal, T):
    omegas = np.array([w1, w1 if equal else w2])
    turns = omegas * T / math.pi
    assume(np.min(np.abs(turns - np.round(turns))) >= 1e-3)
    H = harmonic_hamiltonian(omegas)
    assert morse_index(H, [0.3, -0.2], [0.1, 0.4], 0.0, T) == int(np.sum(np.floor(turns)))


@pytest.mark.parametrize("t_end, steps", [(1.5 * math.pi, 1), (2 * math.pi + 1, 1),
                                          (4 * math.pi + 1, 2)])
def test_morse_count_on_too_coarse_a_quadratic_path_is_a_refinement_error(t_end, steps):
    # each step turns the fibre by omega dt >= pi, so the sampled count could
    # alias (it read 0 where the truth is 1, 2 and 4)
    H = harmonic_hamiltonian([1.0])
    with pytest.raises(RefinementError, match="too coarse"):
        morse_index(H, [0.3], [0.2], 0.0, t_end, steps=steps)


def test_one_step_evolved_circle_lift_is_a_refinement_error():
    # the two sampled Jacobians are both I, so the lift saw no rotation and
    # read 1; three steps or more read -1
    psi = Waveform(CircleManifold(1.0), lambda th: 1.0, 0.5)
    H = harmonic_hamiltonian([1.0])
    with pytest.raises(RefinementError, match="too coarse"):
        evolve(psi, H, 0.0, 2 * math.pi, steps=1).index(0.3)
    assert evolve(psi, H, 0.0, 2 * math.pi, steps=3).index(0.3) == -1


def test_long_quadratic_window_scans_every_caustic():
    # 128 caustics inside [0, 128 pi + 1]: a fixed 64-step scan moved by
    # 2 pi + 0.016 per step, saw none, and returned the value over [0, 1]
    phi = Polynomial(1, [(0.15, (2,))])
    H = harmonic_hamiltonian([1.0])
    with pytest.raises(ConjugatePointError):
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 128 * math.pi + 1, [0.2], 0.05)
    # a window whose scan would pass a million steps is refused before it runs
    with pytest.raises(RefinementError, match="too long"):
        van_vleck_propagate(phi, lambda x: 1.0, H, 0.0, 1e7, [0.2], 0.05)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.5, 10.0),
       st.integers(1, 60))
def test_quadratic_morse_count_is_exact_or_refused(n, seed, definite, T, steps):
    # no step count yields a wrong integer: the coarse count is the dense one,
    # or the turn bound n ||M||_2 dt >= pi refuses it
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2 * n, 2 * n))
    M = A @ A.T / (2 * n) + 0.1 * np.eye(2 * n) if definite else (A + A.T) / 2
    H = quadratic_hamiltonian(M)
    x, p = rng.normal(size=n), rng.normal(size=n)
    try:
        dense = morse_index(H, x, p, 0.0, T, steps=4000)
    except ConjugatePointError:
        assume(False)
    try:
        count = morse_index(H, x, p, 0.0, T, steps=steps)
    except RefinementError:
        return
    assert count == dense


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0),
       st.floats(0.5, 10.0), st.integers(1, 200))
def test_quartic_morse_count_is_exact_or_refused(n, seed, t0, T, steps):
    # the quartic family certifies its steps too: the coarse count is the
    # dense one, or a Yoshida step's turn bound reaches pi and refuses it.  A
    # step past the splitting's stability runs the path off, which is loud too
    rng = np.random.default_rng(seed)
    H = quartic_hamiltonian(rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 0.5),
                            masses=rng.uniform(0.5, 2.0, n))
    x, p = rng.normal(size=n), rng.normal(size=n)
    try:
        dense = morse_index(H, x, p, t0, t0 + T, steps=4000)
    except ConjugatePointError:
        assume(False)
    try:
        count = morse_index(H, x, p, t0, t0 + T, steps=steps)
    except (RefinementError, DivergenceError):
        return
    assert count == dense


def test_quartic_coarse_paths_are_refinement_errors():
    H = quartic_hamiltonian([1.0], 0.1)
    # 16 steps counted 3 focal points where dense sampling finds 6
    with pytest.raises(RefinementError, match="too coarse"):
        morse_index(H, [0.3], [0.2], 0.0, 20.0, steps=16)
    assert morse_index(H, [0.3], [0.2], 0.0, 20.0, steps=2000) == 6
    # one step lifted the circle's tangent with alpha 0.0, where dense
    # sampling carries it to -44.755
    with pytest.raises(RefinementError, match="too coarse"):
        FlowedManifold(CircleManifold(1.0), H, 0.0, 20.0, steps=1).cover_lift([0.3])
    alpha = FlowedManifold(CircleManifold(1.0), H, 0.0, 20.0, steps=2000).cover_lift([0.3]).alpha
    assert alpha == pytest.approx(-44.755265, abs=1e-5)


def test_evolved_index_field_drops_by_the_caustic_count():
    # Morse index theorem: the transported lift's index falls by one per
    # focal point of the flowed graph plane, which the batched kernel counts
    phi = Polynomial(1, [(0.1, (1,)), (0.3, (2,)), (0.05, (3,))])
    psi = Waveform(GradientGraphManifold(phi), lambda th: 1.0, 0.5)
    for H in (harmonic_hamiltonian([1.0]), quartic_hamiltonian([1.0], 0.1)):
        for T in (1.0, 2.5, 4.0, 6.0):
            ev = evolve(psi, H, 0.0, T, steps=1000)
            for x in (-0.5, 0.2, 0.7):
                path = ev.manifold.path([x])
                frame = np.array([[1.0], [phi.hess(np.array([x]))[0, 0]]])
                drop = psi.index([x]) - ev.index([x])
                assert drop == _vertical_crossings(path.jacobians @ frame, path.turns)


def test_oscillator_spectrum_ladder():
    for hbar in (1.0, 2.0):
        levels = oscillator_spectrum_from_waveforms(hbar, 2)
        assert len(levels) == 3
        for lvl, N in zip(levels, range(3)):
            assert abs(lvl - (N + 0.5) * hbar) < 1e-9 * hbar
        for lvl in levels:
            assert is_quantized(CircleManifold(math.sqrt(2 * lvl)), hbar)

    # the index-free contrast construction lands on the integer ladder instead
    dens = oscillator_spectrum_from_waveforms(1.0, 2, density_only=True)
    assert np.allclose(dens, [1.0, 2.0, 3.0], atol=1e-9)
    with pytest.raises(ValueError):
        oscillator_spectrum_from_waveforms(0.0, 2)
    with pytest.raises(ValueError):
        oscillator_spectrum_from_waveforms(1.0, -1)


def test_cover_point_and_flowed_manifold_plumbing():
    man = CircleManifold(1.5)
    z = CoverPoint(man, 0.8)
    assert np.allclose(z.projection(), man.point(0.8))
    with pytest.raises(ValueError):
        CoverPoint(man, [0.1, 0.2])

    H = harmonic_hamiltonian([1.0])
    psi = Waveform(man, uniform_density, 0.5)
    ev = evolve(psi, H, 0.0, 0.7, steps=300)
    fm = ev.manifold
    # points of the flowed manifold sit on it; the inverse flow measures offset
    assert fm.offset(fm.point(1.1)) < 1e-9
    assert fm.offset(np.array([5.0, 5.0])) > 1.0
    # cover_phase along a short flowed-manifold arc stays consistent
    arc = [fm.point(t) for t in np.linspace(0.2, 0.5, 2001)]
    seg = cover_phase(arc, fm, tol=1e-6)
    assert abs(seg - (fm.phase(0.5) - fm.phase(0.2))) < 1e-5

    with pytest.raises(ValueError):
        FlowedManifold(man, harmonic_hamiltonian([1.0, 2.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        FlowedManifold(man, H, 0.0, 1.0, steps=0)


def test_manifold_validation():
    with pytest.raises(ValueError):
        CircleManifold(0.0)
    with pytest.raises(ValueError):
        TorusManifold(())
    with pytest.raises(ValueError):
        TorusManifold((1.0,), flat_dims=-1)
    graph = GradientGraphManifold(Polynomial(1, [(1.0, (2,))]))
    with pytest.raises(ValueError):
        graph.deck([0.0], 1)
    assert graph.loop_integral(0) == 0.0 and graph.loop_index(0) == 0
    man = TorusManifold((1.0, 2.0), flat_dims=1)
    with pytest.raises(ValueError):
        man.deck([0.0, 0.0, 0.0], (1,))
    with pytest.raises(ValueError):
        man.point([0.0, 0.0])


def _parameter_path_alpha(man, theta):
    # the reference lift carried along the tangent planes of the straight
    # parameter path from the reference to theta
    ref = man.reference()
    th = np.asarray(theta, dtype=float)
    samples = max(33, 1 + int(8 * np.linalg.norm(th - ref)))
    _, lifts = lift_path_adaptive(lambda s: man.tangent_frame(ref + s * (th - ref)),
                                  0.0, 1.0, man.cover_lift(ref).alpha, init_samples=samples)
    return lifts[-1].alpha


COVER_KINDS = {
    "circle": lambda: CircleManifold(1.3),
    "torus-with-flat-factor": lambda: TorusManifold((0.8, 1.1), flat_dims=1),
    "graph": lambda: GradientGraphManifold(Polynomial(1, [(0.3, (2,)), (0.1, (4,))])),
    "flowed-harmonic": lambda: FlowedManifold(CircleManifold(1.0), harmonic_hamiltonian([1.0]),
                                              0.0, 2.0, steps=200),
    "flowed-quartic": lambda: FlowedManifold(CircleManifold(1.0), quartic_hamiltonian([1.0], 0.4),
                                             0.0, 1.5, steps=400),
}


@pytest.mark.parametrize("kind", sorted(COVER_KINDS))
def test_cover_lift_is_the_lift_along_the_parameter_path(kind):
    # every index read takes the manifold's cover_lift; the path lift checks it
    man = COVER_KINDS[kind]()
    rng = np.random.default_rng(20020)
    for _ in range(6):
        th = rng.uniform(-4.0, 4.0, man.param_dim)
        assert abs(man.cover_lift(th).alpha - _parameter_path_alpha(man, th)) <= 1e-12


def test_every_loop_reader_takes_the_one_loop_record(monkeypatch):
    # the quantization checks, the spectrum scan, the deck factor and the
    # index loop task read one adaptive lift per circle factor's unit loop
    lifts = []
    lift = capacity.maslov_loop_index_adaptive
    monkeypatch.setattr(capacity, "maslov_loop_index_adaptive",
                        lambda *args: lifts.append(args) or lift(*args))
    capacity._tangent_loop_index.cache_clear()
    hbar = 0.5
    circle = quantized_circle(1, hbar)
    assert keller_maslov_check(circle, hbar).generators[0].loop_index == 2
    assert is_quantized(FlowedManifold(circle, harmonic_hamiltonian([1.0]), 0.0, 0.3, 10), hbar)
    assert len(oscillator_spectrum_from_waveforms(hbar, 2)) == 3
    assert deck_covariance_check(Waveform(circle, uniform_density, hbar), 0.4, 1)["defect"] < 1e-12
    loop = {"kind": "circle", "windings": [1], "flat_dims": 0, "tol": 0}
    assert cli._index_loop(loop, 0)[1]["loop_index"] == 2
    assert len(lifts) == 1
    # the reversed loop reads the same unit-loop record, with the opposite sign
    assert circle.loop_index(-1) == -2 and circle.loop_index(15) == 30 and len(lifts) == 1


def _graph_phase():
    return Polynomial(1, [(0.15, (2,))])


HBAR_ENTRIES = {
    "Waveform": lambda h: Waveform(CircleManifold(1.0), uniform_density, h),
    "ground_energy": lambda h: ground_energy([1.0], h),
    "van_vleck_propagate": lambda h: van_vleck_propagate(
        _graph_phase(), lambda x: 1.0, harmonic_hamiltonian([1.0]), 0.0, 0.5, [0.0], h),
    "keller_maslov_check": lambda h: keller_maslov_check(TorusSpec((1.0,)), h),
    "is_quantized": lambda h: is_quantized(GradientGraphManifold(_graph_phase()), h),
    "oscillator_spectrum_from_waveforms": lambda h: oscillator_spectrum_from_waveforms(h, 1),
}


@pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(HBAR_ENTRIES))
def test_hbar_must_be_positive_and_finite(entry, hbar):
    with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
        HBAR_ENTRIES[entry](hbar)
