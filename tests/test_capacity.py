import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.ndimage import binary_fill_holes

from symwave import capacity
from symwave.capacity import (
    EllipsoidSpec,
    ShadowEstimate,
    SymplectomorphismSpec,
    TorusSpec,
    UnquantizedTorusError,
    apply_symplectomorphism,
    ball_volume,
    ellipsoid_capacity,
    ellipsoid_volume,
    ground_energy,
    identity_symplectomorphism,
    keller_maslov_check,
    nonsqueezing_experiment,
    oscillator_levels,
    random_symplectomorphism,
    shadow_area,
    shadow_areas,
)
from symwave.errors import NumericalError
from symwave.polynomials import Polynomial, random_polynomial
from symwave.symplectic import DEFAULT_TOL, _symplectic_defect, random_symplectic
from symwave.waveforms import oscillator_spectrum_from_waveforms


def test_polynomial_derivatives_match_finite_differences(rng):
    for n in (1, 2, 3):
        poly = random_polynomial(n, rng, degree=4, coeff_range=1.0)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=n)
            h = 1e-6
            g = poly.grad(x)
            H = poly.hess(x)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (poly.value(x + e) - poly.value(x - e)) / (2 * h)
                assert abs(fd - g[j]) < 1e-6
                fdg = (poly.grad(x + e) - poly.grad(x - e)) / (2 * h)
                assert np.allclose(fdg, H[:, j], atol=1e-5)
            assert np.allclose(H, H.T)


def test_polynomial_matches_per_term_products(rng):
    # reference: each term of the value and of every first and second
    # derivative as one math.prod of Python-float powers
    def reference(terms, x, deriv):
        total, scale = 0.0, 0.0
        for c, e in terms:
            e, mult = list(e), c
            for j in deriv:
                mult *= e[j]
                e[j] -= 1
            if mult:
                term = mult * math.prod(xk ** p for xk, p in zip(x, e))
                total, scale = total + term, scale + abs(term)
        return total, scale

    for n in (1, 2, 3, 4):
        for _ in range(3):
            terms = [(rng.uniform(-1, 1), tuple(rng.multinomial(d, [1 / n] * n)))
                     for d in rng.integers(0, 7, size=8)]
            poly = Polynomial(n, terms)
            for shape in ((), (5,), (2, 3)):
                pts = rng.uniform(-1.8, 1.8, size=shape + (n,))
                got = [poly.value(pts), poly.grad(pts), poly.hess(pts)]
                for idx in np.ndindex(shape):
                    x = [float(v) for v in pts[idx]]
                    checks = [(got[0][idx], ())]
                    checks += [(got[1][idx + (i,)], (i,)) for i in range(n)]
                    checks += [(got[2][idx + (i, j)], (j, i)) for i in range(n) for j in range(n)]
                    for value, deriv in checks:
                        want, scale = reference(terms, x, deriv)
                        assert abs(value - want) <= 1e-13 * scale


def test_polynomial_vectorized_evaluation(rng):
    poly = random_polynomial(2, rng, degree=3)
    pts = rng.uniform(-1, 1, size=(40, 2))
    vals = poly.value(pts)
    grads = poly.grad(pts)
    for k in range(len(pts)):
        assert np.isclose(vals[k], poly.value(pts[k]))
        assert np.allclose(grads[k], poly.grad(pts[k]))


def test_polynomial_exact_at_integer_points():
    # 3 x y^2 z^3 and its derivatives, by hand, at (2, -1, 3) and (1, 2, -1)
    poly = Polynomial(3, [(3.0, (1, 2, 3))])
    x = np.array([[2.0, -1.0, 3.0], [1.0, 2.0, -1.0]])
    assert poly.value(x).tolist() == [162.0, -12.0]
    assert poly.grad(x).tolist() == [[81.0, -324.0, 162.0], [-12.0, -12.0, 36.0]]
    assert poly.hess(x).tolist() == [
        [[0.0, -162.0, 81.0], [-162.0, 324.0, -324.0], [81.0, -324.0, 108.0]],
        [[0.0, -12.0, 36.0], [-12.0, -6.0, 36.0], [36.0, 36.0, -72.0]],
    ]
    assert poly.value(x[0]) == 162.0 and poly.grad(x[0]).tolist() == [81.0, -324.0, 162.0]
    empty = Polynomial(3, [(0.0, (1, 0, 0))])
    assert empty.terms == []
    for shape in [(3,), (4, 3), (2, 5, 3)]:
        z = np.ones(shape)
        assert empty.value(z).shape == shape[:-1] and not empty.value(z).any()
        assert empty.grad(z).shape == shape and not empty.grad(z).any()
        assert empty.hess(z).shape == shape + (3,) and not empty.hess(z).any()


def test_polynomial_grad_keeps_the_layout_of_its_points(rng):
    # a transposed coordinate-rows view gets the bits of its C copy, and a
    # gradient of the view's layout, whose columns are contiguous rows
    for n in (1, 2, 3, 4):
        poly = random_polynomial(n, rng, degree=4)
        rows = rng.uniform(-1.5, 1.5, size=(2 * n, 1001))
        view = rows[:n].T
        got = poly.grad(view)
        assert got.tobytes() == poly.grad(np.ascontiguousarray(view)).tobytes()
        assert got.T.flags.c_contiguous
        assert poly.grad(view.copy()).flags.c_contiguous


def test_capacity_and_volume_values():
    assert np.isclose(ellipsoid_capacity(EllipsoidSpec((1.0, 2.0))), math.pi)
    assert np.isclose(ellipsoid_capacity(EllipsoidSpec((3.0,))), 9 * math.pi)
    assert np.isclose(ball_volume(1, 2.0), math.pi * 4)
    assert np.isclose(ball_volume(2, 1.0), math.pi**2 / 2)
    # for a ball, Vol = capacity^n / n!
    for n in (1, 2, 3):
        R = 1.3
        cap = ellipsoid_capacity(EllipsoidSpec((R,) * n))
        assert np.isclose(ball_volume(n, R), cap**n / math.factorial(n))
        assert np.isclose(ellipsoid_volume(EllipsoidSpec((R,) * n)), ball_volume(n, R))
    with pytest.raises(ValueError):
        EllipsoidSpec((1.0, -2.0))
    with pytest.raises(ValueError):
        ball_volume(0, 1.0)


def test_capacity_monotone_under_inclusion():
    small = EllipsoidSpec((1.0, 5.0))
    large = EllipsoidSpec((2.0, 5.0))
    assert ellipsoid_capacity(small) <= ellipsoid_capacity(large)


def test_composite_map_jacobians_symplectic(rng):
    for n in (1, 2):
        for _ in range(10):
            f = random_symplectomorphism(n, rng)
            z = rng.uniform(-1, 1, size=2 * n)
            # the map's Jacobian by central differences; its defect read at
            # most 5.4e-10 over 400 maps
            h = 1e-6
            fd = np.empty((2 * n, 2 * n))
            for k in range(2 * n):
                e = np.zeros(2 * n)
                e[k] = h
                fd[:, k] = (
                    apply_symplectomorphism(f, z + e) - apply_symplectomorphism(f, z - e)
                ) / (2 * h)
            assert _symplectic_defect(fd) <= 1e-8


def test_apply_symplectomorphism_shapes(rng):
    f = random_symplectomorphism(2, rng)
    z = rng.uniform(-1, 1, size=(7, 4))
    out = apply_symplectomorphism(f, z)
    assert out.shape == (7, 4)
    for k in range(7):
        assert np.allclose(out[k], apply_symplectomorphism(f, z[k]))
    for bad in (np.zeros(6), 1.0):
        with pytest.raises(ValueError, match="^points have wrong dimension$"):
            apply_symplectomorphism(f, bad)


def _reference_image(f, z):
    # the map as one chain over a C-ordered (m, 2n) copy, z @ S.T per linear stage
    n = f.n
    z = np.array(np.reshape(z, (-1, 2 * n)), dtype=float, order="C")
    for kind, payload in f.stages:
        if kind == "linear":
            z = z @ np.asarray(payload).T
        elif kind == "xshear":
            z[..., n:] += payload.grad(z[..., :n])
        else:
            z[..., :n] += payload.grad(z[..., n:])
    return z


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_symplectomorphism_bits_do_not_depend_on_layout(n):
    # C-ordered, F-ordered, strided and leading-axis points all map to the
    # reference chain's bits
    rng = np.random.default_rng(n)
    f = random_symplectomorphism(n, rng, 7, 7)
    rows = capacity._sample_ball(n, 1.5, 3000, n)
    for z in (rows.T, np.ascontiguousarray(rows.T), np.asfortranarray(rows.T), rows.T[::7],
              rows.T[:2400].reshape(20, 120, 2 * n), rows[:, 5]):
        got = apply_symplectomorphism(f, z)
        assert got.shape == z.shape
        assert got.tobytes() == _reference_image(f, z).tobytes()


def test_shadow_identity_calibration():
    # n=2 samples the sphere, whose shadow is uniform on the disk, and n=1
    # the disk itself: both plain areas are calibrated
    est = shadow_area(identity_symplectomorphism(2), 1.0, 0, grid_res=256, samples=400_000, seed=3)
    assert abs(est.area - math.pi) / math.pi < 0.01
    assert est.corrected_area == est.area
    assert est.grid_cells >= est.occupied_cells
    est1 = shadow_area(identity_symplectomorphism(1), 1.0, 0, grid_res=256, samples=400_000, seed=3)
    assert abs(est1.area - math.pi) / math.pi < 0.01


def test_shadow_determinism():
    f = identity_symplectomorphism(1)
    a = shadow_area(f, 1.0, 0, grid_res=128, samples=50_000, seed=11)
    b = shadow_area(f, 1.0, 0, grid_res=128, samples=50_000, seed=11)
    assert a.area == b.area and a.occupied_cells == b.occupied_cells
    assert a.corrected_area == b.corrected_area


def test_shadow_n1_area_preservation(rng):
    # n=1: any symplectomorphism preserves the disk area exactly
    squeeze = SymplectomorphismSpec(1, (("linear", np.diag([2.0, 0.5])),))
    est = shadow_area(squeeze, 1.0, 0, grid_res=256, samples=400_000, seed=5)
    assert abs(est.area - math.pi) / math.pi < 0.02
    comp = random_symplectomorphism(1, rng)
    est = shadow_area(comp, 1.0, 0, grid_res=256, samples=400_000, seed=6)
    assert abs(est.area - math.pi) / math.pi < 0.05


@pytest.mark.parametrize("n", [1, 2])
def test_linear_shadows_match_the_exact_ellipse(n):
    # the shadow of S(ball of radius R) on the plane (x_i, p_j) is the
    # ellipse L(disk), L the rows x_i and p_j of S: area pi R^2 sqrt(det L L^T)
    rng = np.random.default_rng(17 + n)
    planes = [(i, j) for i in range(n) for j in range(n)]
    for k in range(4):
        S = random_symplectic(n, rng, scale=0.35)
        f = SymplectomorphismSpec(n, (("linear", S),))
        for est in shadow_areas(f, 1.3, planes, seed=k):
            L = S[[est.plane[0], n + est.plane[1]]]
            exact = math.pi * 1.3**2 * math.sqrt(np.linalg.det(L @ L.T))
            assert abs(est.area - exact) / exact < 0.01


def test_nonsqueezing_n3_passes_every_conjugate_plane():
    # no conjugate shadow may fall under the 0.95 pi bound for want of
    # samples at its rim; the lowest of these six reads 0.97 pi
    result = nonsqueezing_experiment(3, n_maps=2, seed=7)
    assert result["all_pass"] and result["min_conjugate_area"] >= 0.95 * math.pi


def test_mixed_plane_control_can_shrink():
    a = 2.0
    S = np.diag([a, 1 / a, 1 / a, a])
    f = SymplectomorphismSpec(2, (("linear", S),))
    assert _symplectic_defect(S) <= DEFAULT_TOL
    conj = shadow_area(f, 1.0, 0, grid_res=256, samples=300_000, seed=1)
    mixed = shadow_area(f, 1.0, (1, 0), grid_res=256, samples=300_000, seed=1)
    assert conj.corrected_area >= math.pi * 0.95
    assert mixed.corrected_area < math.pi * 0.5  # mixed plane is genuinely squeezed


def test_shadow_areas_share_one_ball(rng):
    # 300,000 samples span two chunks; every plane reads the same image
    f = random_symplectomorphism(2, rng)
    planes = [0, 1, (0, 1), (1, 0)]
    ests = shadow_areas(f, 1.0, planes, grid_res=128, samples=300_000, seed=4)
    assert [e.plane for e in ests] == [(0, 0), (1, 1), (0, 1), (1, 0)]
    for plane, est in zip(planes, ests):
        assert est == shadow_area(f, 1.0, plane, grid_res=128, samples=300_000, seed=4)
    with pytest.raises(ValueError):
        shadow_areas(f, 1.0, [0, (0, 2)])


def test_grid_counts_equal_histogram2d(rng):
    grid = 16
    edges_x, edges_y = np.linspace(0.0, 1.0, grid + 1), np.linspace(-2.0, 3.0, grid + 1)
    # every outer and interior edge, then a multi-chunk random cloud
    x = np.concatenate([edges_x, rng.choice(edges_x, 40), rng.uniform(0, 1, 600_000)])
    y = np.concatenate([edges_y, edges_y[::-1][:17], rng.choice(edges_y, 23),
                        rng.uniform(-2, 3, 600_000)])
    cases = [(grid, x, y), (grid, x[:grid + 1], y[:grid + 1]),
             (grid, np.array([0.3]), np.array([-1.2])),
             (grid, np.full(5, 0.7), rng.uniform(0, 1, 5))]
    # every edge of the bins the counts use, and both float neighbours of it
    for res in (16, 512):
        ex = np.histogram_bin_edges([], res, (-0.83, 1.37))
        ey = np.histogram_bin_edges([], res, (2.1, 2.6))
        near = [np.concatenate([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)])
                for e in (ex, ey)]
        # the neighbours outside [e[0], e[-1]] would widen the bounding box
        a, b = (v[(v >= e[0]) & (v <= e[-1])] for v, e in zip(near, (ex, ey)))
        cases.append((res, a, rng.permutation(np.resize(b, len(a)))))
    # a fine grid over more than two chunks
    m = 2 * capacity._CHUNK + 1
    cases.append((2048, rng.normal(0.4, 1.0, m), rng.uniform(-3.0, 1.0, m)))
    for res, a, b in cases:
        bbox = (a.min(), a.max(), b.min(), b.max())
        want, _, _ = np.histogram2d(a, b, bins=res, range=[bbox[:2], bbox[2:]])
        got = capacity._grid_counts(a, b, res, bbox)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.sum() == len(a)


def _chunk_ball(n, R, samples, seed):
    # the sphere (n >= 2) or disk (n = 1) drawn a whole chunk at a time: all
    # of a chunk's normals, then at n = 1 its radii, as g * radius
    ball = np.empty((2 * n, samples))
    for idx, done in enumerate(range(0, samples, capacity._CHUNK)):
        m = min(capacity._CHUNK, samples - done)
        rng = np.random.default_rng((seed, idx))
        g = rng.standard_normal((m, 2 * n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = R * rng.random(m) ** 0.5 if n == 1 else np.full(m, R)
        ball[:, done : done + m] = (g * radii[:, None]).T
    return ball


def _chunk_shadows(f, R, planes, grid_res, samples, seed):
    # shadow_areas as whole chunks compute it: each chunk mapped at once,
    # np.histogram2d counts and scipy's hole fill
    ball = _chunk_ball(f.n, R, samples, seed)
    for s in range(0, samples, capacity._CHUNK):
        ball[:, s : s + capacity._CHUNK] = apply_symplectomorphism(
            f, ball[:, s : s + capacity._CHUNK].T).T
    ests = []
    for i, j in planes:
        x, y = ball[i], ball[f.n + j]
        bbox = (x.min(), x.max(), y.min(), y.max())
        counts, _, _ = np.histogram2d(x, y, grid_res, [bbox[:2], bbox[2:]])
        filled = binary_fill_holes(counts > 0).sum()
        cell = ((bbox[1] - bbox[0]) / grid_res) * ((bbox[3] - bbox[2]) / grid_res)
        ests.append(ShadowEstimate(
            plane=(i, j), area=float(filled * cell),
            occupied_cells=int((counts > 0).sum()), grid_cells=int(filled)))
    return ests


@pytest.mark.parametrize("samples", [1, capacity._BLOCK - 1, capacity._BLOCK + 1,
                                     capacity._CHUNK + 1, 600_001])
def test_block_passes_equal_whole_chunk_passes(samples):
    # sampling, mapping and binning walk the ball in blocks; every boundary
    # of a block or a chunk gives the bits of one pass per chunk
    ball = capacity._sample_ball(2, 1.7, samples, 13)
    assert ball.tobytes() == _chunk_ball(2, 1.7, samples, 13).tobytes()
    assert (capacity._sample_ball(1, 1.7, samples, 13).tobytes()
            == _chunk_ball(1, 1.7, samples, 13).tobytes())
    for x, y in ((ball[0], ball[2]), (ball[3], ball[1])):
        bbox = (x.min(), x.max(), y.min(), y.max())
        want, _, _ = np.histogram2d(x, y, bins=64, range=[bbox[:2], bbox[2:]])
        assert np.array_equal(capacity._grid_counts(x, y, 64, bbox), want)
    if samples > 1:  # one point has no area to bin
        f = random_symplectomorphism(2, np.random.default_rng(samples), 5, 5)
        planes = [(0, 0), (1, 1), (0, 1)]
        assert shadow_areas(f, 1.7, planes, 64, samples, 13) == _chunk_shadows(
            f, 1.7, planes, 64, samples, 13)


def test_shadow_temporaries_do_not_grow_with_samples():
    # above the ball's own 16 n samples bytes, shadow_areas holds buffers of
    # a block, a chunk or the grid, never of the sample size: the peak is the
    # same at 10^6 and 3 * 10^6 samples, within interpreter noise (a few
    # hundred bytes), far below one block row of 128 KiB
    f = random_symplectomorphism(2, np.random.default_rng(0), 5, 5)
    shadow_areas(f, 1.0, [0, 1], grid_res=16, samples=1000)  # first-call caches
    above = {}
    for samples in (1_000_000, 3_000_000):
        for g in (identity_symplectomorphism(2), f):
            tracemalloc.start()
            try:
                shadow_areas(g, 1.0, [0, 1], samples=samples, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above[samples, len(g.stages)] = peak - 16 * 2 * samples
    for stages in (0, 5):
        assert abs(above[3_000_000, stages] - above[1_000_000, stages]) < 64 * 1024
    assert max(above.values()) < 8 * 2**20


def _spiral(size, closed):
    # one wall winding inwards with a one-cell corridor beside it; the
    # corridor opens at (1, 0) on the border, or is one long hole when closed
    wall = np.zeros((size, size), dtype=bool)
    lo, hi = 0, size - 1
    while hi - lo >= 2:
        wall[lo, lo : hi + 1] = wall[lo : hi + 1, hi] = wall[hi, lo : hi + 1] = True
        wall[lo + 2 : hi + 1, lo] = wall[lo + 2, lo : lo + 3] = True
        lo, hi = lo + 2, hi - 2
    wall[1, 0] = closed
    return wall


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_fill_holes_equals_binary_fill_holes(h, w, density, seed):
    occupied = np.random.default_rng(seed).random((h, w)) < density
    assert np.array_equal(capacity._fill_holes(occupied), binary_fill_holes(occupied))


def test_fill_holes_edge_cases():
    plus = np.zeros((5, 5), dtype=bool)  # the centre meets the outside only diagonally
    plus[[1, 2, 2, 3], [2, 1, 3, 2]] = True
    island = np.zeros((7, 7), dtype=bool)  # an occupied cell inside a hole
    island[1, 1:6] = island[5, 1:6] = island[1:6, 1] = island[1:6, 5] = island[3, 3] = True
    rim = np.ones((4, 6), dtype=bool)  # a hole of two cells in a row
    rim[1:3, 2] = False
    masks = [np.zeros((6, 9), dtype=bool), np.ones((6, 9), dtype=bool),
             np.array([[True, False, True, False, False, True]]),
             np.array([[True, False, True, False, False, True]]).T,
             np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool),
             plus, island, rim, _spiral(1024, closed=False), _spiral(1024, closed=True)]
    for occupied in masks:
        assert np.array_equal(capacity._fill_holes(occupied), binary_fill_holes(occupied))
    assert capacity._fill_holes(plus)[2, 2] and capacity._fill_holes(island).sum() == 25
    assert capacity._fill_holes(_spiral(1024, closed=True)).all()


def test_calibration_and_map_zero_read_one_sampled_ball(monkeypatch):
    seeds = []
    original = capacity._sample_ball

    def counted(n, R, samples, seed):
        seeds.append(seed)
        return original(n, R, samples, seed)

    monkeypatch.setattr(capacity, "_sample_ball", counted)
    kw = {"samples": 5_000, "grid_res": 32, "seed": 3, "controls": True}
    both = nonsqueezing_experiment(2, n_maps=2, calibration=True, **kw)
    assert seeds == [3, 34]
    alone = nonsqueezing_experiment(2, n_maps=2, **kw)
    assert both.pop("calibration") and both == alone
    ident = shadow_areas(identity_symplectomorphism(2), 1.0, [0, 1], grid_res=32,
                         samples=5_000, seed=3)
    only = nonsqueezing_experiment(2, n_maps=0, calibration=True, **kw)
    assert only["maps"] == [] and only["min_conjugate_area"] is None
    assert [c["corrected_area"] for c in only["calibration"]] == [
        e.corrected_area for e in ident]


def test_nonsqueezing_maps_one_ball_per_map(monkeypatch):
    mapped = []
    original = capacity.apply_symplectomorphism

    def counted(f, z):
        mapped.append(len(z))
        return original(f, z)

    monkeypatch.setattr(capacity, "apply_symplectomorphism", counted)
    result = nonsqueezing_experiment(2, n_maps=2, samples=5_000, grid_res=32, controls=True)
    assert sum(mapped) == 10_000
    assert [len(m["planes"]) + len(m["controls"]) for m in result["maps"]] == [4, 4]


def test_ground_energy_and_minimal_action():
    assert np.isclose(ground_energy([1.0, 2.0, 3.0], 1.0), 3.0)
    assert np.isclose(ground_energy([2.0], 0.5), 0.5)
    with pytest.raises(ValueError):
        ground_energy([1.0, -1.0], 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^frequencies must be positive and finite$"):
            ground_energy([1.0, bad], 1.0)


def test_shadow_of_an_overflowing_map_is_a_numerical_error():
    # p -> p + 200 x^199 sends |x| > 36 past the largest float; the overflow
    # is reported once, as an error, with no RuntimeWarning on the way
    f = SymplectomorphismSpec(1, (("xshear", Polynomial(1, [(1.0, (200,))])),))
    with pytest.raises(NumericalError, match="finite phase space"):
        shadow_areas(f, 100.0, [0], grid_res=16, samples=1000)
    assert shadow_areas(f, 1.0, [0], grid_res=16, samples=1000)[0].area > 0


def test_tiny_shadows_scale_with_the_ball():
    # the box floor is relative: a ball of radius 1e-13 at the origin bins
    # as one of radius 1e-3, and one too narrow for the floats it sits on
    # (1e-13 moved to distance 1) is an error, not an area of the floor's cells
    f = identity_symplectomorphism(1)
    unit = {R: shadow_area(f, R, 0, grid_res=64, samples=20000).area / (math.pi * R * R)
            for R in (1e-3, 1e-13)}
    assert unit[1e-13] == pytest.approx(unit[1e-3], rel=1e-12)
    assert abs(unit[1e-13] - 1.0) < 0.03
    # p -> p + 1, then x -> x + 1: two shears of the potential x
    shift = Polynomial(1, [(1.0, (1,))])
    moved = SymplectomorphismSpec(1, (("xshear", shift), ("pshear", shift)))
    with pytest.raises(NumericalError, match="too narrow"):
        shadow_area(moved, 1e-13, 0, grid_res=64, samples=20000)


def test_loop_integral_values_and_quadrature_oracle():
    t = TorusSpec((1.0, 2.0))
    assert np.isclose(t.loop_integral([1, 0]), -math.pi)
    assert np.isclose(t.loop_integral([1, 1]), -(math.pi + 4 * math.pi))
    assert np.isclose(t.loop_integral([0, -2]), 8 * math.pi)
    # oracle: numeric oint p dx around the counterclockwise basis circle
    r = 2.0
    theta = np.linspace(0, 2 * np.pi, 20001)
    x = r * np.cos(theta)
    p = r * np.sin(theta)
    num = simpson(p * np.gradient(x, theta), x=theta)
    assert abs(num - t.loop_integral([0, 1])) < 1e-6
    with pytest.raises(ValueError):
        t.loop_integral([1, 0, 0])


def test_generator_loop_index_is_two():
    t = TorusSpec((1.0, 0.5), flat_dims=1)
    assert t.loop_index([1, 0]) == 2
    assert t.loop_index([0, 1]) == 2
    # the reversed loop, the clockwise orbit of the oscillator flow
    assert t.loop_index([0, -1]) == -2


def test_radius_scan_lifts_no_path(path_lifts):
    # the loop record reads the cover lift's deck shift: criterion 7's 1,000
    # radii and the waveform spectrum scan lift no path of planes
    hbar = 0.5
    passing = [k for k in range(1, 1001)
               if keller_maslov_check(TorusSpec((math.sqrt(k * hbar / 100.0),)), hbar).passed]
    assert passing == [100, 300, 500, 700, 900]
    assert len(oscillator_spectrum_from_waveforms(hbar, 3)) == 4
    assert path_lifts == []


def test_keller_maslov_ladder():
    hbar = 1.0
    for N in range(5):
        rep = keller_maslov_check(TorusSpec((math.sqrt((2 * N + 1) * hbar),)), hbar)
        assert rep.passed and rep.generators[0].level == N
    for bad in (0.5, 2.0, 2.99, 4.0):
        rep = keller_maslov_check(TorusSpec((math.sqrt(bad * hbar),)), hbar)
        assert not rep.passed
    # mixed torus: every circle factor must pass
    rep = keller_maslov_check(TorusSpec((1.0, math.sqrt(2.0))), 1.0)
    assert rep.generators[0].passed and not rep.generators[1].passed and not rep.passed


def test_oscillator_levels():
    hbar = 1.0
    t = TorusSpec((1.0, 1.0))
    assert np.isclose(oscillator_levels(t, [1.0, 2.0], hbar), 1.5 * hbar)
    t2 = TorusSpec((math.sqrt(3.0), 1.0))
    assert np.isclose(oscillator_levels(t2, [1.0, 1.0], hbar), (1.5 + 0.5) * hbar)
    with pytest.raises(UnquantizedTorusError):
        oscillator_levels(TorusSpec((math.sqrt(2.0),)), [1.0], hbar)
    with pytest.raises(ValueError):
        oscillator_levels(t, [1.0], hbar)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^frequencies must be positive and finite$"):
            oscillator_levels(TorusSpec((1.0,)), [bad], hbar)
