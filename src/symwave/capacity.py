"""Symplectic capacities, ball shadows under symplectomorphisms, and
torus quantization.

The linear capacity of an ellipsoid ``sum_j (x_j^2 + p_j^2)/R_j^2 <= 1`` is
``pi R_min^2`` (the area of its smallest conjugate-plane section); the
non-squeezing bound states that the shadow of a transformed ball on any
conjugate plane ``(x_j, p_j)`` keeps at least the area ``pi R^2``.  Shadow
areas are estimated by occupancy-grid rasterization of mapped sample points.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .maslov import maslov_loop_index_adaptive
from .polynomials import Polynomial, random_polynomial
from .symplectic import _diagonal_torus_frame, random_symplectic

__all__ = [
    "EllipsoidSpec",
    "TorusSpec",
    "SymplectomorphismSpec",
    "ShadowEstimate",
    "GeneratorCheck",
    "QuantizationReport",
    "UnquantizedTorusError",
    "ellipsoid_capacity",
    "ellipsoid_volume",
    "ball_volume",
    "identity_symplectomorphism",
    "random_symplectomorphism",
    "apply_symplectomorphism",
    "symplectomorphism_jacobian",
    "shadow_area",
    "shadow_areas",
    "nonsqueezing_experiment",
    "ground_energy",
    "keller_maslov_check",
    "oscillator_levels",
]


@dataclass(frozen=True)
class EllipsoidSpec:
    """Ellipsoid ``sum_j (x_j^2 + p_j^2) / radii_j^2 <= 1`` (radii ascending)."""

    radii: tuple

    def __post_init__(self):
        r = tuple(sorted(float(v) for v in self.radii))
        if len(r) == 0 or r[0] <= 0:
            raise ValueError("radii must be positive")
        object.__setattr__(self, "radii", r)

    @property
    def n(self):
        return len(self.radii)


@dataclass(frozen=True)
class TorusSpec:
    """Product of circles ``x_j^2 + p_j^2 = r_j^2`` times flat line factors.

    ``waveforms.TorusManifold`` adds the geometry of the same torus, and
    ``waveforms.CircleManifold`` is its one-circle case.
    """

    radii: tuple
    flat_dims: int = 0

    def __post_init__(self):
        r = tuple(float(v) for v in self.radii)
        flat = int(self.flat_dims)
        if not r or any(v <= 0 for v in r) or flat != self.flat_dims or flat < 0:
            raise ValueError("need at least one positive radius and an integer flat_dims >= 0")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "flat_dims", flat)

    @property
    def n(self):
        return len(self.radii) + self.flat_dims

    def _winding(self, mu):
        # integer winding vector over the circle factors; one circle takes a scalar
        mu = np.asarray(mu, dtype=int)
        if mu.ndim == 0 and len(self.radii) == 1:
            mu = mu.reshape(1)
        if mu.shape != (len(self.radii),):
            raise ValueError("winding vector must match the number of circle factors")
        return mu

    def loop_integral(self, mu):
        """``oint p dx`` over the loop of winding vector ``mu``, ``-pi r_j^2`` per turn.

        A positive winding turns the circle's parameter up, counterclockwise
        in its ``(x_j, p_j)`` plane.
        """
        mu = self._winding(mu).tolist()
        return -float(sum(m * math.pi * r * r for m, r in zip(mu, self.radii)))

    def loop_index(self, mu):
        """Index of the loop's tangent planes: ``+2`` per counterclockwise turn.

        The index is additive over windings, so it sums ``mu_j`` times the
        index of each circle's unit loop, one adaptive lift per
        ``(circles, flat_dims, j)``; the radii do not enter.  Lifting the
        whole loop instead would alias once ``|sum mu|`` reaches 15.
        """
        k = len(self.radii)
        return sum(m * _tangent_loop_index(k, self.flat_dims, j)
                   for j, m in enumerate(self._winding(mu).tolist()) if m)


@functools.lru_cache(maxsize=256)
def _tangent_loop_index(circles, flat_dims, j):
    # the loop turning circle j once counterclockwise, the others held at angle 0
    e = np.zeros(circles)
    e[j] = 1.0
    return maslov_loop_index_adaptive(
        lambda t: _diagonal_torus_frame(e * t, flat_dims), 0.0, 2 * np.pi)


def _check_hbar(hbar):
    # the one rule for Planck's constant; NaN fails the comparison too
    hbar = float(hbar)
    if not 0 < hbar < math.inf:
        raise ValueError("hbar must be positive and finite")
    return hbar


class UnquantizedTorusError(ValueError):
    """Raised when an operation requires a quantized torus."""

    def __init__(self, report):
        super().__init__(f"torus is not quantized: {report}")
        self.report = report


def ellipsoid_capacity(spec):
    """Linear capacity ``pi * R_min^2``."""
    return math.pi * spec.radii[0] ** 2


def ellipsoid_volume(spec):
    """Euclidean volume ``pi^n prod_j R_j^2 / n!``."""
    return math.pi ** spec.n * math.prod(r * r for r in spec.radii) / math.factorial(spec.n)


def ball_volume(n, R):
    """Volume of a ball of radius R in R^{2n}: ``pi^n R^{2n} / n!``.

    For a ball the capacity is ``pi R^2`` and ``Vol = capacity^n / n!``.
    """
    if n < 1 or R <= 0:
        raise ValueError("need n >= 1 and R > 0")
    return math.pi ** n * R ** (2 * n) / math.factorial(n)


@dataclass(frozen=True)
class SymplectomorphismSpec:
    """Composite map: a sequence of exactly symplectic stages.

    Stage kinds: ``("linear", S)`` with ``S`` symplectic,
    ``("xshear", V)`` acting as ``(x, p) -> (x, p + grad V(x))``,
    ``("pshear", T)`` acting as ``(x, p) -> (x + grad T(p), p)``.
    """

    n: int
    stages: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for kind, payload in self.stages:
            if kind == "linear":
                S = np.asarray(payload)
                if S.shape != (2 * self.n, 2 * self.n):
                    raise ValueError("linear stage has wrong shape")
            elif kind in ("xshear", "pshear"):
                if not isinstance(payload, Polynomial) or payload.n != self.n:
                    raise ValueError(f"{kind} stage needs a Polynomial in n variables")
            else:
                raise ValueError(f"unknown stage kind {kind!r}")


def identity_symplectomorphism(n):
    return SymplectomorphismSpec(n, ())


def _tempered_shear_potential(n, rng, strength=0.5, domain_radius=4.0):
    # raw degree-<=4 polynomial with coefficients uniform in [-0.5, 0.5],
    # rescaled so the shear moves points by at most `strength` on the domain
    # the composite maps actually visit; unnormalized cubic/quartic shears
    # cascade into overflow when chained
    poly = random_polynomial(n, rng, degree=4, coeff_range=0.5)
    probe = rng.standard_normal((256, n))
    probe *= domain_radius * rng.random((256, 1)) ** (1.0 / n) / np.linalg.norm(
        probe, axis=1, keepdims=True
    )
    peak = float(np.max(np.linalg.norm(poly.grad(probe), axis=1)))
    if peak > strength:
        poly = Polynomial(n, [(c * strength / peak, e) for c, e in poly.terms])
    return poly


def random_symplectomorphism(n, rng, min_stages=3, max_stages=7):
    """Random composite map: alternating linear stages and shears.

    Linear stages are exponentials of random symplectic-algebra elements;
    shear potentials are random polynomials of degree <= 4 with coefficients
    uniform in [-0.5, 0.5], normalized to bounded shear strength so chained
    stages distort a unit ball visibly without blowing it up.
    """
    n_stages = int(rng.integers(min_stages, max_stages + 1))
    stages = []
    shear_kinds = ["xshear", "pshear"]
    for k in range(n_stages):
        if k % 2 == 0:
            stages.append(("linear", random_symplectic(n, rng, scale=0.35)))
        else:
            kind = shear_kinds[(k // 2) % 2]
            stages.append((kind, _tempered_shear_potential(n, rng)))
    return SymplectomorphismSpec(n, tuple(stages))


def apply_symplectomorphism(f, z):
    """Apply the composite map to points of shape ``(..., 2n)``.

    The points are copied C-ordered, so the image does not depend on the
    layout of ``z`` down to the last bit.
    """
    z = np.array(z, dtype=float, order="C")
    n = f.n
    if z.shape[-1] != 2 * n:
        raise ValueError("points have wrong dimension")
    for kind, payload in f.stages:
        if kind == "linear":
            z = z @ np.asarray(payload).T
        elif kind == "xshear":
            z[..., n:] += payload.grad(z[..., :n])
        else:
            z[..., :n] += payload.grad(z[..., n:])
    return z


def symplectomorphism_jacobian(f, z):
    """Jacobian of the composite map at a single point (chain rule)."""
    z = np.asarray(z, dtype=float)
    n = f.n
    J = np.eye(2 * n)
    for kind, payload in f.stages:
        if kind == "linear":
            S = np.asarray(payload)
            z = S @ z
            J = S @ J
        elif kind == "xshear":
            H = payload.hess(z[:n])
            stage = np.eye(2 * n)
            stage[n:, :n] = H
            z = z + np.concatenate([np.zeros(n), payload.grad(z[:n])])
            J = stage @ J
        else:
            H = payload.hess(z[n:])
            stage = np.eye(2 * n)
            stage[:n, n:] = H
            z = z + np.concatenate([payload.grad(z[n:]), np.zeros(n)])
            J = stage @ J
    return J


@dataclass(frozen=True)
class ShadowEstimate:
    """Occupancy-grid area of a projected point cloud."""

    plane: tuple  # (x-index i, p-index j); i == j is a conjugate plane
    area: float
    corrected_area: float  # coverage-corrected area (see shadow_area)
    occupied_cells: int  # cells hit by at least one sample
    grid_cells: int  # occupied cells plus enclosed holes (used for the area)
    singleton_cells: int  # cells hit exactly once (fringe diagnostics)
    doubleton_cells: int  # cells hit exactly twice
    grid_res: int
    samples: int
    seed: int
    bbox: tuple


_CHUNK = 262144  # points per sampled, mapped and counted block


def _check_ball(R, grid_res, samples):
    if grid_res < 2 or samples < 1 or R <= 0:
        raise ValueError("bad grid/sample/radius parameters")


def _sample_ball(n, R, samples, seed, center=None):
    # the seeded ball as a (2n, samples) array, one contiguous row per
    # coordinate; per-chunk seeding keeps the stream mergeable and
    # order-independent
    center = np.zeros(2 * n) if center is None else np.asarray(center, dtype=float)
    ball = np.empty((2 * n, samples))
    for idx, done in enumerate(range(0, samples, _CHUNK)):
        m = min(_CHUNK, samples - done)
        rng = np.random.default_rng((int(seed), idx))
        g = rng.standard_normal((m, 2 * n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = R * rng.random(m) ** (1.0 / (2 * n))
        ball[:, done : done + m] = (center + g * radii[:, None]).T
    return ball


def _map_shadows(f, ball, planes, grid_res, seed):
    # the shadows of f(ball) on planes; the ball is moved to its image in
    # place, one chunk at a time
    n = f.n
    with np.errstate(over="ignore", invalid="ignore"):  # _shadow reports an overflow
        if f.stages:
            for s in range(0, ball.shape[1], _CHUNK):
                ball[:, s : s + _CHUNK] = apply_symplectomorphism(f, ball[:, s : s + _CHUNK].T).T
        return [_shadow(ball[i], ball[n + j], (i, j), grid_res, seed) for i, j in planes]


def _bin_index(v, e):
    # bin of each v in [e[0], e[-1]] (right edge in the last bin) as np.histogram finds
    # it: floor((v - e[0]) res / span) is off by at most one next to an edge
    k = np.clip(((v - e[0]) * ((len(e) - 1) / (e[-1] - e[0]))).astype(np.intp), 0, len(e) - 2)
    k -= v < e[k]
    return k + ((v >= e[k + 1]) & (k < len(e) - 2))


def _grid_counts(x, y, grid_res, bbox):
    # np.histogram2d(x, y, grid_res, [bbox[:2], bbox[2:]]) counts, equal bit
    # for bit, without its temporaries of the sample size
    edges = [np.histogram_bin_edges(x, grid_res, bbox[:2]),
             np.histogram_bin_edges(y, grid_res, bbox[2:])]
    counts = np.zeros(grid_res * grid_res, dtype=np.int64)
    for s in range(0, len(x), _CHUNK):
        ix, iy = (_bin_index(v[s : s + _CHUNK], e) for e, v in zip(edges, (x, y)))
        counts += np.bincount(ix * grid_res + iy, minlength=grid_res * grid_res)
    return counts.reshape(grid_res, grid_res)


def _run_starts(mask, width):
    # marks the first cell of each row run of True in a flat row-major mask
    first = mask.copy()
    first[1:] &= ~mask[:-1]
    first[::width] = mask[::width]
    return first


def _fill_holes(occupied):
    """``occupied`` plus every empty cell the outside cannot reach 4-connected.

    Each row's runs of empty cells are the nodes of a graph; runs of adjacent
    rows are joined once per maximal segment of columns empty in both, and
    every run on the border is joined to one outside node.  Components come
    from hooking each root to the larger root of an edge, then pointer
    jumping, so a winding corridor of length L costs O(log L) passes over the
    runs, not one sweep of the grid per turn.
    """
    h, w = occupied.shape
    index = np.int32 if h * w < 2**31 else np.intp  # half the memory traffic of intp
    empty = ~occupied.ravel()
    first = _run_starts(empty, w)
    last = _run_starts(empty[::-1], w)[::-1]  # a run's last cell starts it read backwards
    run = np.cumsum(first, dtype=index)
    run -= 1  # the run of each empty cell
    seg = np.flatnonzero(_run_starts(empty[:-w] & empty[w:], w))  # empty here and below
    rim = np.zeros((h, w), dtype=bool)
    rim[[0, -1]] = rim[:, [0, -1]] = True
    outside = int(run[-1]) + 1
    border = run[rim.ravel() & empty]
    u = np.concatenate([run[seg], border])
    v = np.concatenate([run[seg + w], np.full(len(border), outside, dtype=index)])
    root = np.arange(outside + 1, dtype=index)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.maximum.at(root, np.minimum(ru, rv), np.maximum(ru, rv))
        while True:  # every pointer only grows, so this ends with roots
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    hole = root[:outside] != root[outside]
    # +1 at each hole run's first cell, -1 past its last: the running sum marks it
    marks = np.zeros(h * w + 1, dtype=np.int8)
    marks[np.flatnonzero(first)[hole]] += 1
    marks[np.flatnonzero(last)[hole] + 1] -= 1
    return occupied | np.cumsum(marks[:-1], dtype=np.int8).view(bool).reshape(h, w)


def _shadow(x, y, plane, grid_res, seed):
    bbox = (x.min(), x.max(), y.min(), y.max())
    span = (bbox[1] - bbox[0], bbox[3] - bbox[2])
    # a finite box, with room for the Chao1 cells (at most grid_res^2 / 2 more)
    if not np.isfinite(span[0] * span[1] * grid_res**2):
        raise NumericalError(f"mapped ball left the finite phase space on plane {plane}")
    # each side spans at least 1e-12 of its largest coordinate (some 4,500
    # float steps there), and the cell area is a normal float
    cell_area = (span[0] / grid_res) * (span[1] / grid_res)
    if not (span[0] >= 1e-12 * max(abs(bbox[0]), abs(bbox[1]))
            and span[1] >= 1e-12 * max(abs(bbox[2]), abs(bbox[3]))
            and cell_area >= np.finfo(float).tiny):
        raise NumericalError(f"shadow on plane {plane} is too narrow to bin in floats")
    counts = _grid_counts(x, y, grid_res, bbox)
    occupied = counts > 0
    filled = _fill_holes(occupied)
    f1 = int((counts == 1).sum())
    f2 = int((counts == 2).sum())
    unseen = f1 * (f1 - 1) / (2.0 * (f2 + 1))
    return ShadowEstimate(
        plane=plane,
        area=float(filled.sum() * cell_area),
        corrected_area=float((filled.sum() + unseen) * cell_area),
        occupied_cells=int(occupied.sum()),
        grid_cells=int(filled.sum()),
        singleton_cells=f1,
        doubleton_cells=f2,
        grid_res=int(grid_res),
        samples=len(x),
        seed=int(seed),
        bbox=tuple(float(v) for v in bbox),
    )


def shadow_areas(f, R, planes, grid_res=512, samples=1_000_000, seed=0, center=None):
    """Shadows of one sampled ``f(ball of radius R)`` on each of ``planes``.

    ``planes`` is a sequence of planes in the form ``shadow_area`` takes.
    The ball is sampled once into a ``(2n, samples)`` array and mapped in
    place, and every plane reads the same image points, so the estimates
    are those of ``shadow_area`` with the same ``seed``, one per plane, in
    order.
    """
    n = f.n
    planes = [(int(p[0]), int(p[1])) if isinstance(p, (tuple, list)) else (int(p),) * 2
              for p in planes]
    if not all(0 <= c < n for plane in planes for c in plane):
        raise ValueError("plane index out of range")
    _check_ball(R, grid_res, samples)
    return _map_shadows(f, _sample_ball(n, R, samples, seed, center), planes, grid_res, seed)


def shadow_area(f, R, plane, grid_res=512, samples=1_000_000, seed=0, center=None):
    """Area of the projection of ``f(ball of radius R)`` onto a plane.

    ``plane`` is either an integer ``j`` (conjugate plane ``(x_j, p_j)``) or
    a pair ``(i, j)`` selecting the mixed plane ``(x_i, p_j)``.  Mapped
    sample points are rasterized onto a ``grid_res x grid_res`` occupancy
    grid over their bounding box; the area counts occupied cells plus any
    cells fully enclosed by them (interior cells a finite sample leaves
    empty), never a convex hull -- shadows of nonlinear images need not be
    convex.

    ``corrected_area`` additionally compensates the sparsely sampled fringe:
    where the projected sample density tapers to zero (e.g. the rim of a
    ball's shadow in more than one degree of freedom) plain occupancy
    undercounts, because near-empty boundary cells are connected to the
    exterior and cannot be recovered by hole filling.  The number of cells
    that carry samples but were missed is estimated from the singleton and
    doubleton cell counts via the bias-corrected Chao1 richness formula
    ``F1 (F1 - 1) / (2 (F2 + 1))`` and added to the filled count.
    """
    return shadow_areas(f, R, [plane], grid_res, samples, seed, center)[0]


def nonsqueezing_experiment(
    n,
    R=1.0,
    n_maps=200,
    grid_res=512,
    samples=1_000_000,
    seed=0,
    margin=0.05,
    controls=False,
    min_stages=3,
    max_stages=7,
    calibration=False,
):
    """Shadow areas of transformed balls for a seeded family of maps.

    Map ``k`` moves one ball, sampled with seed ``seed + 31 * k``, and every
    conjugate-plane shadow of that image is estimated and its
    coverage-corrected area compared to the bound ``pi R^2 (1 - margin)``;
    with ``controls=True`` the mixed planes ``(x_i, p_j), i != j`` of the
    same image are measured as well (reported, never asserted -- the bound
    genuinely fails there).  ``min_stages``/``max_stages`` bound the
    composition length of each random map.  With ``calibration=True`` the
    result also holds ``calibration``: the conjugate-plane shadows of the
    unmapped ball of seed ``seed``, read before map 0 moves that same
    sampled ball, with their relative error against ``pi R^2``; ``n_maps``
    may then be 0.
    """
    _check_ball(R, grid_res, samples)
    reference = math.pi * R * R
    conjugate = [(j, j) for j in range(n)]
    mixed = [(i, j) for i in range(n) for j in range(n) if i != j] if controls else []
    ball, calib = None, []
    if calibration:
        ball = _sample_ball(n, R, samples, seed)
        ident = identity_symplectomorphism(n)
        calib = [{"plane": f"x{j + 1}p{j + 1}", "area": e.area,
                  "corrected_area": e.corrected_area,
                  "relative_error": abs(e.corrected_area - reference) / reference}
                 for j, e in enumerate(_map_shadows(ident, ball, conjugate, grid_res, seed))]
    maps = []
    for k in range(n_maps):
        rng = np.random.default_rng((int(seed), 7919, k))
        f = random_symplectomorphism(n, rng, min_stages=min_stages, max_stages=max_stages)
        if ball is None:
            ball = _sample_ball(n, R, samples, seed + 31 * k)
        ests = _map_shadows(f, ball, conjugate + mixed, grid_res, seed + 31 * k)
        ball = None  # freed before the next map samples its own
        planes = [
            {"plane": f"x{j + 1}p{j + 1}", "area": e.area, "corrected_area": e.corrected_area,
             "occupied_cells": e.occupied_cells, "grid_cells": e.grid_cells,
             "pass": bool(e.corrected_area >= reference * (1.0 - margin))}
            for j, e in enumerate(ests[:n])
        ]
        entry = {"map": k, "planes": planes}
        if controls:
            entry["controls"] = [
                {"plane": f"x{e.plane[0] + 1}p{e.plane[1] + 1}", "area": e.area,
                 "corrected_area": e.corrected_area}
                for e in ests[n:]
            ]
        maps.append(entry)
    conjugate_areas = [p["corrected_area"] for m in maps for p in m["planes"]]
    result = {
        "n": n,
        "radius": R,
        "reference_area": reference,
        "margin": margin,
        "grid_res": grid_res,
        "samples": samples,
        "maps": maps,
        "min_conjugate_area": min(conjugate_areas, default=None),
        "all_pass": bool(all(p["pass"] for m in maps for p in m["planes"])),
    }
    if calibration:
        result["calibration"] = calib
    return result


def ground_energy(omegas, hbar):
    """Minimal oscillator energy ``sum_j hbar omega_j / 2``."""
    hbar = _check_hbar(hbar)
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas <= 0):
        raise ValueError("frequencies must be positive")
    return float(hbar * omegas.sum() / 2)


@dataclass(frozen=True)
class GeneratorCheck:
    r_squared: float
    action: float
    loop_index: int
    level: int
    residual: float
    passed: bool


@dataclass(frozen=True)
class QuantizationReport:
    generators: tuple
    hbar: float
    tol: float
    passed: bool

    def __bool__(self):
        return self.passed


def keller_maslov_check(torus, hbar, tol=1e-9):
    """Check ``action / (2 pi hbar) - loop_index / 4 in Z`` per basis circle.

    Each generator is the counterclockwise turn of one circle, read from the
    torus's own loop record: ``action`` is the area ``pi r_j^2`` it encloses,
    ``-loop_integral``, the action of the oscillator's clockwise orbit, and
    ``loop_index`` is its ``+2``.  The condition is that of a trivial deck
    factor, ``loop_integral / (2 pi hbar) + loop_index / 4 in Z``, read with
    the opposite sign so that ``level`` counts up: it is equivalent to
    ``r_j^2 = (2 level + 1) hbar``.  Flat factors are unconstrained: their
    loops are trivial.
    """
    hbar = _check_hbar(hbar)
    rows = []
    k = len(torus.radii)
    for j in range(k):
        mu = np.zeros(k, dtype=int)
        mu[j] = 1
        action = -torus.loop_integral(mu)
        m = torus.loop_index(mu)
        value = action / (2 * math.pi * hbar) - m / 4.0
        level = int(round(value))
        residual = abs(value - level)
        rows.append(
            GeneratorCheck(
                r_squared=torus.radii[j] ** 2,
                action=action,
                loop_index=m,
                level=level,
                residual=residual,
                passed=bool(residual <= tol and level >= 0),
            )
        )
    return QuantizationReport(
        generators=tuple(rows), hbar=hbar, tol=float(tol), passed=all(r.passed for r in rows)
    )


def oscillator_levels(torus, omegas, hbar, tol=1e-9):
    """Energy ``sum_j omega_j (N_j + 1/2) hbar`` of a quantized torus."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.shape != (len(torus.radii),):
        raise ValueError("need one frequency per circle factor")
    if np.any(omegas <= 0):
        raise ValueError("frequencies must be positive")
    report = keller_maslov_check(torus, hbar, tol=tol)
    if not report.passed:
        raise UnquantizedTorusError(report)
    return float(
        sum(w * (g.level + 0.5) * hbar for w, g in zip(omegas, report.generators))
    )
