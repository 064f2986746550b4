"""Command-line front-end: experiment configuration and result emission.

Usage::

    symwave COMMAND [--config PATH] [--seed INT] [--out PATH]
                    [--format {json,csv}] [--tol FLOAT]

The config file is one JSON document: either a bare parameter record or
``{"command": ..., "seed": ..., "params": {...}}``.  Flags override the
file.  Results are emitted as a JSON envelope::

    {"config": <resolved>, "results": ..., "version": ..., "duration_seconds": ...}

or, with ``--format csv``, as the command's primary table behind one
deterministic comment line.  Identical config and seed reproduce the
``results`` payload byte for byte (the CSV file is reproducible in full).
Complex numbers serialize as ``{"re": .., "im": ..}`` pairs (``re``/``im``
columns in CSV).  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; errors print a single JSON diagnostic line to stderr.  A float
parameter that is not finite (JSON ``NaN``, ``Infinity``) is a config error.

Commands and parameters
-----------------------
index
    ``task="grid"``: ``theta_count`` (2 to 2000), ``theta_min``,
    ``theta_max`` -- table of the two-lift index m(theta, theta') on the
    circle of tangent lines against the closed form
    floor((theta - theta')/pi) + 1.
    ``task="loop"``: ``kind`` ("circle"|"torus"), ``windings``,
    ``flat_dims`` -- machinery loop index against the closed form
    2 * sum(windings).
    ``task="identities"``: ``dims``, ``trials`` -- exact checks of the
    cocycle identity, the self-index m(a, a) = n, and the deck shift
    m(k.a, k'.b) = m(a, b) + k - k' on random lifts.
    ``--tol`` relaxes the integer match columns (default 0: exact).
capacity
    ``radii`` (ellipsoid) or ``ball`` {n, R} -- capacity pi*min(r)^2 and
    volume closed forms, with the normalization cross-check that the
    inscribed ball and its cylinder pin the same value.  Radii and ``R``
    must lie in [1e-6, 1e6], with at most 20 of them (``n`` <= 20).
nonsqueeze
    ``n``, ``R``, ``maps``, ``grid_res``, ``samples``, ``margin``,
    ``controls``, ``calibration``, ``stages`` [min, max] -- occupancy-grid
    shadow areas of symplectically mapped balls against pi R^2 (1 - margin):
    identity calibration rows, the seeded random-map batch, and (optionally)
    the mixed-plane control table where the bound genuinely fails.  Each
    map moves one ball, sampled with seed ``seed + 31k`` for map ``k``, and
    all its planes read that image; the calibration ball has seed ``seed``.
    ``R`` must lie in [1e-6, 1e6]; a map that overflows the ball exits 3.
quantize
    ``hbar`` (required) plus any of ``radii_squared`` (+ ``flat_dims``),
    ``omegas``, ``spectrum_n_max`` (+ ``scan_divisions``); ``contrast``
    adds the index-free column (integer ladder N*hbar).  Emits
    per-generator minimum-area checks (action, loop index, level, residual,
    pass), ground/torus energies, and the radius-scan spectrum.
    ``--tol`` is the quantization residual tolerance (default 1e-9).
evolve
    ``hamiltonian`` {kind: harmonic|free|quadratic|quartic, ...},
    ``state`` {phi: [c0, c1, ...], amplitude: gaussian|constant, sigma, x0},
    ``hbar``, ``t_start``, ``t_end``, ``steps``, ``x_grid`` {min, max,
    count}, ``shadow``, ``oracle`` ("mehler" for harmonic, "fresnel" for
    free), ``morse_windows`` [[a, b], ...], ``index_points``,
    ``trajectory_samples`` -- transports Gaussian data on a gradient graph:
    trajectory samples, transported phase, the index field, the
    position-space shadow by source-point transport, per-window conjugate
    point counts, and the closed-form oracle error column when an oracle is
    named.  ``--tol`` only guards the source-point Newton matrix (default 1e-10).
"""

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    EllipsoidSpec,
    TorusSpec,
    UnquantizedTorusError,
    ball_volume,
    ellipsoid_capacity,
    ellipsoid_volume,
    ground_energy,
    identity_symplectomorphism,
    keller_maslov_check,
    nonsqueezing_experiment,
    oscillator_levels,
    shadow_areas,
)
from .errors import ConjugatePointError, DivergenceError, NumericalError
from .flows import (
    flow_path,
    harmonic_hamiltonian,
    quadratic_hamiltonian,
    quartic_hamiltonian,
)
from .maslov import (
    deck_act,
    inert,
    leray_index,
    lift_from_frame,
    maslov_loop_index_adaptive,
)
from .polynomials import Polynomial
from .symplectic import _diagonal_torus_frame, form_matrix, random_lagrangian_frame
from .waveforms import (
    CircleManifold,
    GradientGraphManifold,
    Waveform,
    evolve,
    morse_index,
    oscillator_spectrum_from_waveforms,
    van_vleck_propagate,
)

__all__ = ["ConfigError", "main"]

_REQUIRED = object()


class ConfigError(ValueError):
    """A malformed or inconsistent experiment configuration."""


class _Params:
    """Validated, default-filling view of one parameter record."""

    def __init__(self, command, record):
        if not isinstance(record, dict):
            raise ConfigError(f"{command}: parameters must be a JSON object")
        self._command = command
        self._rec = dict(record)
        self.resolved = {}

    def take(self, key, default=_REQUIRED, kind=None, check=None, why=""):
        if key in self._rec:
            val = self._rec.pop(key)
        elif default is _REQUIRED:
            raise ConfigError(f"{self._command}: missing required parameter '{key}'")
        else:
            val = default
        if val is not None and kind is not None:
            val = self._coerce(key, val, kind)
        if check is not None and val is not None and not check(val):
            raise ConfigError(f"{self._command}: parameter '{key}' {why}")
        self.resolved[key] = val
        return val

    def _coerce(self, key, val, kind):
        bad = ConfigError(f"{self._command}: parameter '{key}' must be a {kind}")
        if kind == "float":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise bad
            return self._finite(key, val)
        if kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise bad
            return val
        if kind == "bool":
            if not isinstance(val, bool):
                raise bad
            return val
        if kind == "str":
            if not isinstance(val, str):
                raise bad
            return val
        if kind == "dict":
            if not isinstance(val, dict):
                raise bad
            return dict(val)
        if kind in ("floats", "ints"):
            if not isinstance(val, (list, tuple)):
                raise ConfigError(f"{self._command}: parameter '{key}' must be a list")
            out = []
            for v in val:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"{self._command}: parameter '{key}' must hold numbers")
                if kind == "ints" and not isinstance(v, int):
                    raise ConfigError(f"{self._command}: parameter '{key}' must hold integers")
                out.append(self._finite(key, v) if kind == "floats" else v)
            return out
        raise AssertionError(kind)

    def _finite(self, key, v):
        # json reads NaN, Infinity and integers too large for a float
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ConfigError(f"{self._command}: parameter '{key}' must be finite")
        return v

    def finish(self):
        if self._rec:
            names = ", ".join(repr(k) for k in sorted(self._rec))
            raise ConfigError(f"{self._command}: unknown parameter(s) {names}")
        return self.resolved


def _leaf(obj):
    """``json`` hook for the leaves it cannot write: numpy scalars, complex, arrays."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# index


# one row per pair, held whole and streamed out: peak RSS was 63 MiB at 300
# angles, 347 MiB at 1,100 and 1,054 MiB at 2,000, about 40 MiB plus 266 B
# per pair
_GRID_MAX = 2000


def _index_grid(p, seed):
    count = p.take("theta_count", 40, "int", lambda v: 2 <= v <= _GRID_MAX,
                   f"must be in [2, {_GRID_MAX}]")
    lo = p.take("theta_min", -6.0, "float")
    hi = p.take("theta_max", 6.0, "float", lambda v: v > lo,
                "must exceed theta_min")
    tol = p.take("tol", 0.0, "float", lambda v: v >= 0, "must be >= 0")
    resolved = p.finish()
    rng = np.random.default_rng(seed)
    thetas = np.linspace(lo, hi, count)
    circle = CircleManifold(1.0)
    lifts = [circle.cover_lift(th) for th in thetas]
    rows = []
    mismatches = 0
    for th, a in zip(thetas, lifts):
        for tp, b in zip(thetas, lifts):
            m = int(leray_index(a, b, rng=rng))
            closed = math.floor((th - tp) / math.pi) + 1
            ok = abs(m - closed) <= tol
            mismatches += not ok
            rows.append({"theta": float(th), "theta_prime": float(tp),
                         "index": m, "closed_form": closed, "match": bool(ok)})
    results = {"task": "grid", "rows": rows, "mismatches": mismatches,
               "all_match": mismatches == 0}
    return resolved, results, (("theta", "theta_prime", "index", "closed_form",
                                "match"), rows)


def _index_loop(p, seed):
    kind = p.take("kind", "torus", "str", lambda v: v in ("circle", "torus"),
                  "must be 'circle' or 'torus'")
    default = [1] if kind == "circle" else _REQUIRED
    windings = p.take("windings", default, "ints",
                      lambda v: 1 <= len(v) <= 8, "needs 1 to 8 entries")
    flat_dims = p.take("flat_dims", 0, "int", lambda v: 0 <= v <= 8,
                       "must be in [0, 8]")
    tol = p.take("tol", 0.0, "float", lambda v: v >= 0, "must be >= 0")
    resolved = p.finish()
    if kind == "circle" and (len(windings) != 1 or windings[0] != 1):
        raise ConfigError("index: a circle loop is a single positive turn; "
                          "use kind='torus' for general windings")
    mu = np.asarray(windings, dtype=int)
    idx = int(maslov_loop_index_adaptive(
        lambda t: _diagonal_torus_frame(mu * t, flat_dims), 0.0, 2.0 * math.pi))
    closed = 2 * int(mu.sum())
    row = {"kind": kind, "windings": " ".join(str(v) for v in windings),
           "flat_dims": flat_dims, "loop_index": idx, "closed_form": closed,
           "match": bool(abs(idx - closed) <= tol)}
    results = {"task": "loop", "kind": kind, "windings": windings,
               "flat_dims": flat_dims, "loop_index": idx,
               "closed_form": closed, "match": row["match"]}
    return resolved, results, (("kind", "windings", "flat_dims", "loop_index",
                                "closed_form", "match"), [row])


def _index_identities(p, seed):
    dims = p.take("dims", [1, 2, 3], "ints",
                  lambda v: v and all(1 <= n <= 6 for n in v),
                  "must list dimensions in [1, 6]")
    trials = p.take("trials", 200, "int", lambda v: 1 <= v <= 100_000,
                    "must be in [1, 100000]")
    tol = p.take("tol", 0.0, "float", lambda v: v >= 0, "must be >= 0")
    resolved = p.finish()
    rng = np.random.default_rng(seed)

    def draw(n):
        f = random_lagrangian_frame(n, rng)
        return lift_from_frame(f, windings=int(rng.integers(-3, 4))), f

    rows = []
    for n in dims:
        cocycle = self_index = deck_shift = 0
        for _ in range(trials):
            (a, fa), (b, fb), (c, fc) = draw(n), draw(n), draw(n)
            mab = leray_index(a, b, frames=(fa, fb))
            lhs = (mab - leray_index(a, c, frames=(fa, fc))
                   + leray_index(b, c, frames=(fb, fc)))
            cocycle += abs(lhs - inert(fa, fb, fc)) > tol
            self_index += abs(leray_index(a, a, frames=(fa, fa)) - n) > tol
            k, kp = (int(v) for v in rng.integers(-4, 5, size=2))
            shifted = leray_index(deck_act(k, a), deck_act(kp, b),
                                  frames=(fa, fb))
            deck_shift += abs(shifted - (mab + k - kp)) > tol
        rows.append({"n": n, "trials": trials, "cocycle_failures": cocycle,
                     "self_index_failures": self_index,
                     "deck_shift_failures": deck_shift})
    all_exact = all(r["cocycle_failures"] == r["self_index_failures"]
                    == r["deck_shift_failures"] == 0 for r in rows)
    results = {"task": "identities", "rows": rows, "all_exact": all_exact}
    return resolved, results, (("n", "trials", "cocycle_failures",
                                "self_index_failures", "deck_shift_failures"),
                               rows)


def run_index(params, seed):
    p = _Params("index", params)
    task = p.take("task", "grid", "str",
                  lambda v: v in ("grid", "loop", "identities"),
                  "must be one of 'grid', 'loop', 'identities'")
    if task == "grid":
        return _index_grid(p, seed)
    if task == "loop":
        return _index_loop(p, seed)
    return _index_identities(p, seed)


# ---------------------------------------------------------------------------
# capacity


def run_capacity(params, seed):
    p = _Params("capacity", params)
    # radii in [1e-6, 1e6] and n <= 20 keep pi r^2 and the volume
    # pi^n prod r^2 / n! normal floats
    ball = p.take("ball", None, "dict")
    radii = p.take("radii", None, "floats",
                   lambda v: len(v) <= 20 and all(1e-6 <= r <= 1e6 for r in v),
                   "must hold at most 20 positive radii in [1e-6, 1e6]")
    tol = p.take("tol", 0.0, "float", lambda v: v >= 0, "must be >= 0")
    resolved = p.finish()
    if (radii is None) == (ball is None):
        raise ConfigError("capacity: give exactly one of 'radii' or 'ball'")
    if ball is not None:
        b = _Params("capacity.ball", ball)
        bn = b.take("n", _REQUIRED, "int", lambda v: 1 <= v <= 20, "must be in [1, 20]")
        bR = b.take("R", _REQUIRED, "float", lambda v: 1e-6 <= v <= 1e6,
                    "must be in [1e-6, 1e6]")
        resolved["ball"] = b.finish()
        radii = [bR] * bn
    try:
        spec = EllipsoidSpec(tuple(radii))
    except ValueError as exc:
        raise ConfigError(f"capacity: {exc}") from exc
    resolved["radii"] = list(spec.radii)
    cap = ellipsoid_capacity(spec)
    vol = ellipsoid_volume(spec)
    rmin = spec.radii[0]
    cylinder = math.pi * rmin * rmin
    inscribed = ellipsoid_capacity(EllipsoidSpec((rmin,) * spec.n))
    results = {
        "radii": list(spec.radii),
        "n": spec.n,
        "capacity": cap,
        "volume": vol,
        "inscribed_ball_capacity": inscribed,
        "cylinder_capacity": cylinder,
        "normalization_consistent": bool(abs(cap - cylinder) <= tol
                                         and abs(cap - inscribed) <= tol),
    }
    if len(set(spec.radii)) == 1:
        bv = ball_volume(spec.n, rmin)
        results["ball_volume_closed_form"] = bv
        results["volume_matches_ball"] = bool(abs(vol - bv) <= tol)
    rows = [{"quantity": k, "value": v} for k, v in results.items()
            if isinstance(v, (int, float, bool))]
    return resolved, results, (("quantity", "value"), rows)


# ---------------------------------------------------------------------------
# nonsqueeze


def run_nonsqueeze(params, seed):
    p = _Params("nonsqueeze", params)
    n = p.take("n", 2, "int", lambda v: 1 <= v <= 4, "must be in [1, 4]")
    # keeps pi R^2 and the grid cell area normal floats
    R = p.take("R", 1.0, "float", lambda v: 1e-6 <= v <= 1e6, "must be in [1e-6, 1e6]")
    maps = p.take("maps", 200, "int", lambda v: 0 <= v <= 10_000,
                  "must be in [0, 10000]")
    grid_res = p.take("grid_res", 512, "int", lambda v: 16 <= v <= 4096,
                      "must be in [16, 4096]")
    samples = p.take("samples", 1_000_000, "int",
                     lambda v: 1000 <= v <= 100_000_000,
                     "must be in [1000, 1e8]")
    margin = p.take("margin", 0.05, "float", lambda v: 0 <= v < 1,
                    "must be in [0, 1)")
    controls = p.take("controls", False, "bool")
    calibration = p.take("calibration", True, "bool")
    stages = p.take("stages", [3, 7], "ints",
                    lambda v: len(v) == 2 and 1 <= v[0] <= v[1] <= 50,
                    "must be [min, max] with 1 <= min <= max <= 50")
    resolved = p.finish()
    reference = math.pi * R * R
    rows = []
    calib = []
    if calibration:
        ident = identity_symplectomorphism(n)
        for j, est in enumerate(shadow_areas(ident, R, range(n), grid_res=grid_res,
                                             samples=samples, seed=seed)):
            entry = {"plane": f"x{j + 1}p{j + 1}", "area": est.area,
                     "corrected_area": est.corrected_area,
                     "relative_error": abs(est.corrected_area - reference)
                     / reference}
            calib.append(entry)
            rows.append({"map": "identity", "plane": entry["plane"],
                         "area": entry["area"],
                         "corrected_area": entry["corrected_area"],
                         "passed": None})
    experiment = None
    if maps:
        experiment = nonsqueezing_experiment(
            n, R=R, n_maps=maps, grid_res=grid_res, samples=samples,
            seed=seed, margin=margin, controls=controls,
            min_stages=stages[0], max_stages=stages[1])
        for rec in experiment["maps"]:
            for pl in rec["planes"]:
                rows.append({"map": rec["map"], "plane": pl["plane"],
                             "area": pl["area"],
                             "corrected_area": pl["corrected_area"],
                             "passed": pl["pass"]})
            for pl in rec.get("controls", ()):
                rows.append({"map": rec["map"], "plane": pl["plane"],
                             "area": pl["area"],
                             "corrected_area": pl["corrected_area"],
                             "passed": None})
    results = {"reference_area": reference, "margin": margin,
               "calibration": calib, "experiment": experiment}
    return resolved, results, (("map", "plane", "area", "corrected_area",
                                "passed"), rows)


# ---------------------------------------------------------------------------
# quantize


def run_quantize(params, seed):
    p = _Params("quantize", params)
    hbar = p.take("hbar", _REQUIRED, "float", lambda v: v > 0, "must be > 0")
    tol = p.take("tol", 1e-9, "float", lambda v: v > 0, "must be > 0")
    r2 = p.take("radii_squared", None, "floats",
                lambda v: v and all(x > 0 for x in v),
                "must list positive numbers")
    flat_dims = p.take("flat_dims", 0, "int", lambda v: 0 <= v <= 8,
                       "must be in [0, 8]")
    omegas = p.take("omegas", None, "floats",
                    lambda v: v and all(x > 0 for x in v),
                    "must list positive frequencies")
    n_max = p.take("spectrum_n_max", None, "int", lambda v: 0 <= v <= 64,
                   "must be in [0, 64]")
    scan_divisions = p.take("scan_divisions", 100, "int",
                            lambda v: 10 <= v <= 10_000,
                            "must be in [10, 10000]")
    contrast = p.take("contrast", False, "bool")
    resolved = p.finish()
    if r2 is None and omegas is None and n_max is None:
        raise ConfigError("quantize: nothing to compute (give 'radii_squared',"
                          " 'omegas', or 'spectrum_n_max')")

    results = {"hbar": hbar}
    gen_rows = []
    if r2 is not None:
        torus = TorusSpec(tuple(math.sqrt(v) for v in r2), flat_dims)
        report = keller_maslov_check(torus, hbar, tol=tol)
        for g in report.generators:
            row = {"r_squared": g.r_squared, "action": g.action,
                   "loop_index": g.loop_index, "level": g.level,
                   "residual": g.residual, "passed": g.passed}
            if contrast:
                v = g.action / (2.0 * math.pi * hbar)
                row["contrast_level"] = int(round(v))
                row["contrast_residual"] = abs(v - round(v))
            gen_rows.append(row)
        results["generators"] = gen_rows
        results["quantized"] = report.passed
        if omegas is not None:
            if len(omegas) != len(r2):
                raise ConfigError("quantize: 'omegas' must match "
                                  "'radii_squared' in length")
            results["torus_energy"] = (
                oscillator_levels(torus, omegas, hbar, tol=tol)
                if report.passed else None)
    if omegas is not None:
        results["ground_energy"] = ground_energy(omegas, hbar)
    spectrum_rows = []
    if n_max is not None:
        energies = oscillator_spectrum_from_waveforms(
            hbar, n_max, density_only=False, scan_divisions=scan_divisions,
            tol=tol)
        spectrum = {"energies": energies}
        spectrum_rows = [{"level": k, "energy": e}
                         for k, e in enumerate(energies)]
        if contrast:
            contrast_energies = oscillator_spectrum_from_waveforms(
                hbar, n_max, density_only=True,
                scan_divisions=scan_divisions, tol=tol)
            spectrum["contrast_energies"] = contrast_energies
            for row, e in zip(spectrum_rows, contrast_energies):
                row["contrast_energy"] = e
        results["spectrum"] = spectrum

    if gen_rows:
        fields = list(gen_rows[0].keys())
        table = (tuple(fields), gen_rows)
    elif spectrum_rows:
        fields = list(spectrum_rows[0].keys())
        table = (tuple(fields), spectrum_rows)
    else:
        rows = [{"quantity": "ground_energy",
                 "value": results["ground_energy"]}]
        table = (("quantity", "value"), rows)
    return resolved, results, table


# ---------------------------------------------------------------------------
# evolve


def _make_hamiltonian(record):
    q = _Params("evolve.hamiltonian", record)
    kind = q.take("kind", _REQUIRED, "str",
                  lambda v: v in ("harmonic", "free", "quadratic", "quartic"),
                  "must be harmonic, free, quadratic, or quartic")
    try:
        if kind == "harmonic":
            omegas = q.take("omegas", [1.0], "floats",
                            lambda v: v and all(w > 0 for w in v),
                            "must list positive frequencies")
            return harmonic_hamiltonian(omegas), q.finish()
        if kind == "free":
            dim = q.take("dim", 1, "int", lambda v: 1 <= v <= 8,
                         "must be in [1, 8]")
            M = np.zeros((2 * dim, 2 * dim))
            M[dim:, dim:] = np.eye(dim)
            return quadratic_hamiltonian(M), q.finish()
        if kind == "quadratic":
            matrix = q.take("matrix", _REQUIRED)
            M = np.asarray(matrix, dtype=float)
            if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
                raise ConfigError("evolve.hamiltonian: 'matrix' must be a "
                                  "square 2n x 2n array")
            return quadratic_hamiltonian(M), q.finish()
        omegas = q.take("omegas", [1.0], "floats",
                        lambda v: v and all(w > 0 for w in v),
                        "must list positive frequencies")
        coupling = q.take("coupling", 0.1, "float")
        return quartic_hamiltonian(omegas, coupling), q.finish()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"evolve.hamiltonian: {exc}") from exc


def _make_state(record):
    q = _Params("evolve.state", record)
    coeffs = q.take("phi", [0.0], "floats",
                    lambda v: 1 <= len(v) <= 16, "needs 1 to 16 coefficients")
    amp = q.take("amplitude", "gaussian", "str",
                 lambda v: v in ("gaussian", "constant"),
                 "must be 'gaussian' or 'constant'")
    sigma = q.take("sigma", 1.0, "float", lambda v: v > 0, "must be > 0")
    x0 = q.take("x0", 0.0, "float")
    resolved = q.finish()
    phi = Polynomial(1, [(c, (k,)) for k, c in enumerate(coeffs)])
    if amp == "gaussian":
        def amplitude(th, s=sigma, c=x0):
            return float(np.exp(-((float(th[0]) - c) ** 2) / (2.0 * s * s)))
    else:
        def amplitude(th):
            return 1.0
    return phi, amplitude, resolved


def _oracle_blocks(name, ham_resolved, state_resolved, tau):
    """Validate an oracle request; return the (A, B, D) propagator blocks."""
    kind = ham_resolved["kind"]
    if name == "mehler":
        if kind != "harmonic" or len(ham_resolved["omegas"]) != 1:
            raise ConfigError("evolve: the mehler oracle needs a "
                              "one-frequency harmonic generator")
        w = ham_resolved["omegas"][0]
        if not 0.0 < w * tau < math.pi:
            raise ConfigError("evolve: the mehler oracle covers "
                              "0 < omega * (t_end - t_start) < pi")
        A = D = math.cos(w * tau)
        B = math.sin(w * tau) / w
    elif name == "fresnel":
        if kind != "free":
            raise ConfigError("evolve: the fresnel oracle needs the free "
                              "generator")
        if tau <= 0:
            raise ConfigError("evolve: the fresnel oracle needs "
                              "t_end > t_start")
        A = D = 1.0
        B = tau
    else:
        raise ConfigError(f"evolve: unknown oracle '{name}' "
                          "(use 'mehler' or 'fresnel')")
    if len(state_resolved["phi"]) > 3:
        raise ConfigError("evolve: closed-form oracles need quadratic "
                          "phase data (phi of degree <= 2)")
    return A, B, D


def _oracle_reference(blocks, state_resolved, xs, hbar):
    A, B, D = blocks
    coeffs = state_resolved["phi"]
    c0, c1, c2 = (coeffs + [0.0, 0.0, 0.0])[:3]
    alpha = complex(2.0 * c2)
    beta = complex(c1)
    gamma = complex(2.0 * c0)
    if state_resolved["amplitude"] == "gaussian":
        sigma = state_resolved["sigma"]
        x0 = state_resolved["x0"]
        alpha += 1j * hbar / sigma ** 2
        beta += -1j * hbar * x0 / sigma ** 2
        gamma += 1j * hbar * x0 ** 2 / sigma ** 2
    den = A + alpha * B
    if abs(den) < 1e-12:
        raise NumericalError("oracle hit a focal point of the data")
    c1b = beta - xs / B
    return den ** -0.5 * np.exp(
        0.5j / hbar * (D * xs ** 2 / B + gamma - c1b ** 2 / (den / B)))


def run_evolve(params, seed):
    p = _Params("evolve", params)
    ham_rec = p.take("hamiltonian", _REQUIRED, "dict")
    state_rec = p.take("state", _REQUIRED, "dict")
    hbar = p.take("hbar", _REQUIRED, "float", lambda v: v > 0, "must be > 0")
    t_start = p.take("t_start", 0.0, "float")
    t_end = p.take("t_end", _REQUIRED, "float")
    steps = p.take("steps", 1000, "int", lambda v: 1 <= v <= 1_000_000,
                   "must be in [1, 1e6]")
    grid_rec = p.take("x_grid", None, "dict")
    want_shadow = p.take("shadow", True, "bool")
    oracle = p.take("oracle", None, "str")
    wins = p.take("morse_windows", [])
    index_points = p.take("index_points", 9, "int", lambda v: 2 <= v <= 1024,
                          "must be in [2, 1024]")
    traj_samples = p.take("trajectory_samples", 9, "int",
                          lambda v: 2 <= v <= 100_000,
                          "must be in [2, 100000]")
    tol = p.take("tol", 1e-10, "float", lambda v: v > 0, "must be > 0")
    resolved = p.finish()

    bad_wins = ConfigError("evolve: 'morse_windows' must list [start, end] "
                           "pairs with start < end")
    if not isinstance(wins, list) or any(
            not (isinstance(w, (list, tuple)) and len(w) == 2
                 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in w)) for w in wins):
        raise bad_wins
    wins = [[p._finite("morse_windows", v) for v in w] for w in wins]
    if any(not a < b for a, b in wins):
        raise bad_wins
    resolved["morse_windows"] = wins

    H, ham_resolved = _make_hamiltonian(ham_rec)
    resolved["hamiltonian"] = ham_resolved
    if H.n != 1:
        raise ConfigError("evolve: drives one-degree-of-freedom data; the "
                          "generator must act on (x, p) in the plane")
    phi, amplitude, state_resolved = _make_state(state_rec)
    resolved["state"] = state_resolved
    x0 = state_resolved["x0"]
    if oracle is not None and not want_shadow:
        raise ConfigError("evolve: an oracle comparison needs the shadow "
                          "(set shadow=true)")
    blocks = (None if oracle is None
              else _oracle_blocks(oracle, ham_resolved, state_resolved,
                                  t_end - t_start))

    xs = None
    if want_shadow:
        if grid_rec is None:
            raise ConfigError("evolve: 'x_grid' is required for the shadow")
        g = _Params("evolve.x_grid", grid_rec)
        gmin = g.take("min", _REQUIRED, "float")
        gmax = g.take("max", _REQUIRED, "float")
        gcount = g.take("count", _REQUIRED, "int")
        resolved["x_grid"] = g.finish()
        if gcount < 1:
            raise ConfigError("evolve: empty grid (x_grid.count must be >= 1)")
        if gcount > 1_000_000:
            raise ConfigError("evolve: x_grid.count must be <= 1e6")
        if gcount > 1 and not gmax > gmin:
            raise ConfigError("evolve: x_grid.max must exceed x_grid.min")
        xs = np.linspace(gmin, gmax, gcount)

    manifold = GradientGraphManifold(phi)
    psi = Waveform(manifold, amplitude, hbar)
    psi_t = evolve(psi, H, t_start, t_end, steps=steps)

    z0 = manifold.point([x0])
    if psi_t is psi:  # t_end == t_start: the single-sample path at x0
        times, points, jacs, actions = flow_path(H, z0, t_start, t_end,
                                                 steps=steps)
    else:  # the flow line that psi_t's phase at x0 reads, integrated once
        times, points, jacs, actions = psi_t.manifold.path([x0])
    pick = np.unique(np.round(np.linspace(0, len(times) - 1,
                                          traj_samples)).astype(int))
    traj_rows = [{"t": float(times[k]), "x": float(points[k][0]),
                  "p": float(points[k][1]), "action": float(actions[k])}
                 for k in pick]
    K = form_matrix(1)
    Jf = jacs[-1]
    defect = float(np.max(np.abs(Jf.T @ K @ Jf - K)))
    results = {
        "trajectory": {"samples": traj_rows, "action": float(actions[-1]),
                       "symplectic_defect": defect},
        "phase": {"theta": x0,
                  "start": float(psi.phase(np.array([x0]))),
                  "end": float(psi_t.phase(np.array([x0])))},
    }

    span = ((float(xs.min()), float(xs.max())) if xs is not None and len(xs) > 1
            else (x0 - 2.0, x0 + 2.0))
    th_grid = np.linspace(span[0], span[1], index_points)
    results["index_field"] = [
        {"theta": float(th),
         "index_start": int(psi.index(np.array([th]))),
         "index_end": int(psi_t.index(np.array([th])))}
        for th in th_grid]

    rows = []
    fields = ("theta", "index_start", "index_end")
    if want_shadow:
        vv = van_vleck_propagate(phi, amplitude, H, t_start, t_end, xs, hbar,
                                 det_tol=tol)
        results["shadow"] = {"x": [float(v) for v in xs],
                             "values": [complex(v) for v in vv]}
        rows = [{"x": float(x), "re": float(v.real), "im": float(v.imag)}
                for x, v in zip(xs, vv)]
        fields = ("x", "re", "im")
        if oracle is not None:
            ref = _oracle_reference(blocks, state_resolved, xs, hbar)
            err = vv - ref
            nref = float(np.linalg.norm(ref))
            if nref == 0.0:
                raise NumericalError("oracle reference vanished on the grid")
            results["oracle"] = {
                "name": oracle,
                "values": [complex(v) for v in ref],
                "relative_l2_error": float(np.linalg.norm(err) / nref),
                "max_abs_error": float(np.max(np.abs(err))),
            }
            for row, rv, ev in zip(rows, ref, np.abs(err)):
                row["oracle_re"] = float(rv.real)
                row["oracle_im"] = float(rv.imag)
                row["abs_error"] = float(ev)
            fields = ("x", "re", "im", "oracle_re", "oracle_im", "abs_error")
    else:
        rows = results["index_field"]

    if wins:
        morse_rows = []
        for a, b in wins:
            try:
                cnt = morse_index(H, z0[:1], z0[1:], a, b)
                morse_rows.append({"t_start": a, "t_end": b,
                                   "count": int(cnt), "note": ""})
            except ConjugatePointError as exc:
                morse_rows.append({"t_start": a, "t_end": b, "count": None,
                                   "note": str(exc)})
        results["morse"] = morse_rows

    return resolved, results, (fields, rows)


# ---------------------------------------------------------------------------
# plumbing

_RUNNERS = {
    "index": run_index,
    "capacity": run_capacity,
    "nonsqueeze": run_nonsqueeze,
    "quantize": run_quantize,
    "evolve": run_evolve,
}

_COMMAND_HELP = {
    "index": "Leray index tables, loop indices, and the exact identity suite",
    "capacity": "ellipsoid capacity and volume closed forms",
    "nonsqueeze": "shadow areas of mapped balls against the pi R^2 bound",
    "quantize": "minimum-area quantization checks, energies, and spectra",
    "evolve": "Hamiltonian transport of graph data with shadows and oracles",
}


class _Parser(argparse.ArgumentParser):
    # keep the single-line diagnostic contract instead of argparse's
    # usage dump + exit
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="symwave",
                     description="Deterministic symplectic-index, capacity, "
                                 "quantization, and waveform experiments.")
    parser.add_argument("--version", action="version",
                        version=f"symwave {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)
    for name, text in _COMMAND_HELP.items():
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON experiment configuration")
        sp.add_argument("--seed", type=int, metavar="INT",
                        help="override the config seed (default 0)")
        sp.add_argument("--out", metavar="PATH",
                        help="write the result here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="result encoding (default json)")
        sp.add_argument("--tol", type=float, metavar="FLOAT",
                        help="override the command's primary tolerance")
    return parser


def _resolve_config(args):
    doc = {}
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    if {"command", "params", "seed"} & doc.keys():
        extra = doc.keys() - {"command", "params", "seed"}
        if extra:
            names = ", ".join(repr(k) for k in sorted(extra))
            raise ConfigError(f"unknown config field(s): {names}")
        command = doc.get("command", args.command)
        params = doc.get("params", {})
        seed = doc.get("seed", 0)
    else:
        command, params, seed = args.command, doc, 0
    if command != args.command:
        raise ConfigError(f"config is for command '{command}', "
                          f"but '{args.command}' was invoked")
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a JSON object")
    if args.seed is not None:
        seed = args.seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer")
    params = dict(params)
    if args.tol is not None:
        params["tol"] = args.tol
    cfg = {"command": args.command, "seed": seed,
           "output": {"path": args.out, "format": args.format}}
    return cfg, params


def _render_csv(fh, envelope, table):
    # the meta line carries only the experiment-defining config (no output
    # path, no timing) so identical runs give byte-identical files
    cfg = envelope["config"]
    meta = {"command": cfg["command"], "params": cfg["params"],
            "seed": cfg["seed"], "version": envelope["version"]}
    fh.write("# symwave "
             + json.dumps(meta, sort_keys=True, separators=(",", ":"), default=_leaf)
             + "\n")
    fields, rows = table
    writer = csv.DictWriter(fh, fieldnames=list(fields), restval="",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _fail(code, category, detail):
    sys.stderr.write(json.dumps({"error": category, "exit_code": code,
                                 "detail": str(detail)}) + "\n")
    return code


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, params = _resolve_config(args)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    start = time.perf_counter()
    try:
        resolved, results, table = _RUNNERS[cfg["command"]](params,
                                                            cfg["seed"])
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except UnquantizedTorusError as exc:
        return _fail(3, "numerical", exc)
    except DivergenceError as exc:
        where = ("" if exc.last_time is None
                 else f"; last valid time {exc.last_time:.9g}")
        return _fail(3, "numerical", f"{exc}{where}")
    except NumericalError as exc:
        return _fail(3, "numerical", exc)
    duration = time.perf_counter() - start
    envelope = {"config": {**cfg, "params": resolved}, "results": results,
                "version": __version__,
                "duration_seconds": round(duration, 6)}
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if cfg["output"]["format"] == "csv":
            _render_csv(fh, envelope, table)
        else:
            json.dump(envelope, fh, sort_keys=True, indent=2, default=_leaf)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
