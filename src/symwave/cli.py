"""Command-line front-end: experiment configuration and result emission.

Usage::

    symwave COMMAND [--config PATH] [--seed INT] [--out PATH]
                    [--format {json,csv}] [--tol FLOAT]

The config file is one JSON document: either a bare parameter record or
``{"command": ..., "seed": ..., "params": {...}}``.  Flags override the
file; the seed is a non-negative integer.  Results are emitted as a JSON
envelope::

    {"config": <resolved>, "results": ..., "version": ..., "duration_seconds": ...}

or, with ``--format csv``, as the command's primary table behind one
deterministic comment line.  Identical config and seed reproduce the
``results`` payload byte for byte (the CSV file is reproducible in full).
Complex numbers serialize as ``{"re": .., "im": ..}`` pairs (``re``/``im``
columns in CSV).  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; errors print a single JSON diagnostic line to stderr.  A float
parameter that is not finite (JSON ``NaN``, ``Infinity``) is a config error,
and so is ``null`` for a parameter whose default is not ``null``.

Commands and parameters
-----------------------
One table of this module declares each parameter's kind, default and domain;
the lists below give each range or choice set, and a test holds them to it.

index
    ``task`` "grid"|"loop"|"identities", ``tol`` >= 0 (default 0: exact);
    grid: ``theta_count`` in [2, 2000], ``theta_min``, ``theta_max`` (min <
    max, and a finite span); loop: ``kind`` "circle"|"torus", ``windings``
    (1 to 8, each -64 to 64), ``flat_dims`` in [0, 8]; identities: ``dims``
    (each 1 to 6), ``trials`` in [1, 100000] -- the two-lift index against
    floor((theta - theta')/pi) + 1, the torus loop record's index against the
    lift of the loop's tangent planes, and the index identities.
capacity
    ``radii`` (at most 20, each in [1e-6, 1e6]) or ``ball`` {``n`` in
    [1, 20], ``R`` in [1e-6, 1e6]}, ``tol`` >= 0 -- capacity and volume
    closed forms, and the inscribed-ball and cylinder cross-checks.
nonsqueeze
    ``n`` in [1, 4], ``R`` in [1e-6, 1e6], ``maps`` in [0, 10000],
    ``grid_res`` in [16, 4096], ``samples`` in [1000, 1e8], ``margin`` in
    [0, 1), ``controls``, ``calibration``, ``stages`` [min, max] (1 to 50)
    -- shadow areas of mapped balls against pi R^2 (1 - margin); map k's
    ball is sampled with seed + 31k, and a map that overflows it exits 3.
quantize
    ``hbar`` in [1e-300, 1e300] (required), ``tol`` > 0 (default 1e-9), and
    any of ``radii_squared`` (+ ``flat_dims`` in [0, 8]), ``omegas``,
    ``spectrum_n_max`` in [0, 64] (+ ``scan_divisions`` in [10, 10000]);
    ``contrast`` adds the index-free column -- minimum-area checks per
    generator, ground/torus energies and the radius-scan spectrum.
evolve
    ``hamiltonian`` {``kind`` "harmonic"|"free"|"quadratic"|"quartic";
    ``omegas`` (harmonic, quartic), ``dim`` in [1, 8] (free), ``matrix``
    2n x 2n (quadratic), ``coupling`` (quartic)}, ``state`` {``phi`` (1 to
    16 coefficients), ``amplitude`` "gaussian"|"constant", ``sigma`` in
    [1e-100, 1e100], ``x0``}, ``hbar`` in [1e-300, 1e300], ``t_start``,
    ``t_end``, ``steps`` in [1, 1e6], ``x_grid`` {``min``, ``max``,
    ``count`` 1 to 1e6}, ``shadow``, ``oracle`` "mehler" (harmonic) or
    "fresnel" (free), ``morse_windows`` [[a, b], ...], ``index_points`` in
    [2, 1024], ``trajectory_samples`` in [2, 100000], ``tol`` > 0 (default
    1e-10, the Newton guard) -- Gaussian data transported on a gradient
    graph; the span t_end - t_start and each window's length must be finite.
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
    keller_maslov_check,
    nonsqueezing_experiment,
    oscillator_levels,
)
from .errors import ConjugatePointError, DivergenceError, NumericalError
from .flows import (
    _family,
    flow_path,
    harmonic_hamiltonian,
    quadratic_hamiltonian,
    quartic_hamiltonian,
)
from .maslov import (
    _inerts,
    _leray_log,
    _lifts,
    deck_act,
    leray_index,
    maslov_loop_index,
)
from .polynomials import Polynomial
from .symplectic import (
    LagrangianFrame,
    _exp_symmetric,
    _symplectic_defect,
    _triples,
    vertical_frame,
)
from .waveforms import (
    CircleManifold,
    GradientGraphManifold,
    TorusManifold,
    Waveform,
    evolve,
    morse_index,
    oscillator_spectrum_from_waveforms,
    van_vleck_propagate,
)

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """A malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# parameter tables
#
# A row is (name, kind, default, domain[, why]), and the default ``...`` marks
# a required parameter.  A domain is an ``_In`` interval, a ``_List`` shape, a
# tuple of choices, a dict of choices whose rows join the table, a nested
# record's table (kind "dict"), or a predicate.  A failed check says ``why``,
# or words derived from the domain.  Checks that span fields are short
# functions next to each command's table.


class _In:
    """The numbers from ``lo`` to ``hi``; ``ends`` marks each end closed or open."""

    def __init__(self, lo, hi=math.inf, ends="[]"):
        self.lo, self.hi, self.ends = lo, hi, ends

    def __contains__(self, v):
        return ((self.lo < v if self.ends[0] == "(" else self.lo <= v)
                and (v < self.hi if self.ends[1] == ")" else v <= self.hi))

    def __str__(self):
        lo, hi = (f"{v:g}".replace("e+", "e").replace("e0", "e").replace("e-0", "e-")
                  for v in (self.lo, self.hi))
        if self.hi == math.inf:
            return f"{'>' if self.ends[0] == '(' else '>='} {lo}"
        return f"in {self.ends[0]}{lo}, {hi}{self.ends[1]}"


class _List:
    """Lists with a length in ``sizes`` and, unless ``items`` is None, items in it."""

    def __init__(self, sizes, items=None):
        self.sizes, self.items = sizes, items

    def __contains__(self, v):
        return len(v) in self.sizes and (self.items is None or all(x in self.items for x in v))


_TYPES = {"float": (int, float), "int": int, "bool": bool, "str": str, "dict": dict}


def _coerce(where, key, val, kind):
    must = f"{where}: parameter '{key}' must "
    if kind == "matrix":
        if not (isinstance(val, list) and all(
                isinstance(r, list) and len(r) == len(val[0]) for r in val)):
            raise ConfigError(must + "be a list of equal-length lists")
        return [_coerce(where, key, r, "floats") for r in val]
    if kind in ("floats", "ints"):
        if not isinstance(val, (list, tuple)):
            raise ConfigError(must + "be a list")
        out = []
        for v in val:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(must + "hold numbers")
            if kind == "ints" and not isinstance(v, int):
                raise ConfigError(must + "hold integers")
            out.append(_finite(where, key, v) if kind == "floats" else v)
        return out
    # json's true and false are bools, never numbers
    if isinstance(val, bool) != (kind == "bool") or not isinstance(val, _TYPES[kind]):
        raise ConfigError(must + f"be a {kind}")
    return _finite(where, key, val) if kind == "float" else val


def _finite(where, key, v):
    # json reads NaN, Infinity and integers too large for a float
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: parameter '{key}' must be finite")
    return v


def _words(domain):
    if isinstance(domain, _In):
        return f"must be {domain}"
    names = [f"'{c}'" for c in domain]
    return "must be " + (" or ".join(names) if len(names) == 2
                         else "one of " + ", ".join(names))


def _read(where, record, table):
    """Check one parameter record against its table; return it resolved."""
    rest = dict(record)
    resolved = {}
    rows = list(table)
    for name, kind, default, domain, *why in rows:  # a choice appends its rows
        if name in rest:
            val = rest.pop(name)
        elif default is ...:
            raise ConfigError(f"{where}: missing required parameter '{name}'")
        else:
            val = default
        if val is not None or default is not None:
            val = _coerce(where, name, val, kind)
            if isinstance(domain, list):
                val = _read(f"{where}.{name}", val, domain)
            elif domain is not None and not (
                    domain(val) if callable(domain) else val in domain):
                raise ConfigError(f"{where}: parameter '{name}' "
                                  f"{why[0] if why else _words(domain)}")
            if isinstance(domain, dict):
                rows += domain[val]
        resolved[name] = val
    if rest:
        names = ", ".join(repr(k) for k in sorted(rest))
        raise ConfigError(f"{where}: unknown parameter(s) {names}")
    return resolved


_POSITIVE = _In(0, ends="(]")
_TOL_0 = ("tol", "float", 0.0, _In(0))
_FLAT_DIMS = ("flat_dims", "int", 0, _In(0, 8))
_FREQUENCIES = _List(_In(1), _POSITIVE)
_OMEGAS = ("omegas", "floats", [1.0], _FREQUENCIES, "must list positive frequencies")


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


_PLAIN = frozenset((str, int, float, bool, type(None)))


def _key(k):
    # json's rule for a dict key: a str, or the text of a float, int, bool or None
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write_json(fh, obj):
    """Write ``obj`` as ``json.dump(obj, fh, sort_keys=True, indent=2, default=_leaf)`` does.

    With ``indent`` set, ``json.dump`` runs json's pure-Python encoder, one
    chunk per token.  Here each non-empty container whose members are all
    plain ``str``/``int``/``float``/``bool``/``None`` is one call of json's C
    encoder, whose item separator carries the indent of the container's
    depth; the walk writes the other containers itself and turns every other
    leaf into json through `_leaf`.  The text is written container by
    container, never held whole.
    """
    encoders = {}
    write = fh.write

    def walk(lead, o, depth):
        # write lead, then o as json at this depth
        if depth not in encoders:
            pad = "\n" + "  " * (depth + 1)
            # CPython's C encoder, which json.JSONEncoder.encode builds anew on
            # every call: here once per depth.  A plain container holds no
            # cycle to check
            encode = json.encoder.c_make_encoder(
                markers=None, default=_leaf, encoder=json.encoder.encode_basestring_ascii,
                indent=None, key_separator=": ", item_separator="," + pad,
                sort_keys=True, skipkeys=False, allow_nan=True)
            encoders[depth] = encode, pad, pad[:-2]
        encode, pad, end = encoders[depth]
        if isinstance(o, dict):
            items = o.values()
        elif isinstance(o, (list, tuple)):
            items = o
        elif isinstance(o, (str, int, float)) or o is None:
            write(lead + "".join(encode(o, 0)))
            return
        else:
            walk(lead, _leaf(o), depth)
            return
        if _PLAIN.issuperset(map(type, items)):
            text = "".join(encode(o, 0))
            write(f"{lead}{text[0]}{pad}{text[1:-1]}{end}{text[-1]}" if o else lead + text)
            return
        if isinstance(o, dict):
            head, close = lead + "{", "}"
            members = ((f"{''.join(encode(_key(k), 0))}: ", v) for k, v in sorted(o.items()))
        else:
            head, close = lead + "[", "]"
            members = (("", v) for v in o)
        for key, value in members:
            walk(head + pad + key, value, depth + 1)
            head = ","
        write(end + close)

    walk("", obj, 0)


# ---------------------------------------------------------------------------
# index


_IDENTITY_BLOCK = 64
# the loop's tangent read samples 4 sum|mu| + 2 planes: at most 2,050
_WINDINGS = _List(_In(1, 8), _In(-64, 64))
_WINDINGS_WHY = "needs 1 to 8 entries in [-64, 64]"
_INDEX = [("task", "str", "grid", {
    # one row per pair, held whole and streamed out: peak RSS was 57 MiB at
    # 300 angles, 273 MiB at 1,100 and 809 MiB at 2,000, about 40 MiB plus
    # 200 B per pair
    "grid": [("theta_count", "int", 40, _In(2, 2000)),
             ("theta_min", "float", -6.0, None),
             ("theta_max", "float", 6.0, None),
             _TOL_0],
    "loop": [("kind", "str", "torus", {
        "circle": [("windings", "ints", [1], _WINDINGS, _WINDINGS_WHY), _FLAT_DIMS, _TOL_0],
        "torus": [("windings", "ints", ..., _WINDINGS, _WINDINGS_WHY), _FLAT_DIMS, _TOL_0],
    })],
    # checked in blocks of _IDENTITY_BLOCK triples, one batched call per step
    # for each: peak RSS about 43 MiB at n = 6 however many the trials
    "identities": [("dims", "ints", [1, 2, 3], _List(_In(1), _In(1, 6)),
                    "must list dimensions in [1, 6]"),
                   ("trials", "int", 200, _In(1, 100_000)),
                   _TOL_0],
})]


def _check_index(p):
    if p["task"] == "grid" and not p["theta_max"] > p["theta_min"]:
        raise ConfigError("index: parameter 'theta_max' must exceed theta_min")
    if p["task"] == "grid" and not math.isfinite(p["theta_max"] - p["theta_min"]):
        raise ConfigError("index: theta_max - theta_min must be finite")
    if p["task"] == "loop" and p["kind"] == "circle" and p["windings"] != [1]:
        raise ConfigError("index: a circle loop is a single positive turn; "
                          "use kind='torus' for general windings")


def _index_grid(p, seed):
    lo, hi, count, tol = p["theta_min"], p["theta_max"], p["theta_count"], p["tol"]
    rng = np.random.default_rng(seed)
    thetas = np.linspace(lo, hi, count).tolist()
    circle = CircleManifold(1.0)
    # each angle's tangent frame rides along, so a coincident pair does not
    # rebuild its frames from w
    points = [(th, circle.cover_lift(th), circle.tangent_frame(th)) for th in thetas]
    rows = []
    mismatches = 0
    for th, a, fa in points:
        for tp, b, fb in points:
            m = int(leray_index(a, b, frames=(fa, fb), rng=rng))
            closed = math.floor((th - tp) / math.pi) + 1
            ok = abs(m - closed) <= tol
            mismatches += not ok
            rows.append({"theta": th, "theta_prime": tp,
                         "index": m, "closed_form": closed, "match": bool(ok)})
    results = {"task": "grid", "rows": rows, "mismatches": mismatches,
               "all_match": mismatches == 0}
    return p, results, (tuple(rows[0]), rows)


def _index_loop(p, seed):
    kind, windings, flat_dims = p["kind"], p["windings"], p["flat_dims"]
    # the torus's own loop record; the radii do not enter the index
    torus = TorusManifold((1.0,) * len(windings), flat_dims)
    idx = torus.loop_index(windings)
    # read independently off the tangent planes along the loop: with 4 sum|mu| + 1
    # steps, each turns arg det u by less than pi/2, so no step aliases
    mu = np.concatenate([windings, np.zeros(flat_dims)])
    ts = np.linspace(0.0, 2 * math.pi, 4 * sum(map(abs, windings)) + 2)
    tangent = maslov_loop_index([torus.tangent_frame(mu * t) for t in ts])
    row = {"kind": kind, "windings": " ".join(str(v) for v in windings),
           "flat_dims": flat_dims, "loop_index": idx, "tangent_index": tangent,
           "match": bool(abs(idx - tangent) <= p["tol"])}
    results = {"task": "loop", "kind": kind, "windings": windings,
               "flat_dims": flat_dims, "loop_index": idx,
               "tangent_index": tangent, "match": row["match"]}
    return p, results, (tuple(row), [row])


def _identity_failures(n, trials, rng, tol):
    # cocycle, self-index and deck-shift failures of a block of triples
    # (a, b, c), drawn in the order of one triple at a time
    A, windings, shifts = [], [], []
    for _ in range(trials):
        for _ in range(3):
            A.append(rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n)))
            windings.append(int(rng.integers(-3, 4)))
        shifts.append(rng.integers(-4, 5, size=2).tolist())
    # frames, lifts, pair spectra and inertia indices: one batched call each
    F = _exp_symmetric(np.array(A)) @ vertical_frame(n).stacked()
    F, W, lams, dims, sig = _triples(F.reshape(trials, 3, 2 * n, n))
    lifts, inerts = _lifts(W, windings), _inerts(dims, sig, n)

    def index(a, b, i, j, pair=None):
        # a transversal pair reads the block's spectrum, the others leray_index
        if pair is not None and dims[pair] == 0:
            return _leray_log(a, b, lams[pair])
        return leray_index(a, b, frames=[LagrangianFrame(F[m, :n], F[m, n:]) for m in (i, j)])

    cocycle = self_index = deck_shift = 0
    for i, (k, kp) in zip(range(0, 3 * trials, 3), shifts):
        a, b, c = lifts[i : i + 3]
        mab = index(a, b, i, i + 1, i)
        lhs = mab - index(a, c, i, i + 2, i + 2) + index(b, c, i + 1, i + 2, i + 1)
        cocycle += abs(lhs - inerts[i // 3]) > tol
        self_index += abs(index(a, a, i, i) - n) > tol
        shifted = index(deck_act(k, a), deck_act(kp, b), i, i + 1, i)
        deck_shift += abs(shifted - (mab + k - kp)) > tol
    return cocycle, self_index, deck_shift


def _index_identities(p, seed):
    dims, trials, tol = p["dims"], p["trials"], p["tol"]
    rng = np.random.default_rng(seed)
    rows = []
    for n in dims:
        blocks = [_identity_failures(n, min(_IDENTITY_BLOCK, left), rng, tol)
                  for left in range(trials, 0, -_IDENTITY_BLOCK)]
        cocycle, self_index, deck_shift = map(sum, zip(*blocks))
        rows.append({"n": n, "trials": trials, "cocycle_failures": cocycle,
                     "self_index_failures": self_index,
                     "deck_shift_failures": deck_shift})
    all_exact = all(r["cocycle_failures"] == r["self_index_failures"]
                    == r["deck_shift_failures"] == 0 for r in rows)
    results = {"task": "identities", "rows": rows, "all_exact": all_exact}
    return p, results, (tuple(rows[0]), rows)


def run_index(params, seed):
    p = _read("index", params, _INDEX)
    _check_index(p)
    run = {"grid": _index_grid, "loop": _index_loop, "identities": _index_identities}
    return run[p["task"]](p, seed)


# ---------------------------------------------------------------------------
# capacity


# radii in [1e-6, 1e6] and n <= 20 keep pi r^2 and the volume
# pi^n prod r^2 / n! normal floats
_CAPACITY = [
    ("ball", "dict", None, [("n", "int", ..., _In(1, 20)),
                            ("R", "float", ..., _In(1e-6, 1e6))]),
    ("radii", "floats", None, _List(_In(0, 20), _In(1e-6, 1e6)),
     "must hold at most 20 positive radii in [1e-6, 1e6]"),
    _TOL_0,
]


def _check_capacity(p):
    if (p["radii"] is None) == (p["ball"] is None):
        raise ConfigError("capacity: give exactly one of 'radii' or 'ball'")


def run_capacity(params, seed):
    resolved = _read("capacity", params, _CAPACITY)
    _check_capacity(resolved)
    ball, tol = resolved["ball"], resolved["tol"]
    radii = resolved["radii"] if ball is None else [ball["R"]] * ball["n"]
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


def _stages(v):
    return len(v) == 2 and 1 <= v[0] <= v[1] <= 50


_NONSQUEEZE = [
    ("n", "int", 2, _In(1, 4)),
    ("R", "float", 1.0, _In(1e-6, 1e6)),  # keeps pi R^2 and the cell area normal
    ("maps", "int", 200, _In(0, 10_000)),
    ("grid_res", "int", 512, _In(16, 4096)),
    ("samples", "int", 1_000_000, _In(1000, 100_000_000)),
    ("margin", "float", 0.05, _In(0, 1, "[)")),
    ("controls", "bool", False, None),
    ("calibration", "bool", True, None),
    ("stages", "ints", [3, 7], _stages, "must be [min, max] with 1 <= min <= max <= 50"),
]


def run_nonsqueeze(params, seed):
    resolved = _read("nonsqueeze", params, _NONSQUEEZE)
    n, R, maps, grid_res, samples, margin, controls, calibration, stages = (
        resolved[k] for k in ("n", "R", "maps", "grid_res", "samples", "margin",
                              "controls", "calibration", "stages"))
    reference = math.pi * R * R
    # the calibration reads map 0's ball before the map moves it
    run = nonsqueezing_experiment(
        n, R=R, n_maps=maps, grid_res=grid_res, samples=samples, seed=seed,
        margin=margin, controls=controls, min_stages=stages[0], max_stages=stages[1],
        calibration=calibration)
    calib = run.pop("calibration", [])
    experiment = run if maps else None
    rows = [{"map": "identity", "plane": c["plane"], "area": c["area"],
             "corrected_area": c["corrected_area"], "passed": None} for c in calib]
    for rec in run["maps"]:
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


_QUANTIZE = [
    # keeps the scanned radii r^2 in [hbar / 1e4, 130 hbar] normal floats
    ("hbar", "float", ..., _In(1e-300, 1e300)),
    ("tol", "float", 1e-9, _POSITIVE),
    ("radii_squared", "floats", None, _FREQUENCIES, "must list positive numbers"),
    _FLAT_DIMS,
    ("omegas", "floats", None, _FREQUENCIES, "must list positive frequencies"),
    ("spectrum_n_max", "int", None, _In(0, 64)),
    ("scan_divisions", "int", 100, _In(10, 10_000)),
    ("contrast", "bool", False, None),
]


def _check_quantize(p):
    if p["radii_squared"] is None and p["omegas"] is None and p["spectrum_n_max"] is None:
        raise ConfigError("quantize: nothing to compute (give 'radii_squared',"
                          " 'omegas', or 'spectrum_n_max')")
    if p["omegas"] and p["radii_squared"] and len(p["omegas"]) != len(p["radii_squared"]):
        raise ConfigError("quantize: 'omegas' must match 'radii_squared' in length")


def run_quantize(params, seed):
    resolved = _read("quantize", params, _QUANTIZE)
    _check_quantize(resolved)
    hbar, tol, r2, flat_dims, omegas, n_max, scan_divisions, contrast = (
        resolved[k] for k in ("hbar", "tol", "radii_squared", "flat_dims", "omegas",
                              "spectrum_n_max", "scan_divisions", "contrast"))

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

    rows = (gen_rows or spectrum_rows
            or [{"quantity": "ground_energy", "value": results["ground_energy"]}])
    return resolved, results, (tuple(rows[0]), rows)


# ---------------------------------------------------------------------------
# evolve


def _square(v):
    return bool(v) and len(v) % 2 == 0 and len(v[0]) == len(v)


def _windows(v):
    return all(len(w) == 2 and w[0] < w[1] for w in v)


_EVOLVE = [
    ("hamiltonian", "dict", ..., [("kind", "str", ..., {
        "harmonic": [_OMEGAS],
        "free": [("dim", "int", 1, _In(1, 8))],
        "quadratic": [("matrix", "matrix", ..., _square, "must be a square 2n x 2n array")],
        "quartic": [_OMEGAS, ("coupling", "float", 0.1, None)],
    }, "must be harmonic, free, quadratic, or quartic")]),
    ("state", "dict", ..., [
        ("phi", "floats", [0.0], _List(_In(1, 16)), "needs 1 to 16 coefficients"),
        ("amplitude", "str", "gaussian", ("gaussian", "constant")),
        # keeps 2 sigma^2 and hbar / sigma^2 (the oracle's) normal floats
        ("sigma", "float", 1.0, _In(1e-100, 1e100)),
        ("x0", "float", 0.0, None),
    ]),
    # quantize's range: 1 / hbar and the oracle's 0.5j / hbar stay finite
    ("hbar", "float", ..., _In(1e-300, 1e300)),
    ("t_start", "float", 0.0, None),
    ("t_end", "float", ..., None),
    ("steps", "int", 1000, _In(1, 1_000_000)),
    ("x_grid", "dict", None, [("min", "float", ..., None), ("max", "float", ..., None),
                              ("count", "int", ..., None)]),
    ("shadow", "bool", True, None),
    ("oracle", "str", None, None),
    ("morse_windows", "matrix", [], _windows,
     "must list [start, end] pairs with start < end"),
    ("index_points", "int", 9, _In(2, 1024)),
    ("trajectory_samples", "int", 9, _In(2, 100_000)),
    ("tol", "float", 1e-10, _POSITIVE),
]


def _check_evolve(p):
    if not math.isfinite(p["t_end"] - p["t_start"]):
        raise ConfigError("evolve: t_end - t_start must be finite")
    if any(not math.isfinite(b - a) for a, b in p["morse_windows"]):
        raise ConfigError("evolve: each 'morse_windows' length must be finite")
    if p["oracle"] is not None and not p["shadow"]:
        raise ConfigError("evolve: an oracle comparison needs the shadow "
                          "(set shadow=true)")
    grid = p["x_grid"]
    if grid is None:
        if p["shadow"]:
            raise ConfigError("evolve: 'x_grid' is required for the shadow")
    elif grid["count"] < 1:
        raise ConfigError("evolve: empty grid (x_grid.count must be >= 1)")
    elif grid["count"] > 1_000_000:
        raise ConfigError("evolve: x_grid.count must be <= 1e6")
    elif grid["count"] > 1 and not grid["max"] > grid["min"]:
        raise ConfigError("evolve: x_grid.max must exceed x_grid.min")


def _make_hamiltonian(h):
    try:
        if h["kind"] == "harmonic":
            return harmonic_hamiltonian(h["omegas"])
        if h["kind"] == "free":
            return quadratic_hamiltonian(np.diag([0.0] * h["dim"] + [1.0] * h["dim"]))
        if h["kind"] == "quadratic":
            return quadratic_hamiltonian(np.asarray(h["matrix"], dtype=float))
        return quartic_hamiltonian(h["omegas"], h["coupling"])
    except ValueError as exc:
        raise ConfigError(f"evolve.hamiltonian: {exc}") from exc


def _make_state(state):
    phi = Polynomial(1, [(c, (k,)) for k, c in enumerate(state["phi"])])
    if state["amplitude"] == "gaussian":
        def amplitude(th, s=state["sigma"], c=state["x0"]):
            return float(np.exp(-((float(th[0]) - c) ** 2) / (2.0 * s * s)))
    else:
        def amplitude(th):
            return 1.0
    return phi, amplitude


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
    resolved = _read("evolve", params, _EVOLVE)
    _check_evolve(resolved)
    (hbar, t_start, t_end, steps, want_shadow, oracle, wins, tol, ham_resolved,
     state_resolved, grid) = (resolved[k] for k in (
         "hbar", "t_start", "t_end", "steps", "shadow", "oracle", "morse_windows",
         "tol", "hamiltonian", "state", "x_grid"))
    H = _make_hamiltonian(ham_resolved)
    if H.n != 1:
        raise ConfigError("evolve: drives one-degree-of-freedom data; the "
                          "generator must act on (x, p) in the plane")
    rate = _family(H).rate  # None for the quartic, whose steps bound their own turns
    if rate and not (bound := rate(H) * abs(t_end - t_start) / 1e6) < math.pi:  # steps <= 1e6
        raise ConfigError(f"evolve: the turn bound n ||M||_2 |t_end - t_start| / 1e6 = "
                          f"{bound:.6g} reaches pi, so no steps value can certify a step")
    phi, amplitude = _make_state(state_resolved)
    x0 = state_resolved["x0"]
    blocks = (None if oracle is None
              else _oracle_blocks(oracle, ham_resolved, state_resolved, t_end - t_start))
    xs = np.linspace(grid["min"], grid["max"], grid["count"]) if want_shadow else None

    manifold = GradientGraphManifold(phi)
    psi = Waveform(manifold, amplitude, hbar)
    psi_t = evolve(psi, H, t_start, t_end, steps=steps)

    z0 = manifold.point([x0])
    # the flow line that psi_t's phase at x0 reads, integrated once; at
    # t_end == t_start psi_t is psi, and the path is the one sample at x0
    times, points, jacs, actions, _ = (flow_path(H, z0, t_start, t_end, steps=steps)
                                       if psi_t is psi else psi_t.manifold.path([x0]))
    pick = dict.fromkeys(np.round(np.linspace(0, len(times) - 1,
                                              resolved["trajectory_samples"])).astype(int).tolist())
    traj_rows = [{"t": float(times[k]), "x": float(points[k][0]),
                  "p": float(points[k][1]), "action": float(actions[k])}
                 for k in pick]
    results = {
        "trajectory": {"samples": traj_rows, "action": float(actions[-1]),
                       "symplectic_defect": _symplectic_defect(jacs[-1])},
        "phase": {"theta": x0,
                  "start": float(psi.phase(np.array([x0]))),
                  "end": float(psi_t.phase(np.array([x0])))},
    }

    span = ((float(xs.min()), float(xs.max())) if xs is not None and len(xs) > 1
            else (x0 - 2.0, x0 + 2.0))
    th_grid = np.linspace(span[0], span[1], resolved["index_points"])
    results["index_field"] = [
        {"theta": float(th),
         "index_start": int(psi.index(np.array([th]))),
         "index_end": int(psi_t.index(np.array([th])))}
        for th in th_grid]

    rows = results["index_field"]
    if want_shadow:
        vv = van_vleck_propagate(phi, amplitude, H, t_start, t_end, xs, hbar,
                                 det_tol=tol)
        results["shadow"] = {"x": [float(v) for v in xs],
                             "values": [complex(v) for v in vv]}
        rows = [{"x": float(x), "re": float(v.real), "im": float(v.imag)}
                for x, v in zip(xs, vv)]
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

    return resolved, results, (tuple(rows[0]), rows)


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
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("'seed' must be a non-negative integer")
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
            _write_json(fh, envelope)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
