"""Every row of the ``symwave`` parameter tables, at the edges of its domain.

Each case names one row by its place in the tables, a base config that runs
cheaply, a value just inside the row's domain (accepted: exit 0), a value just
outside it and a value of the wrong kind (both exit 2 with the exact
diagnostic written here).  A row with no domain has no outside value.
"""

import copy
import json
import math
import re

import pytest

from symwave import cli
from symwave.cli import main

TINY = 5e-324  # the smallest positive float
EVOLVE = {"hamiltonian": {"kind": "harmonic"}, "state": {"phi": [0.0, 0.0, 0.15]},
          "hbar": 0.05, "t_end": 0.3, "steps": 30, "shadow": False,
          "index_points": 2, "trajectory_samples": 2}
BASES = {
    "grid": ("index", {"task": "grid", "theta_count": 2}),
    "circle": ("index", {"task": "loop", "kind": "circle"}),
    "torus": ("index", {"task": "loop", "windings": [1]}),
    "identities": ("index", {"task": "identities", "dims": [1], "trials": 1}),
    "radii": ("capacity", {"radii": [1.0]}),
    "ball": ("capacity", {"ball": {"n": 1, "R": 1.0}}),
    "nonsqueeze": ("nonsqueeze", {"maps": 0, "calibration": False}),  # computes nothing
    "quantize": ("quantize", {"hbar": 1.0, "omegas": [1.0]}),
    "evolve": ("evolve", EVOLVE),
    "free": ("evolve", {**EVOLVE, "hamiltonian": {"kind": "free"}}),
    "quadratic": ("evolve", {**EVOLVE, "hamiltonian": {"kind": "quadratic",
                                                       "matrix": [[1.0, 0.0], [0.0, 1.0]]}}),
    "quartic": ("evolve", {**EVOLVE, "hamiltonian": {"kind": "quartic"}}),
    "shadow": ("evolve", {**EVOLVE, "shadow": True,
                          "x_grid": {"min": 0.0, "max": 0.0, "count": 1}}),
}

# (row, base, inside, outside, detail outside, wrong kind, detail wrong kind)
CASES = [
    ("index.task", "identities", "identities", "gird",
     "index: parameter 'task' must be one of 'grid', 'loop', 'identities'",
     1, "index: parameter 'task' must be a str"),
    ("index[task=grid].theta_count", "grid", 2, 1,
     "index: parameter 'theta_count' must be in [2, 2000]",
     2.0, "index: parameter 'theta_count' must be a int"),
    ("index[task=grid].theta_min", "grid", -1.0, None, None,
     "-6", "index: parameter 'theta_min' must be a float"),
    ("index[task=grid].theta_max", "grid", 1.0, None, None,
     True, "index: parameter 'theta_max' must be a float"),
    ("index[task=grid].tol", "grid", 0.0, -TINY, "index: parameter 'tol' must be >= 0",
     "0", "index: parameter 'tol' must be a float"),
    ("index[task=loop].kind", "circle", "circle", "sphere",
     "index: parameter 'kind' must be 'circle' or 'torus'",
     1, "index: parameter 'kind' must be a str"),
    ("index[task=loop][kind=circle].windings", "circle", [1], [],
     "index: parameter 'windings' needs 1 to 8 entries in [-64, 64]",
     "1", "index: parameter 'windings' must be a list"),
    ("index[task=loop][kind=circle].flat_dims", "circle", 8, 9,
     "index: parameter 'flat_dims' must be in [0, 8]",
     1.0, "index: parameter 'flat_dims' must be a int"),
    ("index[task=loop][kind=circle].tol", "circle", 0.0, -TINY,
     "index: parameter 'tol' must be >= 0", [0], "index: parameter 'tol' must be a float"),
    ("index[task=loop][kind=torus].windings", "torus", [64, -64] + [1] * 6, [1] * 9,
     "index: parameter 'windings' needs 1 to 8 entries in [-64, 64]",
     [1.0], "index: parameter 'windings' must hold integers"),
    ("index[task=loop][kind=torus].flat_dims", "torus", 0, -1,
     "index: parameter 'flat_dims' must be in [0, 8]",
     "0", "index: parameter 'flat_dims' must be a int"),
    ("index[task=loop][kind=torus].tol", "torus", 0.0, -TINY,
     "index: parameter 'tol' must be >= 0", False, "index: parameter 'tol' must be a float"),
    ("index[task=identities].dims", "identities", [6], [7],
     "index: parameter 'dims' must list dimensions in [1, 6]",
     [1.5], "index: parameter 'dims' must hold integers"),
    ("index[task=identities].trials", "identities", 1, 0,
     "index: parameter 'trials' must be in [1, 100000]",
     "1", "index: parameter 'trials' must be a int"),
    ("index[task=identities].tol", "identities", 0.0, -TINY,
     "index: parameter 'tol' must be >= 0", {}, "index: parameter 'tol' must be a float"),
    ("capacity.ball", "ball", {"n": 2, "R": 1.0}, None, None,
     [1], "capacity: parameter 'ball' must be a dict"),
    ("capacity.ball.n", "ball", 20, 21, "capacity.ball: parameter 'n' must be in [1, 20]",
     1.0, "capacity.ball: parameter 'n' must be a int"),
    ("capacity.ball.R", "ball", 1e6, math.nextafter(1e6, math.inf),
     "capacity.ball: parameter 'R' must be in [1e-6, 1e6]",
     "1", "capacity.ball: parameter 'R' must be a float"),
    ("capacity.radii", "radii", [1e-6] * 20, [1e-6] * 21,
     "capacity: parameter 'radii' must hold at most 20 positive radii in [1e-6, 1e6]",
     [True], "capacity: parameter 'radii' must hold numbers"),
    ("capacity.tol", "radii", 0.0, -TINY, "capacity: parameter 'tol' must be >= 0",
     "0", "capacity: parameter 'tol' must be a float"),
    ("nonsqueeze.n", "nonsqueeze", 4, 5, "nonsqueeze: parameter 'n' must be in [1, 4]",
     2.0, "nonsqueeze: parameter 'n' must be a int"),
    ("nonsqueeze.R", "nonsqueeze", 1e-6, math.nextafter(1e-6, 0.0),
     "nonsqueeze: parameter 'R' must be in [1e-6, 1e6]",
     "1", "nonsqueeze: parameter 'R' must be a float"),
    ("nonsqueeze.maps", "nonsqueeze", 0, -1, "nonsqueeze: parameter 'maps' must be in [0, 10000]",
     0.5, "nonsqueeze: parameter 'maps' must be a int"),
    ("nonsqueeze.grid_res", "nonsqueeze", 4096, 4097,
     "nonsqueeze: parameter 'grid_res' must be in [16, 4096]",
     "512", "nonsqueeze: parameter 'grid_res' must be a int"),
    ("nonsqueeze.samples", "nonsqueeze", 100_000_000, 100_000_001,
     "nonsqueeze: parameter 'samples' must be in [1000, 1e8]",
     1e6, "nonsqueeze: parameter 'samples' must be a int"),
    ("nonsqueeze.margin", "nonsqueeze", math.nextafter(1.0, 0.0), 1.0,
     "nonsqueeze: parameter 'margin' must be in [0, 1)",
     "0.05", "nonsqueeze: parameter 'margin' must be a float"),
    ("nonsqueeze.controls", "nonsqueeze", True, None, None,
     1, "nonsqueeze: parameter 'controls' must be a bool"),
    ("nonsqueeze.calibration", "nonsqueeze", False, None, None,
     "yes", "nonsqueeze: parameter 'calibration' must be a bool"),
    ("nonsqueeze.stages", "nonsqueeze", [50, 50], [2, 1],
     "nonsqueeze: parameter 'stages' must be [min, max] with 1 <= min <= max <= 50",
     [3, 7.0], "nonsqueeze: parameter 'stages' must hold integers"),
    # hbar 5e-324 once ran the radius scan on radii that underflow to 0
    ("quantize.hbar", "quantize", 1e-300, TINY,
     "quantize: parameter 'hbar' must be in [1e-300, 1e300]",
     "1", "quantize: parameter 'hbar' must be a float"),
    ("quantize.tol", "quantize", TINY, 0.0, "quantize: parameter 'tol' must be > 0",
     [1e-9], "quantize: parameter 'tol' must be a float"),
    ("quantize.radii_squared", "quantize", [1.0], [0.0],
     "quantize: parameter 'radii_squared' must list positive numbers",
     ["1"], "quantize: parameter 'radii_squared' must hold numbers"),
    ("quantize.flat_dims", "quantize", 8, 9, "quantize: parameter 'flat_dims' must be in [0, 8]",
     True, "quantize: parameter 'flat_dims' must be a int"),
    ("quantize.omegas", "quantize", [TINY], [0.0],
     "quantize: parameter 'omegas' must list positive frequencies",
     1.0, "quantize: parameter 'omegas' must be a list"),
    ("quantize.spectrum_n_max", "quantize", 0, 65,
     "quantize: parameter 'spectrum_n_max' must be in [0, 64]",
     1.5, "quantize: parameter 'spectrum_n_max' must be a int"),
    ("quantize.scan_divisions", "quantize", 10, 9,
     "quantize: parameter 'scan_divisions' must be in [10, 10000]",
     "10", "quantize: parameter 'scan_divisions' must be a int"),
    ("quantize.contrast", "quantize", True, None, None,
     0, "quantize: parameter 'contrast' must be a bool"),
    ("evolve.hamiltonian", "evolve", {"kind": "free"}, None, None,
     "harmonic", "evolve: parameter 'hamiltonian' must be a dict"),
    ("evolve.hamiltonian.kind", "evolve", "quartic", "cubic",
     "evolve.hamiltonian: parameter 'kind' must be harmonic, free, quadratic, or quartic",
     1, "evolve.hamiltonian: parameter 'kind' must be a str"),
    ("evolve.hamiltonian[kind=harmonic].omegas", "evolve", [TINY], [0.0],
     "evolve.hamiltonian: parameter 'omegas' must list positive frequencies",
     [True], "evolve.hamiltonian: parameter 'omegas' must hold numbers"),
    ("evolve.hamiltonian[kind=free].dim", "free", 1, 0,
     "evolve.hamiltonian: parameter 'dim' must be in [1, 8]",
     1.0, "evolve.hamiltonian: parameter 'dim' must be a int"),
    # the two texts of the matrix row are new: the parent said "'matrix' must be
    # a square 2n x 2n array" and ran a matrix of booleans as numbers
    ("evolve.hamiltonian[kind=quadratic].matrix", "quadratic", [[1.0, 0.0], [0.0, 1.0]],
     [[1.0]], "evolve.hamiltonian: parameter 'matrix' must be a square 2n x 2n array",
     [[True, 0], [0, 1]], "evolve.hamiltonian: parameter 'matrix' must hold numbers"),
    ("evolve.hamiltonian[kind=quartic].omegas", "quartic", [TINY], [-1.0],
     "evolve.hamiltonian: parameter 'omegas' must list positive frequencies",
     "1", "evolve.hamiltonian: parameter 'omegas' must be a list"),
    ("evolve.hamiltonian[kind=quartic].coupling", "quartic", 0.0, None, None,
     "0.1", "evolve.hamiltonian: parameter 'coupling' must be a float"),
    ("evolve.state", "evolve", {"phi": [0.0]}, None, None,
     [], "evolve: parameter 'state' must be a dict"),
    ("evolve.state.phi", "evolve", [0.0] * 16, [0.0] * 17,
     "evolve.state: parameter 'phi' needs 1 to 16 coefficients",
     0.0, "evolve.state: parameter 'phi' must be a list"),
    ("evolve.state.amplitude", "evolve", "constant", "flat",
     "evolve.state: parameter 'amplitude' must be 'gaussian' or 'constant'",
     1, "evolve.state: parameter 'amplitude' must be a str"),
    # sigma 1e-200 once divided the Gaussian exponent by 2 sigma^2 = 0
    ("evolve.state.sigma", "evolve", 1e-100, 1e-200,
     "evolve.state: parameter 'sigma' must be in [1e-100, 1e100]",
     "1", "evolve.state: parameter 'sigma' must be a float"),
    ("evolve.state.x0", "evolve", 0.5, None, None,
     "0", "evolve.state: parameter 'x0' must be a float"),
    # hbar 5e-324 once ran to exit 0 with NaN phases
    ("evolve.hbar", "evolve", 1e-300, TINY,
     "evolve: parameter 'hbar' must be in [1e-300, 1e300]",
     "0.05", "evolve: parameter 'hbar' must be a float"),
    ("evolve.t_start", "evolve", 0.1, None, None,
     "0", "evolve: parameter 't_start' must be a float"),
    ("evolve.t_end", "evolve", 0.0, None, None,
     [1.0], "evolve: parameter 't_end' must be a float"),
    ("evolve.steps", "evolve", 1, 0, "evolve: parameter 'steps' must be in [1, 1e6]",
     1.0, "evolve: parameter 'steps' must be a int"),
    ("evolve.x_grid", "shadow", {"min": -0.1, "max": 0.1, "count": 2}, None, None,
     1, "evolve: parameter 'x_grid' must be a dict"),
    ("evolve.x_grid.min", "shadow", -0.1, None, None,
     "0", "evolve.x_grid: parameter 'min' must be a float"),
    ("evolve.x_grid.max", "shadow", 0.1, None, None,
     "0", "evolve.x_grid: parameter 'max' must be a float"),
    ("evolve.x_grid.count", "shadow", 1, 0, "evolve: empty grid (x_grid.count must be >= 1)",
     1.0, "evolve.x_grid: parameter 'count' must be a int"),
    ("evolve.shadow", "shadow", False, None, None,
     "no", "evolve: parameter 'shadow' must be a bool"),
    ("evolve.oracle", "shadow", "mehler", "airy",
     "evolve: unknown oracle 'airy' (use 'mehler' or 'fresnel')",
     1, "evolve: parameter 'oracle' must be a str"),
    # the two texts of the windows row are new: the parent said "'morse_windows'
    # must list [start, end] pairs with start < end" for both
    ("evolve.morse_windows", "evolve", [[0.0, 0.1]], [[0.1, 0.0]],
     "evolve: parameter 'morse_windows' must list [start, end] pairs with start < end",
     {"a": 1}, "evolve: parameter 'morse_windows' must be a list of equal-length lists"),
    ("evolve.index_points", "evolve", 2, 1,
     "evolve: parameter 'index_points' must be in [2, 1024]",
     2.0, "evolve: parameter 'index_points' must be a int"),
    ("evolve.trajectory_samples", "evolve", 2, 1,
     "evolve: parameter 'trajectory_samples' must be in [2, 100000]",
     "9", "evolve: parameter 'trajectory_samples' must be a int"),
    ("evolve.tol", "evolve", TINY, 0.0, "evolve: parameter 'tol' must be > 0",
     "1e-10", "evolve: parameter 'tol' must be a float"),
]


def _config(row, base, value):
    command, params = BASES[base]
    params = copy.deepcopy(params)
    *record, name = re.sub(r"\[[^]]*\]", "", row).split(".")[1:]
    target = params
    for key in record:
        target = target[key]
    target[name] = value
    return command, params


def _run(capsys, tmp_path, command, params):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"params": params}))
    rc = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("row, base, inside, outside, outside_detail, wrong, wrong_detail",
                         CASES, ids=[c[0] for c in CASES])
def test_row_accepts_its_domain_and_rejects_the_rest(capsys, tmp_path, row, base, inside,
                                                      outside, outside_detail, wrong,
                                                      wrong_detail):
    rc, _, err = _run(capsys, tmp_path, *_config(row, base, inside))
    assert rc == 0, err
    for value, detail in ((outside, outside_detail), (wrong, wrong_detail)):
        if detail is None:
            continue
        rc, out, err = _run(capsys, tmp_path, *_config(row, base, value))
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "config", "exit_code": 2, "detail": detail}


def _tables():
    return {"index": cli._INDEX, "capacity": cli._CAPACITY, "nonsqueeze": cli._NONSQUEEZE,
            "quantize": cli._QUANTIZE, "evolve": cli._EVOLVE}


def _rows(where, table):
    # (row id, name, domain) for every row, through choices and nested records
    for name, _, _, domain, *_ in table:
        yield f"{where}.{name}", name, domain
        if isinstance(domain, dict):
            for choice, rows in domain.items():
                yield from _rows(f"{where}[{name}={choice}]", rows)
        elif isinstance(domain, list):
            yield from _rows(f"{where}.{name}", domain)


def test_every_table_row_has_a_case():
    declared = sorted(row for command, table in _tables().items()
                      for row, _, _ in _rows(command, table))
    assert sorted(c[0] for c in CASES) == declared


_SECTION = re.compile(r"^(\w+)\n((?:    .*\n)+)", re.M)
_MENTION = re.compile(r'``(\w+)``(?:\s+(in\s+[\[(][^\])]*[\])]|[<>]=?\s+[^\s,;)]+)'
                      r'|\s+((?:"\w+"\|)+"\w+"))?')


def _stated(doc):
    # per command: {name: (stated ranges, stated choice lists)}
    listing = doc.split("Commands and parameters\n-----------------------\n")[1]
    out = {}
    for command, text in _SECTION.findall(listing):
        names = out.setdefault(command, {})
        for name, interval, choices in _MENTION.findall(text):
            ranges, options = names.setdefault(name, (set(), set()))
            if interval:
                ranges.add(" ".join(interval.split()))
            if choices:
                options.add(tuple(choices.replace('"', "").split("|")))
    return out


def _declared(table):
    names = {}
    for _, name, domain in _rows("", table):
        ranges, options = names.setdefault(name, (set(), set()))
        if isinstance(domain, cli._In):
            ranges.add(str(domain))
        elif isinstance(domain, (tuple, dict)):
            options.add(tuple(domain))
    return names


def test_module_docstring_states_the_tables():
    stated = _stated(cli.__doc__)
    assert sorted(stated) == sorted(_tables())
    for command, table in _tables().items():
        assert stated[command] == _declared(table), command
