"""End-to-end tests of the command-line front-end."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symwave
from symwave import cli
from symwave.cli import main


def invoke(capsys, argv, tmp_path=None, config=None):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    args = list(argv)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def envelope(capsys, argv, tmp_path=None, config=None):
    rc, out, err = invoke(capsys, argv, tmp_path, config)
    assert rc == 0, err
    env = json.loads(out)
    for key in ("config", "results", "version", "duration_seconds"):
        assert key in env
    return env


def diagnostic(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_index_grid_matches_closed_form(capsys, tmp_path):
    env = envelope(capsys, ["index"], tmp_path,
                   {"params": {"task": "grid", "theta_count": 12}})
    res = env["results"]
    assert res["all_match"] and res["mismatches"] == 0
    assert len(res["rows"]) == 144
    for row in res["rows"]:
        expect = math.floor((row["theta"] - row["theta_prime"]) / math.pi) + 1
        assert row["index"] == row["closed_form"] == expect
    assert env["config"]["params"]["theta_min"] == -6.0  # defaults echoed


@pytest.mark.parametrize("count", [1, 2001])
def test_index_grid_size_past_its_memory_bound_is_a_config_error(capsys, tmp_path, count):
    # 2,000 angles peak near 1 GiB; a larger grid is rejected before any pair is read
    rc, out, err = invoke(capsys, ["index"], tmp_path,
                          {"params": {"task": "grid", "theta_count": count}})
    assert rc == 2 and out == ""
    diag = diagnostic(err)
    assert diag["error"] == "config" and "[2, 2000]" in diag["detail"]


def _index_peak_mib(tmp_path, params):
    # (peak RSS in MiB, results) of one `symwave index` process
    config = tmp_path / "index.json"
    config.write_text(json.dumps({"params": params}))
    out = tmp_path / "index.out.json"
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Linux starts a child's peak RSS at its parent's RSS at the fork, so a
    # small launcher forks the command, not this test process
    launcher = ("import os, subprocess, sys; "
                "p = subprocess.Popen([sys.executable, '-m', 'symwave.cli', 'index', "
                "'--config', sys.argv[1], '--out', sys.argv[2]]); "
                "_, status, usage = os.wait4(p.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", launcher, str(config), str(out)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = (int(v) for v in proc.stdout.split())
    assert code == 0, proc.stderr
    return peak_kib / 1024, json.loads(out.read_text())["results"]


def test_index_grid_streams_its_output_in_bounded_memory(tmp_path):
    # 300 angles peaked at 180 MiB while the output was copied and joined in
    # memory before writing; streamed, about 63 MiB
    peak, results = _index_peak_mib(tmp_path, {"task": "grid", "theta_count": 300})
    assert peak < 120
    assert results["all_match"]


def test_index_identities_memory_does_not_grow_with_trials(tmp_path):
    # the triples are checked in blocks of cli._IDENTITY_BLOCK, so ten blocks
    # peak where one does (about 43 MiB at n = 6)
    peaks = []
    for blocks in (1, 10):
        params = {"task": "identities", "dims": [6], "trials": blocks * cli._IDENTITY_BLOCK}
        peak, results = _index_peak_mib(tmp_path, params)
        assert results["all_exact"]
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0]


def test_index_loop_circle_and_torus(capsys, tmp_path, monkeypatch):
    env = envelope(capsys, ["index"], tmp_path,
                   {"params": {"task": "loop", "kind": "circle"}})
    assert env["results"]["loop_index"] == 2
    assert env["results"]["match"]

    # the tangent planes read the loop record independently; at the default
    # 33 samples the [8] * 8 loop aliased to 0
    for windings, flat_dims, want in (([2, -1, 3], 1, 8), ([1], 0, 2), ([8] * 8, 2, 128),
                                      ([3, 5], 0, 16), ([-1], 0, -2), ([64, -64], 0, 0)):
        res = envelope(capsys, ["index"], tmp_path,
                       {"params": {"task": "loop", "windings": windings,
                                   "flat_dims": flat_dims}})["results"]
        assert res["loop_index"] == res["tangent_index"] == want and res["match"]

    rc, _, err = invoke(capsys, ["index"], tmp_path,
                        {"params": {"task": "loop", "kind": "circle",
                                    "windings": [3]}})
    assert rc == 2 and diagnostic(err)["error"] == "config"
    # the tangent read samples 4 sum|mu| + 2 planes, so a winding is bounded
    rc, _, err = invoke(capsys, ["index"], tmp_path,
                        {"params": {"task": "loop", "windings": [65]}})
    assert rc == 2 and "in [-64, 64]" in diagnostic(err)["detail"]

    # a loop record off by one turn is caught
    monkeypatch.setattr(cli.TorusManifold, "loop_index", lambda self, mu: 2 * sum(mu) + 2)
    res = envelope(capsys, ["index"], tmp_path,
                   {"params": {"task": "loop", "windings": [3, 5]}})["results"]
    assert (res["loop_index"], res["tangent_index"], res["match"]) == (18, 16, False)


def test_index_identities_all_exact(capsys, tmp_path):
    env = envelope(capsys, ["index", "--seed", "11"], tmp_path,
                   {"params": {"task": "identities", "dims": [1, 2],
                               "trials": 40}})
    res = env["results"]
    assert res["all_exact"]
    for row in res["rows"]:
        assert row["cocycle_failures"] == 0
        assert row["self_index_failures"] == 0
        assert row["deck_shift_failures"] == 0


def test_capacity_closed_forms(capsys, tmp_path):
    env = envelope(capsys, ["capacity"], tmp_path,
                   {"params": {"radii": [1.0, 2.0]}})
    res = env["results"]
    assert res["capacity"] == pytest.approx(math.pi, abs=0)
    assert res["normalization_consistent"]

    env = envelope(capsys, ["capacity"], tmp_path,
                   {"params": {"ball": {"n": 2, "R": 1.0}}})
    res = env["results"]
    assert res["volume"] == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
    assert res["volume_matches_ball"]
    assert env["config"]["params"]["radii"] == [1.0, 1.0]


def test_capacity_config_errors(capsys, tmp_path):
    rc, _, err = invoke(capsys, ["capacity"], tmp_path,
                        {"params": {"radii": [0.0, 1.0]}})
    assert rc == 2
    assert "positive" in diagnostic(err)["detail"]

    rc, _, err = invoke(capsys, ["capacity"], tmp_path, {"params": {}})
    assert rc == 2

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, _, err = invoke(capsys, ["capacity", "--config", str(bad)])
    assert rc == 2 and "not valid JSON" in diagnostic(err)["detail"]

    rc, _, err = invoke(capsys, ["capacity"], tmp_path,
                        {"command": "quantize", "params": {"radii": [1.0]}})
    assert rc == 2 and "quantize" in diagnostic(err)["detail"]

    rc, _, err = invoke(capsys, ["capacity"], tmp_path,
                        {"params": {"radii": [1.0], "bogus": 1}})
    assert rc == 2 and "bogus" in diagnostic(err)["detail"]


@pytest.mark.parametrize("params, key", [
    ({"radii": [1e300, 1e300]}, "radii"),  # pi r^2 overflows
    ({"ball": {"n": 2, "R": 1e300}}, "'R'"),
    ({"radii": [1.0] * 200}, "radii"),  # n! is past the largest float
    ({"ball": {"n": 400, "R": 1.0}}, "'n'"),
    ({"ball": {"n": 30, "R": 1e6}}, "'n'"),  # R^2n overflows
], ids=["radii-1e300", "ball-R-1e300", "200-radii", "ball-n-400", "ball-n-30"])
def test_capacity_extremes_are_config_errors(capsys, tmp_path, params, key):
    rc, out, err = invoke(capsys, ["capacity"], tmp_path, {"params": params})
    assert rc == 2 and out == ""
    diag = diagnostic(err)
    assert diag["error"] == "config" and key in diag["detail"]


def test_unknown_command_is_a_config_error(capsys):
    rc, _, err = invoke(capsys, ["frobnicate"])
    assert rc == 2 and diagnostic(err)["error"] == "config"


def test_nonsqueeze_small_batch(capsys, tmp_path):
    config = {"seed": 3, "params": {"n": 2, "maps": 2, "grid_res": 128,
                                    "samples": 60000, "controls": True}}
    env = envelope(capsys, ["nonsqueeze"], tmp_path, config)
    res = env["results"]
    assert res["reference_area"] == pytest.approx(math.pi, abs=0)
    for entry in res["calibration"]:
        assert entry["relative_error"] < 0.05
    exp = res["experiment"]
    assert exp["all_pass"]
    assert exp["min_conjugate_area"] >= math.pi * 0.95
    assert exp["maps"][0]["controls"]  # mixed-plane table present

    # calibration-only run skips the batch entirely
    env = envelope(capsys, ["nonsqueeze"], tmp_path,
                   {"params": {"maps": 0, "grid_res": 64, "samples": 5000}})
    assert env["results"]["experiment"] is None
    assert len(env["results"]["calibration"]) == 2


@pytest.mark.parametrize("seed", [1, 42])
def test_nonsqueeze_passes_the_shadows_benchmark_check(seed):
    # the benchmark's own check of its shadows workload, which allows the
    # calibration 1%: a drift past it shows here before a benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.Shadows(seed)
    _, results, _ = cli.run_nonsqueeze(workload.config, seed)
    assert workload.check(json.loads(json.dumps(results))) == 0


def test_results_payload_is_deterministic(capsys, tmp_path):
    config = {"seed": 5, "params": {"n": 2, "maps": 1, "grid_res": 64,
                                    "samples": 8000}}
    first = envelope(capsys, ["nonsqueeze"], tmp_path, config)
    second = envelope(capsys, ["nonsqueeze"], tmp_path, config)
    assert (json.dumps(first["results"], sort_keys=True)
            == json.dumps(second["results"], sort_keys=True))

    # CSV output is reproducible as a whole file (no timing fields)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc, _, err = invoke(capsys, ["nonsqueeze", "--format", "csv",
                                     "--out", str(out)], tmp_path, config)
        assert rc == 0, err
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# symwave ")
    assert lines[1] == "map,plane,area,corrected_area,passed"


def test_quantize_generator_report(capsys, tmp_path):
    hbar = 0.5
    config = {"params": {"hbar": hbar,
                         "radii_squared": [hbar, 3 * hbar, 2 * hbar],
                         "omegas": [1.0, 2.0, 3.0], "contrast": True}}
    env = envelope(capsys, ["quantize"], tmp_path, config)
    res = env["results"]
    gens = res["generators"]
    assert [g["passed"] for g in gens] == [True, True, False]
    assert [g["level"] for g in gens][:2] == [0, 1]
    assert gens[2]["residual"] == pytest.approx(0.5, abs=1e-12)
    assert not res["quantized"]
    assert res["torus_energy"] is None
    assert res["ground_energy"] == pytest.approx(3.0 * hbar, abs=0)
    assert all("contrast_level" in g for g in gens)


def test_quantize_spectrum_scan(capsys, tmp_path):
    env = envelope(capsys, ["quantize"], tmp_path,
                   {"params": {"hbar": 1.0, "spectrum_n_max": 2,
                               "contrast": True}})
    spec = env["results"]["spectrum"]
    assert np.allclose(spec["energies"], [0.5, 1.5, 2.5], atol=1e-9)
    assert np.allclose(spec["contrast_energies"], [1.0, 2.0, 3.0], atol=1e-9)

    rc, _, err = invoke(capsys, ["quantize"], tmp_path, {"params": {}})
    assert rc == 2

    rc, _, err = invoke(capsys, ["quantize"], tmp_path,
                        {"params": {"hbar": -1.0, "spectrum_n_max": 1}})
    assert rc == 2


def test_evolve_harmonic_gaussian_with_oracle(capsys, tmp_path):
    config = {"params": {
        "hamiltonian": {"kind": "harmonic", "omegas": [1.0]},
        "state": {"phi": [0.0, 0.03, 0.05], "amplitude": "gaussian",
                  "sigma": 0.8, "x0": 0.1},
        "hbar": 1e-8, "t_end": 0.3, "steps": 400,
        "x_grid": {"min": -2.5, "max": 2.5, "count": 129},
        "oracle": "mehler",
        "morse_windows": [[0.0, 1.2], [0.0, 4.8], [0.0, 7.0]],
    }}
    env = envelope(capsys, ["evolve"], tmp_path, config)
    res = env["results"]
    assert res["oracle"]["relative_l2_error"] <= 1e-6
    assert [m["count"] for m in res["morse"]] == [0, 1, 2]
    assert res["trajectory"]["symplectic_defect"] < 1e-10
    # transported phase accumulates exactly the flow action
    assert (res["phase"]["end"] - res["phase"]["start"]
            == pytest.approx(res["trajectory"]["action"], abs=1e-12))
    assert all(row["index_start"] == 0 for row in res["index_field"])
    assert len(res["shadow"]["values"]) == 129
    value = res["shadow"]["values"][64]
    assert set(value) == {"re", "im"}

    env2 = envelope(capsys, ["evolve"], tmp_path, config)
    assert (json.dumps(env["results"], sort_keys=True)
            == json.dumps(env2["results"], sort_keys=True))


def test_evolve_free_particle_fresnel_oracle(capsys, tmp_path):
    config = {"params": {
        "hamiltonian": {"kind": "free"},
        "state": {"phi": [0.0, 0.2, 0.04], "sigma": 1.1},
        "hbar": 1e-8, "t_end": 0.7,
        "x_grid": {"min": -2.0, "max": 2.0, "count": 65},
        "oracle": "fresnel",
    }}
    env = envelope(capsys, ["evolve"], tmp_path, config)
    assert env["results"]["oracle"]["relative_l2_error"] <= 1e-6


def test_evolve_csv_table(capsys, tmp_path):
    config = {"params": {
        "hamiltonian": {"kind": "harmonic"},
        "state": {"phi": [0.0, 0.0, 0.1]},
        "hbar": 1e-6, "t_end": 0.4,
        "x_grid": {"min": -1.0, "max": 1.0, "count": 17},
        "oracle": "mehler",
    }}
    rc, out, err = invoke(capsys, ["evolve", "--format", "csv"], tmp_path,
                          config)
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[1] == "x,re,im,oracle_re,oracle_im,abs_error"
    assert len(lines) == 2 + 17
    first = lines[2].split(",")
    assert float(first[0]) == -1.0
    assert float(first[5]) < 1e-5


def test_evolve_error_paths(capsys, tmp_path):
    base = {"params": {
        "hamiltonian": {"kind": "harmonic"},
        "state": {"phi": [0.0, 0.0, 0.15], "amplitude": "constant"},
        "hbar": 0.05, "t_end": 0.3,
        "x_grid": {"min": -1.0, "max": 1.0, "count": 9},
    }}
    rc, _, err = invoke(capsys, ["evolve"], tmp_path, base)
    assert rc == 0, err

    empty = json.loads(json.dumps(base))
    empty["params"]["x_grid"]["count"] = 0
    rc, _, err = invoke(capsys, ["evolve"], tmp_path, empty)
    assert rc == 2 and "empty grid" in diagnostic(err)["detail"]

    # a conjugate point inside the window is a numerical failure (exit 3)
    caustic = json.loads(json.dumps(base))
    caustic["params"]["t_end"] = float(math.pi)
    rc, _, err = invoke(capsys, ["evolve"], tmp_path, caustic)
    assert rc == 3
    assert diagnostic(err)["error"] == "numerical"
    assert "conjugate point" in diagnostic(err)["detail"]

    # 128 caustics in a long window: the quadratic scan takes enough steps
    # to see them (a fixed 64-step scan saw none and exited 0)
    long = json.loads(json.dumps(base))
    long["params"]["t_end"] = 403.1238898038469
    long["params"]["x_grid"] = {"min": 0.2, "max": 0.2, "count": 1}
    rc, out, err = invoke(capsys, ["evolve"], tmp_path, long)
    assert rc == 3 and out == ""
    assert "conjugate point" in diagnostic(err)["detail"]

    # oracle outside its validity window
    late = json.loads(json.dumps(base))
    late["params"]["oracle"] = "mehler"
    late["params"]["t_end"] = 3.5
    rc, _, err = invoke(capsys, ["evolve"], tmp_path, late)
    assert rc == 2

    # oracle needs quadratic phase data
    cubic = json.loads(json.dumps(base))
    cubic["params"]["oracle"] = "mehler"
    cubic["params"]["state"]["phi"] = [0.0, 0.0, 0.1, 0.2]
    rc, _, err = invoke(capsys, ["evolve"], tmp_path, cubic)
    assert rc == 2 and "quadratic" in diagnostic(err)["detail"]


def test_seed_flag_overrides_config(capsys, tmp_path):
    config = {"seed": 1, "params": {"task": "identities", "dims": [1],
                                    "trials": 5}}
    env = envelope(capsys, ["index", "--seed", "99"], tmp_path, config)
    assert env["config"]["seed"] == 99
    env = envelope(capsys, ["index"], tmp_path, config)
    assert env["config"]["seed"] == 1


def test_tol_flag_reaches_the_runner(capsys, tmp_path):
    config = {"params": {"hbar": 1.0, "radii_squared": [1.0 + 5e-7]}}
    env = envelope(capsys, ["quantize"], tmp_path, config)
    assert not env["results"]["generators"][0]["passed"]
    env = envelope(capsys, ["quantize", "--tol", "1e-3"], tmp_path, config)
    assert env["results"]["generators"][0]["passed"]
    assert env["config"]["params"]["tol"] == 1e-3


def test_console_script_entry_point(tmp_path):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({"params": {"radii": [1.0, 2.0]}}))
    # the child process imports the same package as this test process
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "symwave.cli", "capacity", "--config",
         str(config)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["capacity"] == pytest.approx(
        math.pi, abs=0)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # no command path needs scipy: each one would pay ~0.4 s just to load it
    configs = {
        "nonsqueeze": {"n": 2, "maps": 1, "grid_res": 32, "samples": 5000, "controls": True},
        "index": {"task": "identities", "dims": [1, 2], "trials": 2},
        "evolve": {"hamiltonian": {"kind": "quadratic", "matrix": [[1.0, 0.2], [0.2, 1.0]]},
                   "state": {"phi": [0.0, 0.0, 0.15]}, "hbar": 0.05, "t_end": 0.3,
                   "steps": 30, "x_grid": {"min": -0.2, "max": 0.2, "count": 3},
                   "morse_windows": [[0.0, 0.3]]},
        "quantize": {"hbar": 0.5, "radii_squared": [0.5], "omegas": [1.0],
                     "spectrum_n_max": 1, "scan_divisions": 10},
    }
    runs = []
    for command, params in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"params": params}))
        runs.append([command, "--config", str(path), "--out", str(tmp_path / f"{command}.out")])
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, symwave.cli; "
              f"print([symwave.cli.main(argv) for argv in {runs!r}]); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0]", "[]"]


@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_threads_default_to_one_unless_set(preset):
    # importing symwave before numpy sets OPENBLAS_NUM_THREADS=1 only when it is unset
    src = str(Path(symwave.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = ("import os, symwave, numpy; tasks = '/proc/self/task'; "
              "print(os.environ['OPENBLAS_NUM_THREADS'], "
              "len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"  # numpy loaded without a BLAS worker pool


@pytest.mark.parametrize("command, params", [
    ("evolve", {"t_end": math.nan}),
    ("evolve", {"t_end": math.inf}),
    ("evolve", {"t_end": 10**400}),  # a json integer no float holds
    ("quantize", {"hbar": 1.0, "omegas": [1.0, math.nan]}),
    ("evolve", {"t_end": 1.0, "morse_windows": [[0, 1e400]]}),  # json Infinity
    ("evolve", {"t_end": 1.0, "hamiltonian": {"kind": "quadratic",
                                              "matrix": [[math.inf, 0], [0, 1]]}}),
])
def test_non_finite_numbers_are_config_errors(capsys, tmp_path, command, params):
    base = {"evolve": {"hamiltonian": {"kind": "harmonic"},
                       "state": {"phi": [0.0, 0.0, 0.15]}, "hbar": 0.05,
                       "x_grid": {"min": -1.0, "max": 1.0, "count": 9}},
            "quantize": {}}[command]
    # json writes NaN and Infinity, and reads them back
    rc, out, err = invoke(capsys, [command], tmp_path, {"params": {**base, **params}})
    assert rc == 2 and out == ""
    diag = diagnostic(err)
    assert diag["error"] == "config" and "must be finite" in diag["detail"]


@pytest.mark.parametrize("matrix, detail", [
    ([[{"x": 1}, 0], [0, 1]], "must hold numbers"),  # was a TypeError traceback
    ([[True, 0], [0, 1]], "must hold numbers"),  # ran as 1.0
    ([[1, 0], [0]], "must be a list of equal-length lists"),
    ([1, 0], "must be a list of equal-length lists"),
], ids=["dict", "bool", "ragged", "flat"])
def test_malformed_matrix_is_a_config_error(capsys, tmp_path, matrix, detail):
    params = {"hamiltonian": {"kind": "quadratic", "matrix": matrix},
              "state": {"phi": [0.0, 0.0, 0.15]}, "hbar": 0.05, "t_end": 0.3, "shadow": False}
    rc, out, err = invoke(capsys, ["evolve"], tmp_path, {"params": params})
    assert rc == 2 and out == ""
    assert diagnostic(err)["detail"] == f"evolve.hamiltonian: parameter 'matrix' {detail}"


@pytest.mark.parametrize("argv, config", [
    (["index", "--seed", "-1"], {"params": {"task": "grid", "theta_count": 2}}),
    (["nonsqueeze", "--seed", "-5"], {"params": {"maps": 0, "calibration": False}}),
    (["capacity"], {"seed": -1, "params": {"radii": [1.0]}}),
])
def test_negative_seed_is_a_config_error(capsys, tmp_path, argv, config):
    # numpy's default_rng raised ValueError for it, a traceback with exit 1
    rc, out, err = invoke(capsys, argv, tmp_path, config)
    assert rc == 2 and out == ""
    assert diagnostic(err)["detail"] == "'seed' must be a non-negative integer"


_EVOLVE_BASE = {"hamiltonian": {"kind": "harmonic"}, "state": {"phi": [0.0, 0.0, 0.15]},
                "hbar": 0.05, "shadow": False}


def _child_error(tmp_path, command, params, code):
    # the child's whole stderr, which must be one JSON line: no warning, no traceback
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": params}))
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "symwave.cli", command, "--config", str(config)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    return json.loads(proc.stderr)


def _config_error(tmp_path, command, params):
    return _child_error(tmp_path, command, params, 2)


@pytest.mark.parametrize("command, params, detail", [
    ("evolve", {**_EVOLVE_BASE, "t_start": -1e308, "t_end": 1e308},
     "evolve: t_end - t_start must be finite"),
    ("evolve", {**_EVOLVE_BASE, "t_end": 1.0, "morse_windows": [[-1e308, 1e308]]},
     "evolve: each 'morse_windows' length must be finite"),
    # np.linspace overflowed on the span: LinAlgError, exit 1
    ("index", {"task": "grid", "theta_min": -1e308, "theta_max": 1e308},
     "index: theta_max - theta_min must be finite"),
], ids=["t-span", "window", "theta-span"])
def test_overflowing_spans_are_config_errors(tmp_path, command, params, detail):
    # each evolve span printed numpy overflow warnings and exited 3 with "last valid time nan"
    assert _config_error(tmp_path, command, params) == {
        "error": "config", "exit_code": 2, "detail": detail}


@pytest.mark.parametrize("hamiltonian", [
    {"kind": "harmonic", "omegas": [1e200]},
    {"kind": "quartic", "omegas": [1e200], "coupling": 0.1},
], ids=["harmonic", "quartic"])
def test_overflowing_hamiltonian_is_a_config_error(tmp_path, hamiltonian):
    # omega^2 overflowed: overflow warnings, then exit 3 with "last valid time 0"
    params = {**_EVOLVE_BASE, "hamiltonian": hamiltonian, "t_end": 1.0}
    assert _config_error(tmp_path, "evolve", params) == {
        "error": "config", "exit_code": 2,
        "detail": "evolve.hamiltonian: frequencies and masses must be finite, "
                  "and so must m omega^2 and 1/m"}


@pytest.mark.parametrize("entry", [1e150, 1e200])
def test_overflowing_quadratic_step_exponential_is_named(tmp_path, entry):
    # H = entry x p over t_end = 1e6 / entry passes the turn-bound check, but
    # each of its 1,000 steps stretches x by e^1000, so squaring expm(dt J M)
    # overflows; unnamed, that was two RuntimeWarnings, then exit 3 with "flow
    # left the finite phase space; last valid time 0"
    params = {**_EVOLVE_BASE, "t_end": 1e6 / entry,
              "hamiltonian": {"kind": "quadratic", "matrix": [[0.0, entry], [entry, 0.0]]}}
    diag = _child_error(tmp_path, "evolve", params, 3)
    assert diag["error"] == "numerical"
    assert diag["detail"] == ("the quadratic step exponential expm(dt J M) overflowed at "
                              f"dt = {1e3 / entry:.9g}; M is too stiff for this step")


@pytest.mark.parametrize("hamiltonian, bound", [
    ({"kind": "quadratic", "matrix": [[1e20, 0.0], [0.0, 1.0]]}, "1e+14"),
    ({"kind": "quadratic", "matrix": [[1e150, 0.0], [0.0, 1.0]]}, "1e+144"),
    ({"kind": "harmonic", "omegas": [1e4]}, "100"),
], ids=["stiff", "step-overflow", "harmonic"])
def test_generator_too_stiff_for_any_steps_is_a_config_error(tmp_path, hamiltonian, bound):
    # [[1e20, 0], [0, 1]] exited 3 with "flow left the finite phase space;
    # last valid time 0.084", and [[1e150, 0], [0, 1]] overflowed its step
    # exponential.  Even 1e6 steps would each turn arg det u by more than pi
    params = {**_EVOLVE_BASE, "hamiltonian": hamiltonian, "t_end": 1.0}
    assert _config_error(tmp_path, "evolve", params) == {
        "error": "config", "exit_code": 2,
        "detail": f"evolve: the turn bound n ||M||_2 |t_end - t_start| / 1e6 = {bound} "
                  "reaches pi, so no steps value can certify a step"}


def test_evolve_loads_no_masked_arrays(tmp_path):
    # np.unique imported numpy.ma on its first call: some 8 ms of every run
    params = {**_EVOLVE_BASE, "t_end": 0.3, "steps": 30, "trajectory_samples": 40}
    config = tmp_path / "evolve.json"
    config.write_text(json.dumps({"params": params}))
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, symwave.cli; "
              f"print(symwave.cli.main(['evolve', '--config', {str(config)!r}, "
              f"'--out', {str(tmp_path / 'evolve.out')!r}]), 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    samples = json.loads((tmp_path / "evolve.out").read_text())["results"]["trajectory"]["samples"]
    assert [row["t"] for row in samples] == [k / 100 for k in range(31)]


def test_too_coarse_quartic_evolve_is_a_numerical_error(tmp_path):
    # one step over [0, 20] exited 0 with index_end 0 at theta = -2, 0 and 2,
    # where 4,000 steps give -10, -6 and -10
    params = {**_EVOLVE_BASE, "hamiltonian": {"kind": "quartic"}, "t_end": 20.0, "steps": 1}
    diag = _child_error(tmp_path, "evolve", params, 3)
    assert diag["error"] == "numerical"
    assert diag["detail"].startswith("sampled path too coarse: step 1 may turn arg det u by")


@pytest.mark.parametrize("command, params", [
    # 2 sigma^2 underflowed to 0: ZeroDivisionError, exit 1
    ("evolve", {**_EVOLVE_BASE, "state": {"phi": [0.0, 0.0, 0.15], "sigma": 1e-200},
                "t_end": 0.3, "shadow": True, "x_grid": {"min": -0.1, "max": 0.1, "count": 3}}),
    # the oracle's sigma ** 2 overflowed: OverflowError, exit 1
    ("evolve", {**_EVOLVE_BASE, "state": {"phi": [0.0, 0.0, 0.15], "sigma": 1e200},
                "t_end": 0.3, "shadow": True, "oracle": "mehler",
                "x_grid": {"min": -0.1, "max": 0.1, "count": 3}}),
    # the scanned radii underflowed to 0: ValueError, exit 1
    ("quantize", {"hbar": 5e-324, "spectrum_n_max": 1}),
    # the scanned radii overflowed: ValueError on NaN, exit 1
    ("quantize", {"hbar": 1e308, "spectrum_n_max": 1}),
], ids=["tiny-sigma", "huge-sigma", "tiny-hbar", "huge-hbar"])
def test_values_past_normal_float_arithmetic_are_config_errors(tmp_path, command, params):
    detail = {"evolve": "evolve.state: parameter 'sigma' must be in [1e-100, 1e100]",
              "quantize": "quantize: parameter 'hbar' must be in [1e-300, 1e300]"}[command]
    assert _config_error(tmp_path, command, params) == {
        "error": "config", "exit_code": 2, "detail": detail}


def test_tiny_evolve_hbar_is_a_config_error(tmp_path):
    # hbar 5e-324 exited 0 with NaN in shadow.values and the oracle's error
    params = {**_EVOLVE_BASE, "hbar": 5e-324, "t_end": 0.3, "shadow": True,
              "oracle": "mehler", "x_grid": {"min": -0.1, "max": 0.1, "count": 3}}
    assert _config_error(tmp_path, "evolve", params) == {
        "error": "config", "exit_code": 2,
        "detail": "evolve: parameter 'hbar' must be in [1e-300, 1e300]"}


@pytest.mark.parametrize("command, params, detail", [
    # these ran into a TypeError traceback, or turned a switch off
    ("index", {"theta_count": None}, "index: parameter 'theta_count' must be a int"),
    ("evolve", {"t_start": None}, "evolve: parameter 't_start' must be a float"),
    ("evolve", {"shadow": None}, "evolve: parameter 'shadow' must be a bool"),
    ("evolve", {"hamiltonian": None}, "evolve: parameter 'hamiltonian' must be a dict"),
], ids=["theta_count", "t_start", "shadow", "hamiltonian"])
def test_null_is_a_config_error_where_the_default_is_not_null(capsys, tmp_path, command,
                                                              params, detail):
    base = {"index": {}, "evolve": {"hamiltonian": {"kind": "harmonic"},
                                    "state": {"phi": [0.0]}, "hbar": 0.05, "t_end": 0.3}}
    rc, out, err = invoke(capsys, [command], tmp_path, {"params": {**base[command], **params}})
    assert rc == 2 and out == ""
    assert diagnostic(err)["detail"] == detail
    # null stays the value of a parameter whose default is null
    env = envelope(capsys, ["evolve"], tmp_path, {"params": {
        **base["evolve"], "shadow": False, "x_grid": None, "oracle": None}})
    assert env["config"]["params"]["x_grid"] is None


def test_x_grid_is_checked_without_the_shadow(capsys, tmp_path):
    params = {"hamiltonian": {"kind": "harmonic"}, "state": {"phi": [0.0]}, "hbar": 0.05,
              "t_end": 0.3, "shadow": False, "x_grid": {"min": 1.0, "max": -1.0, "count": 3}}
    rc, out, err = invoke(capsys, ["evolve"], tmp_path, {"params": params})
    assert rc == 2 and out == ""
    assert diagnostic(err)["detail"] == "evolve: x_grid.max must exceed x_grid.min"


@pytest.mark.parametrize("params, rc", [
    ({"n": 1, "R": 1e-300, "maps": 0}, 2),  # pi R^2 underflows to 0
    ({"n": 1, "R": 1e300, "maps": 0}, 2),  # pi R^2 and the cell area overflow
    ({"n": 1, "R": 1e300, "maps": 1}, 2),
    # accepted, but a map sends the ball past the largest float
    ({"n": 2, "R": 1e6, "maps": 3, "stages": [20, 50]}, 3),
])
def test_nonsqueeze_extremes_end_in_a_diagnostic(capsys, tmp_path, params, rc):
    config = {"params": {**params, "samples": 1000, "grid_res": 16}}
    code, out, err = invoke(capsys, ["nonsqueeze"], tmp_path, config)
    assert code == rc and out == ""
    assert diagnostic(err)["exit_code"] == rc


# The writer before output was streamed, kept as the byte-for-byte reference:
# a converted copy of the whole envelope, joined into one string.
def _reference_jsonable(obj):
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_json(cfg, resolved, results, duration):
    env = {"config": {**cfg, "params": _reference_jsonable(resolved)},
           "results": _reference_jsonable(results), "version": symwave.__version__,
           "duration_seconds": duration}
    return json.dumps(env, sort_keys=True, indent=2) + "\n"


def _reference_csv(cfg, resolved, table):
    buf = io.StringIO()
    meta = {"command": cfg["command"], "params": _reference_jsonable(resolved),
            "seed": cfg["seed"], "version": symwave.__version__}
    buf.write("# symwave " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    fields, rows = table
    writer = csv.DictWriter(buf, fieldnames=list(fields), restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


_ODD_LEAVES = {
    "flags": [np.bool_(True), np.False_, True],
    "ints": (np.int64(-3), np.int32(7), np.uint8(255), 10**20),
    "floats": [np.float32(0.1), np.float64(1 / 3), 2.5, -0.0, 1e-310],
    "special": [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf")],
    "complex": [1 + 2j, np.complex128(-0.5 + 1e-17j), np.complex64(3 - 4j)],
    "arrays": {"real": np.linspace(0.0, 1.0, 5), "ints": np.arange(4).reshape(2, 2),
               "complex": np.array([1j, 2 - 1j, math.nan + 0j]),
               "special": np.array([math.inf, -math.inf, 0.25]), "empty": np.zeros((0, 3))},
    "nested": {"b": {"z": [(), ({"y": None, "x": "text"},)]}, "a": np.bool_(False)},
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_streamed_json_is_the_bytes_of_the_copied_envelope(capsys, tmp_path, monkeypatch,
                                                             to_file):
    resolved = {"weights": (np.float64(0.5), 2), "tol": 0.0}
    table = (("quantity", "value"), [])
    monkeypatch.setitem(cli._RUNNERS, "capacity",
                        lambda params, seed: (resolved, _ODD_LEAVES, table))
    target = tmp_path / "odd.json"
    argv = ["capacity", "--seed", "5"] + (["--out", str(target)] if to_file else [])
    rc, out, err = invoke(capsys, argv)
    assert rc == 0, err
    text = target.read_text(encoding="utf-8") if to_file else out
    duration = json.loads(text)["duration_seconds"]
    cfg = {"command": "capacity", "seed": 5,
           "output": {"path": str(target) if to_file else None, "format": "json"}}
    assert text == _reference_json(cfg, resolved, _ODD_LEAVES, duration)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_streamed_grid_is_the_bytes_of_the_copied_envelope(capsys, tmp_path, to_file):
    params = {"task": "grid", "theta_count": 12}
    resolved, results, table = cli.run_index(dict(params), 3)
    target = tmp_path / "grid.out"
    cfg = {"command": "index", "seed": 3,
           "output": {"path": str(target) if to_file else None, "format": "json"}}
    for fmt in ("json", "csv"):
        cfg["output"]["format"] = fmt
        argv = ["index", "--seed", "3", "--format", fmt]
        argv += ["--out", str(target)] if to_file else []
        rc, out, err = invoke(capsys, argv, tmp_path, {"params": params})
        assert rc == 0, err
        text = target.read_text(encoding="utf-8") if to_file else out
        if fmt == "json":
            duration = json.loads(text)["duration_seconds"]
            assert text == _reference_json(cfg, resolved, results, duration)
        else:
            assert text == _reference_csv(cfg, resolved, table)
