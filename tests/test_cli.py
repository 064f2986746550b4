"""End-to-end tests of the command-line front-end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symwave
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


def test_index_loop_circle_and_torus(capsys, tmp_path):
    env = envelope(capsys, ["index"], tmp_path,
                   {"params": {"task": "loop", "kind": "circle"}})
    assert env["results"]["loop_index"] == 2
    assert env["results"]["match"]

    env = envelope(capsys, ["index"], tmp_path,
                   {"params": {"task": "loop", "windings": [2, -1, 3],
                               "flat_dims": 1}})
    assert env["results"]["loop_index"] == 8 == env["results"]["closed_form"]

    rc, _, err = invoke(capsys, ["index"], tmp_path,
                        {"params": {"task": "loop", "kind": "circle",
                                    "windings": [3]}})
    assert rc == 2 and diagnostic(err)["error"] == "config"


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


def test_importing_the_cli_loads_no_scipy():
    # scipy costs every command process ~0.45 s, so it loads on first use
    src = str(Path(symwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, symwave.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
