"""Tests of the benchmark's own checkers, scoring and tracing.

Each checker accepts an output built from its own reference and rejects the
same output with one value corrupted.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, EvolveQuartic, IndexGrid, IndexIdentities, Shadows  # noqa: E402


def grid_output(w):
    thetas = np.linspace(w.lo, w.hi, w.count)
    rows = [{"theta": float(a), "theta_prime": float(b),
             "index": math.floor((a - b) / math.pi) + 1}
            for a in thetas for b in thetas]
    return {"task": "grid", "rows": rows}


def shadow_output(w):
    ref = math.pi * w.radius ** 2
    planes = [f"x{j + 1}p{j + 1}" for j in range(w.n)]
    return {
        "calibration": [{"plane": p, "corrected_area": ref * 0.997} for p in planes],
        "experiment": {"maps": [{"map": k, "planes": [{"plane": p, "corrected_area": ref * 0.998}
                                                      for p in planes]}
                                for k in range(w.maps)]},
    }


def evolve_output(w):
    return {
        "trajectory": {"samples": [{"t": w.t_end, "x": w.endpoint[0], "p": w.endpoint[1],
                                    "action": w.action}],
                       "action": w.action},
        "shadow": {"x": [float(x) for x in w.xs],
                   "values": [{"re": v.real, "im": v.imag} for v in w.shadow]},
        "morse": [{"t_start": a, "t_end": b, "count": c, "note": ""}
                  for (a, b), c in zip(w.windows, w.morse)],
        "index_field": [{"theta": float(th), "index_start": 0, "index_end": m}
                        for th, m in zip(w.thetas, w.index_end)],
    }


@pytest.fixture(scope="module")
def evolve():
    return EvolveQuartic(0)


def test_grid_rejects_index_shifted_by_one():
    w = IndexGrid(0)
    out = grid_output(w)
    assert w.check(out) == 0
    out["rows"][7]["index"] += 1
    assert w.check(out) == 1
    del out["rows"][-3:]
    assert w.check(out) == 4


def test_identities_counts_failures_per_dimension():
    w = IndexIdentities(0)
    rows = [{"n": n, "trials": w.trials, "cocycle_failures": 0,
             "self_index_failures": 0, "deck_shift_failures": 0} for n in w.dims]
    assert w.check({"rows": rows}) == 0
    rows[1]["self_index_failures"] = 2
    assert w.check({"rows": rows}) == 2
    assert w.check({"rows": rows[:2]}) == 2 + 6 * w.trials


def test_shadows_rejects_squeezed_conjugate_area():
    w = Shadows(0)
    out = shadow_output(w)
    assert w.check(out) == 0
    out["experiment"]["maps"][0]["planes"][1]["corrected_area"] = 0.94 * math.pi
    assert w.check(out) == 1
    out["calibration"][0]["corrected_area"] = 1.02 * math.pi  # calibration off by 2%
    assert w.check(out) == 2


def test_evolve_windows_span_zero_one_two_focal_points(evolve):
    assert evolve.morse == [0, 1, 2]
    assert evolve.index_end == [0] * evolve.index_points


def test_evolve_rejects_morse_count_off_by_one(evolve):
    out = evolve_output(evolve)
    assert evolve.check(out) == 0
    out["morse"][1]["count"] += 1
    assert evolve.check(out) == 1


def test_evolve_rejects_flipped_shadow_phase(evolve):
    out = evolve_output(evolve)
    v = out["shadow"]["values"][2]
    v["re"], v["im"] = -v["re"], -v["im"]
    assert evolve.check(out) == 1
    out = evolve_output(evolve)
    out["shadow"]["values"][3]["im"] *= -1  # conjugated: phase sign flipped
    assert evolve.check(out) == 1


def test_evolve_rejects_wrong_trajectory_and_index(evolve):
    out = evolve_output(evolve)
    out["index_field"][0]["index_start"] = 1
    assert evolve.check(out) == 1
    out = evolve_output(evolve)
    out["trajectory"]["action"] += 1e-3
    assert evolve.check(out) == evolve.ops


def test_command_exiting_3_fails_every_operation(tmp_path):
    w = IndexIdentities(0)
    code, wall, rss = run.timed_process(
        [sys.executable, "-c", "import sys; sys.exit(3)"], dict(os.environ),
        tmp_path / "out", tmp_path / "err")
    assert code == 3 and wall > 0 and rss > 0
    assert run.score(w, code, tmp_path / "missing.json", None) == (w.ops, False, None)


def test_missing_or_malformed_output_fails_every_operation(tmp_path):
    w = IndexIdentities(0)
    assert run.score(w, 0, tmp_path / "missing.json", None) == (w.ops, True, None)
    out = tmp_path / "round.json"
    out.write_text(json.dumps({"results": {"task": "identities"}}))
    assert run.score(w, 0, out, None) == (w.ops, True, None)


def test_results_unlike_first_round_fail_every_operation(tmp_path):
    w = IndexGrid(0)
    out = tmp_path / "round.json"
    out.write_text(json.dumps({"results": grid_output(w)}))
    failed, wrong, first = run.score(w, 0, out, None)
    assert (failed, wrong) == (0, False)
    assert run.score(w, 0, out, first) == (0, False, first)
    changed = grid_output(w)
    changed["rows"][0]["theta"] += 1e-9
    out.write_text(json.dumps({"results": changed}))
    assert run.score(w, 0, out, first) == (w.ops, True, first)


def test_traced_command_counts_index_paths(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"task": "grid", "theta_count": 4}))
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(HERE / "launch.py"), "--trace-out", str(spans),
                    "index", "--config", str(config), "--out", str(tmp_path / "out.json")],
                   env=env, check=True, timeout=120)
    m = tracing.layer_metrics(json.loads(spans.read_text()))
    assert m["maslov.leray_index_calls"] == 16
    # the 4 diagonal pairs coincide: two auxiliary planes each, inert per plane
    assert m["maslov.leray_index_transversal_calls"] == 12
    assert m["maslov.auxiliary_evaluations"] == m["maslov.inert_calls"] == 8
    assert m["cli.runner_s"] > 0 and m["cli.emit_s"] > 0
    assert m["capacity.shadow_area_calls"] == 0 and m["flows.flow_map_calls"] == 0


def test_benchmark_file_lists_every_workload_and_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
