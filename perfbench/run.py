"""Benchmark of the ``symwave`` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process (this one) starts one ``symwave`` command process at a time.
A round is one command on the workload's inputs, made from ``--seed``; the
run repeats whole rounds until ``--seconds`` have passed, and at least two.
Every round's output is checked, and its ``results`` payload must equal the
first round's.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics (medians over
the traced rounds) and ``trace.overhead_s``, the traced minus the untraced
median wall time.  Raw outputs and spans go to ``.perfbench_runs/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2


def timed_process(argv, env, stdout, stderr):
    """Run one process to its exit; return (exit code, wall s, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def score(workload, code, out, first):
    """Score one round: ``(failed ops, any output wrong, first results)``.

    A command that exits non-zero fails all its operations.  Output that is
    missing or malformed, or a ``results`` payload unlike the first round's
    (same inputs), fails them all as wrong.
    ``first`` is the canonical text of the first round's results, or None.
    """
    if code != 0:
        return workload.ops, False, first
    try:
        results = json.loads(Path(out).read_text())["results"]
        text = json.dumps(results, sort_keys=True)
        failed = int(workload.check(results))
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return workload.ops, True, first  # missing or malformed output
    if first is not None and text != first:
        return workload.ops, True, first
    return failed, failed > 0, text


def run(args):
    root = Path.cwd()
    src = root / "src"
    if not (src / "symwave" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/symwave; run from a "
              "checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    rundir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    launch = [sys.executable, str(HERE / "launch.py")]

    # set-up: a fresh process that imports the package and exits
    setup = []
    for k in range(SETUP_REPEATS):
        code, wall, _ = timed_process(launch + ["--version"], env,
                                      rundir / f"setup{k}.out", rundir / f"setup{k}.err")
        if code != 0:
            print(f"perfbench: 'symwave --version' exited {code}", file=sys.stderr)
            return 2
        setup.append(wall)

    config = rundir / "config.json"
    config.write_text(json.dumps({"command": workload.command, "seed": args.seed,
                                  "params": workload.config}, indent=1))
    rounds = []
    first = None
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds
           or (args.trace and len(rounds) % 2)):
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        out = rundir / f"round{k}.json"
        argv = launch + (["--trace-out", str(rundir / f"round{k}.trace.json")] if traced else [])
        argv += [workload.command, "--config", str(config), "--out", str(out)]
        code, wall, rss = timed_process(argv, env, rundir / f"round{k}.stdout",
                                        rundir / f"round{k}.stderr")
        failed, wrong, first = score(workload, code, out, first)
        rounds.append({"traced": traced, "wall": wall, "rss": rss,
                       "failed": failed, "wrong": wrong})
        print(f"round {k}: traced={traced} exit={code} wall={wall:.3f}s "
              f"rss={rss:.1f}MB failed={failed}/{workload.ops}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        per_round = [tracing.layer_metrics(json.loads(
            (rundir / f"round{k}.trace.json").read_text()))
            for k, r in enumerate(rounds) if r["traced"]]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in rounds if r["traced"])
            - statistics.median(r["wall"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in plain), "unit": "s"},
            "ops_per_s": {"value": statistics.median(
                (workload.ops - r["failed"]) / r["wall"] for r in plain), "unit": "ops/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss"] for r in plain), "unit": "MB"},
        }
    summary = {"correct": not any(r["wrong"] for r in rounds),
               "attempted": workload.ops * len(rounds),
               "failed": sum(r["failed"] for r in rounds),
               "metrics": metrics}
    (rundir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
