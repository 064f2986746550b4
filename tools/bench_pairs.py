"""Paired base/head runs of the benchmark, summarized into ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --label NAME --base REV
        --run WORKLOAD:SEED:PAIRS [--run ...]

Run from anywhere inside a git checkout; the head is always ``HEAD``.  Each
of the two commits is exported with ``git archive`` into its own temporary
directory, so no run sees the working tree or the other commit's
``.perfbench_runs/``.  For every
``--run`` the script starts ``perfbench/run.py --workload WORKLOAD --seed SEED
--seconds S --trace 0`` once in each export, PAIRS times; the base goes first
in even pairs and the head in odd ones, so a drift of the machine falls on
both sides.  ``S`` is the ``run_seconds`` of the head's ``BENCHMARK.json``,
and only the end-to-end metrics it lists are read, with its direction for
each.  Every run's ``results`` payload must equal the first one of its own
side, byte for byte, or the script stops; ``same_results`` records whether
the two sides' payloads are equal, so a change of results can be measured.

The output, ``BENCH_<label>.json`` at the root of the checkout, holds both
commits, ``os.cpu_count()``, the seconds per run, the seeds, every run's
metrics, and per workload and seed, for each metric: the median and
quartiles of each side, the pairs the head wins, and ``clear_gain``: both
sides' payloads are equal, every head run is correct, the head fails no
more operations in total than the base, the head wins at least 90% of the
pairs, and its median beats the base's by more than the base's
interquartile range.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def quartiles(values):
    """``(q1, median, q3)``, linear between order statistics (numpy's default)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summarize(pairs, better, same_results=True):
    """Per metric of ``better`` (name -> "lower" or "higher"), over ``pairs``.

    Each pair is ``{"base": {metric: value}, "head": {metric: value}}``,
    where a side may also hold its run's ``correct`` flag and ``failed``
    count.  A pair is a win when the head is strictly better than the base.
    No gain is clear when the two sides' ``results`` differ
    (``same_results`` false), a head run is incorrect or the head fails more
    operations in total than the base.
    """
    failed = {side: sum(p[side].get("failed", 0) for p in pairs) for side in ("base", "head")}
    sound = (same_results and all(p["head"].get("correct", True) for p in pairs)
             and failed["head"] <= failed["base"])
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sides = {}
        for side, values in (("base", base), ("head", head)):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        gain = sign * (sides["base"]["median"] - sides["head"]["median"])
        out[name] = {
            "better": direction,
            "pairs": len(pairs),
            "wins": wins,
            **sides,
            "median_gain": gain,
            "clear_gain": bool(sound and wins >= 0.9 * len(pairs)
                               and gain > sides["base"]["q3"] - sides["base"]["q1"]),
        }
    return out


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def _export(root, commit, into):
    tar = _git(root, "archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def _run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    out = checkout / ".perfbench_runs" / f"{workload}-seed{seed}-trace0" / "round0.json"
    results = json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
    return results, {"correct": summary["correct"], "attempted": summary["attempted"],
                     "failed": summary["failed"],
                     **{k: v["value"] for k, v in summary["metrics"].items()}}


def _parse_run(text):
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--run", type=_parse_run, action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    commits = {side: _git(root, "rev-parse", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("base", args.base), ("head", "HEAD"))}
    groups = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            _export(root, commit, checkouts[side])
        contract = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in contract["end_to_end"]}
        seconds = contract["run_seconds"]
        for workload, seed, count in args.run:
            pairs, first = [], {}
            for k in range(count):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    results, pair[side] = _run_once(checkouts[side], workload, seed, seconds)
                    if results != first.setdefault(side, results):
                        raise SystemExit(f"bench_pairs: {workload} seed {seed}: the {side} "
                                         f"results differ from the {side}'s first run's")
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {k}: " + ", ".join(
                    f"{side} wall_s {pair[side]['wall_s']:.3f}" for side in ("base", "head")),
                    file=sys.stderr)
            same = first.get("base") == first.get("head")
            groups.append({"workload": workload, "seed": seed, "same_results": same,
                           "summary": summarize(pairs, better, same), "pairs": pairs})

    report = {
        "label": args.label,
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": "HEAD", "commit": commits["head"]},
        "cpu_count": os.cpu_count(),
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "seeds": sorted({seed for _, seed, _ in args.run}),
        "groups": groups,
    }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
