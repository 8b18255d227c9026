#!/usr/bin/env python
"""Write a trajectory file: perfbench medians for a parent and a change.

Runs the repository's end-to-end benchmark (``BENCHMARK.json``'s
command, ``perfbench/run.py``, untraced) on two trees and writes the
median and quartiles of every end-to-end metric for each:

* **parent** — ``git archive`` of ``--parent`` exported to a temporary
  directory;
* **change** — the working tree this script lives in.

Each seed runs both arms back to back, and the arm that goes first
alternates from one seed to the next, so a host that drifts during the
sweep moves both arms alike.  Workloads and run length are
``BENCHMARK.json``'s.  A run that perfbench marks ``CONTAMINATED`` (host
steal over its limit, or a CPU-bound generator) is run again, up to
:data:`MAX_RERUNS` times; every kept run records its host steal share.  The file also records the host: CPU model, the CPUs
this process may use, the Python and NumPy versions of the benchmark's
interpreter, and the rate of one fixed pure-Python loop before and
after the sweep, so that two files from different hosts can be told
apart.

    python3 tools/bench_trajectory.py --parent HEAD --out BENCH_31.json --seeds 1 2 3

The parent is exported under the temporary directory (``TMPDIR``).  The
benchmark pins its generator and server to one CPU each: run nothing
else while it measures.

``--compare OLD NEW`` runs nothing.  It sets two trajectory files side
by side: for every workload and end-to-end metric, the change arm's
median in each file and the relative move between them.  A move past
the metric's ``BENCHMARK.json`` bound in the worse direction is flagged,
and any flag makes the exit status 1.  The two files' hosts are
compared first, with a warning for each difference that makes their
numbers hard to set side by side (:func:`host_warnings`).

    python3 tools/bench_trajectory.py --compare BENCH_31.json BENCH_32.json
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Iterations of the calibration loop; ~0.2 s of CPU on a 2024 x86 core.
CALIBRATION_ITERATIONS = 2_000_000

ARMS = ("parent", "change")

#: Times a CONTAMINATED run is run again before it is kept as it is.
MAX_RERUNS = 3

#: Largest relative gap between two hosts' calibration rates that
#: ``--compare`` passes without a warning.
CALIBRATION_TOLERANCE = 0.10


def calibration_rate() -> float:
    """Iterations per CPU second of one fixed pure-Python loop (best of 3)."""
    best = 0.0
    for _ in range(3):
        started = time.process_time()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i & 7
        best = max(best, CALIBRATION_ITERATIONS / (time.process_time() - started))
    return best


def cpu_model(cpuinfo: str = "/proc/cpuinfo") -> str:
    """The first ``model name`` in ``cpuinfo``, or ``"unknown"``."""
    try:
        with open(cpuinfo, encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def interpreter_versions(command: Sequence[str]) -> Dict[str, str]:
    """Python and NumPy versions of the interpreter that runs the benchmark."""
    probe = "import json, platform, numpy; print(json.dumps([platform.python_version(), numpy.__version__]))"
    out = subprocess.run([command[0], "-c", probe], capture_output=True, text=True, check=True)
    python, numpy = json.loads(out.stdout)
    return {"python": python, "numpy": numpy}


def schedule(workloads: Iterable[str], seeds: Sequence[int]) -> List[tuple]:
    """(workload, seed, arm) in run order; the first arm alternates per seed."""
    order = []
    for workload in workloads:
        for index, seed in enumerate(seeds):
            arms = ARMS if index % 2 == 0 else ARMS[::-1]
            order.extend((workload, seed, arm) for arm in arms)
    return order


def parse_output(text: str) -> dict:
    """One untraced perfbench run's stdout: its result and its noise line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    noise = next((line for line in lines if line.startswith("noise: ")), "")
    fields = dict(
        item.split("=", 1) for item in noise[len("noise: "):].split(" CONTAMINATED")[0].split()
    )
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_share": float(fields.get("host.steal_share", "nan")),
        "client_cpu_share": float(fields.get("client.cpu_share", "nan")),
        "contaminated": "CONTAMINATED" in noise,
    }


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of sorted values (NumPy's default)."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarise(runs: Iterable[dict]) -> dict:
    """Median and quartiles of every metric, per arm and workload."""
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for run in runs:
        per_workload = values.setdefault(run["arm"], {}).setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            per_workload.setdefault(name, []).append(value)
    return {
        arm: {
            workload: {
                name: {
                    "median": _quantile(ordered, 0.5),
                    "q1": _quantile(ordered, 0.25),
                    "q3": _quantile(ordered, 0.75),
                    "n": len(ordered),
                }
                for name, ordered in ((n, sorted(v)) for n, v in metrics.items())
            }
            for workload, metrics in workloads.items()
        }
        for arm, workloads in values.items()
    }


def report(command: str, perfbench: dict, host: dict, arms: dict, runs: List[dict]) -> dict:
    """The trajectory file's contents."""
    return {
        "command": command,
        "perfbench": perfbench,
        "host": host,
        "arms": arms,
        "summary": summarise(runs),
        "runs": runs,
    }


def host_warnings(old: dict, new: dict) -> List[str]:
    """Why two files' hosts may not compare: CPU, versions, calibration rate.

    Each host's rate is the mean of its before and after calibration;
    rates more than :data:`CALIBRATION_TOLERANCE` apart, relative to the
    older host's, warn.
    """
    warnings = [
        f"{key} differs: {old.get(key)!r} -> {new.get(key)!r}"
        for key in ("cpu_model", "python", "numpy")
        if old.get(key) != new.get(key)
    ]
    rates = [
        sum(host["calibration_iter_per_cpu_s"].values())
        / len(host["calibration_iter_per_cpu_s"])
        for host in (old, new)
    ]
    gap = abs(rates[1] - rates[0]) / rates[0]
    if gap > CALIBRATION_TOLERANCE:
        warnings.append(
            f"calibration rates {rates[0]:.4g} -> {rates[1]:.4g} iter/CPU s differ "
            f"by {gap:.0%}, over {CALIBRATION_TOLERANCE:.0%}"
        )
    return warnings


def compare(old: dict, new: dict, end_to_end: Sequence[dict]) -> List[dict]:
    """Change-arm medians of two files, per workload and end-to-end metric.

    ``end_to_end`` is ``BENCHMARK.json``'s list (name, better, bound).
    Each row holds both medians, the relative move from ``old`` to
    ``new`` and whether it is past the bound in the worse direction.
    Workloads missing from either file are left out.
    """
    rows = []
    old_arm, new_arm = old["summary"]["change"], new["summary"]["change"]
    for workload in new_arm:
        if workload not in old_arm:
            continue
        for metric in end_to_end:
            name = metric["name"]
            if name not in old_arm[workload] or name not in new_arm[workload]:
                continue
            before = old_arm[workload][name]["median"]
            after = new_arm[workload][name]["median"]
            if before:
                move = (after - before) / abs(before)
            else:
                move = 0.0 if after == before else float("inf") * (after - before)
            worse = -move if metric["better"] == "higher" else move
            rows.append({
                "workload": workload, "metric": name, "old": before, "new": after,
                "move": move, "bound": metric["bound"],
                "flagged": worse > metric["bound"],
            })
    return rows


def print_comparison(old_path: str, new_path: str, bench: dict) -> int:
    """Print ``--compare``'s table and warnings; 1 if any move is flagged."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for warning in host_warnings(old["host"], new["host"]):
        print(f"WARNING: hosts differ: {warning}")
    rows = compare(old, new, bench["end_to_end"])
    print(f"change-arm medians, {old_path} -> {new_path}")
    for row in rows:
        flag = f"  WORSE past its {row['bound']:g} bound" if row["flagged"] else ""
        print(f"{row['workload']:<14} {row['metric']:<24} {row['old']:>12.5g} -> "
              f"{row['new']:>12.5g}  {row['move']:+8.1%}{flag}")
    flagged = sum(row["flagged"] for row in rows)
    print(f"{flagged} of {len(rows)} moves past their bound")
    return 1 if flagged else 0


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, check=True).stdout.strip()


def export_tree(rev: str, into: Path) -> str:
    """``git archive`` of ``rev`` extracted under ``into``; returns the full hash."""
    full = git("rev-parse", "--verify", rev + "^{commit}")
    archive = into / "parent.tar"
    git("archive", "--format=tar", "-o", str(archive), full)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "parent", filter="data")
    archive.unlink()
    return full


def run_once(command: Sequence[str], tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each tree's perfbench serves its own src/
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} in {tree} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    parsed = parse_output(done.stdout)
    parsed["elapsed_s"] = time.perf_counter() - started
    return parsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the parent arm")
    parser.add_argument("--out", help="trajectory file to write, e.g. BENCH_31.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two trajectory files instead of running")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return print_comparison(*args.compare, bench)
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required unless --compare is given")
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [workload["name"] for workload in bench["workloads"]]
    host = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        **interpreter_versions(command),
        "calibration_iter_per_cpu_s": {"before": calibration_rate()},
    }
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        parent_rev = export_tree(args.parent, Path(scratch))
        trees = {"parent": Path(scratch) / "parent", "change": ROOT}
        for order, (workload, seed, arm) in enumerate(schedule(workloads, args.seeds)):
            for attempt in range(MAX_RERUNS + 1):
                run = run_once(command, trees[arm], workload, seed, seconds)
                if not run["contaminated"]:
                    break
            run.update(workload=workload, seed=seed, arm=arm, order=order, reruns=attempt)
            runs.append(run)
            print(f"{workload} seed {seed} {arm}: " + " ".join(
                f"{name}={value:.4g}" for name, value in run["metrics"].items())
                + f" steal={run['steal_share']:.4f}"
                + (" CONTAMINATED" if run["contaminated"] else ""), file=sys.stderr)
    host["calibration_iter_per_cpu_s"]["after"] = calibration_rate()
    edits = " with uncommitted changes" if git("status", "--porcelain") else ""
    payload = report(
        command="python3 tools/bench_trajectory.py " + shlex.join(
            sys.argv[1:] if argv is None else argv),
        perfbench={"command": command, "seconds": seconds, "trace": 0,
                   "seeds": args.seeds, "workloads": workloads},
        host=host,
        arms={"parent": f"git archive {parent_rev}",
              "change": f"working tree on {git('rev-parse', 'HEAD')}{edits}"},
        runs=runs,
    )
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}: {len(runs)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
