"""Run the netauction benchmark, or compare two result files.

    python3 bench/run.py --workload lab-ic --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --out before.json
    python3 bench/run.py --workload all --trace 1 --out before.json
    python3 bench/run.py --compare before.json after.json

A run builds its inputs from ``--seed``, measures for at least ``--seconds``
seconds in whole sweeps, checks every output, prints every metric with its
unit, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
it exits 1 if any check failed.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, including the tracing overhead.  ``--out``
merges the full result (environment stamp, sample counts, workload shape,
errors) into a JSON file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = 1

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "run_ms.p50": ("ms", "lower"),
    "run_ms.p75": ("ms", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_package():
    """Import ``netauction`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "netauction" / "__init__.py").is_file():
        sys.exit(f"error: no netauction package under {SRC}")
    sys.path.insert(0, str(SRC))
    import netauction

    if Path(netauction.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: netauction imported from {netauction.__file__}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float) -> int:
    """Sweep until ``seconds`` have passed; returns the sweeps made."""
    start = time.perf_counter()
    sweeps = workload.sweeps
    while True:
        workload.sweep()
        if time.perf_counter() - start >= seconds:
            return workload.sweeps - sweeps


def run_workload(name: str, seed: int, seconds: float, trace: bool, **spec) -> dict:
    """Set up, measure and check one workload; returns its result entry."""
    from tracing import Tracer, per_layer_units
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **spec)
    units = per_layer_units() if trace else END_TO_END
    if trace:
        tracer = Tracer()
        with tracer.installed():
            workload.setup()
        # Half the time untraced, then as many sweeps traced, so a traced
        # run takes about as long as an untraced one.
        untraced = measure(workload, seconds / 2)
        first_traced = len(workload.sweep_walls)
        with tracer.installed():
            for _ in range(untraced):
                workload.sweep()
        traced_wall = sum(workload.sweep_walls[first_traced:])
        untraced_wall = sum(workload.sweep_walls[:first_traced])
        values = tracer.metrics(
            sweeps=untraced,
            setups=len(workload.setup_times) / workload.setup_units,
            overhead_frac=traced_wall / untraced_wall - 1 if untraced_wall else 0.0,
        )
    else:
        workload.setup()
        measure(workload, seconds)
        values = workload.end_to_end(peak_rss_mb()) if workload.sweep_walls else {}
    return {
        "env": environment(),
        "seed": seed,
        "seconds": seconds,
        "correct": workload.correct and bool(values),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failed_frac": workload.failed / max(workload.attempted, 1),
        "sweeps": workload.sweeps,
        "metrics": {k: {"value": values[k], "unit": units[k][0]}
                    for k in units if k in values},
        "samples": workload.samples(),
        "shape": workload.shape,
        "errors": workload.errors,
    }


def print_entry(name: str, mode: str, entry: dict) -> None:
    print(f"{name} [{mode}] seed={entry['seed']} sweeps={entry['sweeps']} "
          f"samples={json.dumps(entry['samples'])} env={json.dumps(entry['env'])}")
    for key, metric in entry["metrics"].items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':48s} {entry['failed_frac']:>16.6g} "
          f"({entry['failed']} of {entry['attempted']})")
    print(f"  shape: {json.dumps(entry['shape'], sort_keys=True, default=str)}")
    for err in entry["errors"]:
        print(f"  error: {err}")


def merge_into(path: Path, name: str, mode: str, entry: dict) -> None:
    """Add one workload result to a result file, keeping the others."""
    record = {"schema": SCHEMA, "workloads": {}}
    if path.is_file():
        record = json.loads(path.read_text())
        if record.get("schema") != SCHEMA:
            sys.exit(f"error: {path} has schema {record.get('schema')}, not {SCHEMA}")
    record["workloads"].setdefault(name, {})[mode] = entry
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:  # a run whose checks fail exits 1 after its result line
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: exited with code {proc.returncode} without a result",
                  file=sys.stderr)
            return 1
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def compare(a_path: Path, b_path: Path) -> None:
    """Per workload and metric: value in A, value in B, and the change."""
    from tracing import per_layer_units

    units = {**END_TO_END, **per_layer_units()}
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for mode in ("end_to_end", "per_layer"):
            ea = a["workloads"][name].get(mode)
            eb = b["workloads"][name].get(mode)
            if not ea or not eb:
                continue
            print(f"{name} [{mode}] A: {json.dumps(ea['env'])} seed {ea['seed']}; "
                  f"B: {json.dumps(eb['env'])} seed {eb['seed']}")
            for key in units:
                if key not in ea["metrics"] or key not in eb["metrics"]:
                    continue
                va = ea["metrics"][key]["value"]
                vb = eb["metrics"][key]["value"]
                change = (vb - va) / va if va else 0.0
                better = units[key][1]
                verdict = ("same" if vb == va else
                           "better" if (vb < va) == (better == "lower") else "worse")
                print(f"  {key:48s} {va:>14.6g} {vb:>14.6g} {change:>+9.2%} "
                      f"{units[key][0]:6s} {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="drm-wide, lab-ic, lab-cdc, or all (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the result into this file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    import_package()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    mode = "per_layer" if args.trace else "end_to_end"
    entry = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_entry(args.workload, mode, entry)
    if args.out:
        merge_into(args.out, args.workload, mode, entry)
    print(json.dumps({key: entry[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
