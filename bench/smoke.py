"""Smoke check of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload on tiny inputs, untraced and traced, and fails unless
every metric that ``BENCHMARK.json`` names is printed, the tiny outputs pass
their checks, and a tampered golden digest is reported as a failure.
Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

SECONDS = 0.2


def tiny_specs() -> dict:
    from workloads import DrmWideSpec, LabCdcSpec, LabIcSpec

    return {
        "drm-wide": DrmWideSpec(instances=2, n=40, m=4, edge_p=0.08, golden=None),
        "lab-ic": LabIcSpec(v_max=1, setups=2, cases=None, violations=None),
        "lab-cdc": LabCdcSpec(max_n=3, setups=2, cases=None),
    }


def tiny_run(name: str, trace: bool, **fields) -> tuple[dict, str]:
    spec = dataclasses.replace(tiny_specs()[name], **fields)
    entry = run.run_workload(name, 0, SECONDS, trace, spec=spec)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.print_entry(name, "per_layer" if trace else "end_to_end", entry)
    return entry, printed.getvalue()


def main() -> int:
    run.import_package()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in tiny_specs():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            entry, text = tiny_run(name, trace)
            names = [m["name"] for m in declared[section]]
            if sorted(names) != sorted(entry["metrics"]):
                problems.append(f"{name} {section}: metrics {sorted(entry['metrics'])} "
                                f"!= BENCHMARK.json {sorted(names)}")
            missing = [n for n in names if f"  {n} " not in text]
            if missing:
                problems.append(f"{name} {section}: not printed: {missing}")
            if not entry["correct"]:
                problems.append(f"{name} {section}: tiny run failed: {entry['errors']}")
            print(f"{name} {section}: {len(names)} metrics printed, "
                  f"correct={entry['correct']}")

    digest = tiny_run("drm-wide", False)[0]["shape"]["digest"]
    good = tiny_run("drm-wide", False, golden=digest)[0]
    tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    bad = tiny_run("drm-wide", False, golden=tampered)[0]
    if not good["correct"]:
        problems.append(f"matching digest reported as a failure: {good['errors']}")
    if bad["correct"] or bad["failed"] == 0:
        problems.append("tampered digest was not reported as a failure")
    print(f"drm-wide digest: matching -> correct={good['correct']}; tampered -> "
          f"correct={bad['correct']} failed={bad['failed']} ({bad['errors'][:1]})")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
