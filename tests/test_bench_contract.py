"""The benchmark still runs against this checkout.

``bench/smoke.py`` runs every workload on tiny inputs, untraced and traced.
Tracing patches named call sites inside the package, so renaming or
deleting one of them fails here rather than only when the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_smoke_passes():
    # smoke.py imports the package from this checkout's src by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "smoke.py"], cwd=BENCH, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout, proc.stdout


# Run in bench/: one tiny traced workload, its per-layer metrics as JSON.
TRACED_RUN = """
import json, sys
import run, smoke
run.import_package()
entry, _ = smoke.tiny_run(sys.argv[1], True)
print(json.dumps(entry["metrics"]))
"""


def traced_calls(workload):
    """Calls per sweep of every traced span in a tiny traced run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, workload], cwd=BENCH, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name[: -len(".calls")]: metric["value"]
            for name, metric in metrics.items() if name.endswith(".calls")}


def test_lab_ic_tracing_reaches_every_engine_layer():
    # A patched name the engine no longer looks up at call time (bound at
    # import, in a default argument or in an early partial) reads zero here.
    # The counts pin the work of one tiny sweep, so an engine change that
    # adds or drops a call on any layer fails here as well.  The sweep's
    # read-set memo answers the repeats: one engine run, and one report
    # swap, per miss.
    idle = {"generate.all_digraph_networks", "model.BidderReport.with_neighbors",
            "properties.check_cdp_consistency"}
    calls = traced_calls("lab-ic")
    assert {span for span, n in calls.items() if n == 0} == idle
    assert {span: n for span, n in calls.items() if n} == {
        "framework.dcaf_run_detailed": 4263,
        "framework.drp_run": 4590,
        "framework.price_fn": 19425,
        "framework.resale_revenue_fn": 17788,
        "drm.greedy_bdp": 4321,
        "drm.graph_exploration_cdp": 4321,
        "model.iter_subbundles": 4590,
        "model.restrict_instance": 7274,
        "model.check_outcome": 4263,
        "model.AuctionInstance.with_report": 4263,
        "critical.all_critical_structures.round": 4321,
        "critical.all_critical_structures.idm": 2953,
        "idm.idm_run": 2953,
        "properties.check_ic": 1,
        "generate.generate_instances": 2,  # per set-up
        "generate.topology_family": 2,
    }


def test_lab_cdc_tracing_reaches_the_split_and_report_copies():
    # The tiny sweep (every digraph on up to 3 bidders) makes one split call
    # per neighbor subset plus one per valuation probe, on one scratch
    # instance per network whose reports it rewrites in place: no instance
    # copy and no report copy.  A checker that skips or adds split calls, or
    # copies per call again, changes what lab-cdc measures, so fail here.
    calls = traced_calls("lab-cdc")
    assert calls["model.AuctionInstance.with_report"] == 0
    assert calls["model.BidderReport.with_neighbors"] == 0
    assert {span: n for span, n in calls.items() if n} == {
        "drm.graph_exploration_cdp": 5076,
        "properties.check_cdp_consistency": 1,
        "generate.all_digraph_networks": 3,  # per set-up: n = 1, 2, 3
    }
