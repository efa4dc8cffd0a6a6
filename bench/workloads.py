"""The benchmark's three workloads.

Each workload is a closed loop: one caller in one process, and the next
call starts when the previous one returns.  A workload builds its inputs
from the seed in ``setup``, then the runner calls ``sweep`` until the run
time is used up; every sweep repeats the same work and must reproduce the
first sweep's outputs exactly.  See ``bench/README.md`` for why each
workload was chosen and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass

from netauction import drm, generate, properties
from netauction.model import MechanismConfig, utility

CONFIG = MechanismConfig()
SEED_STRIDE = 1000  # seed s shifts every family seed by s * SEED_STRIDE
MAX_ERRORS = 5  # error messages kept per run; the counts keep the rest

perf = time.perf_counter


class Workload:
    """Shared bookkeeping: operation counts, call latencies, sweep times."""

    name = ""
    position_stride = 1  # latency percentiles sample every this-many-th call

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.setup_units = 1  # set-up repetitions the reported time stands for
        # Wall time per sampled call position, summed over the timed sweeps.
        # Every sweep makes the same calls in the same order: the first sweep
        # appends one entry per sampled call and later sweeps add into them.
        self.position_sum = array("d")
        self.summed_sweeps = 0
        self.sweep_calls = 0  # calls made so far in the open sweep
        self.calls = 0  # timed calls in all closed sweeps
        self.call_time = 0.0  # their total wall time
        self.cases = 0  # checker cases in all sweeps
        self.sweep_walls: list[float] = []
        self.shape: dict = {}
        self.shape_ok = True

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def timed(self, fn):
        """``fn`` with its wall time counted, and added to its call
        position's sum at every ``position_stride``-th call; made afresh for
        each sweep."""
        sums = self.position_sum
        first = self.summed_sweeps == 0
        stride = self.position_stride
        self.sweep_calls = 0

        def call(*args):
            start = perf()
            out = fn(*args)
            elapsed = perf() - start
            i = self.sweep_calls
            self.sweep_calls = i + 1
            self.call_time += elapsed
            if i % stride == 0:
                if first:
                    sums.append(elapsed)
                else:
                    sums[i // stride] += elapsed
            return out

        return call

    def timed_sweep(self, cases: int, wall: float) -> None:
        """Close a sweep that made ``cases`` checker cases in ``wall`` s."""
        if self.summed_sweeps and self.sweep_calls * self.summed_sweeps != self.calls:
            self.fail(cases, f"sweep made {self.sweep_calls} calls, the first "
                             f"made {self.calls // self.summed_sweeps}")
        self.calls += self.sweep_calls
        self.cases += cases
        self.sweep_walls.append(wall)
        self.summed_sweeps += 1

    @property
    def sweeps(self) -> int:
        return len(self.sweep_walls)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.shape_ok and self.attempted > 0

    def setup_s(self) -> float:
        return self.setup_units * statistics.median(self.setup_times)

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        """Throughputs are totals over every timed sweep, and the latency
        percentiles are over each sampled call position's mean across sweeps.

        Every sweep makes the same calls in the same order, so a position is
        one input timed once per sweep.  A shared host switches between
        speed levels for seconds to minutes at a time; a percentile of raw
        samples jumps between those levels, while totals and per-position
        means over sweeps spread through the run average them.
        """
        sweeps = self.summed_sweeps
        _, p50, p75 = statistics.quantiles(self.position_sum, n=4)
        return {
            "setup_s": self.setup_s(),
            "runs_per_s": self.calls / self.call_time,
            "run_ms.p50": p50 / sweeps * 1e3,
            "run_ms.p75": p75 / sweeps * 1e3,
            "cases_per_s": self.cases / sum(self.sweep_walls),
            "peak_rss_mb": peak_rss_mb,
        }

    def samples(self) -> dict[str, int]:
        return {
            "setup": len(self.setup_times),
            "run_ms": self.calls,
            "run_ms.positions": len(self.position_sum),
        }


# ---------------------------------------------------------------------------
# drm-wide: one mechanism run at a time over wide Erdos-Renyi markets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrmWideSpec:
    instances: int = 32
    n: int = 150
    m: int = 10
    edge_p: float = 0.03
    # SHA-256 of the canonical outcomes of the seed-0 corpus; None skips it.
    golden: str | None = (
        "c2c22a440e1603170013d7a9e644428748db276b18b5b467157b3580fe5eb9a0"
    )


class DrmWide(Workload):
    name = "drm-wide"

    def __init__(self, seed: int, spec: DrmWideSpec = DrmWideSpec()):
        super().__init__(seed)
        self.spec = spec
        self.corpus = []
        self.expected: list = []  # canonical outcome per instance, first sweep

    def family(self, j: int) -> generate.FamilySpec:
        s = self.spec
        return generate.FamilySpec(
            n=s.n, m=s.m, v_max=9, graph_model="erdos-renyi",
            edge_p=s.edge_p, count=1, seed=self.seed * SEED_STRIDE + j,
        )

    def setup(self) -> None:
        # Generation costs about a second per instance, so the corpus is
        # built once and set-up time is the corpus size times the median
        # per-instance generation time.
        self.setup_units = self.spec.instances
        for j in range(self.spec.instances):
            start = perf()
            self.corpus += generate.generate_instances(self.family(j))
            self.setup_times.append(perf() - start)

    def sweep(self) -> None:
        run = self.timed(drm.run_with_config_detailed)
        first = not self.expected
        start = perf()
        for k, inst in enumerate(self.corpus):
            self._case(k, inst, run, first)
        self.timed_sweep(len(self.corpus), perf() - start)
        if first:
            self._check_corpus()

    def _case(self, k, inst, run, first: bool) -> None:
        """One run of instance ``k`` and every check on its outcome."""
        self.attempted += 1
        try:
            result = run(inst, CONFIG)
        except Exception as exc:  # a failed run is counted, not fatal
            self.fail(1, f"instance {k}: {type(exc).__name__}: {exc}")
            if first:
                self.expected.append(None)
            return
        canon = canonical(result.outcome)
        if first:
            self.expected.append(canon)
            self._tally(result)
        elif canon != self.expected[k]:
            self.fail(1, f"instance {k}: outcome differs from the first sweep")
            return
        self._check(k, inst, result.outcome)

    def _check(self, k, inst, outcome) -> None:
        if outcome.seller_revenue < 0:
            self.fail(1, f"instance {k}: seller revenue {outcome.seller_revenue}")
            return
        for b, truth in inst.ground_truth.items():
            if utility(truth, outcome, b) < 0:
                self.fail(1, f"instance {k}: bidder {b} has negative utility")
                return

    def _tally(self, result) -> None:
        if not self.shape:
            self.shape = new_shape(priced_multi_round_runs=0)
        rounds = result.rounds
        _tally_rounds(self.shape, rounds)
        self.shape["priced_multi_round_runs"] += (
            len(rounds) >= 2 and any(r.non_trading for r in rounds)
        )

    def _check_corpus(self) -> None:
        digest = hashlib.sha256(
            json.dumps(self.expected, separators=(",", ":")).encode()
        ).hexdigest()
        self.shape["digest"] = digest
        if self.seed == 0 and self.spec.golden is not None and digest != self.spec.golden:
            self.fail(len(self.corpus), f"outcome digest {digest} != golden {self.spec.golden}")
        # At least half the corpus must run two or more rounds with price
        # setters present, so pricing and bundle division stay exercised.
        if 2 * self.shape.get("priced_multi_round_runs", 0) < len(self.corpus):
            self.shape_ok = False
            self.errors.append(
                "corpus no longer runs several rounds with price setters: "
                f"{self.shape.get('priced_multi_round_runs', 0)} of "
                f"{len(self.corpus)} runs"
            )


def canonical(outcome) -> list:
    """Allocation and payment per bidder, in bidder order."""
    return [[b, outcome.allocation[b], outcome.payment[b]]
            for b in sorted(outcome.allocation)]


# ---------------------------------------------------------------------------
# lab-ic: the incentive-compatibility sweep over the acceptance tiny family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabIcSpec:
    v_max: int = 3
    setups: int = 25
    # Expected totals at seed 0; None skips the check.
    cases: int | None = 29147
    violations: int | None = 1242


class LabIc(Workload):
    name = "lab-ic"

    def __init__(self, seed: int, spec: LabIcSpec = LabIcSpec()):
        super().__init__(seed)
        self.spec = spec
        self.corpus = []
        self.first = None

    def build(self) -> list:
        # The acceptance suite's tiny family uses family seeds 41-44; the run
        # seed shifts them.
        shift = self.seed * SEED_STRIDE
        family = generate.topology_family(
            ("line", "star", "branch"), 5, m=1, v_max=3, profiles_per_shape=8,
            seed=shift + 41,
        )
        family += generate.topology_family(
            ("line", "branch"), 4, m=2, v_max=3, profiles_per_shape=5, seed=shift + 42
        )
        family += generate.generate_instances(generate.FamilySpec(
            n=5, m=2, v_max=3, graph_model="erdos-renyi", count=25, seed=shift + 43
        ))
        family += generate.generate_instances(
            generate.FamilySpec(n=5, m=2, v_max=3, count=25, seed=shift + 44)
        )
        family.append(generate.branch_market_fixture())
        return family

    def setup(self) -> None:
        for _ in range(self.spec.setups):
            start = perf()
            corpus = self.build()
            self.setup_times.append(perf() - start)
            if self.corpus and corpus != self.corpus:
                self.fail(1, "set-up built a different corpus on repetition")
            self.corpus = corpus

    def mechanism(self, shape: dict | None):
        """The ``drm`` callable handed to the checker; tallies ``shape``
        unless it is None."""
        run = self.timed(drm.run_with_config_detailed)

        def mech(instance):
            result = run(instance, CONFIG)
            if shape is not None:
                _tally_rounds(shape, result.rounds)
            return result.outcome

        return mech

    def sweep(self) -> None:
        tally = self.first is None
        if tally:
            self.shape = new_shape()
        mech = self.mechanism(self.shape if tally else None)
        space = properties.DeviationSpace(v_max=self.spec.v_max)
        start = perf()
        try:
            result = properties.check_ic(mech, self.corpus, space)
        except Exception as exc:
            self.attempted += 1
            self.fail(1, f"check_ic raised {type(exc).__name__}: {exc}")
            return
        self.timed_sweep(result.cases, perf() - start)
        self.attempted += result.cases
        signature = (result.cases, [(v.bidder, v.deviation, v.delta, v.context)
                                    for v in result.violations])
        if self.first is None:
            self.first = signature
            self.shape.update(cases=result.cases,
                              violations=len(result.violations), scope=result.scope)
            self._check_first(result)
        elif signature != self.first:
            self.fail(result.cases, "sweep differs from the first sweep")

    def _check_first(self, result) -> None:
        spec = self.spec
        if self.seed == 0 and spec.cases is not None and (
            result.cases != spec.cases or len(result.violations) != spec.violations
        ):
            self.fail(
                result.cases,
                f"{result.cases} cases / {len(result.violations)} violations, "
                f"expected {spec.cases} / {spec.violations}",
            )
        # Every witness must replay exactly; done outside the timed region.
        plain = lambda inst: drm.run_with_config_detailed(inst, CONFIG).outcome  # noqa: E731
        for v in result.violations:
            self.attempted += 1
            try:
                delta = properties.replay_violation(plain, v)
            except Exception as exc:
                self.fail(1, f"replay raised {type(exc).__name__}: {exc}")
                continue
            if delta != v.delta:
                self.fail(1, f"witness at bidder {v.bidder} replays to {delta}, "
                             f"stored {v.delta}")


def new_shape(**extra) -> dict:
    """Workload-shape counters for mechanism runs."""
    return {"rounds_per_run": Counter(), "price_setter_rounds": 0,
            "resale": 0, "reserve": 0, **extra}


def _tally_rounds(shape: dict, rounds) -> None:
    shape["rounds_per_run"][len(rounds)] += 1
    for r in rounds:
        shape["price_setter_rounds"] += bool(r.non_trading)
        resold = sum(r.resold)
        shape["resale"] += resold
        shape["reserve"] += len(r.resold) - resold


# ---------------------------------------------------------------------------
# lab-cdc: candidacy consistency over every digraph on at most four bidders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabCdcSpec:
    max_n: int = 4
    setups: int = 9
    cases: int | None = 1151956  # expected split calls per pass


class LabCdc(Workload):
    name = "lab-cdc"
    # A sweep makes over a million calls: sampling every 37th keeps the
    # benchmark's own samples out of peak_rss_mb, and the prime stride stays
    # out of step with the calls of each network.
    position_stride = 37

    def __init__(self, seed: int, spec: LabCdcSpec = LabCdcSpec()):
        super().__init__(seed)
        self.spec = spec
        self.networks: list = []

    def setup(self) -> None:
        for _ in range(self.spec.setups):
            start = perf()
            networks = []
            for n in range(1, self.spec.max_n + 1):
                networks += generate.all_digraph_networks(n)
            self.setup_times.append(perf() - start)
        # The input is exhaustive; the seed only sets the sweep order.
        random.Random(self.seed).shuffle(networks)
        self.networks = networks
        self.shape = {"networks": len(networks),
                      "networks_by_n": dict(Counter(len(net[1]) for net in networks))}

    def sweep(self) -> None:
        cdp = self.timed(drm.graph_exploration_cdp)
        start = perf()
        try:
            result = properties.check_cdp_consistency(cdp, self.networks)
        except Exception as exc:
            self.attempted += 1
            self.fail(1, f"check_cdp_consistency raised {type(exc).__name__}: {exc}")
            return
        self.timed_sweep(result.cases, perf() - start)
        self.attempted += result.cases
        violations = len(result.violations)
        self.shape.update(cases=result.cases, violations=violations)
        if violations:
            self.fail(violations, f"{violations} candidacy-consistency violations")
        if self.spec.cases is not None and result.cases != self.spec.cases:
            self.fail(result.cases, f"{result.cases} split calls, expected {self.spec.cases}")


WORKLOADS = {w.name: w for w in (DrmWide, LabIc, LabCdc)}
