"""Brute-force verifiers for the incentive properties.

Every checker enumerates a deviation space (exhaustively when it fits a
budget, by seeded sampling otherwise, and always saying which) and returns
counterexamples.  IR, IC, WBB and EPI4NW witnesses replay: re-running the
mechanism on the stored instance, context, and deviation reproduces the
stored delta exactly.  CDC, RDM and RC have no replay rule yet.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .drm import graph_exploration_cdp, sell_grand_bundle
from .framework import (
    Bdp,
    Cdp,
    SingleItemMech,
    round_prices,
)
from .generate import all_subsets, monotone_tables, network_instance
from .model import (
    AuctionInstance,
    BidderReport,
    Money,
    Outcome,
    Valuation,
    full_bundle,
    qualified_set,
    utility,
)

MechanismFn = Callable[[AuctionInstance], Outcome]


@dataclass(frozen=True)
class DeviationSpace:
    """What a single bidder may try: any subset of her true neighbors crossed
    with any monotone valuation table up to ``v_max``.

    ``budget`` caps the unilateral deviations enumerated per bidder; beyond
    it the space is sampled and the run is marked so.  ``others_budget``
    controls how many joint deviation profiles of the *other* bidders are
    layered under each unilateral check (0 keeps the others truthful).
    """

    v_max: int = 3
    budget: int = 4096
    others_budget: int = 0
    seed: int = 11


@dataclass(frozen=True)
class Violation:
    """One replayable counterexample."""

    prop: str
    instance: AuctionInstance
    bidder: int | None
    deviation: BidderReport | None
    delta: Money
    context: tuple[BidderReport, ...] = ()
    note: str = ""

    def base_instance(self) -> AuctionInstance:
        return _with_reports(self.instance.truthful(), self.context)

    def deviated_instance(self) -> AuctionInstance:
        base = self.base_instance()
        return base if self.deviation is None else base.with_report(self.deviation)


@dataclass
class CheckResult:
    """Violations plus how the space was covered."""

    prop: str
    scope: str  # "exhaustive" or "sampled"
    instances: int = 0
    cases: int = 0
    violations: list[Violation] = field(default_factory=list)
    budget_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"{self.prop}: {'ok' if self.ok else 'VIOLATED'} "
            f"[{self.scope}] instances={self.instances} cases={self.cases} "
            f"violations={len(self.violations)}"
        )
        if self.budget_exceeded:
            head += " (budget exceeded; sampled)"
        if self.violations:
            head += f"\n  first witness: {describe_violation(self.violations[0])}"
        return head


def describe_violation(v: Violation) -> str:
    where = f"bidder {v.bidder}" if v.bidder is not None else "instance"
    detail = f"{v.prop} at {where}, delta={v.delta}"
    if v.note:
        detail += f" ({v.note})"
    return detail


# ---------------------------------------------------------------------------
# Deviation enumeration helpers
# ---------------------------------------------------------------------------


def _with_reports(
    instance: AuctionInstance, reports: Iterable[BidderReport]
) -> AuctionInstance:
    for rep in reports:
        instance = instance.with_report(rep)
    return instance


def _subset_lattice(
    items: frozenset[int],
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """:func:`all_subsets` of ``items`` plus the index pair (lo, hi) of every
    strictly nested pair of them, smaller first; the full set comes last."""
    subs = all_subsets(items)
    pairs = [
        (lo, hi)
        for lo, hi in itertools.combinations(range(len(subs)), 2)
        if subs[lo] < subs[hi]
    ]
    return subs, pairs


def _unilateral_deviations(
    truth: BidderReport, m: int, space: DeviationSpace, rng: random.Random
) -> tuple[list[BidderReport], bool]:
    """All (table, neighbor subset) misreports for one bidder, or a seeded
    sample when the full grid exceeds the budget."""
    tables = monotone_tables(m, space.v_max)
    subsets = all_subsets(truth.neighbors)
    total = len(tables) * len(subsets)
    if total <= space.budget:
        return (
            [
                BidderReport(truth.bidder_id, tbl, sub)
                for tbl in tables
                for sub in subsets
            ],
            False,
        )
    out = [
        BidderReport(truth.bidder_id, rng.choice(tables), rng.choice(subsets))
        for _ in range(space.budget)
    ]
    return out, True


def _neighbor_deviations(
    truth: BidderReport, space: DeviationSpace, rng: random.Random
) -> tuple[list[BidderReport], bool]:
    """Truthful-valuation misreports: every subset of the true neighbors."""
    subsets = all_subsets(truth.neighbors)
    if len(subsets) <= space.budget:
        return [truth.with_neighbors(sub) for sub in subsets], False
    out = [truth.with_neighbors(rng.choice(subsets)) for _ in range(space.budget)]
    return out, True


def _others_contexts(
    instance: AuctionInstance, bidder: int, space: DeviationSpace, rng: random.Random
) -> list[tuple[BidderReport, ...]]:
    """Joint deviation profiles for everyone but ``bidder``; the truthful
    profile (empty context) always comes first."""
    contexts: list[tuple[BidderReport, ...]] = [()]
    if space.others_budget <= 0:
        return contexts
    truth = instance.ground_truth or {}
    others = [b for b in sorted(truth) if b != bidder]
    tables = monotone_tables(instance.m, space.v_max)
    for _ in range(space.others_budget):
        ctx = []
        for j in others:
            rep = truth[j]
            sub = frozenset(k for k in rep.neighbors if rng.random() < 0.5)
            ctx.append(BidderReport(j, rng.choice(tables), sub))
        contexts.append(tuple(ctx))
    return contexts


# ---------------------------------------------------------------------------
# Individual rationality / incentive compatibility / budget balance
# ---------------------------------------------------------------------------


def _deviation_cases(
    prop: str,
    mechanism: MechanismFn,
    instances: Iterable[AuctionInstance],
    space: DeviationSpace,
) -> CheckResult:
    """The sweep behind :func:`check_ir` and :func:`check_ic`: every
    deviation of every qualified bidder, under the truthful profile of the
    others and each sampled profile of theirs.

    IR varies the invitation report only and flags negative utility.  IC
    varies the whole report and flags a strict gain over truth-telling,
    which costs one more mechanism call (and case) per profile.
    """
    ic = prop == "IC"
    rng = random.Random(space.seed)
    result = CheckResult(prop, "exhaustive")
    for inst in instances:
        result.instances += 1
        truthful = inst.truthful()
        for i in sorted(qualified_set(truthful)):
            true_rep = truthful.reports[i]
            if ic:
                devs, clipped = _unilateral_deviations(true_rep, inst.m, space, rng)
            else:
                devs, clipped = _neighbor_deviations(true_rep, space, rng)
            result.budget_exceeded |= clipped
            for ctx in _others_contexts(inst, i, space, rng):
                base = _with_reports(truthful, ctx)
                bar = 0
                if ic:
                    result.cases += 1
                    bar = utility(true_rep, mechanism(base), i)
                for dev in devs:
                    outcome = mechanism(base.with_report(dev))
                    result.cases += 1
                    delta = utility(true_rep, outcome, i) - bar
                    if (delta > 0) if ic else (delta < 0):
                        result.violations.append(
                            Violation(prop, inst, i, dev, delta, ctx)
                        )
    if result.budget_exceeded or space.others_budget > 0:
        result.scope = "sampled"
    return result


def check_ir(
    mechanism: MechanismFn,
    instances: Iterable[AuctionInstance],
    space: DeviationSpace = DeviationSpace(),
) -> CheckResult:
    """Truthful valuation plus any invitation subset never yields negative
    utility, under the truthful profile of others and under sampled
    others' deviation profiles."""
    return _deviation_cases("IR", mechanism, instances, space)


def check_ic(
    mechanism: MechanismFn,
    instances: Iterable[AuctionInstance],
    space: DeviationSpace = DeviationSpace(),
) -> CheckResult:
    """No unilateral misreport (valuation table and/or invitation subset)
    strictly beats truth-telling, others held fixed."""
    return _deviation_cases("IC", mechanism, instances, space)


def check_wbb(
    mechanism: MechanismFn, instances: Iterable[AuctionInstance]
) -> CheckResult:
    """The seller never ends up out of pocket."""
    result = CheckResult("WBB", "exhaustive")
    for inst in instances:
        result.instances += 1
        result.cases += 1
        outcome = mechanism(inst)
        if outcome.seller_revenue < 0:
            result.violations.append(
                Violation("WBB", inst, None, None, outcome.seller_revenue)
            )
    return result


def find_epi4nw_witness(
    mechanism: MechanismFn, instances: Iterable[AuctionInstance]
) -> Violation | None:
    """First bidder found holding nothing yet being paid (payment < 0).
    This is an existence property, so one witness settles it."""
    for inst in instances:
        outcome = mechanism(inst)
        for i in sorted(outcome.payment):
            if outcome.allocation.get(i, 0) == 0 and outcome.payment[i] < 0:
                return Violation(
                    "EPI4NW", inst, i, None, outcome.payment[i],
                    note="empty-handed bidder with negative payment",
                )
    return None


# ---------------------------------------------------------------------------
# Candidate split consistency
# ---------------------------------------------------------------------------


def check_cdp_consistency(
    cdp: Cdp,
    networks: Iterable[tuple[frozenset[int], dict[int, frozenset[int]]]],
) -> CheckResult:
    """Exhaustive unilateral invitation perturbation against the three
    candidacy rules: a candidate reporting more stays a candidate; a
    truthfully reporting non-trader cannot leave the non-trading side by
    deviating; an unclassified bidder reporting more changes nothing.

    Also probes the split's type contract (a candidate split is a function
    of invitation reports alone) by bumping one valuation at a time and
    requiring bitwise-identical output.

    Each bidder costs one split call and one instance copy per neighbor
    subset plus one for the probe, and one report copy per subset.  Each
    split is reduced once to its (candidate set, non-trading set), and the
    subsets and nested pairs of each distinct neighbor set are built once
    per call."""
    result = CheckResult("CDC", "exhaustive")
    lattices: dict[frozenset[int], tuple[list, list]] = {}
    probes: dict[int, Valuation] = {}

    def flag(inst: AuctionInstance, i: int, deviation: BidderReport, note: str):
        result.violations.append(Violation("CDC", inst, i, deviation, 0, note=note))

    for seller, out_edges in networks:
        result.instances += 1
        inst = network_instance(seller, out_edges)
        if inst.m not in probes:
            probes[inst.m] = Valuation.from_pairs(inst.m, {full_bundle(inst.m): 7})
        frontier = tuple(sorted(seller))
        for i, true_neighbors in out_edges.items():
            if true_neighbors not in lattices:
                lattices[true_neighbors] = _subset_lattice(true_neighbors)
            subs, pairs = lattices[true_neighbors]
            rep = inst.reports[i]
            splits = []
            for sub in subs:
                part = cdp(inst.with_report(rep.with_neighbors(sub)), frontier)
                splits.append((frozenset(part.candidates), part.non_trading))
            full = splits[-1]
            probe = rep.with_valuation(probes[inst.m])
            bumped = cdp(inst.with_report(probe), frontier)
            result.cases += len(subs) + 1
            if (frozenset(bumped.candidates), bumped.non_trading) != full:
                flag(inst, i, probe, "split depends on a valuation report")
            if i in full[1]:
                for sub, (_, non_trading) in zip(subs, splits):
                    if i not in non_trading:
                        flag(inst, i, rep.with_neighbors(sub),
                             "left the non-trading side by deviating")
            for lo, hi in pairs:
                cands_lo, non_trading_lo = splits[lo]
                if i in cands_lo:
                    if i not in splits[hi][0]:
                        flag(inst, i, rep.with_neighbors(subs[hi]),
                             "candidate dropped after reporting more")
                elif i not in non_trading_lo and splits[lo] != splits[hi]:
                    flag(inst, i, rep.with_neighbors(subs[hi]),
                         "unclassified bidder changed the split")
    return result


# ---------------------------------------------------------------------------
# Bundle division locality / resale diffusion monotonicity
# ---------------------------------------------------------------------------


def check_bdp_locality(bdp: Bdp, instances: Iterable[AuctionInstance]) -> CheckResult:
    """A candidate's invitation report never moves any bundle tuple: with the
    exploration split, pool, and prices held fixed, every subset report of
    every candidate yields the identical tuple sequence."""
    result = CheckResult("RDM", "exhaustive")
    for inst in instances:
        result.instances += 1
        frontier = tuple(sorted(inst.seller_neighbors))
        if not frontier:
            continue
        partition = graph_exploration_cdp(inst, frontier)
        pr, rev = round_prices(inst, partition)
        pool = full_bundle(inst.m)
        baseline = bdp(inst, pool, partition.candidates, pr, rev)
        result.cases += 1
        for i in partition.candidates:
            rep = inst.reports[i]
            for sub in all_subsets(rep.neighbors):
                varied = bdp(
                    inst.with_report(rep.with_neighbors(sub)),
                    pool, partition.candidates, pr, rev,
                )
                result.cases += 1
                if varied != baseline:
                    result.violations.append(
                        Violation(
                            "RDM", inst, i, rep.with_neighbors(sub), 0,
                            note="bundle tuples moved with a neighbor report",
                        )
                    )
    return result


def check_rdm_end_to_end(
    mechanism: MechanismFn, instances: Iterable[AuctionInstance]
) -> CheckResult:
    """Literal utility form of resale diffusion monotonicity: a first-round
    candidate of the exploration split has true utility non-decreasing in
    her invitation report.  Checked end to end through the whole mechanism."""
    result = CheckResult("RDM", "exhaustive")
    for inst in instances:
        result.instances += 1
        truthful = inst.truthful()
        frontier = tuple(sorted(inst.seller_neighbors))
        if not frontier:
            continue
        candidates = graph_exploration_cdp(truthful, frontier).candidates
        for i in candidates:
            true_rep = truthful.reports[i]
            subs, pairs = _subset_lattice(true_rep.neighbors)
            utilities = []
            for sub in subs:
                outcome = mechanism(truthful.with_report(true_rep.with_neighbors(sub)))
                result.cases += 1
                utilities.append(utility(true_rep, outcome, i))
            for lo, hi in pairs:
                if utilities[lo] > utilities[hi]:
                    result.violations.append(
                        Violation(
                            "RDM", inst, i, true_rep.with_neighbors(subs[lo]),
                            utilities[lo] - utilities[hi],
                            note="utility fell as the invitation report grew",
                        )
                    )
    return result


# ---------------------------------------------------------------------------
# Revenue consistency of the local single-item mechanism
# ---------------------------------------------------------------------------


def check_revenue_consistency(
    single_item_mech: SingleItemMech,
    markets: Iterable[AuctionInstance],
    rev_grid: Sequence[Money],
    space: DeviationSpace = DeviationSpace(),
) -> CheckResult:
    """No bidder with positive truthful utility can flip whether the local
    market's revenue clears a resale threshold while keeping her utility
    positive, for any threshold on the grid."""
    rng = random.Random(space.seed)
    result = CheckResult("RC", "exhaustive")
    for market in markets:
        result.instances += 1
        truthful = market.truthful()
        grand = full_bundle(market.m)
        base = sell_grand_bundle(truthful, single_item_mech)
        result.cases += 1
        for i in sorted(qualified_set(truthful)):
            true_rep = truthful.reports[i]
            true_value = true_rep.valuation.of(grand)
            if base.utility(i, true_value) <= 0:
                continue
            devs, clipped = _unilateral_deviations(true_rep, market.m, space, rng)
            result.budget_exceeded |= clipped
            for dev in devs:
                dev_inst = truthful.with_report(dev)
                dev_result = sell_grand_bundle(dev_inst, single_item_mech)
                result.cases += 1
                if dev_result.utility(i, true_value) <= 0:
                    continue
                for level in rev_grid:
                    if (base.revenue < level) != (dev_result.revenue < level):
                        result.violations.append(
                            Violation(
                                "RC", market, i, dev,
                                dev_result.revenue - base.revenue,
                                note=f"threshold {level} flipped",
                            )
                        )
                        break
    if result.budget_exceeded:
        result.scope = "sampled"
    return result


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_violation(mechanism: MechanismFn, violation: Violation) -> Money:
    """Recompute the stored delta from scratch; soundness means equality."""
    if violation.prop == "IR":
        outcome = mechanism(violation.deviated_instance())
        true_rep = violation.instance.true_report(violation.bidder)
        return utility(true_rep, outcome, violation.bidder)
    if violation.prop == "IC":
        true_rep = violation.instance.true_report(violation.bidder)
        u_truth = utility(true_rep, mechanism(violation.base_instance()), violation.bidder)
        u_dev = utility(true_rep, mechanism(violation.deviated_instance()), violation.bidder)
        return u_dev - u_truth
    if violation.prop == "WBB":
        return mechanism(violation.instance).seller_revenue
    if violation.prop == "EPI4NW":
        return mechanism(violation.instance).payment[violation.bidder]
    raise ValueError(f"no replay rule for {violation.prop}")
