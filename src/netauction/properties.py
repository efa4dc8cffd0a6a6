"""Brute-force verifiers for the incentive properties.

Every checker enumerates a deviation space (exhaustively when it fits a
budget, by seeded sampling otherwise, and always saying which) and returns
counterexamples.  IR, IC, RC, WBB and EPI4NW witnesses replay: re-running
the mechanism (for RC, the local single-item one) on the stored instance,
context and deviation reproduces the stored delta.  CDC and RDM witnesses
compare two reports and store delta 0, so they have no replay rule.  RDM is
checked in its bundle-division form (:func:`check_bdp_locality`); the
end-to-end utility form is a test reference (``check_rdm_end_to_end`` in
``tests/reference.py``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .critical import all_critical_structures
from .drm import graph_exploration_cdp, sell_grand_bundle
from .framework import (
    Bdp,
    Cdp,
    SingleItemMech,
    round_prices,
)
from .generate import all_subsets, instance_from_parts, monotone_tables
from .model import (
    AuctionError,
    AuctionInstance,
    BidderReport,
    Money,
    Outcome,
    Valuation,
    bundle_str,
    full_bundle,
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
    """One counterexample.  IR, IC, RC, WBB and EPI4NW witnesses replay
    through :func:`replay_violation`; CDC and RDM witnesses compare two
    reports, store delta 0 and have no replay rule."""

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


def _deviations(
    truth: BidderReport,
    tables: Sequence[Valuation],
    space: DeviationSpace,
    rng: random.Random,
) -> tuple[list[BidderReport], bool]:
    """Every (table, neighbor subset) report for one bidder, tables-major, or
    ``space.budget`` seeded draws when that grid exceeds the budget.  A draw
    picks a table only when there is more than one to pick from."""
    subsets = all_subsets(truth.neighbors)
    if len(tables) * len(subsets) <= space.budget:
        grid = itertools.product(tables, subsets)
        return [BidderReport(truth.bidder_id, tbl, sub) for tbl, sub in grid], False
    out = [
        BidderReport(
            truth.bidder_id,
            rng.choice(tables) if len(tables) > 1 else tables[0],
            rng.choice(subsets),
        )
        for _ in range(space.budget)
    ]
    return out, True


def _others_contexts(
    instance: AuctionInstance, bidder: int, space: DeviationSpace, rng: random.Random
) -> list[tuple[BidderReport, ...]]:
    """Joint deviation profiles for everyone but ``bidder``; the truthful
    profile (empty context) always comes first."""
    contexts: list[tuple[BidderReport, ...]] = [()]
    if space.others_budget <= 0:
        return contexts
    truth = instance.ground_truth
    others = [b for b in sorted(truth) if b != bidder]
    tables = monotone_tables(instance.m, space.v_max)
    for _ in range(space.others_budget):
        ctx = []
        for j in others:
            rep = truth[j]
            sub = frozenset(k for k in sorted(rep.neighbors) if rng.random() < 0.5)
            ctx.append(BidderReport(j, rng.choice(tables), sub))
        contexts.append(tuple(ctx))
    return contexts


# ---------------------------------------------------------------------------
# Individual rationality / incentive compatibility / budget balance
# ---------------------------------------------------------------------------


class _ReadLog:
    """A deviator's valuation table that logs every ``values[b]`` read with
    an int key, in first-read order.  ``len`` is free; any other access sets
    ``whole``, since the run may then have read the whole table."""

    __slots__ = ("values", "reads", "whole")

    def __init__(self, values: tuple[Money, ...]):
        self.values, self.reads, self.whole = values, {}, False

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, bundle):
        if type(bundle) is int:
            return self.reads.setdefault(bundle, self.values[bundle])
        return self.__getattr__("__getitem__")(bundle)

    def __getattr__(self, name: str):
        self.whole = True
        return getattr(self.values, name)


for _name in ("__iter__", "__contains__", "__hash__", "__eq__", "__ne__", "__lt__",
              "__le__", "__gt__", "__ge__", "__add__", "__mul__", "__rmul__", "__repr__"):
    # Special methods bypass __getattr__, so each one is routed through it.
    setattr(_ReadLog, _name, lambda self, *a, _name=_name: self.__getattr__(_name)(*a))


def _memo_run(
    mechanism: MechanismFn, base: AuctionInstance, dev: BidderReport, memo: dict
) -> Outcome:
    """``mechanism(base.with_report(dev))``, answered from ``memo`` when it
    can be.  ``memo`` maps a neighbor subset to a trie node: ``[bundle read
    next, {value found there: child}]``, or ``[None, outcome]`` at a leaf.
    A miss runs once on a :class:`_ReadLog` and, unless the run read the
    table whole, files its reads as a new branch."""
    values = dev.valuation.values
    node = memo.get(dev.neighbors)
    while node is not None and node[0] is not None:
        node = node[1].get(values[node[0]])
    if node is not None:
        return node[1]
    log = _ReadLog(values)
    logged = BidderReport(dev.bidder_id, Valuation(dev.valuation.m, log), dev.neighbors)
    outcome = mechanism(base.with_report(logged))
    if log.whole:
        return outcome
    level, key = memo, dev.neighbors
    for bundle, value in (*log.reads.items(), (None, None)):
        node = level.setdefault(key, [bundle, {} if bundle is not None else outcome])
        if node[0] != bundle:
            one, other = ("nothing" if b is None else f"bundle {bundle_str(b)}"
                          for b in (bundle, node[0]))
            raise AuctionError(
                f"mechanism is not deterministic: two runs for bidder {dev.bidder_id} "
                f"agreed on every value read, then one read {one} next and the "
                f"other {other}"
            )
        level, key = node[1], value
    return outcome


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
    which costs one more case per profile.

    Under one profile of the others, IC runs go through a read-set memo
    (:func:`_memo_run`), the truthful one included; IR runs skip it, since
    no two IR deviations share a neighbor subset.  The mechanism must be a
    deterministic function of the reports: a deviation with the same
    neighbor subset as an earlier run, agreeing with it on every
    ``values[b]`` that run read, reuses its outcome without a call.  A run
    that touches the deviator's table any other way (iteration, slicing,
    comparison, hashing, any other attribute) is never reused.
    """
    ic = prop == "IC"
    rng = random.Random(space.seed)
    result = CheckResult(prop, "exhaustive")
    for inst in instances:
        result.instances += 1
        truthful = inst.truthful()
        for i in all_critical_structures(truthful).critical_nodes:
            true_rep = truthful.reports[i]
            tables = monotone_tables(inst.m, space.v_max) if ic else (true_rep.valuation,)
            devs, clipped = _deviations(true_rep, tables, space, rng)
            result.budget_exceeded |= clipped
            for ctx in _others_contexts(inst, i, space, rng):
                base = _with_reports(truthful, ctx)
                memo: dict = {}
                bar = 0
                if ic:
                    result.cases += 1
                    bar = utility(true_rep, _memo_run(mechanism, base, true_rep, memo), i)
                for dev in devs:
                    outcome = (_memo_run(mechanism, base, dev, memo) if ic
                               else mechanism(base.with_report(dev)))
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

    Each bidder costs one split call per neighbor subset plus one for the
    probe, and no copy: each network gets one scratch instance (no ground
    truth) whose ``reports`` the sweep rewrites one deviation at a time,
    restoring the true report after each bidder.  The deviated reports of
    each (bidder, true neighbor set) are built once per call, and a witness
    instance only when a violation is flagged.  ``out_edges`` is only read,
    so maps shared across networks stay intact."""
    result = CheckResult("CDC", "exhaustive")
    zero = Valuation.zero(1)
    probe_table = Valuation.from_pairs(1, {1: 7})  # network instances sell one item
    # (bidder, true neighbors) -> her report per neighbor subset in lattice
    # order (the true one last) then the probe, and the lattice's pairs.
    deviations: dict[tuple[int, frozenset[int]], tuple[list, list]] = {}

    def flag(i: int, deviation: BidderReport, note: str):
        witness = instance_from_parts(
            1, seller, out_edges, dict.fromkeys(out_edges, zero)
        )
        result.violations.append(Violation("CDC", witness, i, deviation, 0, note=note))

    for seller, out_edges in networks:
        result.instances += 1
        bidders = []
        reports = {}
        for i, true_neighbors in out_edges.items():
            key = (i, true_neighbors)
            if key not in deviations:
                subs, pairs = _subset_lattice(true_neighbors)
                devs = [BidderReport(i, zero, sub) for sub in subs]
                devs.append(BidderReport(i, probe_table, true_neighbors))
                deviations[key] = devs, pairs
            devs, pairs = deviations[key]
            reports[i] = devs[-2]
            bidders.append((i, devs, pairs))
        scratch = AuctionInstance(1, seller, reports)
        for i, devs, pairs in bidders:
            splits = []
            for dev in devs:
                reports[i] = dev
                part = cdp(scratch)
                splits.append((frozenset(part.candidates), part.non_trading))
            reports[i] = devs[-2]
            result.cases += len(devs)
            bumped = splits.pop()
            full = splits[-1]
            if bumped != full:
                flag(i, devs[-1], "split depends on a valuation report")
            if i in full[1]:
                for dev, (_, non_trading) in zip(devs, splits):
                    if i not in non_trading:
                        flag(i, dev, "left the non-trading side by deviating")
            for lo, hi in pairs:
                cands_lo, non_trading_lo = splits[lo]
                if i in cands_lo:
                    if i not in splits[hi][0]:
                        flag(i, devs[hi], "candidate dropped after reporting more")
                elif i not in non_trading_lo and splits[lo] != splits[hi]:
                    flag(i, devs[hi], "unclassified bidder changed the split")
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
        if not inst.seller_neighbors:
            continue
        partition = graph_exploration_cdp(inst)
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


# ---------------------------------------------------------------------------
# Revenue consistency of the local single-item mechanism
# ---------------------------------------------------------------------------

# The resale thresholds the local revenue is tested against.
RC_THRESHOLDS = range(7)


def check_revenue_consistency(
    single_item_mech: SingleItemMech,
    markets: Iterable[AuctionInstance],
) -> CheckResult:
    """No bidder with positive truthful utility can flip whether the local
    market's revenue clears a resale threshold while keeping her utility
    positive, for any threshold 0..6 (:data:`RC_THRESHOLDS`).  Each
    bidder's deviations are those of the default :class:`DeviationSpace`."""
    space = DeviationSpace()
    rng = random.Random(space.seed)
    result = CheckResult("RC", "exhaustive")
    for market in markets:
        result.instances += 1
        truthful = market.truthful()
        grand = full_bundle(market.m)
        base = sell_grand_bundle(truthful, single_item_mech)
        base_revenue = base.revenue
        result.cases += 1
        for i in all_critical_structures(truthful).critical_nodes:
            true_rep = truthful.reports[i]
            true_value = true_rep.valuation.values[grand]
            if base.utility(i, true_value) <= 0:
                continue
            tables = monotone_tables(market.m, space.v_max)
            devs, clipped = _deviations(true_rep, tables, space, rng)
            result.budget_exceeded |= clipped
            for dev in devs:
                dev_inst = truthful.with_report(dev)
                dev_result = sell_grand_bundle(dev_inst, single_item_mech)
                result.cases += 1
                if dev_result.utility(i, true_value) <= 0:
                    continue
                dev_revenue = dev_result.revenue
                for level in RC_THRESHOLDS:
                    if (base_revenue < level) != (dev_revenue < level):
                        result.violations.append(
                            Violation(
                                "RC", market, i, dev,
                                dev_revenue - base_revenue,
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


def replay_violation(
    mechanism: MechanismFn | SingleItemMech, violation: Violation
) -> Money:
    """Recompute the stored delta from scratch; soundness means equality.
    An RC witness replays on the local single-item mechanism it was found
    with."""
    prop, i = violation.prop, violation.bidder
    if prop in ("IR", "IC"):
        base = violation.base_instance()
        true_rep = base.reports[i]
        bar = utility(true_rep, mechanism(base), i) if prop == "IC" else 0
        return utility(true_rep, mechanism(violation.deviated_instance()), i) - bar
    if prop == "RC":
        base = sell_grand_bundle(violation.base_instance(), mechanism)
        deviated = sell_grand_bundle(violation.deviated_instance(), mechanism)
        return deviated.revenue - base.revenue
    if prop == "WBB":
        return mechanism(violation.instance).seller_revenue
    if prop == "EPI4NW":
        return mechanism(violation.instance).payment[i]
    raise ValueError(f"no replay rule for {prop}")
