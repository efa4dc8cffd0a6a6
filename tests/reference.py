"""Reference definitions and hand fixtures that only the tests use.

The removal form of a critical diffusion node is the paper's normative
definition; the package computes the same sets as a dominator fixpoint
(:mod:`netauction.critical`), and :func:`critical_nodes_by_removal` is the
independent oracle the tests hold it to.  :func:`check_rdm_end_to_end` is
the literal utility form of resale diffusion monotonicity, run through the
whole mechanism; the package's checker tests the bundle-division form.
:func:`deviation_cases_without_memo` is the IR/IC sweep with one mechanism
call per case, which the package's read-set memo must agree with.
:func:`virtual_bidder_idm` is the reserve price written as one more bidder,
which the reserve floor of :func:`netauction.idm.idm_run` must agree with.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, Mapping

from netauction.critical import Unqualified, all_critical_structures
from netauction.drm import graph_exploration_cdp
from netauction.generate import instance_from_parts, monotone_tables, scalar_market
from netauction.idm import SingleItemResult, idm_run
from netauction.model import AuctionInstance, BidderReport, Money, Valuation, utility
from netauction.properties import (
    CheckResult,
    DeviationSpace,
    MechanismFn,
    Violation,
    _deviations,
    _others_contexts,
    _subset_lattice,
    _with_reports,
)


def closure_oracle(instance: AuctionInstance) -> frozenset[int]:
    """Independent qualification oracle: iterate set expansion to a fixed
    point instead of a graph walk."""
    reached = set(i for i in instance.seller_neighbors if i in instance.reports)
    while True:
        grown = set(reached)
        for i in reached:
            grown |= set(instance.reports[i].neighbors) & set(instance.reports)
        if grown == reached:
            return frozenset(reached)
        reached = grown


def critical_nodes_by_removal(instance: AuctionInstance, i: int) -> frozenset[int]:
    """Oracle form: ``i`` plus every node whose removal cuts ``i`` off.

    Recomputes seller-reachability once per removed candidate; independent of
    the dominator path by construction.
    """
    qualified = closure_oracle(instance)
    if i not in qualified:
        raise Unqualified(i)
    out = {i}
    for c in qualified:
        if c == i:
            continue
        reached: set[int] = set()
        stack = [j for j in instance.seller_neighbors if j in instance.reports and j != c]
        reached.update(stack)
        while stack:
            cur = stack.pop()
            for nb in instance.reports[cur].neighbors:
                if nb != c and nb not in reached and nb in instance.reports:
                    reached.add(nb)
                    stack.append(nb)
        if i not in reached:
            out.add(c)
    return frozenset(out)


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
        if not inst.seller_neighbors:
            continue
        candidates = graph_exploration_cdp(truthful).candidates
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


def deviation_cases_without_memo(
    prop: str,
    mechanism: MechanismFn,
    instances: Iterable[AuctionInstance],
    space: DeviationSpace,
) -> CheckResult:
    """``check_ir`` (``prop="IR"``) or ``check_ic`` (``prop="IC"``) with no
    memo: every case, the truthful bar included, is one mechanism call."""
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


def virtual_bidder_idm(
    market: AuctionInstance, item_value: Mapping[int, Money], reserve: Money
) -> SingleItemResult:
    """Plain IDM with the reserve as a virtual bidder: one more seller
    invitee who invites nobody, values the item at ``reserve`` and has the
    highest id, so she loses every tie.  She is stripped from the result,
    and her win is no sale."""
    virtual = max(market.reports, default=0) + 1
    reports = dict(market.reports)
    reports[virtual] = BidderReport(virtual, Valuation.zero(market.m), frozenset())
    padded = AuctionInstance(market.m, market.seller_neighbors | {virtual}, reports)
    result = idm_run(padded, {**item_value, virtual: reserve})
    payments = {j: p for j, p in result.payments.items() if j != virtual}
    if result.winner == virtual:
        return SingleItemResult(None, payments, (), {})
    assert result.payments[virtual] == 0, "the virtual bidder paid without winning"
    return replace(result, payments=payments)


def line_market_fixture() -> AuctionInstance:
    """Three bidders on a chain valuing the item at 3, 5, 10."""
    return scalar_market("line", (3, 5, 10))


def two_round_showcase() -> AuctionInstance:
    """Eleven bidders, two items; built so a run takes exactly two rounds
    with a singleton candidate set in the second, two bidders never reached,
    and one item returning to the pool after a failed resale."""
    m = 2
    # table layout: (empty, item 1, item 2, both)
    seller = frozenset({1, 2, 3, 4})
    out = {
        1: frozenset({5, 9}),
        2: frozenset({7}),
        3: frozenset(),
        4: frozenset(),
        5: frozenset({6}),
        6: frozenset({8}),
        7: frozenset({6}),
        8: frozenset(),
        9: frozenset(),
        10: frozenset(),
        11: frozenset(),
    }
    tables = {
        1: Valuation.zero(m),
        2: Valuation(m, (0, 4, 0, 4)),
        3: Valuation(m, (0, 3, 9, 11)),
        4: Valuation(m, (0, 3, 7, 11)),
        5: Valuation(m, (0, 0, 6, 6)),
        6: Valuation(m, (0, 0, 2, 2)),
        7: Valuation(m, (0, 5, 0, 5)),
        8: Valuation(m, (0, 0, 1, 1)),
        9: Valuation.zero(m),
        10: Valuation.zero(m),
        11: Valuation.zero(m),
    }
    return instance_from_parts(m, seller, out, tables)
