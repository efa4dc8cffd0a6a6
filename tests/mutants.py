"""Deliberately broken mechanisms and processes.

Each one plants exactly the defect its matching checker or metamorphic
relation exists to catch; the mutation tests assert the checkers and
relations flag them.  The one sound process here, :func:`trivial_cdp`, is
the simplest split the candidacy rules allow.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import replace
from typing import Callable, Sequence

from netauction.critical import all_critical_structures
from netauction.drm import graph_exploration_cdp
from netauction.framework import BundleTuple
from netauction.idm import idm_run
from netauction.model import (
    AuctionInstance,
    Bundle,
    Money,
    Outcome,
    full_bundle,
    iter_subbundles,
)

# A split: candidates in classification order and the price setters.
Split = tuple[tuple[int, ...], frozenset[int]]


def qualified_second_price(
    instance: AuctionInstance, tie: Callable[[int], object] = lambda i: i
) -> Outcome:
    """Second price over all qualified bidders, no invitation rewards.
    Hiding a stronger invitee lets a weak bidder win cheap, so truthful
    invitation is not dominant.  Equal top values go to the lowest ``tie``
    key, by default the lowest id."""
    grand = full_bundle(instance.m)
    reachable = list(all_critical_structures(instance).critical_nodes)
    allocation = {i: 0 for i in instance.reports}
    payment = {i: 0 for i in instance.reports}
    if reachable:
        values = {i: instance.reports[i].values[grand] for i in reachable}
        winner = min(reachable, key=lambda i: (-values[i], tie(i)))
        rest = sorted((values[i] for i in reachable if i != winner), reverse=True)
        allocation[winner] = grand
        payment[winner] = rest[0] if rest else 0
    return Outcome(allocation, payment)


def overcharging_mechanism(instance: AuctionInstance) -> Outcome:
    """Winner pays her own reported value plus one: never rational."""
    outcome = qualified_second_price(instance)
    grand = full_bundle(instance.m)
    payment = dict(outcome.payment)
    for i, bundle in outcome.allocation.items():
        if bundle:
            payment[i] = instance.reports[i].values[grand] + 1
    return Outcome(outcome.allocation, payment)


def subsidizing_mechanism(instance: AuctionInstance) -> Outcome:
    """Pays every qualified loser one unit; rewards can exceed intake."""
    outcome = qualified_second_price(instance)
    payment = dict(outcome.payment)
    for i in all_critical_structures(instance).critical_nodes:
        if outcome.allocation.get(i, 0) == 0:
            payment[i] = -1
    return Outcome(outcome.allocation, payment)


def halving_second_price(instance: AuctionInstance) -> Outcome:
    """Second price over all qualified bidders, halved with floor division:
    the payment is not linear in the values, so multiplying every value by
    ``k`` does not multiply every payment by ``k``."""
    outcome = qualified_second_price(instance)
    payment = {i: p // 2 for i, p in outcome.payment.items()}
    return Outcome(outcome.allocation, payment)


def parity_tied_second_price(instance: AuctionInstance) -> Outcome:
    """Second price whose ties go to even ids first: the winner depends on
    id parity, not on id order alone, so a relabelling that keeps the order
    but changes the parity moves the item."""
    return qualified_second_price(instance, tie=lambda i: (i % 2, i))


def trivial_cdp(residual_instance: AuctionInstance) -> Split:
    """Every frontier bidder (a reporting seller invitee of the residual
    instance) becomes a candidate; nobody prices bundles."""
    reports = residual_instance.reports
    present = sorted(i for i in residual_instance.seller_neighbors if i in reports)
    return tuple(present), frozenset()


def _ranked_exploration(
    residual_instance: AuctionInstance, rank: Callable
) -> Split:
    """Graph exploration that puts each layer's better-ranked half (by the
    ``rank`` key) in the candidate set."""
    reports = residual_instance.reports
    candidates: list[int] = []
    non_trading: set[int] = set()
    classified: set[int] = set()
    layer = [i for i in residual_instance.seller_neighbors if i in reports]
    while layer:
        ranked = sorted(layer, key=rank)
        cut = (len(ranked) + 1) // 2
        candidates.extend(ranked[:cut])
        non_trading.update(ranked[cut:])
        classified.update(ranked)
        discovered: set[int] = set()
        for j in non_trading:
            discovered |= reports[j].neighbors
        discovered &= set(reports)
        layer = sorted(discovered - classified)
    return tuple(candidates), frozenset(non_trading)


def ascending_degree_cdp(residual_instance: AuctionInstance) -> Split:
    """Graph exploration with the ranking inverted (fewest invitations
    first): a candidate who reports more neighbors can fall out of the
    candidate set."""
    reports = residual_instance.reports
    return _ranked_exploration(
        residual_instance, lambda i: (len(reports[i].neighbors), i)
    )


def valuation_ranked_cdp(residual_instance: AuctionInstance) -> Split:
    """Graph exploration ranked by reported grand-bundle value: the split
    depends on valuations, which a candidate split must never do."""
    reports, grand = residual_instance.reports, full_bundle(residual_instance.m)
    return _ranked_exploration(
        residual_instance, lambda i: (-reports[i].values[grand], i)
    )


def invited_count_cdp(residual_instance: AuctionInstance) -> Split:
    """Graph exploration ranked by how many reports invite each bidder,
    reachable or not: an unclassified bidder's invitations move the ranks of
    the bidders she names, so her report changes the split."""
    reports = residual_instance.reports
    invited = Counter(j for rep in reports.values() for j in rep.neighbors)
    return _ranked_exploration(residual_instance, lambda i: (-invited[i], i))


def outside_invited_cdp(residual_instance: AuctionInstance) -> Split:
    """The exploration split minus every price setter that a bidder the
    split left out names: an unclassified bidder's invitations move only the
    non-trading side, and the candidates stay as they were."""
    candidates, non_trading = graph_exploration_cdp(residual_instance)
    named: set[int] = set()
    for i, rep in residual_instance.reports.items():
        if i not in non_trading and i not in candidates:
            named |= rep.neighbors
    return candidates, non_trading - named


def _greedy_division(
    residual_instance: AuctionInstance,
    remaining: int,
    candidates: Sequence[int],
    pr,
    rev,
    order: Sequence[int],
    beats: Callable[[Money, Money], bool],
) -> tuple[BundleTuple, ...]:
    """Greedy division serving candidates in ``order``, where a sub-bundle
    replaces the best so far when ``beats(score, best score)``."""
    tuples: dict[int, BundleTuple] = {}
    pool = remaining
    for cand in order:
        value = residual_instance.reports[cand].values
        best_resale, best_resale_score = 0, 0
        best_reserve, best_reserve_score = 0, 0
        for b in iter_subbundles(pool):
            resale_score = max(value[b], rev(b)) - pr(b)
            reserve_score = value[b] - pr(b)
            if beats(resale_score, best_resale_score):
                best_resale, best_resale_score = b, resale_score
            if beats(reserve_score, best_reserve_score):
                best_reserve, best_reserve_score = b, reserve_score
        tuples[cand] = BundleTuple(best_resale, best_reserve)
        pool &= ~(best_resale | best_reserve)
    return tuple(tuples[c] for c in candidates)


def degree_ordered_greedy_bdp(
    residual_instance: AuctionInstance,
    remaining: int,
    candidates: Sequence[int],
    pr,
    rev,
) -> tuple[BundleTuple, ...]:
    """Greedy division but serving candidates by reported degree: a
    candidate's own invitation report moves her place in the queue."""
    order = sorted(
        candidates,
        key=lambda i: (-len(residual_instance.reports[i].neighbors), i),
    )
    return _greedy_division(
        residual_instance, remaining, candidates, pr, rev, order, operator.gt
    )


def last_max_greedy_bdp(
    residual_instance: AuctionInstance,
    remaining: int,
    candidates: Sequence[int],
    pr,
    rev,
) -> tuple[BundleTuple, ...]:
    """Greedy division that keeps the last maximum on ties: a larger bundle
    with the same score wins, so an item nobody values is handed out with
    the rest."""
    return _greedy_division(
        residual_instance, remaining, candidates, pr, rev, sorted(candidates),
        operator.ge,
    )


def leaky_idm(market: AuctionInstance, lot: Bundle, reserve: Money) -> Outcome:
    """IDM plus a rebate of the first critical node's own bid: the local
    revenue now moves with a positive-utility loser's report.  The reserve
    is ignored."""
    sale = idm_run(market, lot)
    if not sale.critical_sequence:
        return sale
    first = sale.critical_sequence[0]
    if sale.allocation[first] == lot:
        return sale
    payment = dict(sale.payment)
    payment[first] -= market.reports[first].values[lot]
    return replace(sale, payment=payment)
