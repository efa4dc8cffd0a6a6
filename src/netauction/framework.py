"""Round engine for combinatorial diffusion auctions.

Each round: a candidate determination process (CDP), a function of the
residual instance alone, splits the crowd reachable from the residual's seller
invitations (the frontier) into candidate distributors and a non-trading set
whose reported values price bundles; a bundle division process (BDP) hands
every candidate a resale bundle and a reserve bundle; each candidate then
either resells her bundle as one lot to her own invitees through a local
single-item mechanism (keeping the margin between the bundle's fixed resale
revenue and its price) or, if the local proceeds fall short, buys the reserve
bundle at its price.  Processed participants leave, their invitees form the
next frontier, and unsold items stay in the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .critical import Unqualified, all_critical_structures, check_outcome
from .model import (
    AuctionError,
    AuctionInstance,
    BidderReport,
    Bundle,
    Money,
    Outcome,
    bundle_str,
    full_bundle,
    restrict_instance,
)

BoundPrice = Callable[[Bundle], Money]
# A split of the residual instance, whose seller invitations are the frontier:
# the pair (candidates in classification order, frozenset of price setters).
# It must neither keep nor mutate the instance it is handed: the candidacy
# checker reuses one instance across calls, changing one report in between.
Cdp = Callable[[AuctionInstance], tuple[tuple[int, ...], frozenset[int]]]
Bdp = Callable[[AuctionInstance, Bundle, Sequence[int], BoundPrice, BoundPrice],
               tuple["BundleTuple", ...]]
# A local single-item market: (market, lot, reserve price) -> an outcome with
# an entry for every market bidder, in which each bidder bids her report's
# value for the lot and the winner holds it.  The engine hands it the resale
# bar as the reserve; a mechanism may ignore it.
SingleItemMech = Callable[[AuctionInstance, Bundle, Money], Outcome]


class InvalidTuple(AuctionError):
    pass


class BundleTuple(NamedTuple):
    """Per-candidate pair: the bundle offered for resale and the fallback
    reserve bundle."""

    resale: Bundle
    reserve: Bundle

    def __str__(self) -> str:
        return f"(resale={bundle_str(self.resale)}, reserve={bundle_str(self.reserve)})"


class RoundState(NamedTuple):
    """One engine round as the loop saw it: the residual instance, the CDP's
    candidates in classification order, the price setters in ascending id
    order, the BDP's tuples and, per candidate, whether she resold."""

    index: int
    residual: AuctionInstance
    candidates: tuple[int, ...]
    non_trading: tuple[int, ...]
    tuples: tuple[BundleTuple, ...]
    resold: tuple[bool, ...]
    intake: Money
    items_before: Bundle
    items_after: Bundle
    removed: frozenset[int]


@dataclass(frozen=True)
class DcafRun:
    """One engine run: the outcome and one :class:`RoundState` per round."""

    outcome: Outcome
    rounds: tuple[RoundState, ...]


# ---------------------------------------------------------------------------
# Pricing over the non-trading set
# ---------------------------------------------------------------------------


def price_fn(tn_reports: Sequence[BidderReport], bundle: Bundle) -> Money:
    """Second-highest reported value for the bundle among non-traders; zero
    when fewer than two of them exist."""
    if len(tn_reports) < 2:
        return 0
    values = sorted((rep.values[bundle] for rep in tn_reports), reverse=True)
    return values[1]


def resale_revenue_fn(tn_reports: Sequence[BidderReport], bundle: Bundle) -> Money:
    """Highest reported value for the bundle among non-traders; zero when
    none exist.  Never below :func:`price_fn` on the same inputs."""
    if not tn_reports:
        return 0
    return max([rep.values[bundle] for rep in tn_reports])


PRICING = {"second-first": (price_fn, resale_revenue_fn)}


def round_prices(
    residual: AuctionInstance, non_trading: Sequence[int]
) -> tuple[BoundPrice, BoundPrice]:
    """A round's bundle price and resale revenue: both pricing rules bound to
    one list of the non-traders' reports, in the order given (ascending ids
    in the engine)."""
    # Looked up per call, not bound at import: bench/tracing.py swaps the entry.
    pr_fn, rev_fn = PRICING["second-first"]
    tn_reports = [residual.reports[j] for j in non_trading]
    return partial(pr_fn, tn_reports), partial(rev_fn, tn_reports)


# ---------------------------------------------------------------------------
# Diffusion resale process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrpResult(Outcome):
    """The partial outcome over one distributor's reach, and whether her
    resale attempt stood."""

    resold: bool


def drp_run(
    residual_instance: AuctionInstance,
    distributor: int,
    bundle_tuple: BundleTuple,
    pr: BoundPrice,
    rev: BoundPrice,
    single_item_mech: SingleItemMech,
    *,
    reach: frozenset[int],
) -> DrpResult:
    """Run one distributor's resale attempt.

    ``reach`` is the distributor's subtree in the residual graph's dominator
    tree: she herself plus every bidder only she can reach.  Her invitees in
    it form a local market where her resale bundle is sold as one lot, with
    the bundle's fixed resale revenue, the bar, as the local mechanism's
    reserve price.  If some invitee wins the lot and the local proceeds
    reach the bar, she gets nothing, pays price minus revenue (a
    non-positive amount: her dealer margin), and the local outcome stands;
    otherwise the attempt is void and she buys the reserve bundle at its
    price.  An empty resale bundle or an empty local market skips straight
    to the reservation branch.
    """
    locals_ = reach - {distributor}
    resale = bundle_tuple.resale
    if resale and locals_:
        bar = rev(resale)
        seller_edges = residual_instance.reports[distributor].neighbors & locals_
        market = restrict_instance(residual_instance, locals_, seller_edges)
        sale = single_item_mech(market, resale, bar)
        if resale in sale.allocation.values() and sale.seller_revenue >= bar:
            allocation = {**sale.allocation, distributor: 0}
            payment = {**sale.payment, distributor: pr(resale) - bar}
            return DrpResult(allocation, payment, True)

    reserve = bundle_tuple.reserve
    nothing = dict.fromkeys(reach, 0)
    return DrpResult(
        {**nothing, distributor: reserve}, {**nothing, distributor: pr(reserve)}, False
    )


# ---------------------------------------------------------------------------
# The round loop
# ---------------------------------------------------------------------------


def dcaf_run_detailed(
    instance: AuctionInstance,
    cdp: Cdp,
    bdp: Bdp,
    single_item_mech: SingleItemMech,
) -> DcafRun:
    """Run the full round loop and keep one :class:`RoundState` per round.

    Rounds repeat until the item pool, the set of unprocessed participants,
    or the frontier empties; whoever is left gets nothing and pays nothing.
    The loop ends because the next frontier holds only invitees of the
    bidders a round removed: a round that removes nobody leaves it empty,
    and every other round shrinks the set of participants.
    """
    alive = set(instance.reports)
    remaining = full_bundle(instance.m)
    frontier = instance.seller_neighbors & alive
    allocation = dict.fromkeys(instance.reports, 0)
    payment = dict.fromkeys(instance.reports, 0)
    rounds: list[RoundState] = []

    while remaining and alive and frontier:
        residual = restrict_instance(instance, alive, frontier)
        candidates, non_trading = cdp(residual)
        if not non_trading.isdisjoint(candidates):
            raise InvalidTuple("candidate and non-trading sets overlap")
        price_setters = tuple(sorted(non_trading))
        pr, rev = round_prices(residual, price_setters)
        tuples = bdp(residual, remaining, candidates, pr, rev)
        _check_tuples(tuples, len(candidates), remaining)

        structure = all_critical_structures(residual)
        claimed: set[int] = set()
        intake = 0
        sold = 0
        resold_flags = []
        for cand, tup in zip(candidates, tuples):
            if cand not in structure.critical_children:
                raise Unqualified(cand)
            reach = structure.critical_children[cand]
            if reach & claimed:
                raise AuctionError(
                    f"candidate reaches overlap at distributor {cand}; "
                    "the CDP/BDP combination is unsound"
                )
            claimed |= reach
            result = drp_run(
                residual, cand, tup, pr, rev, single_item_mech, reach=reach
            )
            for j, b in result.allocation.items():
                allocation[j] |= b
                sold |= b
            for j, p in result.payment.items():
                payment[j] += p
            intake += result.seller_revenue
            resold_flags.append(result.resold)

        removed = frozenset(claimed | non_trading)
        rounds.append(RoundState(
            len(rounds), residual, candidates, price_setters, tuples,
            tuple(resold_flags), intake, remaining, remaining & ~sold, removed,
        ))
        alive -= removed
        remaining &= ~sold
        frontier = set()
        for j in removed:
            frontier |= instance.reports[j].neighbors
        frontier &= alive

    outcome = Outcome(allocation, payment)
    check_outcome(instance, outcome)
    return DcafRun(outcome, tuple(rounds))


def _check_tuples(tuples: Sequence[BundleTuple], count: int, remaining: Bundle) -> None:
    if len(tuples) != count:
        raise InvalidTuple(f"{len(tuples)} bundle tuples for {count} candidates")
    union = 0
    for tup in tuples:
        bundles = tup.resale | tup.reserve
        if bundles & ~remaining:
            raise InvalidTuple(f"{tup} leaves the remaining item pool")
        if bundles & union:
            raise InvalidTuple(f"{tup} overlaps another distributor's bundles")
        union |= bundles
