"""Concrete mechanism assembly: the dealer retail mechanism and variants.

The dealer retail mechanism ("drm") wires together the graph-exploration
candidate split, the greedy bundle division, the IDM local resale market
(which ignores the resale bar it is handed), and second/first-price bundle
pricing over the non-trading set.  Variants swap the bundle division for the
random single-item one ("drm-random-bdp") or the local market for IDM floored
at the resale bar ("drm-reserve").  The "idm" yardstick is IDM selling the
grand bundle as one lot on the whole instance.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Sequence

from .framework import (
    BoundPrice,
    BundleTuple,
    dcaf_run_detailed,
    DcafRun,
)
from .idm import idm_run
from .model import (
    AuctionError,
    AuctionInstance,
    Bundle,
    MechanismConfig,
    Money,
    Outcome,
    full_bundle,
    iter_subbundles,
)

Mechanism = Callable[[AuctionInstance, MechanismConfig], Outcome]

GREEDY_MAX_POOL = 12


class TooManyItems(AuctionError):
    def __init__(self, count: int):
        super().__init__(
            f"{count} items remain; greedy bundle division enumerates all "
            f"sub-bundles and is capped at {GREEDY_MAX_POOL}"
        )


# ---------------------------------------------------------------------------
# Candidate determination
# ---------------------------------------------------------------------------


def graph_exploration_cdp(
    residual_instance: AuctionInstance,
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Explore outward from the frontier (the residual instance's seller
    invitations), repeatedly sending the top half of each newly discovered
    layer (by reported degree, ties to the lower id) to the candidate side
    and the bottom half to the non-trading side.
    Discovery follows only non-traders' reported neighbors, so a bidder's own
    report never affects her own classification beyond her rank.

    Each layer expands only the price setters it has just classified: an
    earlier price setter's reporting invitees were all classified in the
    layer after hers, so expanding her again would find nothing new."""
    reports = residual_instance.reports
    candidates: list[int] = []
    non_trading: set[int] = set()
    classified: set[int] = set()
    layer = {i for i in residual_instance.seller_neighbors if i in reports}
    while layer:
        ranked = sorted(layer, key=lambda i: (-len(reports[i].neighbors), i))
        cut = (len(ranked) + 1) // 2
        candidates.extend(ranked[:cut])
        setters = ranked[cut:]
        non_trading.update(setters)
        classified |= layer
        layer = {
            j
            for i in setters
            for j in reports[i].neighbors
            if j in reports and j not in classified
        }
    return tuple(candidates), frozenset(non_trading)


# ---------------------------------------------------------------------------
# Bundle division
# ---------------------------------------------------------------------------


def random_single_item_bdp(
    residual_instance: AuctionInstance,
    remaining: Bundle,
    candidates: Sequence[int],
    pr: BoundPrice,
    rev: BoundPrice,
    *,
    rng: random.Random,
) -> tuple[BundleTuple, ...]:
    """Hand each candidate one random distinct item (resale = reserve) while
    items remain; later candidates get empty tuples.  Deterministic for a
    fixed generator state."""
    order = sorted(candidates)
    rng.shuffle(order)
    pool = [1 << k for k in range(residual_instance.m) if remaining >> k & 1]
    picks: dict[int, Bundle] = {}
    for cand in order:
        if not pool:
            picks[cand] = 0
            continue
        picks[cand] = pool.pop(rng.randrange(len(pool)))
    return tuple(BundleTuple(picks[c], picks[c]) for c in candidates)


def greedy_bdp(
    residual_instance: AuctionInstance,
    remaining: Bundle,
    candidates: Sequence[int],
    pr: BoundPrice,
    rev: BoundPrice,
) -> tuple[BundleTuple, ...]:
    """In fixed id order (independent of any report), give each candidate the
    sub-bundle of the remaining pool maximizing resale margin
    ``max(own value, resale revenue) - price`` and the one maximizing keeper
    surplus ``own value - price``, then retire both from the pool.

    The empty bundle always competes with score zero, so both objectives are
    non-negative at the chosen bundles; ties prefer fewer items, then the
    lexicographically smallest item list.
    """
    size = remaining.bit_count()
    if size > GREEDY_MAX_POOL:
        raise TooManyItems(size)
    tuples: dict[int, BundleTuple] = {}
    pool = remaining
    for cand in sorted(candidates):
        values = residual_instance.reports[cand].values
        best_resale, best_resale_score = 0, 0
        best_reserve, best_reserve_score = 0, 0
        for b in iter_subbundles(pool):
            value = values[b]
            price = pr(b)
            revenue = rev(b)
            resale_score = (value if value > revenue else revenue) - price
            reserve_score = value - price
            if resale_score > best_resale_score:
                best_resale, best_resale_score = b, resale_score
            if reserve_score > best_reserve_score:
                best_reserve, best_reserve_score = b, reserve_score
        tuples[cand] = BundleTuple(best_resale, best_reserve)
        pool &= ~(best_resale | best_reserve)
    return tuple(tuples[c] for c in candidates)


CDPS = {"graph-exploration": graph_exploration_cdp}
BDPS = {"greedy": greedy_bdp}


# ---------------------------------------------------------------------------
# Assembled mechanisms
# ---------------------------------------------------------------------------


def unfloored_idm(market: AuctionInstance, lot: Bundle, reserve: Money) -> Outcome:
    """Plain IDM as a local market: the reserve it is handed is ignored."""
    # Looked up per call, not bound at import: bench/tracing.py swaps idm_run.
    return idm_run(market, lot)


def run_with_config(instance: AuctionInstance, config: MechanismConfig) -> Outcome:
    return run_with_config_detailed(instance, config).outcome


def run_with_config_detailed(
    instance: AuctionInstance, config: MechanismConfig
) -> DcafRun:
    # Looked up per call, not bound at import: bench/tracing.py swaps the entries.
    return dcaf_run_detailed(
        instance, CDPS["graph-exploration"], BDPS["greedy"], unfloored_idm
    )


def idm_grand_bundle(instance: AuctionInstance, config: MechanismConfig) -> Outcome:
    """IDM run directly on the instance, selling all items as one lot."""
    return idm_run(instance, full_bundle(instance.m))


def baseline_direct_second_price(
    instance: AuctionInstance, config: MechanismConfig
) -> Outcome:
    """No-diffusion yardstick: IDM with every invitation ignored, so the
    grand bundle goes to the seller's direct neighbors at the second price."""
    bare = {i: rep.with_neighbors(()) for i, rep in instance.reports.items()}
    return idm_grand_bundle(
        AuctionInstance(instance.m, instance.seller_neighbors, bare), config
    )


def _drm_random(instance: AuctionInstance, config: MechanismConfig) -> Outcome:
    # One generator per run, shared by its rounds.
    bdp = partial(random_single_item_bdp, rng=random.Random(config.rng_seed))
    return dcaf_run_detailed(
        instance, CDPS["graph-exploration"], bdp, unfloored_idm
    ).outcome


def _drm_reserve(instance: AuctionInstance, config: MechanismConfig) -> Outcome:
    return dcaf_run_detailed(
        instance, CDPS["graph-exploration"], BDPS["greedy"], idm_run
    ).outcome


MECHANISMS: dict[str, Mechanism] = {
    "drm": run_with_config,
    "drm-random-bdp": _drm_random,
    "drm-reserve": _drm_reserve,
    "idm": idm_grand_bundle,
    "baseline-direct": baseline_direct_second_price,
}
