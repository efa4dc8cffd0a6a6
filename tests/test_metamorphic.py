"""Metamorphic relations every registered mechanism must keep.

Each relation rewrites an instance in a way whose effect on the outcome is
known without a second implementation, then compares the two runs:

* value scaling: every value times ``k`` keeps the allocation and
  multiplies every payment by ``k`` (money is integer, prices are read off
  reported values, ties break by id only);
* an uninvited bidder: a bidder nobody invites, who invites existing
  bidders herself, gets nothing, pays nothing and changes nobody's outcome
  (only bidders the seller's invitations reach take part);
* relabelling: renaming the bidders by an increasing map renames the
  outcome and changes nothing else (ties break by id order only);
* a worthless item: an extra item that adds nothing to any bundle's value
  changes no winner and no payment (the greedy division prefers fewer
  items, so it never hands that item out).

A planted mutant shows each relation failing.
"""

import pytest

from netauction.drm import (
    MECHANISMS,
    graph_exploration_cdp,
    greedy_bdp,
    unfloored_idm,
)
from netauction.framework import dcaf_run_detailed
from netauction.generate import (
    FamilySpec,
    branch_market_fixture,
    embedded_branch_fixture,
    generate_instances,
    instance_from_parts,
)
from netauction.model import MechanismConfig, Valuation

import mutants
from reference import line_market_fixture, two_round_showcase

CONFIG = MechanismConfig(rng_seed=7)
# The random trees give one seller invitee each; the Erdős–Rényi graphs give
# several, so the direct second price has something to charge.
CORPUS = [
    *generate_instances(FamilySpec(n=8, m=2, v_max=6, count=40, seed=3)),
    *generate_instances(FamilySpec(n=8, m=2, v_max=6, graph_model="erdos-renyi",
                                   count=40, seed=4)),
    line_market_fixture(),
    branch_market_fixture(),
    embedded_branch_fixture(),
    two_round_showcase(),
]


def rebuilt(instance, valuations, extra=()):
    """``instance`` with new value tables and optional extra bidders, given
    as ``(id, neighbors, valuation)`` triples."""
    out = {i: rep.neighbors for i, rep in instance.reports.items()}
    tables = dict(valuations)
    for i, neighbors, valuation in extra:
        out[i], tables[i] = neighbors, valuation
    return instance_from_parts(instance.m, instance.seller_neighbors, out, tables)


def scaling_holds(mechanism, instance, k):
    scaled = rebuilt(instance, {
        i: Valuation(instance.m, tuple(k * v for v in rep.valuation.values))
        for i, rep in instance.reports.items()
    })
    base, out = mechanism(instance), mechanism(scaled)
    return out.allocation == base.allocation and out.payment == {
        i: k * p for i, p in base.payment.items()
    }


def uninvited_holds(mechanism, instance):
    """A newcomer who outbids everyone on every bundle and invites every
    other existing bidder, lowest id first; nobody invites her."""
    ids = sorted(instance.reports)
    newcomer = ids[-1] + 1
    top = [max(rep.valuation.values[b] for rep in instance.reports.values())
           for b in range(1 << instance.m)]
    valuation = Valuation(instance.m, (0, *(v + 1 for v in top[1:])))
    grown = rebuilt(
        instance,
        {i: rep.valuation for i, rep in instance.reports.items()},
        [(newcomer, frozenset(ids[::2]), valuation)],
    )
    base, out = mechanism(instance), mechanism(grown)
    return (
        out.allocation.get(newcomer, 0) == 0
        and out.payment.get(newcomer, 0) == 0
        and {i: b for i, b in out.allocation.items() if i != newcomer} == base.allocation
        and {i: p for i, p in out.payment.items() if i != newcomer} == base.payment
    )


def relabelling_holds(mechanism, instance, relabel):
    """``relabel`` is an increasing map from ids to ids."""
    reports = instance.reports.values()
    renamed = instance_from_parts(
        instance.m,
        map(relabel, instance.seller_neighbors),
        {relabel(r.bidder_id): map(relabel, r.neighbors) for r in reports},
        {relabel(r.bidder_id): r.valuation for r in reports},
    )
    base, out = mechanism(instance), mechanism(renamed)
    return out.allocation == {
        relabel(i): b for i, b in base.allocation.items()
    } and out.payment == {relabel(i): p for i, p in base.payment.items()}


def winners(outcome):
    return {i for i, bundle in outcome.allocation.items() if bundle}


def worthless_item_holds(mechanism, instance, lot_sold_whole):
    """A new last item: each table over ``m + 1`` items repeats the old one,
    so a bundle is worth what it is worth without the new item.  A
    mechanism that sells the whole lot hands the new item to its winner
    too, so only winners and payments are compared there."""
    m = instance.m
    grown = instance_from_parts(
        m + 1,
        instance.seller_neighbors,
        {i: rep.neighbors for i, rep in instance.reports.items()},
        {i: Valuation(m + 1, rep.valuation.values * 2)
         for i, rep in instance.reports.items()},
    )
    base, out = mechanism(instance), mechanism(grown)
    if lot_sold_whole:
        return winners(out) == winners(base) and out.payment == base.payment
    return out.allocation == base.allocation and out.payment == base.payment


def registered(name):
    return lambda instance: MECHANISMS[name](instance, CONFIG)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@pytest.mark.parametrize("k", [2, 3])
def test_value_scaling_scales_payments_only(name, k):
    mechanism = registered(name)
    assert [n for n, inst in enumerate(CORPUS)
            if not scaling_holds(mechanism, inst, k)] == []


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_uninvited_bidder_changes_nothing(name):
    mechanism = registered(name)
    assert [n for n, inst in enumerate(CORPUS)
            if not uninvited_holds(mechanism, inst)] == []


def test_floor_halved_price_breaks_value_scaling():
    mechanism = mutants.halving_second_price
    assert not all(scaling_holds(mechanism, inst, 2) for inst in CORPUS)
    assert all(uninvited_holds(mechanism, inst) for inst in CORPUS)


def test_split_counting_unreached_invitations_breaks_the_uninvited_bidder():
    def mechanism(instance):
        return dcaf_run_detailed(
            instance, mutants.invited_count_cdp, greedy_bdp, unfloored_idm
        ).outcome

    assert not all(uninvited_holds(mechanism, inst) for inst in CORPUS)
    assert all(scaling_holds(mechanism, inst, 2) for inst in CORPUS)


# b -> 2b + 1 makes every id odd, so it changes the parity of the even ids;
# b -> 3b + 4 keeps every parity.
RELABELS = {"2b+1": lambda b: 2 * b + 1, "3b+4": lambda b: 3 * b + 4}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@pytest.mark.parametrize("relabel", sorted(RELABELS))
def test_relabelling_renames_the_outcome_only(name, relabel):
    mechanism = registered(name)
    assert [n for n, inst in enumerate(CORPUS)
            if not relabelling_holds(mechanism, inst, RELABELS[relabel])] == []


def test_parity_tie_break_breaks_relabelling():
    mechanism = mutants.parity_tied_second_price
    assert not all(relabelling_holds(mechanism, inst, RELABELS["2b+1"])
                   for inst in CORPUS)
    assert all(relabelling_holds(mechanism, inst, RELABELS["3b+4"])
               for inst in CORPUS)
    assert all(scaling_holds(mechanism, inst, 2) for inst in CORPUS)
    assert all(uninvited_holds(mechanism, inst) for inst in CORPUS)


# drm-random-bdp is exempt: its division hands each candidate an item drawn
# by position from the remaining pool, so a bigger pool moves every draw
# and the worthless item itself can be drawn.
WORTHLESS_ITEM_MECHANISMS = sorted(set(MECHANISMS) - {"drm-random-bdp"})
LOT_SOLD_WHOLE = {"idm", "baseline-direct"}


@pytest.mark.parametrize("name", WORTHLESS_ITEM_MECHANISMS)
def test_worthless_item_changes_nothing(name):
    mechanism = registered(name)
    whole = name in LOT_SOLD_WHOLE
    assert [n for n, inst in enumerate(CORPUS)
            if not worthless_item_holds(mechanism, inst, whole)] == []


def test_random_division_is_exempt_from_the_worthless_item():
    mechanism = registered("drm-random-bdp")
    assert not all(worthless_item_holds(mechanism, inst, False) for inst in CORPUS)


def test_greedy_division_keeping_the_last_maximum_breaks_the_worthless_item():
    def mechanism(instance):
        return dcaf_run_detailed(
            instance, graph_exploration_cdp, mutants.last_max_greedy_bdp,
            unfloored_idm,
        ).outcome

    assert not all(worthless_item_holds(mechanism, inst, False) for inst in CORPUS)
    assert all(scaling_holds(mechanism, inst, 2) for inst in CORPUS)
    assert all(uninvited_holds(mechanism, inst) for inst in CORPUS)
