"""Metamorphic relations every registered mechanism must keep.

Each relation rewrites an instance in a way whose effect on the outcome is
known without a second implementation, then compares the two runs:

* value scaling: every value times ``k`` keeps the allocation and
  multiplies every payment by ``k`` (money is integer, prices are read off
  reported values, ties break by id only);
* an uninvited bidder: a bidder nobody invites, who invites existing
  bidders herself, gets nothing, pays nothing and changes nobody's outcome
  (only bidders the seller's invitations reach take part).

A planted mutant shows each relation failing.
"""

import pytest

from netauction.drm import MECHANISMS, greedy_bdp
from netauction.framework import dcaf_run_detailed
from netauction.generate import (
    FamilySpec,
    branch_market_fixture,
    embedded_branch_fixture,
    generate_instances,
    instance_from_parts,
)
from netauction.idm import idm_run
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
            instance, mutants.invited_count_cdp, greedy_bdp, idm_run
        ).outcome

    assert not all(uninvited_holds(mechanism, inst) for inst in CORPUS)
    assert all(scaling_holds(mechanism, inst, 2) for inst in CORPUS)
