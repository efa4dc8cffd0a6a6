"""Golden outcome digest: one SHA-256 over a seeded corpus.

The digest covers every registered mechanism's outcomes, the dealer
mechanism's round traces and the results of every checker, all reduced to
plain integers, strings and lists before hashing (never a dataclass
``repr``).  A refactor that keeps behaviour keeps the digest; any change
to an allocation, a payment, a round, a case count or a witness moves it.
"""

import hashlib
import json

from netauction.drm import (
    MECHANISMS,
    graph_exploration_cdp,
    greedy_bdp,
    run_with_config_detailed,
)
from netauction.generate import (
    FamilySpec,
    all_digraph_networks,
    embedded_branch_fixture,
    generate_instances,
    scalar_market,
    topology_family,
)
from netauction.idm import idm_run
from netauction.model import MechanismConfig
from netauction.properties import (
    DeviationSpace,
    check_bdp_locality,
    check_cdp_consistency,
    check_ic,
    check_ir,
    check_revenue_consistency,
    check_wbb,
)

from reference import check_rdm_end_to_end, two_round_showcase

GOLDEN = "55d5a2a05c465f75973d63110dc1ed05f0bd39926fefc937d8bcc387aee02434"


def corpus():
    family = generate_instances(
        FamilySpec(n=12, m=3, v_max=6, graph_model="erdos-renyi", edge_p=0.2,
                   count=60, seed=5)
    )
    family += generate_instances(FamilySpec(n=8, m=2, v_max=4, count=60, seed=6))
    return family + [embedded_branch_fixture(), two_round_showcase()]


def lab_family():
    # The hub of the seven-bidder star has 64 invitation subsets, so a
    # budget of 40 samples the IR space too, not only the IC space.
    family = topology_family(("line", "star", "branch"), 3, m=1, v_max=2)
    family.append(scalar_market("star", (1, 0, 2, 1, 0, 2, 1)))
    return family + generate_instances(
        FamilySpec(n=5, m=2, v_max=2, graph_model="erdos-renyi", count=6, seed=43)
    )


def report_data(rep):
    return [rep.bidder_id, list(rep.values), sorted(rep.neighbors)]


def outcome_data(outcome):
    return [[i, outcome.allocation[i], outcome.payment[i]]
            for i in sorted(outcome.allocation)]


def rounds_data(rounds):
    return [
        [list(r.candidates), list(r.non_trading),
         [[t.resale, t.reserve] for t in r.tuples], list(r.resold),
         r.intake, r.items_before, r.items_after]
        for r in rounds
    ]


def result_data(result):
    return [
        result.prop, result.scope, result.instances, result.cases,
        result.budget_exceeded,
        [
            [v.bidder, report_data(v.deviation) if v.deviation else None, v.delta,
             [report_data(rep) for rep in v.context], v.note]
            for v in result.violations
        ],
    ]


def drm(instance):
    return MECHANISMS["drm"](instance, MechanismConfig())


def golden_data():
    instances = corpus()
    data = {"outcomes": [], "rounds": [], "checks": []}
    for name in sorted(MECHANISMS):
        for seed in (0, 3):
            config = MechanismConfig(rng_seed=seed)
            data["outcomes"].append(
                [name, seed,
                 [outcome_data(MECHANISMS[name](inst, config)) for inst in instances]]
            )
    for inst in instances:
        data["rounds"].append(
            rounds_data(run_with_config_detailed(inst, MechanismConfig()).rounds)
        )

    lab = lab_family()
    checks = data["checks"]
    for others_budget in (0, 2):
        for budget in (4096, 40):
            space = DeviationSpace(v_max=2, budget=budget, others_budget=others_budget)
            checks.append(result_data(check_ir(drm, lab, space)))
            checks.append(result_data(check_ic(drm, lab, space)))
    checks.append(result_data(check_wbb(drm, instances)))
    networks = [net for n in range(1, 4) for net in all_digraph_networks(n)]
    checks.append(result_data(check_cdp_consistency(graph_exploration_cdp, networks)))
    checks.append(result_data(check_bdp_locality(greedy_bdp, lab)))
    checks.append(result_data(check_rdm_end_to_end(drm, lab)))
    markets = topology_family(("line", "star", "branch"), 3, m=1, v_max=3)
    checks.append(result_data(check_revenue_consistency(idm_run, markets)))
    return data


def digest(data) -> str:
    text = json.dumps(data, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_digest():
    assert digest(golden_data()) == GOLDEN
