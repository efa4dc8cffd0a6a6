"""Combinatorial diffusion auctions on social networks.

Bidders report monotone bundle valuations plus the neighbors they invite;
reachable bidders are split into dealers and price-setters, bundles are
divided greedily, and each dealer resells her bundle to her own invitees
through a single-item diffusion mechanism or keeps a reserve bundle at its
second price.  A brute-force verification lab checks the incentive
properties (individual rationality, incentive compatibility, budget balance,
candidacy consistency, bundle-division locality, revenue consistency, and
positive incentives for non-winners) by exhaustive or seeded deviation
enumeration.
"""

from .critical import (
    CriticalStructure,
    Unqualified,
    all_critical_structures,
    critical_nodes_by_removal,
)
from .drm import (
    MECHANISMS,
    baseline_direct_second_price,
    get_mechanism,
    graph_exploration_cdp,
    greedy_bdp,
    idm_grand_bundle,
    random_single_item_bdp,
    run_with_config,
    run_with_config_detailed,
    trivial_cdp,
)
from .framework import (
    BundleTuple,
    DistributorPartition,
    RoundState,
    dcaf_run_detailed,
    drp_run,
    price_fn,
    resale_revenue_fn,
)
from .generate import FamilySpec, generate_instances
from .idm import SingleItemResult, idm_run
from .instance_io import (
    ParseError,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .model import (
    AuctionError,
    AuctionInstance,
    BidderReport,
    Bundle,
    InstanceValidationError,
    MechanismConfig,
    Money,
    Outcome,
    Valuation,
    bundle_from_items,
    bundle_items,
    bundle_str,
    full_bundle,
    qualified_set,
    restrict_instance,
    social_welfare,
    utility,
    validate_instance,
)
from .properties import (
    CheckResult,
    DeviationSpace,
    Violation,
    check_bdp_locality,
    check_cdp_consistency,
    check_ic,
    check_ir,
    check_rdm_end_to_end,
    check_revenue_consistency,
    check_wbb,
    find_epi4nw_witness,
    replay_violation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
