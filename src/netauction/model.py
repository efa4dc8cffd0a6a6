"""Core auction model: items, bundles, value tables, reports, outcomes.

Items are numbered ``1..m`` and a bundle is a subset of them, stored as an
``int`` bitmask (bit ``k-1`` set means item ``k`` is in the bundle).  Money is
integer minor units throughout; mechanism logic never touches floating point,
so ties and budget identities are exact.

Bidders report a monotone value table over all ``2**m`` bundles, a tuple
indexed by bundle mask, plus the set of neighbors they invite.  The seller's
invitations plus the reported neighbor sets induce a directed diffusion
graph; only bidders reachable from the seller take part in any trade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

Money = int
Bundle = int

MAX_ITEMS = 16


class AuctionError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Bundle helpers
# ---------------------------------------------------------------------------


def bundle_from_items(items: Iterable[int]) -> Bundle:
    """Build a bundle bitmask from item numbers (1-based)."""
    mask = 0
    for item in items:
        if item < 1 or item > MAX_ITEMS:
            raise ValueError(f"item {item} outside 1..{MAX_ITEMS}")
        mask |= 1 << (item - 1)
    return mask


def bundle_items(bundle: Bundle) -> tuple[int, ...]:
    """Item numbers contained in a bundle, ascending."""
    items = []
    k = 1
    while bundle:
        if bundle & 1:
            items.append(k)
        bundle >>= 1
        k += 1
    return tuple(items)


def full_bundle(m: int) -> Bundle:
    return (1 << m) - 1


def bundle_str(bundle: Bundle) -> str:
    if bundle == 0:
        return "{}"
    return "{" + ",".join(str(i) for i in bundle_items(bundle)) + "}"


# A sweep divides only a few distinct pools (4 over the lab's IC family, 28
# over six 10-item drm-wide instances), so 32 entries keep nearly every call
# a hit.  Greedy pools hold at most 12 items (0.15 MB of subsets) and only
# serialization asks for more, so the memo stays under 10 MB.
@lru_cache(maxsize=32)
def iter_subbundles(pool: Bundle) -> tuple[Bundle, ...]:
    """All subsets of ``pool`` in canonical order: by size, then by sorted
    item tuple.  The empty bundle comes first; iterating in this order makes
    "first strict maximum wins" equal to the smaller-cardinality-then-
    lexicographic tie-break used by the bundle division rules."""
    bits = [1 << k for k in range(pool.bit_length()) if pool >> k & 1]
    # combinations over ascending item bits come out in lexicographic order
    return tuple(
        sum(combo)
        for size in range(len(bits) + 1)
        for combo in itertools.combinations(bits, size)
    )


def monotone_floor(vals: Sequence[Money], mask: Bundle) -> Money:
    """The largest of ``vals`` over the bundles one item smaller than
    ``mask``: the least value ``mask`` can take in a monotone table."""
    floor = 0
    rest = mask
    while rest:
        bit = rest & -rest
        floor = max(floor, vals[mask ^ bit])
        rest ^= bit
    return floor


def complete_table(m: int, pairs: Mapping[Bundle, Money]) -> tuple[Money, ...]:
    """Complete a partially listed table: every unlisted bundle gets its
    :func:`monotone_floor` over the table completed so far.  Listed values
    are kept verbatim, so a non-monotone listing still fails validation
    instead of being silently papered over."""
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        vals[mask] = pairs[mask] if mask in pairs else monotone_floor(vals, mask)
    if 0 in pairs:
        vals[0] = pairs[0]
    return tuple(vals)


def monotonicity_violation(values: Sequence[Money]) -> tuple[Bundle, Bundle] | None:
    """First (subset, superset) pair with decreasing value in a table of
    ``2**m`` entries, or None.

    Checking single-item extensions is complete: any violating pair
    x ⊂ y implies a violating single-bit step on a chain from x to y.
    """
    m = len(values).bit_length() - 1
    for mask, v in enumerate(values):
        for k in range(m):
            bit = 1 << k
            if not mask & bit and v > values[mask | bit]:
                return mask, mask | bit
    return None


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


class InstanceValidationError(AuctionError):
    """Raised by :func:`validate_instance`; ``violations`` holds one message
    per issue found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        lines = "; ".join(violations)
        super().__init__(f"{len(violations)} validation issue(s): {lines}")


class UnknownBidder(AuctionError):
    pass


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidderReport:
    """What one bidder submits: a value table and the neighbors she invites.

    ``values[mask]`` is the money amount for the bundle ``mask``, one entry
    for each of the instance's ``2**m`` bundles.  Validation requires the
    table to have that length, to be non-negative, zero on the empty bundle
    and monotone under set inclusion.
    """

    bidder_id: int
    values: tuple[Money, ...]
    neighbors: frozenset[int]

    def with_neighbors(self, neighbors: Iterable[int]) -> "BidderReport":
        return BidderReport(self.bidder_id, self.values, frozenset(neighbors))


@dataclass(frozen=True)
class AuctionInstance:
    """One auction: item count, the seller's invitations, and all reports.

    ``ground_truth`` optionally carries the true types; it is consulted only
    by verifiers (to compute true utilities and admissible deviations) and
    never by mechanisms.
    """

    m: int
    seller_neighbors: frozenset[int]
    reports: dict[int, BidderReport]
    ground_truth: dict[int, BidderReport] | None = None

    def with_report(self, report: BidderReport) -> "AuctionInstance":
        """Copy of this instance with one bidder's report swapped (used by
        deviation enumeration; skips re-validation by design)."""
        reports = dict(self.reports)
        reports[report.bidder_id] = report
        return AuctionInstance(
            self.m, self.seller_neighbors, reports, self.ground_truth
        )

    def truthful(self) -> "AuctionInstance":
        """Copy whose reports equal the ground truth."""
        if self.ground_truth is None:
            raise UnknownBidder("instance carries no ground truth")
        return AuctionInstance(
            self.m, self.seller_neighbors, dict(self.ground_truth), self.ground_truth
        )


@dataclass(frozen=True)
class Outcome:
    """Allocation and payments of a run, or of a sale inside one.  The payment
    map is the only record of money: the seller's revenue is derived from it,
    never stored."""

    allocation: dict[int, Bundle]
    payment: dict[int, Money]

    @property
    def seller_revenue(self) -> Money:
        return sum(self.payment.values())


@dataclass(frozen=True)
class MechanismConfig:
    """Run settings passed to every registered mechanism.  The registry name
    alone selects the assembly; only drm-random-bdp reads the seed."""

    rng_seed: int = 0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _valid_id(bid: object) -> bool:
    return type(bid) is int and bid >= 1


def _check_report(rep: BidderReport, m: int, violations: list[str]) -> None:
    bid, values = rep.bidder_id, rep.values
    if len(values) != 1 << m:
        # The table's own checks would index past its end, so they are skipped.
        violations.append(
            f"bidder {bid}: table has {len(values)} entries, expected {1 << m}"
        )
    else:
        if values[0] != 0:
            violations.append(
                f"bidder {bid}: empty bundle valued at {values[0]}, must be 0"
            )
        negative = next((b for b, v in enumerate(values) if v < 0), None)
        if negative is not None:
            violations.append(
                f"bidder {bid}: negative value {values[negative]} "
                f"for {bundle_str(negative)}"
            )
        pair = monotonicity_violation(values)
        if pair is not None:
            violations.append(
                f"bidder {bid}: value of {bundle_str(pair[0])} exceeds "
                f"value of superset {bundle_str(pair[1])}"
            )
    if bid in rep.neighbors:
        violations.append(f"bidder {bid} lists itself as a neighbor")
    for nb in rep.neighbors:
        if not _valid_id(nb):
            violations.append(f"bidder {bid} lists invalid neighbor id {nb!r}")


def validate_instance(instance: AuctionInstance) -> AuctionInstance:
    """Check every model invariant; return a normalized instance.

    Each absent bidder, an id that the seller's invitations, a report, a
    truth entry or a neighbor set names but that the reports or the ground
    truth lack, is filled into that map with a zero table and no neighbors,
    which keeps the diffusion graph closed without special cases downstream.
    Raises :class:`InstanceValidationError` listing *all* violations found.
    """
    if instance.m < 0 or instance.m > MAX_ITEMS:
        raise InstanceValidationError(
            [f"item count {instance.m} outside 0..{MAX_ITEMS}"]
        )
    violations: list[str] = []
    ids = set(instance.seller_neighbors)
    # A ground-truth entry that is the report object itself, as in every
    # generated instance, is walked and checked once.
    walk = [*instance.reports.items(), *(instance.ground_truth or {}).items()]
    checked: set[int] = set()
    for (bid, obj), rep in {(bid, id(rep)): rep for bid, rep in walk}.items():
        ids.add(bid)
        if rep.bidder_id != bid:
            violations.append(f"bidder {bid} holds a report for bidder {rep.bidder_id}")
        if obj not in checked:
            checked.add(obj)
            ids |= rep.neighbors
            _check_report(rep, instance.m, violations)
    if instance.ground_truth is not None:
        for bid, rep in instance.reports.items():
            true_rep = instance.ground_truth.get(bid)
            true_neighbors = true_rep.neighbors if true_rep else frozenset()
            if not rep.neighbors <= true_neighbors:
                violations.append(f"bidder {bid} reports neighbors not present "
                                  "in the true neighbor set")
    # Bad neighbor ids are reported by _check_report under their inviter.
    for nb in instance.seller_neighbors:
        if not _valid_id(nb):
            violations.append(f"the seller lists invalid neighbor id {nb!r}")
    for bid in dict.fromkeys([*instance.reports, *(instance.ground_truth or ())]):
        if not _valid_id(bid):
            violations.append(f"bidder id {bid!r} is not a positive integer")
    if violations:
        raise InstanceValidationError(violations)

    zero = (0,) * (1 << instance.m)
    reports = dict(instance.reports)
    truth = None if instance.ground_truth is None else dict(instance.ground_truth)
    for bid in ids:
        if bid not in reports:
            reports[bid] = BidderReport(bid, zero, frozenset())
        if truth is not None and bid not in truth:
            truth[bid] = BidderReport(bid, zero, frozenset())
    return AuctionInstance(instance.m, instance.seller_neighbors, reports, truth)


def utility(true_type: BidderReport, outcome: Outcome, bidder: int) -> Money:
    """True value of the allocated bundle minus the payment."""
    if bidder not in outcome.allocation or bidder not in outcome.payment:
        raise UnknownBidder(f"bidder {bidder} missing from outcome")
    return true_type.values[outcome.allocation[bidder]] - outcome.payment[bidder]


def restrict_instance(
    instance: AuctionInstance,
    keep: Iterable[int],
    new_seller_neighbors: Iterable[int],
) -> AuctionInstance:
    """Sub-instance on ``keep``: every neighbor set is intersected with
    ``keep`` and the seller's invitations are replaced.  A report whose
    invitations all lie inside ``keep`` is shared, not copied."""
    kept = frozenset(keep)
    frontier = frozenset(new_seller_neighbors)
    if not frontier <= kept:
        raise ValueError("new seller neighbors must lie inside the kept set")
    reports = {
        bid: rep if rep.neighbors <= kept
        else BidderReport(bid, rep.values, rep.neighbors & kept)
        for bid, rep in instance.reports.items()
        if bid in kept
    }
    return AuctionInstance(instance.m, frontier, reports, None)


def social_welfare(instance: AuctionInstance, outcome: Outcome) -> Money:
    """Sum of winners' values for what they got; uses true types if known."""
    types = instance.ground_truth or instance.reports
    total = 0
    for bid, bundle in outcome.allocation.items():
        if bundle and bid in types:
            total += types[bid].values[bundle]
    return total
