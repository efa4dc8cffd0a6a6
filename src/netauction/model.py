"""Core auction model: items, bundles, valuations, reports, outcomes.

Items are numbered ``1..m`` and a bundle is a subset of them, stored as an
``int`` bitmask (bit ``k-1`` set means item ``k`` is in the bundle).  Money is
integer minor units throughout; mechanism logic never touches floating point,
so ties and budget identities are exact.

Bidders report a monotone valuation table over all ``2**m`` bundles plus the
set of neighbors they invite.  The seller's invitations plus the reported
neighbor sets induce a directed diffusion graph; only bidders reachable from
the seller take part in any trade.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

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


def iter_subbundles(pool: Bundle) -> Iterator[Bundle]:
    """All subsets of ``pool`` in canonical order: by size, then by sorted
    item tuple.  The empty bundle comes first; iterating in this order makes
    "first strict maximum wins" equal to the smaller-cardinality-then-
    lexicographic tie-break used by the bundle division rules."""
    return iter(_subbundles(pool))


# A sweep divides only a few distinct pools (4 over the lab's IC family, 28
# over six 10-item drm-wide instances), so 32 entries keep nearly every call
# a hit.  Greedy pools hold at most 12 items (0.15 MB of subsets) and only
# serialization asks for more, so the memo stays under 10 MB.
@lru_cache(maxsize=32)
def _subbundles(pool: Bundle) -> tuple[Bundle, ...]:
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


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


class ValidationIssue(AuctionError):
    """One concrete invariant violation found while validating an instance."""


class NonMonotoneValuation(ValidationIssue):
    def __init__(self, bidder: int, smaller: Bundle, larger: Bundle):
        self.bidder, self.smaller, self.larger = bidder, smaller, larger
        super().__init__(
            f"bidder {bidder}: value of {bundle_str(smaller)} exceeds "
            f"value of superset {bundle_str(larger)}"
        )


class EmptyBundleValue(ValidationIssue):
    def __init__(self, bidder: int, value: Money):
        self.bidder, self.value = bidder, value
        super().__init__(f"bidder {bidder}: empty bundle valued at {value}, must be 0")


class NegativeValue(ValidationIssue):
    def __init__(self, bidder: int, bundle: Bundle, value: Money):
        self.bidder, self.bundle, self.value = bidder, bundle, value
        super().__init__(
            f"bidder {bidder}: negative value {value} for {bundle_str(bundle)}"
        )


class SelfLoop(ValidationIssue):
    def __init__(self, bidder: int):
        self.bidder = bidder
        super().__init__(f"bidder {bidder} lists itself as a neighbor")


class UnknownNeighborId(ValidationIssue):
    """An invitation to an id that is not a positive integer; ``bidder`` is
    the inviting bidder, or None for the seller."""

    def __init__(self, bidder: int | None, neighbor: int):
        self.bidder, self.neighbor = bidder, neighbor
        who = "the seller" if bidder is None else f"bidder {bidder}"
        super().__init__(f"{who} lists invalid neighbor id {neighbor!r}")


class NeighborSupersetOfTruth(ValidationIssue):
    def __init__(self, bidder: int):
        self.bidder = bidder
        super().__init__(
            f"bidder {bidder} reports neighbors not present in the true neighbor set"
        )


class InstanceValidationError(AuctionError):
    """Raised by :func:`validate_instance`; carries every violation found."""

    def __init__(self, violations: list[ValidationIssue]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} validation issue(s): {lines}")


class UnknownBidder(AuctionError):
    pass


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Valuation:
    """A full valuation table over all bundles of ``m`` items.

    ``values[mask]`` is the money amount for the bundle ``mask``.  Tables are
    required (by validation) to be non-negative, zero on the empty bundle,
    and monotone under set inclusion.
    """

    m: int
    values: tuple[Money, ...]

    def __post_init__(self):
        if self.m < 0 or self.m > MAX_ITEMS:
            raise ValueError(f"item count {self.m} outside 0..{MAX_ITEMS}")
        if len(self.values) != 1 << self.m:
            raise ValueError(
                f"table has {len(self.values)} entries, expected {1 << self.m}"
            )

    def of(self, bundle: Bundle) -> Money:
        return self.values[bundle]

    @classmethod
    def zero(cls, m: int) -> "Valuation":
        return cls(m, (0,) * (1 << m))

    @classmethod
    def from_pairs(cls, m: int, pairs: Mapping[Bundle, Money]) -> "Valuation":
        """Complete a partially listed table: every unlisted bundle gets its
        :func:`monotone_floor` over the table completed so far.  Listed values
        are kept verbatim, so a non-monotone listing still fails validation
        instead of being silently papered over."""
        vals = [0] * (1 << m)
        for mask in range(1, 1 << m):
            vals[mask] = pairs[mask] if mask in pairs else monotone_floor(vals, mask)
        if 0 in pairs:
            vals[0] = pairs[0]
        return cls(m, tuple(vals))

    def monotonicity_violation(self) -> tuple[Bundle, Bundle] | None:
        """First (subset, superset) pair with decreasing value, or None.

        Checking single-item extensions is complete: any violating pair
        x ⊂ y implies a violating single-bit step on a chain from x to y.
        """
        n = 1 << self.m
        for mask in range(n):
            v = self.values[mask]
            for k in range(self.m):
                bit = 1 << k
                if not mask & bit and v > self.values[mask | bit]:
                    return mask, mask | bit
        return None


@dataclass(frozen=True)
class BidderReport:
    """What one bidder submits: a valuation table and the neighbors she invites."""

    bidder_id: int
    valuation: Valuation
    neighbors: frozenset[int]

    def with_neighbors(self, neighbors: Iterable[int]) -> "BidderReport":
        return BidderReport(self.bidder_id, self.valuation, frozenset(neighbors))

    def with_valuation(self, valuation: Valuation) -> "BidderReport":
        return BidderReport(self.bidder_id, valuation, self.neighbors)


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

    def true_report(self, bidder: int) -> BidderReport:
        if self.ground_truth is None:
            raise UnknownBidder("instance carries no ground truth")
        try:
            return self.ground_truth[bidder]
        except KeyError:
            raise UnknownBidder(f"no true type for bidder {bidder}") from None

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
    """Final allocation and payments; the seller's revenue is their sum."""

    allocation: dict[int, Bundle]
    payment: dict[int, Money]
    seller_revenue: Money

    @classmethod
    def from_maps(
        cls, allocation: Mapping[int, Bundle], payment: Mapping[int, Money]
    ) -> "Outcome":
        return cls(dict(allocation), dict(payment), sum(payment.values()))


@dataclass(frozen=True)
class MechanismConfig:
    """Names and switches selecting a concrete mechanism assembly."""

    bdp: str = "greedy"
    reserve_bidder: bool = False
    rng_seed: int = 0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _referenced_ids(instance: AuctionInstance) -> set[int]:
    ids = set(instance.reports)
    ids.update(instance.seller_neighbors)
    for rep in instance.reports.values():
        ids.update(rep.neighbors)
    if instance.ground_truth is not None:
        ids.update(instance.ground_truth)
        for rep in instance.ground_truth.values():
            ids.update(rep.neighbors)
    return ids


def _valid_id(bid: object) -> bool:
    return isinstance(bid, int) and bid >= 1


def _check_report(rep: BidderReport, m: int, violations: list[ValidationIssue]) -> None:
    if rep.valuation.m != m:
        violations.append(ValidationIssue(
            f"bidder {rep.bidder_id}: valuation over {rep.valuation.m} item(s), not {m}"
        ))
    if rep.valuation.values[0] != 0:
        violations.append(EmptyBundleValue(rep.bidder_id, rep.valuation.values[0]))
    negative = next((b for b, v in enumerate(rep.valuation.values) if v < 0), None)
    if negative is not None:
        violations.append(
            NegativeValue(rep.bidder_id, negative, rep.valuation.values[negative])
        )
    pair = rep.valuation.monotonicity_violation()
    if pair is not None:
        violations.append(NonMonotoneValuation(rep.bidder_id, *pair))
    if rep.bidder_id in rep.neighbors:
        violations.append(SelfLoop(rep.bidder_id))
    for nb in rep.neighbors:
        if not _valid_id(nb):
            violations.append(UnknownNeighborId(rep.bidder_id, nb))


def validate_instance(instance: AuctionInstance) -> AuctionInstance:
    """Check every model invariant; return a normalized instance.

    Normalization materializes absent bidders (ids referenced as neighbors
    but carrying no report) as present with zero valuations and no neighbors,
    which keeps the diffusion graph closed without special cases downstream.
    Raises :class:`InstanceValidationError` listing *all* violations found.
    """
    if instance.m < 0 or instance.m > MAX_ITEMS:
        raise InstanceValidationError(
            [ValidationIssue(f"item count {instance.m} outside 0..{MAX_ITEMS}")]
        )
    violations: list[ValidationIssue] = []
    # A ground-truth entry that is the report object itself, as in every
    # generated instance, is walked and checked once.
    walk = [*instance.reports.items(), *(instance.ground_truth or {}).items()]
    checked: set[int] = set()
    for (bid, obj), rep in {(bid, id(rep)): rep for bid, rep in walk}.items():
        if rep.bidder_id != bid:
            violations.append(ValidationIssue(
                f"bidder {bid} holds a report for bidder {rep.bidder_id}"
            ))
        if obj not in checked:
            checked.add(obj)
            _check_report(rep, instance.m, violations)
    if instance.ground_truth is not None:
        for bid, rep in instance.reports.items():
            true_rep = instance.ground_truth.get(bid)
            true_neighbors = true_rep.neighbors if true_rep else frozenset()
            if not rep.neighbors <= true_neighbors:
                violations.append(NeighborSupersetOfTruth(bid))
    # Bad neighbor ids are reported by _check_report under their inviter.
    for nb in instance.seller_neighbors:
        if not _valid_id(nb):
            violations.append(UnknownNeighborId(None, nb))
    for bid in dict.fromkeys([*instance.reports, *(instance.ground_truth or ())]):
        if not _valid_id(bid):
            violations.append(
                ValidationIssue(f"bidder id {bid!r} is not a positive integer")
            )
    if violations:
        raise InstanceValidationError(violations)

    zero = Valuation.zero(instance.m)
    reports = dict(instance.reports)
    for bid in _referenced_ids(instance):
        if bid not in reports:
            reports[bid] = BidderReport(bid, zero, frozenset())
    truth = instance.ground_truth
    if truth is not None:
        truth = dict(truth)
        for bid in reports:
            if bid not in truth:
                truth[bid] = BidderReport(bid, zero, frozenset())
    return AuctionInstance(instance.m, instance.seller_neighbors, reports, truth)


def qualified_set(instance: AuctionInstance) -> frozenset[int]:
    """Bidders reachable from the seller along reported invitation edges."""
    seen: set[int] = set()
    queue = deque(i for i in instance.seller_neighbors if i in instance.reports)
    seen.update(queue)
    while queue:
        cur = queue.popleft()
        for nb in instance.reports[cur].neighbors:
            if nb not in seen and nb in instance.reports:
                seen.add(nb)
                queue.append(nb)
    return frozenset(seen)


def utility(true_type: BidderReport, outcome: Outcome, bidder: int) -> Money:
    """True value of the allocated bundle minus the payment."""
    if bidder not in outcome.allocation or bidder not in outcome.payment:
        raise UnknownBidder(f"bidder {bidder} missing from outcome")
    return true_type.valuation.of(outcome.allocation[bidder]) - outcome.payment[bidder]


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
        else BidderReport(bid, rep.valuation, rep.neighbors & kept)
        for bid, rep in instance.reports.items()
        if bid in kept
    }
    return AuctionInstance(instance.m, frontier, reports, None)


def check_outcome(instance: AuctionInstance, outcome: Outcome) -> None:
    """Assert the outcome invariants: disjoint allocations inside the item
    universe, revenue equal to the payment sum, and unqualified bidders at
    empty allocation and zero payment."""
    union = 0
    unknown = ~full_bundle(instance.m)
    for bid, bundle in outcome.allocation.items():
        if bundle & union:
            raise AssertionError(f"bidder {bid} overlaps an earlier allocation")
        if bundle & unknown:
            raise AssertionError(f"bidder {bid} allocated unknown items")
        union |= bundle
    if outcome.seller_revenue != sum(outcome.payment.values()):
        raise AssertionError("seller revenue does not equal the payment sum")
    qualified = qualified_set(instance)
    for bid in instance.reports:
        if bid not in qualified:
            if outcome.allocation.get(bid, 0) != 0 or outcome.payment.get(bid, 0) != 0:
                raise AssertionError(f"unqualified bidder {bid} was touched")


def social_welfare(instance: AuctionInstance, outcome: Outcome) -> Money:
    """Sum of winners' values for what they got; uses true types if known."""
    types = instance.ground_truth or instance.reports
    total = 0
    for bid, bundle in outcome.allocation.items():
        if bundle and bid in types:
            total += types[bid].valuation.of(bundle)
    return total
