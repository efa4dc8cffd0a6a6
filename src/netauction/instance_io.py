"""Instance files: canonical JSON on disk, validated instances in memory.

The on-disk form lists bundles as sorted item arrays for readability.  A
valuation may list only some bundles; the parser completes each unlisted one
with the largest completed value one item smaller, which can never introduce
a monotonicity violation on its own.  Serialization always writes the full
table in canonical order (ids ascending, bundles by size then item order),
so parse-then-serialize is the identity on canonical text.
"""

from __future__ import annotations

import json
from typing import Any

from .model import (
    MAX_ITEMS,
    AuctionError,
    AuctionInstance,
    BidderReport,
    Bundle,
    Valuation,
    bundle_from_items,
    bundle_items,
    full_bundle,
    iter_subbundles,
    validate_instance,
)

SCHEMA_VERSION = 1


class ParseError(AuctionError):
    def __init__(self, reason: str, line: int | None = None):
        self.reason, self.line = reason, line
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"cannot parse instance{at}: {reason}")


def _require_int(value: Any, what: str) -> int:
    """``value`` itself if it is a JSON integer; booleans are rejected too,
    although Python counts them as ints."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} {value!r} is not an integer")
    return value


def _parse_bidders(raw: Any, m: int, section: str) -> dict[int, BidderReport]:
    if not isinstance(raw, list):
        raise ParseError(f"{section!r} must be a list")
    reports: dict[int, BidderReport] = {}
    for entry in raw:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"every {section} entry needs an 'id'")
        bid = _require_int(entry["id"], "bidder id")
        if bid in reports:
            raise ParseError(f"duplicate bidder id {bid}")
        neighbors = entry.get("neighbors", [])
        if not isinstance(neighbors, list):
            raise ParseError(f"bidder {bid}: 'neighbors' must be a list")
        for nb in neighbors:
            _require_int(nb, f"bidder {bid}: 'neighbors' entry")
        valuation = entry.get("valuation", [])
        if not isinstance(valuation, list):
            raise ParseError(f"bidder {bid}: 'valuation' must be a list")
        pairs: dict[Bundle, int] = {}
        for item_list_value in valuation:
            try:
                items, value = item_list_value
                mask = bundle_from_items(
                    _require_int(k, f"bidder {bid}: 'valuation' item") for k in items
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bidder {bid}: bad valuation entry: {exc}") from None
            if mask >= 1 << m:
                raise ParseError(f"bidder {bid}: bundle {items} has items beyond 1..{m}")
            _require_int(value, f"bidder {bid}: 'valuation' value")
            if mask in pairs:
                raise ParseError(f"bidder {bid}: bundle listed twice")
            pairs[mask] = value
        reports[bid] = BidderReport(
            bid, Valuation.from_pairs(m, pairs), frozenset(neighbors)
        )
    return reports


def parse_instance(text: str) -> AuctionInstance:
    """Parse and validate one instance from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    except RecursionError:
        raise ParseError("nesting too deep") from None
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version}")
    try:
        m = raw["m"]
        seller = raw["seller_neighbors"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    _require_int(m, "'m'")
    if not isinstance(seller, list):
        raise ParseError("'seller_neighbors' must be a list")
    for nb in seller:
        _require_int(nb, "'seller_neighbors' entry")
    if not 0 <= m <= MAX_ITEMS:
        raise ParseError(f"item count {m} outside 0..{MAX_ITEMS}")
    reports = _parse_bidders(raw.get("bidders", []), m, "bidders")
    truth = None
    if "truth" in raw:
        truth = _parse_bidders(raw["truth"], m, "truth")
    return validate_instance(
        AuctionInstance(m, frozenset(seller), reports, truth)
    )


def _bidder_obj(rep: BidderReport) -> dict[str, Any]:
    table = [
        [list(bundle_items(mask)), rep.valuation.of(mask)]
        for mask in iter_subbundles(full_bundle(rep.valuation.m))
        if mask
    ]
    return {
        "id": rep.bidder_id,
        "neighbors": sorted(rep.neighbors),
        "valuation": table,
    }


def serialize_instance(instance: AuctionInstance) -> str:
    """Canonical JSON text for a validated instance."""
    obj: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "m": instance.m,
        "seller_neighbors": sorted(instance.seller_neighbors),
        "bidders": [
            _bidder_obj(instance.reports[bid]) for bid in sorted(instance.reports)
        ],
    }
    if instance.ground_truth is not None:
        obj["truth"] = [
            _bidder_obj(instance.ground_truth[bid])
            for bid in sorted(instance.ground_truth)
        ]
    return json.dumps(obj, indent=2) + "\n"


def load_instance(path) -> AuctionInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from None
    return parse_instance(text)


def save_instance(path, instance: AuctionInstance) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(instance))
