"""Seeded instance families, exhaustive network enumerations, and the
branch-market hand fixtures.

Everything here is deterministic given its seed, so generated corpora can be
regenerated byte-for-byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .model import (
    MAX_ITEMS,
    AuctionError,
    AuctionInstance,
    BidderReport,
    Money,
    complete_table,
    monotone_floor,
    validate_instance,
)

GRAPH_MODELS = ("random-tree-plus-edges", "erdos-renyi", "line", "star")


class BadSpec(AuctionError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one seeded random family."""

    n: int
    m: int
    v_max: int
    graph_model: str = "random-tree-plus-edges"
    count: int = 1
    seed: int = 0
    edge_p: float = 0.25


# ---------------------------------------------------------------------------
# Value-table sampling and enumeration
# ---------------------------------------------------------------------------


def random_valuation(m: int, v_max: int, rng: random.Random) -> tuple[Money, ...]:
    """Per-item uniform values summed per bundle, plus a non-negative synergy
    bonus on bundles of two or more items, clamped so the table stays
    monotone."""
    per_item = [rng.randint(0, v_max) for _ in range(m)]
    vals = [0] * (1 << m)
    additive = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        additive[mask] = additive[mask ^ low] + per_item[low.bit_length() - 1]
        bonus = rng.randint(0, v_max) if mask != low else 0
        vals[mask] = max(additive[mask] + bonus, monotone_floor(vals, mask))
    return tuple(vals)


@lru_cache(maxsize=None)
def monotone_tables(m: int, v_max: int) -> tuple[tuple[Money, ...], ...]:
    """Every monotone table over ``m`` items with values in ``0..v_max`` and
    zero on the empty bundle.  Small only for small ``m``; the deviation
    spaces cap usage."""
    masks = sorted(range(1 << m), key=lambda b: bin(b).count("1"))
    tables: list[list[Money]] = [[0] * (1 << m)]
    for mask in masks[1:]:
        extended = []
        for partial in tables:
            for v in range(monotone_floor(partial, mask), v_max + 1):
                nxt = list(partial)
                nxt[mask] = v
                extended.append(nxt)
        tables = extended
    return tuple(tuple(t) for t in tables)


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------


# Each topology is a parent rule: the bidder who invites bidder j >= 2.
TOPOLOGIES = {"line": lambda j: j - 1, "star": lambda j: 1, "branch": lambda j: j // 2}


def topology_edges(
    kind: str, n: int
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """The seller invites bidder 1, and each bidder ``2..n`` is invited by her
    topology's parent: a line, a star around bidder 1 or a binary tree."""
    parent = TOPOLOGIES[kind]
    out = {i: set() for i in range(1, n + 1)}
    for j in range(2, n + 1):
        out[parent(j)].add(j)
    return frozenset({1} if n else ()), {i: frozenset(s) for i, s in out.items()}


def instance_from_parts(
    m: int,
    seller: Iterable[int],
    out_edges: Mapping[int, Iterable[int]],
    tables: Mapping[int, tuple[Money, ...]],
) -> AuctionInstance:
    reports = {
        i: BidderReport(i, tables[i], frozenset(out_edges.get(i, ())))
        for i in out_edges
    }
    return validate_instance(
        AuctionInstance(m, frozenset(seller), reports, dict(reports))
    )


def scalar_market(
    kind: str, values: tuple[int, ...], *, m: int = 1
) -> AuctionInstance:
    """A topology instance whose bidders value the full lot of ``m`` items
    at the given scalars and every smaller bundle at 0 (all-or-nothing)."""
    n = len(values)
    seller, out = topology_edges(kind, n)
    tables = {
        i: complete_table(m, {(1 << m) - 1: values[i - 1]})
        for i in range(1, n + 1)
    }
    return instance_from_parts(m, seller, out, tables)


# ---------------------------------------------------------------------------
# Seeded random families
# ---------------------------------------------------------------------------


def _random_edges(
    spec: FamilySpec, rng: random.Random
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    n = spec.n
    if spec.graph_model in TOPOLOGIES:
        return topology_edges(spec.graph_model, n)
    out = {i: set() for i in range(1, n + 1)}
    if spec.graph_model == "random-tree-plus-edges":
        order = list(range(1, n + 1))
        rng.shuffle(order)
        seller = frozenset(order[:1])
        for pos, node in enumerate(order[1:], start=1):
            out[order[rng.randrange(pos)]].add(node)
    else:  # erdos-renyi
        seller = frozenset(i for i in range(1, n + 1) if rng.random() < spec.edge_p)
        if n and not seller:
            seller = frozenset({rng.randint(1, n)})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < spec.edge_p:
                out[i].add(j)
    return seller, {i: frozenset(s) for i, s in out.items()}


def generate_instances(spec: FamilySpec) -> list[AuctionInstance]:
    """A deterministic family of validated instances with ground truth."""
    if spec.n < 0:
        raise BadSpec("negative bidder count")
    if spec.count < 0:
        raise BadSpec("negative instance count")
    if spec.v_max < 0:
        raise BadSpec("negative value bound")
    if not 0 <= spec.edge_p <= 1:
        raise BadSpec(f"edge probability {spec.edge_p} outside [0, 1]")
    if not 0 <= spec.m <= MAX_ITEMS:
        raise BadSpec(f"item count outside 0..{MAX_ITEMS}")
    if spec.graph_model not in GRAPH_MODELS:
        raise BadSpec(f"unknown graph model {spec.graph_model!r}")
    rng = random.Random(spec.seed)
    family = []
    for _ in range(spec.count):
        seller, out = _random_edges(spec, rng)
        tables = {
            i: random_valuation(spec.m, spec.v_max, rng) for i in range(1, spec.n + 1)
        }
        family.append(instance_from_parts(spec.m, seller, out, tables))
    return family


# ---------------------------------------------------------------------------
# Exhaustive network enumerations (for the consistency checkers)
# ---------------------------------------------------------------------------


def all_subsets(items: Iterable[int]) -> list[frozenset[int]]:
    """Every subset of ``items``: by size, then in lexicographic order."""
    ordered = sorted(items)
    return [
        frozenset(c)
        for r in range(len(ordered) + 1)
        for c in itertools.combinations(ordered, r)
    ]


def _seller_sets(ids: list[int]) -> list[frozenset[int]]:
    """Every seller invitation set over ``ids``, indexed by its bitmask."""
    return [frozenset(i for i in ids if bits >> (i - 1) & 1)
            for bits in range(1 << len(ids))]


def all_digraph_networks(
    n: int,
) -> Iterator[tuple[frozenset[int], dict[int, frozenset[int]]]]:
    """Every labeled digraph on ``n`` bidders together with every seller
    invitation set, seller-major.  Grows as ``2**(n + n(n-1))``; practical
    for ``n <= 4``.

    Each of the ``2**(n(n-1))`` graph maps and each of the ``2**n`` seller
    sets is built once and shared by every network that contains it, so
    callers must not mutate a yielded map."""
    ids = list(range(1, n + 1))
    edge_choices = [all_subsets(j for j in ids if j != i) for i in ids]
    graphs = [dict(zip(ids, combo)) for combo in itertools.product(*edge_choices)]
    for seller in _seller_sets(ids):
        for out in graphs:
            yield seller, out


def all_undirected_networks(
    n: int,
) -> Iterator[tuple[frozenset[int], dict[int, frozenset[int]]]]:
    """Every mutual-neighbor network on ``n`` bidders with every seller
    invitation set, graph-major; the symmetric counterpart of the digraph
    enumeration, matching how acquaintance actually works.

    Each graph map and each of the ``2**n`` seller sets is built once and
    shared by every network that contains it, so callers must not mutate a
    yielded map."""
    ids = list(range(1, n + 1))
    pairs = list(itertools.combinations(ids, 2))
    sellers = _seller_sets(ids)
    for edge_bits in range(1 << len(pairs)):
        out = {i: set() for i in ids}
        for k, (i, j) in enumerate(pairs):
            if edge_bits >> k & 1:
                out[i].add(j)
                out[j].add(i)
        frozen = {i: frozenset(s) for i, s in out.items()}
        for seller in sellers:
            yield seller, frozen


# ---------------------------------------------------------------------------
# Hand fixtures
# ---------------------------------------------------------------------------


def _branch_market(
    seller: Iterable[int], head: Mapping[int, tuple[Iterable[int], int]]
) -> AuctionInstance:
    """The branch market's five bidders after ``head``, each entry mapping a
    bidder to her invitations and her value for the single item."""
    market = {
        **head,
        1: ({2, 5}, 1), 2: ({3}, 9), 3: ((), 10), 4: ((), 2), 5: ((), 6),
    }
    out = {i: nbs for i, (nbs, _) in market.items()}
    tables = {i: (0, v) for i, (_, v) in market.items()}
    return instance_from_parts(1, seller, out, tables)


def branch_market_fixture() -> AuctionInstance:
    """Five bidders, two arms: the chain 1 -> 2 -> 3 plus direct bidders 4
    (from the seller) and 5 (invited by 1); values 1, 9, 10, 2, 6.  The
    canonical market where an inviter ends up paid for the competition she
    brought in."""
    return _branch_market({1, 4}, {})


def embedded_branch_fixture() -> AuctionInstance:
    """The branch market hanging off a single dealer (bidder 6) so the whole
    resale pipeline reproduces it as a local market; one item."""
    return _branch_market({6}, {6: ({1, 4}, 1)})


def topology_family(
    kinds: Iterable[str],
    max_n: int,
    *,
    m: int = 1,
    v_max: int = 3,
    profiles_per_shape: int | None = None,
    seed: int = 0,
) -> list[AuctionInstance]:
    """Topology instances over all (or a seeded sample of) value profiles."""
    rng = random.Random(seed)
    family = []
    seen = set()
    for kind in kinds:
        for n in range(1, max_n + 1):
            key_base = topology_edges(kind, n)
            dedupe = (key_base[0], tuple(sorted(key_base[1].items())))
            if dedupe in seen:
                continue
            seen.add(dedupe)
            profiles = list(itertools.product(range(v_max + 1), repeat=n))
            if profiles_per_shape is not None and len(profiles) > profiles_per_shape:
                profiles = rng.sample(profiles, profiles_per_shape)
            for values in profiles:
                family.append(scalar_market(kind, values, m=m))
    return family
