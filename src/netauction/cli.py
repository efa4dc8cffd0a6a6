"""Command-line front end.

    netauction run --mechanism drm --instance auction.json
    netauction verify --property wbb --scale small
    netauction generate --n 6 --m 2 --vmax 3 --count 100 --seed 7 --out corpus/
    netauction compare --instances corpus/

Exit codes: 0 success, 2 usage error, 3 validation error (an instance
with more items than greedy bundle division enumerates counts as one), 4
property violation (or, for the positive-incentive search, no witness found).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path

from . import generate as gen
from .drm import (
    MECHANISMS,
    TooManyItems,
    graph_exploration_cdp,
    greedy_bdp,
)
from .idm import idm_run
from .instance_io import ParseError, load_instance, save_instance
from .model import (
    AuctionError,
    InstanceValidationError,
    MechanismConfig,
    bundle_str,
    social_welfare,
)
from .properties import (
    CheckResult,
    DeviationSpace,
    check_bdp_locality,
    check_cdp_consistency,
    check_ic,
    check_ir,
    check_revenue_consistency,
    check_wbb,
    find_epi4nw_witness,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def _write_csv(path: str, headers: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    config = MechanismConfig(rng_seed=args.seed)
    outcome = MECHANISMS[args.mechanism](instance, config)
    headers = ["bidder", "allocation", "payment"]
    rows = [
        [str(i), bundle_str(outcome.allocation[i]), str(outcome.payment[i])]
        for i in sorted(outcome.allocation)
    ]
    header = f"mechanism: {args.mechanism}"
    if args.mechanism == "drm-random-bdp":  # the one mechanism that reads the seed
        header += f"  seed: {args.seed}"
    print(header)
    print(_format_table(headers, rows))
    print(f"seller revenue: {outcome.seller_revenue}")
    print(f"social welfare: {social_welfare(instance, outcome)}")
    if args.csv:
        _write_csv(args.csv, headers, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _drm_fn(instance):
    return MECHANISMS["drm"](instance, MechanismConfig())


def _verify_family(scale: str):
    max_n = 4 if scale == "tiny" else 5
    per_shape = 8 if scale == "tiny" else 24
    family = gen.topology_family(
        ("line", "star", "branch"), max_n, m=1, v_max=3,
        profiles_per_shape=per_shape, seed=5,
    )
    family += gen.topology_family(
        ("line", "branch"), max_n, m=2, v_max=3, profiles_per_shape=4, seed=6
    )
    count = 10 if scale == "tiny" else 30
    family += gen.generate_instances(
        gen.FamilySpec(n=max_n, m=2, v_max=3, count=count, seed=9)
    )
    return family


def _run_verify(prop: str, scale: str) -> CheckResult:
    space = DeviationSpace(v_max=3, others_budget=0 if scale == "tiny" else 2,
                           seed=13)
    if prop == "ir":
        return check_ir(_drm_fn, _verify_family(scale), space)
    if prop == "ic":
        return check_ic(_drm_fn, _verify_family(scale), space)
    if prop == "wbb":
        count = 200 if scale == "tiny" else 1000
        family = _verify_family(scale) + gen.generate_instances(
            gen.FamilySpec(n=12, m=4, v_max=9, count=count, seed=21)
        )
        return check_wbb(_drm_fn, family)
    if prop == "cdc":
        enumerations = [gen.all_digraph_networks(n)
                        for n in range(1, 4 if scale == "tiny" else 5)]
        if scale == "small":
            enumerations.append(gen.all_undirected_networks(5))
        return check_cdp_consistency(
            graph_exploration_cdp, itertools.chain.from_iterable(enumerations)
        )
    if prop == "rdm":
        return check_bdp_locality(greedy_bdp, _verify_family(scale))
    # rc; argparse admits no other property
    markets = gen.topology_family(
        ("line", "star", "branch"), 4, m=1, v_max=3,
        profiles_per_shape=None if scale == "small" else 16, seed=3,
    )
    return check_revenue_consistency(idm_run, markets)


def _cmd_verify(args) -> int:
    if args.property == "epi4nw":
        witness = find_epi4nw_witness(_drm_fn, [gen.embedded_branch_fixture()])
        if witness is None:
            print("epi4nw: NO WITNESS in the searched family")
            return EXIT_VIOLATION
        print(
            f"epi4nw: witness found: bidder {witness.bidder} holds nothing "
            f"and is paid {-witness.delta}"
        )
        return EXIT_OK
    result = _run_verify(args.property, args.scale)
    print(result.summary())
    return EXIT_OK if result.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = gen.FamilySpec(
        n=args.n, m=args.m, v_max=args.vmax, graph_model=args.graph,
        count=args.count, seed=args.seed, edge_p=args.edge_p,
    )
    instances = gen.generate_instances(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, instance in enumerate(instances):
        save_instance(out_dir / f"instance_{k:04d}.json", instance)
    print(f"wrote {spec.count} instance(s) to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _cmd_compare(args) -> int:
    paths = sorted(Path(args.instances).glob("*.json"))
    if not paths:
        print(f"no .json instances under {args.instances}", file=sys.stderr)
        return EXIT_USAGE
    headers = [
        "instance", "drm_revenue", "drm_welfare",
        "baseline_revenue", "baseline_welfare",
    ]
    rows = []
    config = MechanismConfig()
    drm = MECHANISMS["drm"]
    baseline = MECHANISMS["baseline-direct"]
    for path in paths:
        instance = load_instance(path)
        ours = drm(instance, config)
        direct = baseline(instance, config)
        rows.append([
            path.name,
            str(ours.seller_revenue),
            str(social_welfare(instance, ours)),
            str(direct.seller_revenue),
            str(social_welfare(instance, direct)),
        ])
    print(_format_table(headers, rows))
    if args.csv:
        _write_csv(args.csv, headers, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netauction",
        description="Combinatorial diffusion auctions and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--csv")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a property checker")
    p_verify.add_argument(
        "--property", required=True,
        choices=["ir", "ic", "wbb", "epi4nw", "cdc", "rdm", "rc"],
    )
    p_verify.add_argument("--scale", choices=["tiny", "small"], default="tiny")
    p_verify.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("generate", help="write a seeded instance corpus")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--vmax", type=int, default=3)
    p_gen.add_argument("--graph", default="random-tree-plus-edges",
                       choices=sorted(gen.GRAPH_MODELS))
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--edge-p", type=float, default=0.25)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_generate)

    p_cmp = sub.add_parser(
        "compare", help="dealer mechanism vs the direct second-price baseline"
    )
    p_cmp.add_argument("--instances", required=True)
    p_cmp.add_argument("--csv")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, InstanceValidationError, TooManyItems) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AuctionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
