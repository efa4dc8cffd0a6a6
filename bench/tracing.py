"""Per-layer tracing from outside the package.

The benchmark times calls into each module's public functions by patching
the names the calling module looks up (``framework.restrict_instance`` is
the name the round engine calls, so patching it there catches every call
the engine makes).  Nothing inside ``netauction`` changes.

Spans are aggregated as they close rather than stored: a lab sweep makes
millions of calls.  A span's self time is its duration minus the time of
the spans it directly contains.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from netauction import critical, drm, framework, generate, idm, model, properties

SETUP_PREFIX = "generate."

# Span names in report order.  Spans under SETUP_PREFIX run during set-up and
# are reported per set-up; every other span is reported per sweep.
SPANS = (
    "framework.dcaf_run_detailed",
    "framework.drp_run",
    "framework.price_fn",
    "framework.resale_revenue_fn",
    "drm.greedy_bdp",
    "drm.graph_exploration_cdp",
    "model.iter_subbundles",
    "model.restrict_instance",
    "model.check_outcome",
    "model.AuctionInstance.with_report",
    "model.BidderReport.with_neighbors",
    "critical.all_critical_structures.round",
    "critical.all_critical_structures.idm",
    "idm.idm_run",
    "properties.check_ic",
    "properties.check_cdp_consistency",
    "generate.generate_instances",
    "generate.topology_family",
    "generate.all_digraph_networks",
)

# Derived per-layer figures: name -> (unit, better).
DERIVED = {
    "framework.pricing.redundancy": ("ratio", "lower"),
    "framework.pricing.distinct": ("count", "lower"),
    "framework.rounds": ("count", "lower"),
    "critical.structures_per_round": ("ratio", "lower"),
    "framework.drp_run.resold_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name mapped to (unit, better), in print order."""
    units: dict[str, tuple[str, str]] = {}
    for name in SPANS:
        units[f"{name}.self_s"] = ("s", "lower")
        units[f"{name}.calls"] = ("count", "lower")
    units.update(DERIVED)
    return units


class Tracer:
    """Span statistics plus the counters behind the derived ratios."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name in SPANS}
        self._stack: list[float] = []
        self.rounds = 0
        self.resold = 0
        self.distinct_priced = 0
        self._round_key: object = None
        self._round_bundles: set[int] = set()

    def wrap(self, name, fn, observe=None, materialize=False):
        """``fn`` with a span named ``name`` around every call.

        ``observe(args, result)`` runs after the span closes, for counters
        that need the call's result.  ``materialize`` lists a generator's
        output inside the span so the span covers the enumeration.
        """
        stat = self.stats[name]
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                elapsed = perf() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _priced(self, args, _out) -> None:
        # The engine binds one non-trader report list per round into both
        # pricing closures, so the list's identity marks the round.
        tn_reports, bundle = args
        if tn_reports is not self._round_key:
            self._close_round()
            self._round_key = tn_reports
        self._round_bundles.add(bundle)

    def _close_round(self) -> None:
        self.distinct_priced += len(self._round_bundles)
        self._round_bundles = set()

    def _ran(self, _args, out) -> None:
        self.rounds += len(out.rounds)

    def _resold(self, _args, out) -> None:
        self.resold += out.resold

    def _patches(self):
        w = self.wrap
        price = w("framework.price_fn", framework.price_fn, self._priced)
        revenue = w(
            "framework.resale_revenue_fn", framework.resale_revenue_fn, self._priced
        )
        cdp = w("drm.graph_exploration_cdp", drm.graph_exploration_cdp)
        return [
            (framework.PRICING, "second-first", (price, revenue)),
            (drm.CDPS, "graph-exploration", cdp),
            (drm, "graph_exploration_cdp", cdp),
            (drm.BDPS, "greedy", w("drm.greedy_bdp", drm.greedy_bdp)),
            (drm, "iter_subbundles", w("model.iter_subbundles", drm.iter_subbundles)),
            (drm, "dcaf_run_detailed",
             w("framework.dcaf_run_detailed", drm.dcaf_run_detailed, self._ran)),
            (drm, "idm_run", w("idm.idm_run", drm.idm_run)),
            (framework, "drp_run",
             w("framework.drp_run", framework.drp_run, self._resold)),
            (framework, "restrict_instance",
             w("model.restrict_instance", framework.restrict_instance)),
            (framework, "check_outcome",
             w("model.check_outcome", framework.check_outcome)),
            (framework, "all_critical_structures",
             w("critical.all_critical_structures.round",
               framework.all_critical_structures)),
            (idm, "all_critical_structures",
             w("critical.all_critical_structures.idm", idm.all_critical_structures)),
            (model.AuctionInstance, "with_report",
             w("model.AuctionInstance.with_report", model.AuctionInstance.with_report)),
            (model.BidderReport, "with_neighbors",
             w("model.BidderReport.with_neighbors", model.BidderReport.with_neighbors)),
            (properties, "check_ic", w("properties.check_ic", properties.check_ic)),
            (properties, "check_cdp_consistency",
             w("properties.check_cdp_consistency", properties.check_cdp_consistency)),
            (generate, "generate_instances",
             w("generate.generate_instances", generate.generate_instances)),
            (generate, "topology_family",
             w("generate.topology_family", generate.topology_family)),
            (generate, "all_digraph_networks",
             w("generate.all_digraph_networks", generate.all_digraph_networks,
               materialize=True)),
        ]

    @contextmanager
    def installed(self):
        """Patch every traced call site for the duration of the block."""
        undo = []
        try:
            for owner, key, new in self._patches():
                if isinstance(owner, dict):
                    undo.append((owner, key, owner[key]))
                    owner[key] = new
                else:
                    undo.append((owner, key, owner.__dict__[key]))
                    setattr(owner, key, new)
            yield self
        finally:
            for owner, key, old in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = old
                else:
                    setattr(owner, key, old)

    def metrics(self, sweeps: int, setups: int, overhead_frac: float) -> dict:
        """Per-layer metrics: loop spans per sweep, set-up spans per set-up.

        A ratio whose base is zero (no pricing on ``lab-cdc``, say) reads 0.
        """
        self._close_round()
        out: dict[str, float] = {}
        for name in SPANS:
            per = setups if name.startswith(SETUP_PREFIX) else sweeps
            calls, self_s = self.stats[name]
            out[f"{name}.self_s"] = self_s / per
            out[f"{name}.calls"] = calls / per
        pricing_calls = (
            self.stats["framework.price_fn"][0]
            + self.stats["framework.resale_revenue_fn"][0]
        )
        structures = (
            self.stats["critical.all_critical_structures.round"][0]
            + self.stats["critical.all_critical_structures.idm"][0]
        )
        attempts = self.stats["framework.drp_run"][0]
        out["framework.pricing.redundancy"] = _ratio(pricing_calls, self.distinct_priced)
        out["framework.pricing.distinct"] = self.distinct_priced / sweeps
        out["framework.rounds"] = self.rounds / sweeps
        out["critical.structures_per_round"] = _ratio(structures, self.rounds)
        out["framework.drp_run.resold_ratio"] = _ratio(self.resold, attempts)
        out["trace.overhead_frac"] = overhead_frac
        return out


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
