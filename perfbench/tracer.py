"""Spans, counters and log signals recorded from outside citegen.

A probe wraps one public function of a citegen module.  It is installed
under every name that binds the function in a loaded citegen module,
because callers look names up in their own namespace: ``citegen.bench``
binds ``compare``, ``estimate`` and ``generate`` itself, and
``citegen.metrics.battery`` binds ``detect_communities``.  ``Probes`` puts
the original functions back on exit.

The recorder keeps spans in memory and assumes one thread, which holds
because the benchmark runs ``run_bench`` with ``threads=1``.

Only the standard library is used, so importing this module does not
import citegen or numpy.
"""

from __future__ import annotations

import inspect
import logging
import sys
import time
from collections import defaultdict

# module -> layer name used as the span prefix
TRACED_MODULES = {
    "citegen.graph": "graph",
    "citegen.generator": "generator",
    "citegen.neardag": "neardag",
    "citegen.estimation": "estimation",
    "citegen.baselines": "baselines",
    "citegen.metrics.battery": "metrics",
    "citegen.metrics.communities": "communities",
    "citegen.metrics.triads": "triads",
    "citegen.metrics.paths": "paths",
    "citegen.metrics.distances": "distances",
    "citegen.bench": "bench",
    "citegen.stats": "stats",
}

# a name bound in one namespace that gets a span name of its own there
NAMESPACE_SPANS = {("citegen.bench", "compare"): "bench.compare"}

# layers whose functions take one graph and compute a metric of it
METRIC_LAYERS = ("paths", "triads", "communities")

# the program's log.warning / log.info templates, by counter name
LOG_SIGNALS = {
    "dropping %d blocks with missing values: %s": "stats.dropped_blocks",
    "Friedman test unavailable for %s: %s": "bench.friedman_unavailable",
    "every edge violates the ordering; the orientation convention may be "
    "inverted": "neardag.inverted_orientation",
    "injected %d of %d requested back-edges (candidate space exhausted)":
        "neardag.back_edge_shortfall",
    "reversed %d of %d requested edges (collision space exhausted)":
        "neardag.reversal_shortfall",
    "dropped %d self-loops and %d duplicate edges on load":
        "graph.load_dropped",
    "omitting %d isolated nodes from the labels file":
        "graph.isolated_omitted",
    "configuration model erased %d stub pairings": "baselines.config_erased",
    "block pair (%d,%d) has no room; skipped": "baselines.block_no_room",
    "block pair (%d,%d) has zero propensity; skipped":
        "baselines.block_zero_propensity",
    "block sampling dropped %d colliding edges": "baselines.block_collisions",
}


class LogCounter(logging.Handler):
    """Counts records of the ``citegen`` logger by message template.

    ``totals`` sums each record's first argument, which is the number of
    items the message reports (blocks dropped, edges lost, ...).
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.counts = defaultdict(int)
        self.totals = defaultdict(int)

    def emit(self, record):
        key = LOG_SIGNALS.get(record.msg, "other")
        self.counts[key] += 1
        if record.args and isinstance(record.args[0], int):
            self.totals[key] += record.args[0]

    def reset(self):
        self.counts.clear()
        self.totals.clear()


class Recorder:
    """Spans (name, parent, start, end) and named counters of one run."""

    def __init__(self, real_graphs=()):
        self.spans = []
        self.counts = defaultdict(float)
        self.fits = []
        self.modularities = []
        self.real_ids = {id(g) for g in real_graphs}
        self._stack = []
        self._in_real = 0

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def span_table(self, reported):
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus its children's.  A span whose
        name is not in ``reported`` adds its self time to its nearest
        ancestor that is, so small helpers count toward their caller's
        layer; without such an ancestor it keeps its own row.
        """
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        self_t = dur[:]
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                self_t[parent] -= dur[i]
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            name, parent = self.spans[i][0], self.spans[i][1]
            table[name]["calls"] += 1
            table[name]["total_s"] += dur[i]
            owner = i
            while self.spans[owner][0] not in reported and self.spans[owner][1] >= 0:
                owner = self.spans[owner][1]
            if self.spans[owner][0] not in reported:
                owner = i
            table[self.spans[owner][0]]["self_s"] += self_t[i]
        return dict(table)

    def top_level_seconds(self):
        return sum(s[3] - s[2] for s in self.spans if s[1] < 0)


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_generate(rec, fn, args, kwargs, out):
    rec.counts["generator.edges"] += out.num_edges


def _count_inject(rec, fn, args, kwargs, out):
    from citegen import neardag
    a = _bound(fn, args, kwargs)
    requested = inspect.unwrap(neardag.back_edge_count)(a["dag"].num_edges, a["r"])
    rec.counts["neardag.back_edges_requested"] += requested
    rec.counts["neardag.back_edges_placed"] += out.num_edges - a["dag"].num_edges


def _count_cycle_break(rec, fn, args, kwargs, out):
    graph, report = out
    rec.counts["neardag.reversals_requested"] += _bound(fn, args, kwargs)["r"] \
        * graph.num_edges
    rec.counts["neardag.reversals_done"] += report.reversed_edges


def _count_estimate(rec, fn, args, kwargs, out):
    rec.fits.append(out)
    rec.counts["estimation.rho_clamped"] += int(
        (out.clamped_low | out.clamped_high).sum())


def _count_config(rec, fn, args, kwargs, out):
    graph, erased = out
    rec.counts["baselines.config_kept"] += graph.num_edges
    rec.counts["baselines.config_pairings"] += graph.num_edges + erased


def _count_compare(rec, fn, args, kwargs, out):
    rec.counts["metrics.skipped"] += sum(e.skipped for e in out.entries)


def _count_detect(rec, fn, args, kwargs, out):
    rec.modularities.append(float(out[1]))


# function name -> hook called with the result of every call
HOOKS = {
    "generate": _count_generate,
    "inject_back_edges": _count_inject,
    "cycle_break": _count_cycle_break,
    "estimate": _count_estimate,
    "generate_config": _count_config,
    "compare": _count_compare,
    "detect_communities": _count_detect,
}

# what an untraced run records: results only, no timers
CAPTURED = ("estimate", "detect_communities")


def _span_name(name, args, kwargs):
    if name == "triads.triad_census":
        sampled = kwargs.get("n_samples", args[1] if len(args) > 1 else None)
        return "triads.census_sampled" if sampled is not None else "triads.census_exact"
    return name


def _traced(rec, fn, name, metric_fn):
    hook = HOOKS.get(fn.__name__)

    def wrapper(*args, **kwargs):
        span = _span_name(name, args, kwargs)
        real = bool(metric_fn and not rec._in_real and args
                    and id(args[0]) in rec.real_ids)
        rec._in_real += real
        idx = rec.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
            rec._in_real -= real
        if real:
            s = rec.spans[idx]
            rec.counts["bench.real_side_s"] += s[3] - s[2]
        if hook:
            hook(rec, fn, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _captured(rec, fn):
    hook = HOOKS[fn.__name__]

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(rec, fn, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def public_functions():
    """(function, span name, is a metric function) for every traced module."""
    found = {}
    for modname, layer in TRACED_MODULES.items():
        for attr, fn in vars(sys.modules[modname]).items():
            if (inspect.isfunction(fn) and fn.__module__ == modname
                    and not attr.startswith("_")):
                found[id(fn)] = (fn, f"{layer}.{fn.__name__}",
                                 layer in METRIC_LAYERS)
    return found


class Probes:
    """Context manager installing probes into every loaded citegen module.

    With ``timed`` every public function gets a span; otherwise only the
    functions in ``CAPTURED`` get a pass-through that keeps their results.
    """

    def __init__(self, rec, timed):
        self.rec = rec
        self.timed = timed
        self._patches = []

    def __enter__(self):
        from citegen.graph import LabeledGraph
        targets = public_functions()
        if not self.timed:
            targets = {k: v for k, v in targets.items()
                       if v[0].__name__ in CAPTURED}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "citegen" and not modname.startswith("citegen."):
                continue
            for attr, val in list(vars(mod).items()):
                target = targets.get(id(val))
                if target is None or val is not target[0]:
                    continue
                fn, name, metric_fn = target
                name = NAMESPACE_SPANS.get((modname, attr), name)
                if name not in wrappers:
                    wrappers[name] = (_traced(self.rec, fn, name, metric_fn)
                                      if self.timed else _captured(self.rec, fn))
                self._patch(mod, attr, wrappers[name])
        if self.timed:
            init = LabeledGraph.__post_init__
            rec = self.rec

            def traced_init(graph):
                idx = rec.open("graph.init")
                try:
                    init(graph)
                finally:
                    rec.close(idx)

            self._patch(LabeledGraph, "__post_init__", traced_init)
        return self.rec

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False
