"""In-memory spans around calls into the ``sizebias`` modules.

Tracing is done from outside the package: ``install`` replaces public
names in each module namespace, as the calling module binds them, with
wrappers that record a span per call.  Because ``sum_bias`` calls
``merge_atoms`` and ``convolve_all`` through its own module globals, the
wrapped names nest: a ``dist_core.merge_atoms`` span sits inside
``sum_bias.convolve`` inside ``sum_bias.size_biased_sum_pmf``.  That
nesting is what makes self time per layer measurable.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (namespace module, attribute) -> span name.  The span name is the
# defining module, which is the layer the time is charged to.  Names
# that recurse into themselves (cli.json_text) or run thousands of times
# per call (lognormal.theta_t) are timed only at the benchmark's own call.
WRAPPED = {
    ("dist_core", "merge_atoms"): "dist_core.merge_atoms",
    ("dist_core", "size_bias_discrete"): "dist_core.size_bias_discrete",
    ("sum_bias", "merge_atoms"): "dist_core.merge_atoms",
    ("sum_bias", "size_bias_discrete"): "dist_core.size_bias_discrete",
    ("sum_bias", "convolve"): "sum_bias.convolve",
    ("sum_bias", "convolve_all"): "sum_bias.convolve_all",
    ("sum_bias", "index_distribution"): "sum_bias.index_distribution",
    ("sum_bias", "size_biased_sum_pmf"): "sum_bias.size_biased_sum_pmf",
    ("sum_bias", "size_biased_product_pmf"): "sum_bias.size_biased_product_pmf",
    ("sum_bias", "size_bias_mixture"): "sum_bias.size_bias_mixture",
    ("inf_div", "compound_poisson_from_increment"): "inf_div.compound_poisson_from_increment",
    ("inf_div", "pmf_recursion"): "inf_div.pmf_recursion",
    ("inf_div", "extract_increment"): "inf_div.extract_increment",
    ("inf_div", "dickman_solve"): "inf_div.dickman_solve",
    ("inf_div", "buchstab_solve"): "inf_div.buchstab_solve",
    ("lognormal", "orbit_pmf"): "lognormal.orbit_pmf",
    ("lognormal", "berg_pmf"): "lognormal.berg_pmf",
    ("lognormal", "auto_M"): "lognormal.auto_M",
    ("lognormal", "mixture_normalizer"): "lognormal.mixture_normalizer",
    ("lognormal", "stieltjes_moment"): "lognormal.stieltjes_moment",
    ("stochastic", "size_bias_discrete"): "dist_core.size_bias_discrete",
    ("stochastic", "simulate_renewal_inspection"): "stochastic.simulate_renewal_inspection",
    ("stochastic", "stationary_renewal_arrivals"): "stochastic.stationary_renewal_arrivals",
    ("stochastic", "sample_stationary_phase"): "stochastic.sample_stationary_phase",
    ("stochastic", "skorohod_coupling"): "stochastic.skorohod_coupling",
    ("midzuno", "exact_expectation"): "midzuno.exact_expectation",
    ("midzuno", "midzuno_sample"): "midzuno.midzuno_sample",
    ("bounds", "merge_atoms"): "dist_core.merge_atoms",
    ("bounds", "tv_distance"): "bounds.tv_distance",
    ("bounds", "binomial_poisson_check"): "bounds.binomial_poisson_check",
}

LAYERS = ("cli", "dist_core", "sum_bias", "inf_div", "lognormal", "stochastic",
          "midzuno", "bounds")


class Tracer:
    """Spans kept in memory: [name, task, start, end, parent, op].

    ``parent`` is the index of the enclosing span or -1; ``op`` is the
    operation (batch or CLI call) the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.task = ""
        self.active = False     # on only while an operation runs

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.task, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere, e.g. a phase in a subprocess."""
        self.spans.append([name, self.task, start, end, parent, self.op])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Swap wrappers into the module namespaces; returns the undo list."""
        undo = []
        for (mod, attr), name in WRAPPED.items():
            m = importlib.import_module(f"sizebias.{mod}")
            orig = getattr(m, attr)
            setattr(m, attr, self.wrap(name, orig))
            undo.append((m, attr, orig))
        dc = importlib.import_module("sizebias.dist_core")
        orig_fp = dc.DiscreteDist.__dict__["from_pairs"]
        traced_fp = self.wrap("dist_core.from_pairs", orig_fp.__func__)
        dc.DiscreteDist.from_pairs = classmethod(traced_fp)
        undo.append((dc.DiscreteDist, "from_pairs", orig_fp))
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    # ---------------------------------------------------------------
    # analysis

    def self_times(self):
        """Self time per span: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, task, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[3] - s[2]) - c for s, c in zip(self.spans, child)]

    def layer_self_per_op(self, ops):
        """{layer: [self seconds in each op of ``ops``]} (zeros included)."""
        per = defaultdict(lambda: defaultdict(float))
        wanted = set(ops)
        for s, st in zip(self.spans, self.self_times()):
            if s[5] in wanted:
                per[s[0].split(".", 1)[0]][s[5]] += st
        return {layer: [per[layer][op] for op in ops] for layer in LAYERS}

    def durations(self, name: str, task: str | None = None):
        return [s[3] - s[2] for s in self.spans
                if s[0] == name and (task is None or s[1] == task)]

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "task", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
