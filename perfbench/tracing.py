"""Spans around calls into sdlb's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``sdlb`` module that holds it: its defining module, so nested calls become
child spans, and each import site such as ``sdlb.cli.run_cell_mc``.
Methods are wrapped on their class. ``uninstall`` puts the originals back.
Spans stay in memory as ``[name, start, end, parent, job]`` lists.
"""
from __future__ import annotations

import sys
from collections import Counter

LAYERS = ("config", "topology", "queueing", "overhead", "timing", "reliability",
          "simkernel", "cli")

# (defining module, attribute) per layer; "Class.method" wraps a method
TRACED = {
    "config": ("ScenarioConfig.from_dict", "ScenarioConfig.overhead_params",
               "ReliabilitySpec.params_for", "TopologySpec.build", "SimSpec.scenario"),
    "topology": ("build_topology",),
    "queueing": ("state_probabilities", "transition_probability", "prob_state_change",
                 "prob_bb_update"),
    "overhead": ("periodic_overhead", "nonperiodic_overhead", "even_bb_split"),
    "timing": ("total_processing_time_sda", "total_processing_time_hsca"),
    "reliability": ("integrated_reliability", "scenario_probabilities",
                    "uniform_reliability_params"),
    "simkernel": ("run_cell_mc", "run_system_sim", "validate_against_analytic",
                  "horizon_for_events"),
    "cli": ("cmd_figures", "cmd_validate", "cmd_scenario"),
}
# called once per (cell, kind) per report tick: counted, not timed
COUNTED = {"queueing": ("classify_load",)}


class Tracer:
    def __init__(self, now):
        """``now`` is the clock spans are timed with."""
        self.now = now
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        # (span name, call args, result, span index) for the calls whose
        # results feed counts
        self.results: list[tuple[str, tuple, object, int]] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn, keep_result: bool):
        spans, stack, perf = self.spans, self._stack, self.now

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if keep_result:
                self.results.append((name, args, result, idx))
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, keep_results: set[str]):
        """Wrap every traced function; ``keep_results`` names the spans
        whose return values are kept for counting."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sdlb" or n.startswith("sdlb.")]
        for counted, table in ((False, TRACED), (True, COUNTED)):
            for layer, names in table.items():
                home = sys.modules[f"sdlb.{layer}"]
                for attr in names:
                    name = f"{layer}.{attr}"
                    if "." in attr:
                        self._wrap_method(home, attr, name, name in keep_results)
                        continue
                    orig = getattr(home, attr)
                    new = (self._counted(name, orig) if counted
                           else self._timed(name, orig, name in keep_results))
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is orig:
                                self._patch(module, key, new)

    def _wrap_method(self, home, attr: str, name: str, keep_result: bool):
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[meth]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        new = self._timed(name, fn, keep_result)
        self._patch(cls, meth, classmethod(new) if raw is not fn else new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
