"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each layer, in every
module namespace that calls them, with wrappers that record a span (name,
parent span, start, end) and a few counts; ``Tracer.remove`` puts the
originals back. Nothing in ``reactplan`` is edited. Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict

import numpy as np


def _count_candidates(tr, out, args, kwargs):
    tr.counts["sampler.candidates"] += len(out)


def _count_blocks(tr, out, args, kwargs):
    m = out.shape[0]
    combined = out + out.transpose(1, 0, 3, 2)
    nonzero = np.any(combined != 0.0, axis=(2, 3))
    tr.counts["energy.pair_blocks"] += m * (m - 1) // 2
    tr.counts["energy.nonzero_pairs"] += int(np.triu(nonzero, 1).sum())


def _count_lbp(tr, out, args, kwargs):
    tr.counts["inference.lbp_calls"] += 1
    tr.counts["inference.lbp_iters"] += out.iters_used
    cfg = args[1] if len(args) == 2 else args[2]     # lbp(tables, cfg) or lbp_pass(node, edge, cfg)
    if not cfg.fixed_iterations and not out.converged:
        tr.counts["inference.lbp_nonconverged"] += 1


def _count_steps(tr, out, args, kwargs):
    tr.counts["simulator.steps"] += len(out.trace)


def _count_examples(tr, out, args, kwargs):
    tr.counts["learning.example_evals"] += 1


def _lbp_name(args, kwargs):
    tangent = kwargs.get("node_dot", args[3] if len(args) > 3 else None) is not None
    return "inference.lbp_tangent" if tangent else "inference.lbp"


# (module, function, span name or None for a bare counter, count hook)
TARGETS = (
    ("reactplan.sampler", "sample_candidates", "sampler", _count_candidates),
    ("reactplan.simulator", "sample_candidates", "sampler", _count_candidates),
    ("reactplan.learning", "sample_candidates", "sampler", _count_candidates),
    ("reactplan.energy", "extract_features_batch", "energy.features", None),
    ("reactplan.learning", "extract_features_batch", "energy.features", None),
    ("reactplan.energy", "interaction_tables", "energy.interaction", _count_blocks),
    ("reactplan.learning", "interaction_tables", "energy.interaction", _count_blocks),
    ("reactplan.energy", "build_tables", "energy.build", None),
    ("reactplan.simulator", "build_tables", "energy.build", None),
    ("reactplan.planner", "lbp", "inference.lbp", _count_lbp),
    ("reactplan.learning", "lbp_pass", _lbp_name, _count_lbp),
    ("reactplan.planner", "plan", "planner.plan", None),
    ("reactplan.simulator", "plan", "planner.plan", None),
    ("reactplan.simulator", "step_episode", "simulator.episode", _count_steps),
    ("reactplan.simulator", "actor_policy_step", "simulator.actor_step", None),
    ("reactplan.learning", "example_loss", "learning.example", _count_examples),
    ("reactplan.cli", "cmd_simulate", "cli.simulate", None),
    ("reactplan.cli", "run_suite", "cli.run_suite", None),
    ("reactplan.simulator", "boxes_overlap", None, None),
    ("reactplan.scenarios", "boxes_overlap", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []            # (name, parent index or -1, start, end)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, parent, start, end)
            if hook is not None:
                hook(self, out, args, kwargs)
            return out
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["geometry.scalar_overlap_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._counter(fn) if name is None
                    else self._span(name, fn, hook))

    def remove(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def snapshot(self):
        return dict(self.counts)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "parent", "start", "end"])
            for idx, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([idx, name, parent, repr(start), repr(end)])

    def layer_metrics(self):
        """Totals over every recorded span: self times and counts."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        child = defaultdict(lambda: defaultdict(float))
        for name, parent, start, end in self.spans:
            dur = end - start
            total[name] += dur
            self_time[name] += dur
            if parent >= 0:
                child[parent][name] += dur
                self_time[self.spans[parent][0]] -= dur
        replanning = ("sampler", "energy.build", "planner.plan")
        step_s = sum(end - start - sum(child[idx][c] for c in replanning)
                     for idx, (name, _, start, end) in enumerate(self.spans)
                     if name == "simulator.episode")
        c = self.counts
        blocks = c["energy.pair_blocks"]
        return {
            "sampler.self_s": (self_time["sampler"], "s"),
            "sampler.candidates": (c["sampler.candidates"], "count"),
            "energy.features_s": (self_time["energy.features"], "s"),
            "energy.interaction_s": (self_time["energy.interaction"], "s"),
            "energy.pair_blocks": (blocks, "count"),
            "energy.nonzero_pair_frac": (
                c["energy.nonzero_pairs"] / blocks if blocks else 0.0, "ratio"),
            "inference.lbp_s": (total["inference.lbp"]
                                + total["inference.lbp_tangent"], "s"),
            "inference.lbp_calls": (c["inference.lbp_calls"], "count"),
            "inference.lbp_iters": (c["inference.lbp_iters"], "count"),
            "inference.lbp_nonconverged": (c["inference.lbp_nonconverged"], "count"),
            "inference.tangent_s": (total["inference.lbp_tangent"], "s"),
            "planner.score_s": (self_time["planner.plan"], "s"),
            "simulator.step_s": (step_s, "s"),
            "simulator.actor_step_s": (self_time["simulator.actor_step"], "s"),
            "simulator.steps": (c["simulator.steps"], "count"),
            "geometry.scalar_overlap_calls": (c["geometry.scalar_overlap_calls"], "count"),
            "learning.self_s": (self_time["learning.example"], "s"),
            "learning.example_evals": (c["learning.example_evals"], "count"),
            "cli.write_s": (self_time["cli.simulate"], "s"),
        }
