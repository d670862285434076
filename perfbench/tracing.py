"""Spans around the public functions of each moelearn layer, for traced runs.

``Tracer.install`` rebinds each traced function to a wrapper that records a
span (label, start, end, parent span). Modules that imported the function by
name (``joint_em`` takes ``e_step``/``m_step``/``q_value`` from
``gating_em``; ``pipeline`` and ``experiments`` take most stage entry points)
are rebound too, by replacing every module attribute that is the original
function object. ``uninstall`` restores the originals. Spans stay in memory
until the run ends. Nothing here changes arguments or results, so a traced
pass must reproduce the untraced one bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from moelearn import (activations, cqt, decomposition, experiments, gating_em,
                      gating_mom, joint_em, metrics, model, moments, pipeline,
                      scores)

# (owner, attribute, span label). ``evaluate`` lives in ``pipeline`` but is
# the scoring stage, so it is reported under the metrics layer.
TARGETS = [
    (experiments, "run_trial", "experiments.run_trial"),
    (model, "sample_dataset", "model.sample_dataset"),
    (cqt, "solve_cqt", "cqt.solve_cqt"),
    (moments, "accumulate", "moments.accumulate"),
    (moments, "finalize", "moments.finalize"),
    (scores, "score3_packed", "scores.score3_packed"),
    (decomposition, "whiten", "decomposition.whiten"),
    (scores.Sym3, "contract_all_modes", "decomposition.contract_all_modes"),
    (decomposition, "power_method", "decomposition.power_method"),
    (gating_em, "run_em", "gating_em.run_em"),
    (gating_em, "run_gradient_em", "gating_em.run_em"),
    (gating_em, "e_step", "gating_em.e_step"),
    (gating_em, "m_step", "gating_em.m_step"),
    (gating_em, "q_value", "gating_em.q_value"),
    (gating_em, "q_gradient", "gating_em.q_gradient"),
    (gating_mom, "mom_gating", "gating_mom.mom_gating"),
    (joint_em, "run_joint_em", "joint_em.run_joint_em"),
    (activations.Activation, "__call__", "activations.call"),
    (pipeline, "evaluate", "metrics.evaluate"),
    (metrics, "param_error_min_gauge", "metrics.param_error_min_gauge"),
]

# Children subtracted from run_joint_em to leave the expert step's self time.
_JOINT_EM_CHILDREN = {"gating_em.e_step", "gating_em.m_step", "gating_em.q_value"}

# unit of every per-layer metric, in report order
PER_LAYER = {
    "gating_em.run_em.s": "s",
    "gating_em.outer_iters": "count",
    "gating_em.e_step.s": "s",
    "gating_em.e_step.calls": "count",
    "gating_em.m_step.s": "s",
    "gating_em.m_step.calls": "count",
    "gating_em.m_step.inner_iters": "count",
    "gating_em.q_value.calls": "count",
    "gating_em.q_gradient.calls": "count",
    "gating_em.m_step.accept_ratio": "1",
    "moments.accumulate.s": "s",
    "moments.accumulate.rows_per_s": "1/s",
    "scores.score3_packed.s": "s",
    "moments.finalize.s": "s",
    "moments.rejected_frac": "1",
    "moments.s3_bytes_computed": "B",
    "activations.call.s": "s",
    "activations.call.calls": "count",
    "joint_em.run_joint_em.s": "s",
    "joint_em.outer_iters": "count",
    "joint_em.expert_step.self_s": "s",
    "decomposition.whiten.s": "s",
    "decomposition.contract_all_modes.s": "s",
    "decomposition.power_method.s": "s",
    "cqt.solve_cqt.s": "s",
    "model.sample_dataset.s": "s",
    "gating_mom.mom_gating.s": "s",
    "metrics.evaluate.s": "s",
    "metrics.param_error_min_gauge.s": "s",
    "metrics.param_error_min_gauge.calls": "count",
    "experiments.run_trial.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder with per-label counters."""

    def __init__(self):
        self.spans = []          # [label, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []
        self._m_step = {}        # open m_step span -> [start scored, pending candidate]
        self._rebound = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, clock(), math.nan, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if hook is not None:
                hook(self, "enter", index, args, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, "exit", index, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every moelearn module that holds it."""
        packages = [m for name, m in sys.modules.items()
                    if name == "moelearn" or name.startswith("moelearn.")]
        for owner, attr, label in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            holders = [owner] if isinstance(owner, type) else packages
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._rebound.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._rebound):
            setattr(holder, name, original)
        self._rebound.clear()

    # -- summaries ---------------------------------------------------------

    def label_summary(self) -> dict:
        """label -> {calls, total_s, self_s}; self excludes direct children."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (label, start, end, _) in enumerate(self.spans):
            entry = out[label]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def per_layer(self) -> dict:
        """Every per-layer metric but the overhead, which needs the untraced passes."""
        summary = self.label_summary()

        def total(label):
            return summary.get(label, {}).get("total_s", 0.0)

        def calls(label):
            return summary.get(label, {}).get("calls", 0)

        parents = defaultdict(float)   # run_joint_em index -> removed child time
        inner = 0
        for label, start, end, parent in self.spans:
            if parent < 0:
                continue
            parent_label = self.spans[parent][0]
            if parent_label == "joint_em.run_joint_em" and label in _JOINT_EM_CHILDREN:
                parents[parent] += end - start
            elif parent_label == "gating_em.m_step" and label == "gating_em.q_gradient":
                inner += 1
        expert_self = sum(end - start - parents[i]
                          for i, (label, start, end, _) in enumerate(self.spans)
                          if label == "joint_em.run_joint_em")
        c = self.counters
        rows = c["moments.rows"]
        return {
            "gating_em.run_em.s": total("gating_em.run_em"),
            "gating_em.outer_iters": c["gating_em.outer_iters"],
            "gating_em.e_step.s": total("gating_em.e_step"),
            "gating_em.e_step.calls": calls("gating_em.e_step"),
            "gating_em.m_step.s": total("gating_em.m_step"),
            "gating_em.m_step.calls": calls("gating_em.m_step"),
            "gating_em.m_step.inner_iters": inner,
            "gating_em.q_value.calls": calls("gating_em.q_value"),
            "gating_em.q_gradient.calls": calls("gating_em.q_gradient"),
            "gating_em.m_step.accept_ratio": _ratio(c["m_step.accepted"],
                                                    c["m_step.candidates"]),
            "moments.accumulate.s": total("moments.accumulate"),
            "moments.accumulate.rows_per_s": _ratio(rows, total("moments.accumulate")),
            "scores.score3_packed.s": total("scores.score3_packed"),
            "moments.finalize.s": total("moments.finalize"),
            "moments.rejected_frac": _ratio(c["moments.rejected"], rows),
            "moments.s3_bytes_computed": c["scores.s3_bytes"],
            "activations.call.s": total("activations.call"),
            "activations.call.calls": calls("activations.call"),
            "joint_em.run_joint_em.s": total("joint_em.run_joint_em"),
            "joint_em.outer_iters": c["joint_em.outer_iters"],
            "joint_em.expert_step.self_s": expert_self,
            "decomposition.whiten.s": total("decomposition.whiten"),
            "decomposition.contract_all_modes.s": total("decomposition.contract_all_modes"),
            "decomposition.power_method.s": total("decomposition.power_method"),
            "cqt.solve_cqt.s": total("cqt.solve_cqt"),
            "model.sample_dataset.s": total("model.sample_dataset"),
            "gating_mom.mom_gating.s": total("gating_mom.mom_gating"),
            "metrics.evaluate.s": total("metrics.evaluate"),
            "metrics.param_error_min_gauge.s": total("metrics.param_error_min_gauge"),
            "metrics.param_error_min_gauge.calls": calls("metrics.param_error_min_gauge"),
            "experiments.run_trial.self_s": summary.get(
                "experiments.run_trial", {}).get("self_s", 0.0),
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines ``[label, start, end, parent]`` after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"labels": self.label_summary(),
                                 "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# counters taken at span boundaries
# ---------------------------------------------------------------------------

def _em_iters(key):
    def hook(tracer, phase, index, args, result):
        if phase == "exit":
            tracer.counters[key] += len(result.trace)
    return hook


def _accumulate(tracer, phase, index, args, result):
    """Rows offered and rows rejected by the outlier cap, from the chunks
    this call appended."""
    if phase != "exit":
        return
    acc, batch = args[0], args[1]
    rows = batch.n if isinstance(batch, model.Dataset) else len(batch[1])
    new_chunks = acc.chunks[-math.ceil(rows / moments.CHUNK):] if rows else []
    tracer.counters["moments.rows"] += rows
    tracer.counters["moments.rejected"] += sum(ch.rejected for ch in new_chunks)


def _score3(tracer, phase, index, args, result):
    if phase == "exit":
        n, d = result.shape[0], args[0].shape[-1]
        tracer.counters["scores.s3_bytes"] += n * scores.packed_size(d, 3) * 8


# A line-search candidate is accepted exactly when m_step goes on with that
# array object: it becomes the point of the next q_gradient call, or the
# result. The first q_value of an m_step scores the start, not a candidate.
# m_step passes (x, posteriors, w) positionally to both.
def _m_step(tracer, phase, index, args, result):
    if phase == "enter":
        tracer._m_step[index] = [False, None]
        return
    _, pending = tracer._m_step.pop(index)
    if pending is not None and result is pending:
        tracer.counters["m_step.accepted"] += 1


def _q_value(tracer, phase, index, args, result):
    frame = tracer._m_step.get(tracer.spans[index][3])
    if phase != "enter" or frame is None:
        return
    if frame[0]:
        tracer.counters["m_step.candidates"] += 1
        frame[1] = args[2]
    frame[0] = True


def _q_gradient(tracer, phase, index, args, result):
    frame = tracer._m_step.get(tracer.spans[index][3])
    if phase != "enter" or frame is None:
        return
    if frame[1] is not None and args[2] is frame[1]:
        tracer.counters["m_step.accepted"] += 1
    frame[1] = None


_HOOKS = {
    "gating_em.run_em": _em_iters("gating_em.outer_iters"),
    "joint_em.run_joint_em": _em_iters("joint_em.outer_iters"),
    "moments.accumulate": _accumulate,
    "scores.score3_packed": _score3,
    "gating_em.m_step": _m_step,
    "gating_em.q_value": _q_value,
    "gating_em.q_gradient": _q_gradient,
}
