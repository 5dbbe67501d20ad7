"""In-memory spans around the simulator's layer calls, and their per-layer sums.

The tracer wraps library functions in the module namespaces that call them
(``irsnoma.experiments`` for the pipeline layers, ``irsnoma.sdp`` -- which
``irsnoma.reflection`` reaches as ``reflection.sdp`` -- for the solver), so
the library itself is unchanged. Each call becomes one span: name, start,
end, parent span and trial id. Counters are read from the wrapped call's
return value and stored on its span. Nothing is written until the caller
asks for the spans at the end of a run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int              # -1 for a root span
    trial: str               # "" outside a trial
    start: float
    end: float = 0.0
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, fn, name: str, layer: str, attrs_of=None, trial_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            trial = trial_of(args) if trial_of else (parent.trial if parent else "")
            span = Span(id=len(self.spans), name=name, layer=layer,
                        parent=parent.id if parent else -1, trial=trial,
                        start=time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result
        return traced


def _stage1_attrs(result) -> dict:
    trace = [tp.ee for tp in result.trace]
    return {"iterations": result.iterations, "converged": result.converged,
            "feasible": result.feasible,
            "trace_ok": all(b >= a for a, b in zip(trace, trace[1:]))}


def _reflection_attrs(result) -> dict:
    return {"iterations": result.iterations, "fallback": result.fallback,
            "unit_ok": bool(np.allclose(np.abs(result.reflection), 1.0,
                                        rtol=0.0, atol=1e-9))}


def _solve_attrs(result) -> dict:
    return {"newton_steps": result.newton_steps, "status": result.status}


def _phase_one_attrs(result) -> dict:
    return {"none": result is None}


def _trial_id(args) -> str:
    # run_trial(config, methods, seed, n, m, trial, conventional_mode)
    return f"n{args[3]}-t{args[5]}"


def targets(experiments, sdp) -> list[tuple]:
    """(module, attribute, layer, attrs_of, trial_of) for every traced call."""
    found = [
        (experiments, "run_experiment", "experiments", None, None),
        (experiments, "emit_results", "experiments.emit", None, None),
        (experiments, "run_trial", "experiments", None, _trial_id),
        (experiments, "draw_user_geometry", "channel", None, None),
        (experiments, "synthesize_channels", "channel", None, None),
        (experiments, "effective_channel", "channel", None, None),
        (experiments, "link_gains", "channel", None, None),
        (experiments, "form_clusters", "clustering", None, None),
        (experiments, "random_plan", "clustering", None, None),
        (experiments, "build_zf_beamformers", "beamforming", None, None),
        (experiments, "allocate_power", "power_allocation", _stage1_attrs, None),
        (experiments, "optimize_reflection", "reflection", _reflection_attrs, None),
        (sdp, "solve", "sdp.solve", _solve_attrs, None),
        # phase-one is private; a version without it is traced without it
        (sdp, "_phase_one", "sdp.phase_one", _phase_one_attrs, None),
    ]
    return [t for t in found if hasattr(t[0], t[1])]


@contextmanager
def installed(tracer: Tracer, experiments, sdp):
    """Swap the traced wrappers in for the duration of the block."""
    originals = []
    try:
        for module, attr, layer, attrs_of, trial_of in targets(experiments, sdp):
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, f"{layer.split('.')[0]}.{attr}",
                                              layer, attrs_of, trial_of))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def _self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def _busy(spans: list[Span], layer: str) -> float:
    """Seconds in ``layer``, counting only spans not nested in the same layer."""
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        node = span.parent
        while node >= 0 and spans[node].layer != layer:
            node = spans[node].parent
        if node < 0:
            total += span.duration
    return total


def _parent_layer(spans: list[Span], span: Span) -> str:
    return spans[span.parent].layer if span.parent >= 0 else ""


def self_table(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per layer; SDP solves split by calling layer."""
    table: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, _self_seconds(spans)):
        key = span.layer
        if key == "sdp.solve":
            key = f"sdp.solve<{_parent_layer(spans, span)}"
        calls, secs = table.get(key, (0, 0.0))
        table[key] = (calls + 1, secs + own)
    return table


def layer_metrics(spans: list[Span], max_stage1_iterations: int) -> dict:
    """Per-layer counts, times and ratios as {name: (value, unit)}.

    A ratio is 0 when its base count is 0; each base is reported beside it.
    """
    own = _self_seconds(spans)

    def of(layer):
        return [s for s in spans if s.layer == layer]

    def share(num, den):
        return num / den if den else 0.0

    def self_sum(chosen):
        return sum((own[s.id] for s in chosen), 0.0)

    phase = of("sdp.phase_one")
    # a phase-one point is wasted when the reflection call that asked for
    # it judged it hopeless and returned the start before any iteration
    wasted = [s for s in phase if _parent_layer(spans, s) == "reflection"
              and spans[s.parent].attrs.get("iterations") == 0]
    solves = of("sdp.solve")
    surrogate = [s for s in solves if _parent_layer(spans, s) == "reflection"]
    feasibility = [s for s in solves if _parent_layer(spans, s) == "sdp.phase_one"]
    steps = sum(s.attrs.get("newton_steps", 0) for s in solves)
    refl = of("reflection")
    stage1 = of("power_allocation")
    out = {
        "sdp.phase_one.calls": (len(phase), "count"),
        "sdp.phase_one.busy_s": (_busy(spans, "sdp.phase_one"), "s"),
        "sdp.phase_one.none": (sum(s.attrs.get("none", False) for s in phase), "count"),
        "sdp.phase_one.wasted_share": (share(len(wasted), len(phase)), "ratio"),
        "sdp.solve.calls": (len(solves), "count"),
        "sdp.solve.self_s": (self_sum(solves), "s"),
        "sdp.solve.surrogate_calls": (len(surrogate), "count"),
        "sdp.solve.surrogate_self_s": (self_sum(surrogate), "s"),
        "sdp.solve.phase_one_self_s": (self_sum(feasibility), "s"),
        "sdp.newton_steps": (steps, "count"),
        "sdp.s_per_newton_step": (share(self_sum(solves), steps), "s/step"),
        "sdp.not_optimal": (sum(s.attrs.get("status") != "optimal" for s in solves),
                            "count"),
        "reflection.calls": (len(refl), "count"),
        "reflection.self_s": (self_sum(refl), "s"),
        "reflection.iterations": (sum(s.attrs.get("iterations", 0) for s in refl),
                                  "count"),
        "reflection.accepted_share": (
            share(sum(not s.attrs.get("fallback", True) for s in refl), len(refl)),
            "ratio"),
        "power_allocation.calls": (len(stage1), "count"),
        "power_allocation.busy_s": (_busy(spans, "power_allocation"), "s"),
        "power_allocation.iterations": (
            sum(s.attrs.get("iterations", 0) for s in stage1), "count"),
        "power_allocation.converged_share": (
            share(sum(s.attrs.get("converged", False) for s in stage1), len(stage1)),
            "ratio"),
        "power_allocation.max_iter_share": (
            share(sum(s.attrs.get("iterations", 0) >= max_stage1_iterations
                      for s in stage1), len(stage1)), "ratio"),
        "power_allocation.feasible_share": (
            share(sum(s.attrs.get("feasible", False) for s in stage1), len(stage1)),
            "ratio"),
    }
    for layer in ("channel", "clustering", "beamforming"):
        out[f"{layer}.calls"] = (len(of(layer)), "count")
        out[f"{layer}.busy_s"] = (_busy(spans, layer), "s")
    out["beamforming.failed"] = (sum(bool(s.error) for s in of("beamforming")), "count")
    out["experiments.self_s"] = (self_sum(of("experiments")), "s")
    out["experiments.emit_s"] = (_busy(spans, "experiments.emit"), "s")
    return out


def failed_trials(spans: list[Span]) -> set[str]:
    """Trial ids whose traced calls raised or failed a return-value check."""
    return {span.trial for span in spans
            if span.trial and (span.error or not span.attrs.get("trace_ok", True)
                               or not span.attrs.get("unit_ok", True))}


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,name,parent,trial,start_s,end_s,error,attrs\n")
        t0 = spans[0].start if spans else 0.0
        for s in spans:
            attrs = ";".join(f"{k}={v}" for k, v in s.attrs.items())
            fh.write(f"{s.id},{s.name},{s.parent},{s.trial},{s.start - t0:.9f},"
                     f"{s.end - t0:.9f},{s.error},{attrs}\n")
