"""Span recording for the traced benchmark run.

Spans are recorded from outside the program: `install` rebinds the
public functions of each krasovskii module, in every module namespace
that calls them, to wrappers that time each call.  The program's source
is not changed, and `uninstall` puts every original name back.

Calls at a layer boundary that happen up to millions of times a round
(field evaluations, input reads, sample draws) are only aggregated per
layer: call count, inclusive time and self time.  Coarse calls (sweeps,
integrations, fits, writes) and the benchmark's own rounds are also
kept one by one as spans with their start, end, parent and self time,
and written out after the run.  A layer's self time is its duration
minus the time covered by its traced children.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

# (module, attribute, layer) triples: every namespace that holds a name
# the workloads reach, so calls are traced whichever module makes them
FUNCTIONS = (
    ("certify", "random_history", "histories.random_history"),
    ("estimate", "random_history", "histories.random_history"),
    ("functionals", "driver_extension", "histories.driver_extension"),
    ("functionals", "eval_functional", "functionals.eval_functional"),
    ("certify", "eval_functional", "functionals.eval_functional"),
    ("functionals", "driver_derivative_closed", "functionals.derivative_closed"),
    ("certify", "driver_derivative_closed", "functionals.derivative_closed"),
    ("functionals", "driver_derivative_numeric", "functionals.derivative_numeric"),
    ("certify", "driver_derivative_numeric", "functionals.derivative_numeric"),
    ("certify", "check_sandwich", "certify.check_sandwich"),
    ("certify", "check_pointwise_dissipation", "certify.check_pointwise_dissipation"),
    ("certify", "check_right_growth", "certify.check_right_growth"),
    ("certify", "check_left_growth", "certify.check_left_growth"),
    ("solver", "integrate", "solver.integrate"),
    ("estimate", "integrate", "solver.integrate"),
    ("solver", "history_norm_series", "solver.history_norm_series"),
    ("estimate", "history_norm_series", "solver.history_norm_series"),
    ("solver", "export_csv", "solver.export_csv"),
    ("estimate", "run_ensemble", "estimate.run_ensemble"),
    ("estimate", "fit_envelope", "estimate.fit_envelope"),
    ("estimate", "write_envelope_data", "estimate.write_envelope_data"),
    ("estimate", "empirical_two_inequality", "estimate.empirical_two_inequality"),
)

# layers whose spans are kept one by one; the rest are only aggregated
KEPT = {layer for _, _, layer in FUNCTIONS} - {
    "histories.random_history", "histories.driver_extension",
    "functionals.eval_functional", "functionals.derivative_closed",
    "functionals.derivative_numeric",
} | {"bench.round"}


class Tracer:
    """In-memory span recorder.

    `layers` maps a layer to [calls, inclusive seconds, self seconds];
    `spans` holds the kept spans; `counters` holds counts taken at layer
    boundaries (RK4 steps and blow-ups of each integration).
    """

    def __init__(self):
        self.stack = []
        self.spans = []
        self.layers = {}
        self.counters = {"solver.steps": 0, "solver.blowups": 0}

    def clear(self):
        self.spans.clear()
        self.layers.clear()
        for key in self.counters:
            self.counters[key] = 0

    def wrap(self, layer, fn, after=None):
        """fn wrapped in a span named `layer`.

        A call made while a span of the same layer is innermost (the
        recursion of eval_functional over a functional tree) runs
        untraced, so each outer call counts once.  `after(result)` runs
        on each result, outside the timed interval.
        """
        stack = self.stack
        keep = layer in KEPT

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, len(self.spans) if keep else None]
            if keep:
                self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(result)
            return result

        return traced

    def _close(self, frame, start, end):
        layer, child_s, span_id = frame
        duration = end - start
        stack = self.stack
        if stack:
            stack[-1][1] += duration
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        if span_id is not None:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None),
                          None)
            self.spans[span_id] = {"id": span_id, "parent": parent,
                                   "layer": layer, "start": start, "end": end,
                                   "self_s": duration - child_s}

    def span(self, layer, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(layer, fn)(*args)

    def count_trajectory(self, traj):
        self.counters["solver.steps"] += int(round(traj.t_end / traj.dt))
        self.counters["solver.blowups"] += traj.status != "completed"

    def traced_input(self, u):
        return dataclasses.replace(
            u, evaluate=self.wrap("systems.input_evaluate", u.evaluate))

    def traced_system(self, system):
        pointwise = system.pointwise
        return dataclasses.replace(
            system, field=self.wrap("systems.field", system.field),
            pointwise=None if pointwise is None
            else self.wrap("systems.pointwise", pointwise))

    def report(self):
        """Per-layer totals and the kept spans, with times relative to
        the first span."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                 for s in self.spans]
        layers = {name: {"calls": c, "inclusive_s": inc, "self_s": own}
                  for name, (c, inc, own) in sorted(self.layers.items())}
        return {"layers": layers, "counters": dict(self.counters),
                "spans": spans}


class _TracedSampler:
    """Sampler whose `sample` draws are recorded as certify.sample spans."""

    def __init__(self, sampler, tracer):
        self.sample = tracer.wrap("certify.sample", sampler.sample)


def install(tracer, program, workload):
    """Rebind the program's public names and the workload's inputs to
    traced versions; returns a function that restores them all."""
    restore = []

    def rebind(owner, attribute, value):
        restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    for module_name, attribute, layer in FUNCTIONS:
        module = getattr(program, module_name)
        original = getattr(module, attribute)
        after = tracer.count_trajectory if attribute == "integrate" else None
        rebind(module, attribute, tracer.wrap(layer, original, after))
    history_cls = program.histories.HistoryFunction
    rebind(history_cls, "sup_norm",
           tracer.wrap("histories.sup_norm", history_cls.sup_norm))
    # inputs the solver and estimate modules create for themselves
    for module in (program.solver, program.estimate):
        original = module.zero_input
        rebind(module, "zero_input",
               lambda m=1, original=original: tracer.traced_input(original(m)))
    for attribute, value in list(vars(workload).items()):
        if isinstance(value, program.systems.DelaySystem):
            rebind(workload, attribute, tracer.traced_system(value))
        elif isinstance(value, program.systems.InputSignal):
            rebind(workload, attribute, tracer.traced_input(value))
        elif isinstance(value, program.certify.FalsificationSampler):
            rebind(workload, attribute, _TracedSampler(value, tracer))

    def uninstall():
        for owner, attribute, value in reversed(restore):
            setattr(owner, attribute, value)

    tracer.clear()  # drop the calls made while wrapping (field at f(0, 0))
    return uninstall
