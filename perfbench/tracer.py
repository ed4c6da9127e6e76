"""Spans around the calls into each infothermo module, recorded from outside.

`install` wraps every public module-level function of the traced modules and
rebinds each wrapper in every loaded ``infothermo`` namespace that holds the
original (``cli.simulate_erasure``, ``protocols.qc_mutual_information``, the
package ``__init__``), so no call escapes through an imported alias.  Spans are
kept in memory as ``[name, module, start, end, parent, outermost]`` and
aggregated once the timed call has returned.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# twobox is left out on purpose: its closed forms take microseconds and no
# workload calls them.
TRACED_MODULES = ("operators", "measurement", "memory", "protocols",
                  "langevin", "serialization", "cli")

class Tracer:
    """In-memory span recorder plus the exact work counters of each layer."""

    def __init__(self):
        self.spans = []     # [name, module, start, end, parent, outermost]
        self.stack = []
        self.depth = {}     # open spans per function name
        self.counts = {"langevin.particle_steps": 0, "protocols.steps": 0,
                       "serialization.bytes": 0}
        # protocol steps executed under each long-ramp entry point
        self.steps_under = {"protocols.szilard_reconciliation": 0,
                            "protocols.erasure_convergence": 0}

    def wrap(self, module: str, name: str, fn):
        full = f"{module}.{name}"
        spans, stack, depth, perf = self.spans, self.stack, self.depth, time.perf_counter
        depth[full] = 0
        count = _COUNTERS.get(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [full, module, 0.0, 0.0, parent, depth[full] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[full] += 1
            span[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf()
                depth[full] -= 1
                stack.pop()
            if count is not None:
                count(self, args, kwargs)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per-function inclusive time and calls, per-module self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, list] = {}
        modules: dict[str, float] = {}
        for i, (name, module, start, end, _, outermost) in enumerate(spans):
            self_time = (end - start) - child_time[i]
            entry = functions.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            # inclusive time counts a span only when no enclosing span has its name
            if outermost:
                entry[1] += end - start
            entry[2] += self_time
            modules[module] = modules.get(module, 0.0) + self_time
        return {
            "functions": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                          for k, v in functions.items()},
            "modules": modules,
            "counts": dict(self.counts),
            "steps_under": dict(self.steps_under),
            "span_count": len(spans),
        }


def _count_particle_steps(tracer, args, kwargs):
    schedule, params = args[1], args[2]
    tracer.counts["langevin.particle_steps"] += (
        params.n_traj * int(round(schedule.duration / params.dt)))


def _count_protocol_steps(tracer, args, kwargs):
    steps = len(args[3]) if len(args) > 3 else len(kwargs["steps"])
    tracer.counts["protocols.steps"] += steps
    for name in tracer.steps_under:
        if tracer.depth.get(name):
            tracer.steps_under[name] += steps


def _count_bytes(tracer, args, kwargs):
    tracer.counts["serialization.bytes"] += os.path.getsize(args[0])


_COUNTERS = {
    "langevin.simulate_erasure": _count_particle_steps,
    "protocols.run_schedule": _count_protocol_steps,
    "serialization.write_csv": _count_bytes,
    "serialization.write_json": _count_bytes,
}


def install(package: str = "infothermo") -> Tracer:
    """Wrap the public functions of the traced modules; return the recorder."""
    tracer = Tracer()
    replacements = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{package}.{short}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                replacements[id(obj)] = (obj, tracer.wrap(short, name, obj))
    namespaces = [m for key, m in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
    for module in namespaces:
        for name, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return tracer
