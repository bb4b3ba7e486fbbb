"""In-memory span tracer that wraps fastslow's public functions from outside.

A span is (name, start, end, parent): one call of a wrapped function, its
clock readings on entry and exit, and the index of the span that was open
when it started (-1 for none). Spans live in flat arrays so that half a
million of them cost a few megabytes. Coefficient callables returned by the
system builders are too hot to span; they are only counted.

Wrapping replaces every binding of a target function in every loaded
``fastslow`` module, so a name that ``cli`` imported (``fastslow.cli
.integrate_full``) is patched together with its definition
(``fastslow.integrators.integrate_full``). Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from array import array
from collections import defaultdict

# Builders that turn parameters into systems; their spans make
# systems.build.s.
BUILDERS = ("pendulum_systems", "spinning_disk_rhs", "disk_reduced_system",
            "disk_momentum", "sphere_surface")

# Builders whose returned callables are the dynamical coefficients.
COEFFICIENT_SOURCES = ("pendulum_systems", "spinning_disk_rhs",
                       "disk_reduced_system")

# (defining module, attribute, span name). An attribute "Class.method"
# patches the method on the class.
TARGETS = (
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "emit_csv", "cli.emit_csv"),
    ("cli", "emit_json", "cli.emit_json"),
    ("integrators", "integrate_full", "integrators.integrate_full"),
    ("integrators", "integrate_reduced_canonical",
     "integrators.integrate_reduced_canonical"),
    ("integrators", "integrate_reduced_magnetic",
     "integrators.integrate_reduced_magnetic"),
    ("integrators", "integrate_autonomous",
     "integrators.integrate_autonomous"),
    ("integrators", "closeness_report", "integrators.closeness_report"),
    ("integrators", "_midpoint_step", "integrators.midpoint_step"),
    ("_derivatives", "jacobian", "_derivatives.jacobian"),
    ("_derivatives", "gradient", "_derivatives.gradient"),
    *(("systems", name, f"systems.{name}") for name in BUILDERS),
    ("systems", "disk_mass_matrix", "systems.disk_mass_matrix"),
    ("systems", "curvature_identity_residual",
     "systems.curvature_identity_residual"),
    ("averaging", "average_coefficients", "averaging.average_coefficients"),
    ("averaging", "averaged_hamiltonian", "averaging.hamiltonian"),
    ("averaging", "FastSlowSystem.hamiltonian", "averaging.hamiltonian"),
    ("lie_poisson", "integrate_euler", "lie_poisson.integrate_euler"),
    ("lie_poisson", "extended_hamiltonian_field",
     "lie_poisson.extended_hamiltonian_field"),
    ("bundle_geometry", "convert_chart", "bundle_geometry.convert_chart"),
)


class Tracer:
    """Records spans and counts; ``summary`` turns them into per-name times."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None, wrap_args=None):
        """Return ``fn`` recording one span per call.

        on_return(result) may replace each result; wrap_args(span, args)
        may replace the positional arguments before the call.
        """
        nid = self._name_id(name)
        clock, stack = self.clock, self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if wrap_args is not None:
                args = wrap_args(idx, args)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                result = on_return(result)
            return result

        return traced

    def count(self, name: str, fn):
        """Return ``fn`` counting its calls under ``name`` (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        ``s`` sums the spans that have no ancestor of the same name, so a
        recursive call is not counted twice. ``self_s`` sums each span's
        duration minus the durations of its direct children.
        """
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        above = [0] * n  # bitmask of the names of a span's ancestors
        for i in range(n):  # a parent always precedes its children
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | (1 << names[p])
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[names[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not above[i] >> names[i] & 1:
                rec["s"] += dur[i]
        return out


def _count_coefficients(tracer: Tracer, obj):
    """Wrap the callables a system builder returned with call counters."""
    if isinstance(obj, tuple):
        return tuple(_count_coefficients(tracer, item) for item in obj)
    if isinstance(obj, dict):
        return {k: _count_coefficients(tracer, v) for k, v in obj.items()}
    if isinstance(obj, types.FunctionType):
        return tracer.count("systems.coefficient", obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(obj, **{
            f.name: tracer.count("systems.coefficient", getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), types.FunctionType)})
    return obj


def install(tracer: Tracer) -> None:
    """Wrap every target in the loaded ``fastslow`` package.

    Also counts: ``integrators.steps`` (steps of every integrate_autonomous
    run), ``integrators.rhs_calls`` (evaluations of the vector fields given
    to integrate_autonomous), ``integrators.midpoint_residuals`` (right-hand-side evaluations made by
    a midpoint step itself, not by the Jacobian it asks for) and
    ``systems.coefficient`` (calls of builder-returned callables).
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "fastslow"
                                     or name.startswith("fastslow."))]
    counts = tracer.counts

    def add_steps(traj):
        counts["integrators.steps"] += len(traj) - 1
        return traj

    def count_rhs(span, args):
        # The first argument of integrate_autonomous is the vector field.
        if not args:
            return args
        return (tracer.count("integrators.rhs_calls", args[0]), *args[1:])

    def count_residuals(span, args):
        # The first argument of a midpoint step is the vector field;
        # evaluations made while this span is innermost are Newton
        # residuals, the rest come from the Jacobian.
        if not args:
            return args
        f, stack = args[0], tracer.stack

        def residual_counted(z):
            if stack[-1] == span:
                counts["integrators.midpoint_residuals"] += 1
            return f(z)
        return (residual_counted, *args[1:])

    extra = {
        "integrators.integrate_autonomous": {
            "on_return": add_steps, "wrap_args": count_rhs},
        "integrators.midpoint_step": {"wrap_args": count_residuals},
        **{f"systems.{name}": {"on_return": functools.partial(
            _count_coefficients, tracer)} for name in COEFFICIENT_SOURCES},
    }
    for modname, attr, span in TARGETS:
        module = sys.modules.get(f"fastslow.{modname}")
        if module is None:
            continue
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, member, None)
        if original is None:
            continue  # absent in this version of the program
        wrapped = tracer.wrap(span, original, **extra.get(span, {}))
        if owner_name:
            setattr(owner, member, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
