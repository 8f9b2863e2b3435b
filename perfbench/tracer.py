"""In-memory span tracer and the layer wrappers of the parabolic2d benchmark.

Every layer is measured from outside the package: for the length of one
traced repetition, each public function on a layer boundary is replaced by a
wrapper that opens a span, calls the original and closes the span.  Nothing
in ``src/`` is changed.

The wrapping rule: ``from .krylov import matvec`` gives the importing module
its own binding of ``matvec``.  Calls made through that binding never see a
patch of ``krylov.matvec``, so a name imported by name is patched in the
module that imports it (``stepper.matvec``, ``krylov.apply_full``,
``cli.integrate``), and a name reached through a module attribute
(``richardson.extrapolate_spacetime``) is patched on its defining module.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans kept in memory: name, start, end and parent span, per call.

    Alongside the raw spans it accumulates, per span name, the call count,
    the inclusive time and the self time (duration minus the part covered by
    child spans), plus free-form counters and the solver reports of every
    integrate call it saw.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack: list[list] = []   # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.solves: list[tuple] = []  # (solve key, reports) per integrate call

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped in a span; note(args, result) runs after it."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if note is not None:
                note(args, result)
            return result

        return traced

    def write(self, path: str, rep: int) -> None:
        """Write the spans (times relative to the first span) to an .npz file."""
        start = np.frombuffer(self.span_start, dtype=float)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), rep=rep,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=float) - origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int64))


@contextmanager
def patched(bindings):
    """Set (module, attribute, value) bindings; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def stencil_cost(tracer: Tracer):
    """Note for cds.apply_full: flops and compulsory bytes from array shapes.

    Per interior node the 9 planes cost one multiply and one add each.  The
    byte count is the compulsory traffic (9 coefficient planes and the padded
    operand read once, the result written once); numpy's temporaries are not
    counted, so this is a computed lower bound, not a measured one.
    """
    def note(args, result):
        coeffs, w_full = args
        n = result.size
        tracer.counters["apply_full_flops"] += 18 * n
        tracer.counters["apply_full_bytes"] += \
            coeffs.itemsize * (coeffs.size + w_full.size + n)
    return note


def record_solve(tracer: Tracer):
    """Note for integrate: remember the solve's mesh key and its reports."""
    def note(args, result):
        problem, grid, time_grid, scheme = args[:4]
        key = (grid.Mx, grid.My, time_grid.N, scheme.kind)
        tracer.solves.append((key, result[1]))
    return note


def record_dump_size(tracer: Tracer):
    """Note for cli.emit_field_dump: add the size of the written file."""
    def note(args, result):
        tracer.counters["field_dump_bytes"] += os.path.getsize(args[3])
    return note


def wrap_problem(tracer: Tracer, problem):
    """ProblemSpec whose reaction, Jacobian and forcing callables are traced."""
    changes = {
        "reaction": tracer.wrap("model.reaction", problem.reaction),
        "reaction_jacobian": tracer.wrap("model.jacobian",
                                         problem.reaction_jacobian),
    }
    if problem.forcing is not None:
        changes["forcing"] = tracer.wrap("model.forcing", problem.forcing)
    return dataclasses.replace(problem, **changes)


def layer_bindings(tracer: Tracer, pkg):
    """The (module, attribute, wrapper) patches for one traced repetition."""
    stepper, krylov, cds, cli, richardson = (
        pkg.stepper, pkg.krylov, pkg.cds, pkg.cli, pkg.richardson)
    build_scheme = tracer.wrap("stepper.build_scheme", stepper.build_scheme)
    build_problem = cli.build_problem
    return [
        (stepper, "advance", tracer.wrap("stepper.advance", stepper.advance)),
        (stepper, "residual",
         tracer.wrap("stepper.residual", stepper.residual)),
        (stepper, "build_scheme", build_scheme),
        (stepper, "bicgstab_l",
         tracer.wrap("krylov.bicgstab_l", krylov.bicgstab_l)),
        (stepper, "matvec", tracer.wrap("krylov.matvec", krylov.matvec)),
        (stepper, "apply_full",
         tracer.wrap("cds.apply_full.fold", cds.apply_full,
                     stencil_cost(tracer))),
        (krylov, "apply_full",
         tracer.wrap("cds.apply_full.matvec", cds.apply_full,
                     stencil_cost(tracer))),
        (richardson, "extrapolate_space",
         tracer.wrap("richardson.extrapolate", richardson.extrapolate_space)),
        (richardson, "extrapolate_spacetime",
         tracer.wrap("richardson.extrapolate",
                     richardson.extrapolate_spacetime)),
        (cli, "build_scheme", build_scheme),
        (cli, "build_problem",
         lambda cfg: wrap_problem(tracer, build_problem(cfg))),
        (cli, "integrate", tracer.wrap("cli.integrate", stepper.integrate,
                                       record_solve(tracer))),
        (cli, "emit_field_dump",
         tracer.wrap("cli.field_dump", cli.emit_field_dump,
                     record_dump_size(tracer))),
    ]
