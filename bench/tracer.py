"""Outside-in tracer: spans around the public entry points of ``kscontrol``.

Nothing inside the package changes.  `install` replaces each traced function
with a wrapper, in every ``kscontrol`` module that holds a reference to it
(``forward`` and ``adjoint`` import ``solve_cg`` by name, ``optimize`` and
``verify`` import ``solve_forward`` and ``solve_adjoint`` the same way, so
rebinding only the defining module would miss most calls).

A span records its layer name, start, end and parent.  A layer's self time
is the duration of its spans minus the part covered by child spans.  Spans
of the high-volume kernel layers (Laplacian, flux stencils, ``Field2D``
builds, CG operator applies) are only aggregated; every other span is kept
in memory with the operation it belongs to and written out by `dump`.

While the tracer is inactive each wrapper only tests a flag and calls through.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Layers whose spans are aggregated, never stored one by one: they occur
# up to a few hundred thousand times per operation.
LEAF_LAYERS = frozenset({"mesh.laplacian", "mesh.flux", "mesh.field2d", "linalg.cg.apply"})


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self._stack: list[list] = []  # [layer, start, child_s, index, parent]
        self._root: list | None = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (op, index, parent, layer, start, end)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = parent
        if layer not in LEAF_LAYERS:
            index = len(self.spans)
            self.spans.append(None)
        frame = [layer, perf_counter(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        layer, start, child_s, index, parent = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[layer] += duration - child_s
        self.total_s[layer] += duration
        self.counts[layer + ".calls"] += 1
        if layer not in LEAF_LAYERS:
            self.spans[index] = (self.op_id, index, parent, layer, start, end)

    def enclosing(self, prefixes: tuple[str, ...]) -> str | None:
        """Nearest open span whose layer starts with one of ``prefixes``."""
        for frame in reversed(self._stack):
            if frame[0].startswith(prefixes):
                return frame[0]
        return None

    def wrap(self, layer: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- operation boundaries ---------------------------------------------

    def start_op(self) -> None:
        self.op_id += 1
        self.active = True
        self._root = self._enter("bench.op")

    def end_op(self) -> None:
        self._exit(self._root)
        self.active = False

    def snapshot(self) -> dict:
        """Copy of the running totals, for per-operation differences."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def dump(self, path, header: dict) -> None:
        """Write the header and every stored span as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for op, index, parent, layer, start, end in self.spans:
                out.write(json.dumps({"op": op, "span": index, "parent": parent,
                                      "layer": layer, "start": start, "end": end}) + "\n")


def _rebind(original, replacement) -> int:
    """Point every ``kscontrol`` module attribute bound to ``original`` at
    ``replacement``; returns how many names were rebound."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or name.partition(".")[0] != "kscontrol":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``kscontrol`` layer, once."""
    from kscontrol import adjoint, control, forward, io_cli, linalg, mesh, optimize, verify

    if getattr(linalg.solve_cg, "__wrapped_by_tracer__", False):
        raise RuntimeError("kscontrol is already traced")
    counts = tracer.counts

    def rebind(fn, layer, after=None):
        if _rebind(fn, tracer.wrap(layer, fn, after)) == 0:
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    # mesh: the five-point Laplacian, the three flux stencils, Field2D builds
    rebind(mesh.laplacian_array, "mesh.laplacian")
    for stencil in (mesh.chemotaxis_divergence_arrays, mesh.chemotaxis_adjoint_arrays,
                    mesh.weighted_diffusion_arrays):
        rebind(stencil, "mesh.flux")
    mesh.Field2D.__post_init__ = tracer.wrap("mesh.field2d", mesh.Field2D.__post_init__)

    # linalg: CG returns no iteration count, so count operator applies; a
    # warm start x0 spends one apply on the initial residual.
    cg = linalg.solve_cg
    cg_signature = inspect.signature(cg)

    def solve_cg(*args, **kwargs):
        if not tracer.active:
            return cg(*args, **kwargs)
        bound = cg_signature.bind(*args, **kwargs)
        apply_op = bound.arguments["apply_op"]
        applies = [0]

        def counted(x):
            applies[0] += 1
            return apply_op(x)

        bound.arguments["apply_op"] = tracer.wrap("linalg.cg.apply", counted)
        owner = tracer.enclosing(("forward", "adjoint")) or "other"
        frame = tracer._enter("linalg.cg")
        try:
            return cg(*bound.args, **bound.kwargs)
        finally:
            tracer._exit(frame)
            warm = bound.arguments.get("x0") is not None and applies[0] > 0
            counts["linalg.cg.iters"] += applies[0] - int(warm)
            counts[owner + ".cg_solves"] += 1

    solve_cg.__wrapped_by_tracer__ = True
    if _rebind(cg, solve_cg) == 0:
        raise RuntimeError("no module binds solve_cg")

    # forward / adjoint: marches and their steps; Picard sweeps come from
    # the returned trajectory, dual sweeps from the CG solves they make
    def after_forward(args, kwargs, state):
        if tracer.enclosing(("optimize.solve",)):
            counts["optimize.marches"] += 1
        counts["forward.steps"] += state.time_grid.nt
        counts["forward.sweeps"] += int(state.picard_iters.sum())

    def after_adjoint(args, kwargs, adj):
        counts["adjoint.steps"] += adj.time_grid.nt

    rebind(forward.solve_forward, "forward", after_forward)
    rebind(adjoint.solve_adjoint, "adjoint", after_adjoint)

    # control / optimize / verify
    rebind(control.reduced_gradient, "control.gradient")

    def after_solve(args, kwargs, report):
        counts["optimize.iterations"] += report.iterates[-1].iteration

    rebind(optimize.solve, "optimize.solve", after_solve)
    rebind(optimize.cost_of_control, "optimize.cost")
    rebind(optimize.evaluate_cost, "optimize.cost")
    rebind(verify.monitor_invariants, "verify.monitor")

    # io_cli: command dispatch, config parsing and set-up, snapshot writes
    def after_write(args, kwargs, _result):
        path = kwargs.get("path", args[0] if args else None)
        counts["io_cli.bytes_written"] += os.path.getsize(path)

    rebind(io_cli.run, "io_cli.run")
    rebind(io_cli.load_config, "io_cli.setup")
    rebind(io_cli.build_setup, "io_cli.setup")
    rebind(io_cli.write_snapshot, "io_cli.write", after_write)
