"""Outside-in tracing of subeigen, for the per-layer metrics.

Nothing under src/ is touched.  ``Tracer.installed`` replaces each public
function at the place the calling module binds it (``eigensolver.solve_inner``,
not ``inner_solver.solve_inner``), so a span opens exactly where a call
crosses from one module into another.  ``Tracer.count_products`` swaps a
grid's cached gradient and stiffness matrices for proxies that count every
product.  Spans (name, start, end, parent, solve id, own product counts)
stay in memory until ``dump``.  The product itself is the unchanged scipy
call, so traced and untraced runs return bit-identical values.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

from workloads import assemble


class Span:
    __slots__ = ("id", "name", "parent", "solve", "start", "end", "counts", "attrs")

    def __init__(self, span_id, name, parent, solve):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.solve = solve
        self.start = self.end = 0.0
        self.counts = Counter()
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "result"}
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "solve": self.solve, "start": self.start, "end": self.end,
                "counts": dict(self.counts), "attrs": attrs}


class CountedMatrix:
    """Delegates to a sparse matrix and counts products with it and its transpose."""

    def __init__(self, matrix, tracer: "Tracer", key: str, transpose_key: str):
        self._matrix = matrix
        self._tracer = tracer
        self._key = key
        self._transpose_key = transpose_key

    def __matmul__(self, other):
        self._tracer.count(self._key)
        return self._matrix @ other

    @property
    def T(self):
        return CountedMatrix(self._matrix.T, self._tracer, self._transpose_key, self._key)

    def __getattr__(self, name):
        return getattr(self._matrix, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solve = 0       # solve id given to spans opened from now on
        self.root = None     # parent of spans opened by a thread with no open span
        self.loose = Counter()  # products made outside any span
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name, parent, self.solve)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str) -> None:
        stack = self._stack()
        if stack:
            stack[-1].counts[key] += 1  # a span is only ever touched by its own thread
        else:
            with self._lock:
                self.loose[key] += 1

    def count_products(self, grid) -> None:
        """Swap the grid's cached G and G^T G for counting proxies."""
        assemble(grid)
        cached = grid.__dict__
        cached["gradient_matrix"] = CountedMatrix(cached["gradient_matrix"], self, "G", "GT")
        cached["stiffness_p2"] = CountedMatrix(cached["stiffness_p2"], self, "K", "K")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, call=None, after=None) -> None:
        """Replace ``module.attr`` by a spanned call of ``call`` (default: the
        original).  ``after(span, args, kwargs, result)`` runs on return."""
        original = getattr(module, attr, None)
        if original is None:
            return
        target = call or original
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @contextmanager
    def installed(self):
        from subeigen import cli, diagnostics, eigensolver, inner_solver, operators

        def keep_stats(span, args, kwargs, result):
            stats = kwargs.get("stats")
            span.attrs["iters"] = int(stats.get("iters", 0)) if stats is not None else 0

        def keep_result(span, args, kwargs, result):
            span.attrs["result"] = result

        def count_grid(span, args, kwargs, grid):
            self.count_products(grid)

        def build_and_assemble(*args, **kwargs):
            return assemble(cli_build_grid(*args, **kwargs))

        cli_build_grid = cli.build_grid
        try:
            self.wrap(eigensolver, "solve_inner", "inner_solver.solve_inner", after=keep_stats)
            self.wrap(inner_solver, "solve_linear_cg", "inner_solver.cg")
            self.wrap(eigensolver, "residual", "operators.residual")
            for module in (eigensolver, operators):
                self.wrap(module, "apply_A", "operators.apply_A")
            for module in (eigensolver, operators, diagnostics):
                self.wrap(module, "p_energy", "mesh.p_energy")
                self.wrap(module, "lq_norm", "mesh.lq_norm")
            self.wrap(eigensolver, "rayleigh_quotient", "eigensolver.rayleigh_quotient")
            for module in (cli, diagnostics):
                self.wrap(module, "inverse_iteration", "eigensolver.inverse_iteration",
                          after=keep_result)
                self.wrap(module, "rayleigh_minimize", "eigensolver.rayleigh_minimize",
                          after=keep_result)
            self.wrap(cli, "regularity_report", "diagnostics.report")
            self.wrap(cli, "build_grid", "mesh.assembly", call=build_and_assemble,
                      after=count_grid)
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": [s.to_dict() for s in self.spans]}, fh)
            fh.write("\n")


# -- per-layer metrics from the recorded spans --------------------------------

SOLVES = ("eigensolver.inverse_iteration", "eigensolver.rayleigh_minimize")


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(tracer: Tracer, lambda_rel_err: float, rayleigh_rel_gap: float,
                  artifact_bytes: int) -> dict:
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(prefix):
        return sum(s.duration - _covered(s, children.get(s.id, []))
                   for s in spans if s.name.startswith(prefix))

    def ancestors(s):
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    totals = Counter(tracer.loose)
    for s in spans:
        totals.update(s.counts)
    inner = by_name.get("inner_solver.solve_inner", [])
    gradients = sum(s.counts["GT"] for s in inner)
    energy_only = sum(s.counts["G"] for s in inner) - gradients
    solves = [s for s in spans if s.name in SOLVES]
    sweeps = [s for s in by_name.get("cli.main", []) if s.attrs.get("sweep")]
    sweep_work = sum(c.duration for m in sweeps for c in children.get(m.id, [])
                     if c.name in SOLVES)
    sweep_wall = sum(m.duration for m in sweeps)
    return {
        "mesh.assembly_s": busy("mesh.assembly"),
        "mesh.G_matvecs": totals["G"],
        "mesh.GT_matvecs": totals["GT"],
        "mesh.p_energy_s": busy("mesh.p_energy"),
        "mesh.lq_norm_s": busy("mesh.lq_norm"),
        "operators.residual_s": busy("operators.residual"),
        "operators.residual_calls": len(by_name.get("operators.residual", ())),
        "operators.apply_A_s": busy("operators.apply_A"),
        "inner_solver.busy_s": busy("inner_solver.solve_inner"),
        "inner_solver.iters": sum(s.attrs.get("iters", 0) for s in inner),
        "inner_solver.cg_s": busy("inner_solver.cg"),
        "inner_solver.cg_matvecs": totals["K"],
        "inner_solver.ls_accept_ratio": gradients / energy_only if energy_only > 0 else 0.0,
        "inner_solver.failures": sum(1 for s in inner if s.attrs.get("raised")),
        "eigensolver.outer_steps": sum(
            1 for s in inner
            if s.parent is not None and spans[s.parent].name == "eigensolver.inverse_iteration"),
        "eigensolver.self_s": self_time("eigensolver."),
        "eigensolver.rayleigh_evals": len(by_name.get("eigensolver.rayleigh_quotient", ())),
        "eigensolver.lambda_rel_err": lambda_rel_err,
        "eigensolver.rayleigh_rel_gap": rayleigh_rel_gap,
        "diagnostics.report_s": busy("diagnostics.report"),
        "diagnostics.extra_solves": sum(
            1 for s in solves if any(a.name == "diagnostics.report" for a in ancestors(s))),
        "cli.self_s": self_time("cli."),
        "cli.artifact_bytes": artifact_bytes,
        "cli.sweep_busy_ratio": sweep_work / sweep_wall if sweep_wall > 0 else 0.0,
    }


def program_counts(tracer: Tracer) -> tuple[int, int]:
    """(sum of inner_iters_trace, sum of outer_iters) over the EigenResults of
    every inverse-iteration span that returned."""
    inner = outer = 0
    for s in tracer.spans:
        result = s.attrs.get("result")
        if s.name == "eigensolver.inverse_iteration" and result is not None:
            inner += sum(result.inner_iters_trace)
            outer += result.outer_iters
    return inner, outer


def traced_counts(tracer: Tracer) -> tuple[int, int]:
    """The same two sums as seen by the wrappers, over the same spans."""
    returned = {s.id for s in tracer.spans
                if s.name == "eigensolver.inverse_iteration"
                and s.attrs.get("result") is not None}
    inner = outer = 0
    for s in tracer.spans:
        if s.name == "inner_solver.solve_inner" and s.parent in returned:
            inner += s.attrs.get("iters", 0)
            outer += 1
    return inner, outer
