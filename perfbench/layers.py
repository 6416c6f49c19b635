"""Per-layer tracing from outside the program.

`Tracer.install` replaces every module-level binding of each layer's public
functions, in every loaded ``toruskit`` module, with a timing wrapper.  That
includes re-exported names such as ``solver.forward`` and
``spectral.symbol_array``, because the library calls through them.  Spans
(name, start, end, parent span, task id, detail) are kept in memory and
written out once, after the run, to a file kept apart from the results.

`layer_metrics` turns the spans into the per-layer metrics.  A function that
no longer exists simply produces no spans, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types

LAYERS = ("lattice", "operators", "transform", "spectral", "solver", "embedding", "cli")

# Scalar helpers called once per frequency from inside symbol callables (or
# as O(1) arithmetic from other layers).  A wrapper on them would cost more
# than the work it times and would charge operators' work to the lattice.
UNTRACED = frozenset({"lattice.norm_sq", "lattice.tail_min_norm_sq"})


def _symbol_detail(args, kwargs, result):
    # (symbol name, grid shape) identifies one evaluation; the shape fixes the grid
    symbol = args[0] if args else kwargs.get("symbol")
    return (getattr(symbol, "name", None), tuple(result.shape))


# Extra facts recorded per span, read from the call's result.
DETAILS = {
    "operators.symbol_array": _symbol_detail,
    "transform.forward": lambda a, k, r: r.grid.size,
    "transform.inverse": lambda a, k, r: r.grid.size,
    "solver.solve_cg": lambda a, k, r: r[1].iterations,
    "lattice.levels_up_to": lambda a, k, r: len(r),
    "lattice.level_multiplicity": lambda a, k, r: 1,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, task id, detail)
        self.spans: list[tuple] = []
        self.task = -1
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        """Wrap every public layer function, wherever toruskit binds it."""
        originals: dict[object, str] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"toruskit.{layer}")
            for name, obj in vars(module).items():
                qualified = f"{layer}.{name}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and qualified not in UNTRACED
                ):
                    originals[obj] = qualified
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "toruskit"]:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in self._restore:
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, detail_of = self.spans, self._stack, DETAILS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task, None)
            if detail_of is not None:
                try:
                    detail = detail_of(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    detail = None
                spans[index] = (name, start, end, parent, self.task, detail)
            return result

        return wrapper

    def write(self, path: str, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, task, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "task": task,
                }) + "\n")


LATTICE_SCANS = {"lattice.levels_up_to", "lattice.level_multiplicity", "lattice.enumerate_ball"}
FFT = {"transform.forward", "transform.inverse"}
NAIVE = {"transform.naive_forward", "transform.naive_inverse"}
SERIALIZE = {"transform.field_to_doc", "transform.field_from_doc"}
NORMS = {"operators.sobolev_norm_sq", "operators.l2_norm"}
NORM_ESTIMATE = {"spectral.operator_norm_power_iteration"}
SPECTRA = {"spectral.laplacian_spectrum", "spectral.resolvent_spectrum"}


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Counts, busy and self times per layer from one traced pass.

    busy = time inside the named functions, counting nested calls of the
    same set once; self = busy minus the time of the wrapped functions
    outside the set that they call directly.
    """
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            children[parent].append(i)

    def selected(names):
        return sorted(i for name in names for i in by_name.get(name, ()))

    def has_ancestor(i, names):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def duration(i):
        return spans[i][2] - spans[i][1]

    def busy(names):
        return sum(duration(i) for i in selected(names) if not has_ancestor(i, names))

    def self_time(names):
        called = sum(duration(c) for i in selected(names) for c in children[i]
                     if spans[c][0] not in names)
        return busy(names) - called

    def details(names):
        return [spans[i][5] for i in selected(names) if spans[i][5] is not None]

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    embedding_names = {name for name in by_name if name.startswith("embedding.")}
    cli_names = {name for name in by_name if name.startswith("cli.")}
    symbol_keys = details({"operators.symbol_array"})
    seen: set = set()
    reused = 0
    for key in symbol_keys:
        reused += key in seen
        seen.add(key)
    symbol_calls = len(selected({"operators.symbol_array"}))
    lattice_busy = busy(LATTICE_SCANS)
    fft_points = sum(details(FFT))
    fft_busy = busy(FFT)
    return {
        "lattice.calls": (len(selected(LATTICE_SCANS)), "count"),
        "lattice.busy_s": (lattice_busy, "s"),
        "lattice.levels_per_s": (per_s(sum(details(LATTICE_SCANS)), lattice_busy), "1/s"),
        "operators.symbol_calls": (symbol_calls, "count"),
        "operators.symbol_modes": (sum(math.prod(shape) for _, shape in symbol_keys), "count"),
        "operators.symbol_busy_s": (busy({"operators.symbol_array"}), "s"),
        "operators.symbol_reuse_ratio": (reused / symbol_calls if symbol_calls else 0.0, "ratio"),
        "operators.apply_calls": (len(selected({"operators.apply_multiplier"})), "count"),
        "operators.apply_self_s": (self_time({"operators.apply_multiplier"}), "s"),
        "operators.norm_calls": (len(selected(NORMS)), "count"),
        "operators.norm_busy_s": (busy(NORMS), "s"),
        "transform.fft_calls": (len(selected(FFT)), "count"),
        "transform.fft_points": (fft_points, "count"),
        "transform.fft_busy_s": (fft_busy, "s"),
        "transform.fft_points_per_s": (per_s(fft_points, fft_busy), "1/s"),
        "transform.naive_busy_s": (busy(NAIVE), "s"),
        "transform.serialize_busy_s": (busy(SERIALIZE), "s"),
        "spectral.norm_estimates": (len(selected(NORM_ESTIMATE)), "count"),
        "spectral.norm_matvecs": (
            sum(1 for i in selected({"transform.forward"}) if has_ancestor(i, NORM_ESTIMATE)),
            "count",
        ),
        "spectral.norm_busy_s": (busy(NORM_ESTIMATE), "s"),
        "spectral.norm_self_s": (self_time(NORM_ESTIMATE), "s"),
        "spectral.eigenpair_calls": (len(selected({"spectral.verify_eigenpair"})), "count"),
        "spectral.eigenpair_busy_s": (busy({"spectral.verify_eigenpair"}), "s"),
        "spectral.spectrum_self_s": (self_time(SPECTRA), "s"),
        "solver.cg_solves": (len(selected({"solver.solve_cg"})), "count"),
        "solver.cg_iterations": (sum(details({"solver.solve_cg"})), "count"),
        "solver.cg_busy_s": (busy({"solver.solve_cg"}), "s"),
        "solver.cg_self_s": (self_time({"solver.solve_cg"}), "s"),
        "solver.multiplier_busy_s": (busy({"solver.solve_multiplier"}), "s"),
        "embedding.calls": (len(selected(embedding_names)), "count"),
        "embedding.busy_s": (busy(embedding_names), "s"),
        "cli.self_s": (self_time(cli_names), "s"),
    }

