"""Layer spans recorded from outside the package.

The tracer replaces public functions of the ``landaustar`` modules with
wrappers that record one span per call: layer, start, end and the enclosing
span.  ``from .x import f`` copies bindings into other modules, and the
package ``__init__`` shadows the ``star`` submodule with the ``star``
function, so every module attribute that *is* the traced function gets
rebound, found through ``sys.modules``.  ``uninstall`` puts every original
back.  Spans stay in memory; self time is derived after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> (module, public functions that make up the layer)
LAYERS = {
    "star.apply": ("landaustar.star", ("apply_star_polynomial", "left_star_generator",
                                       "right_star_generator")),
    "star.star": ("landaustar.star", ("star",)),
    "star.oracle": ("landaustar.star", ("bidifferential_star", "canonical_star")),
    "star.displacement": ("landaustar.star", ("displacement_matrix",
                                              "displacement_matrix_closed")),
    "star.json": ("landaustar.star", ("fock_to_json_dict", "fock_from_json_dict")),
    "states.fock_values": ("landaustar.states", ("fock_values",)),
    "states.matrix_unit_values": ("landaustar.states", ("matrix_unit_values",)),
    "states.closed_form": ("landaustar.states", ("wigner_values", "coherent_values")),
    "states.construct": ("landaustar.states", ("state_fock", "wigner_fock", "coherent_fock",
                                               "generalized_coherent_fock")),
    "marginals.m1d": ("landaustar.marginals", ("marginal_1d",)),
    "marginals.m2d": ("landaustar.marginals", ("marginal_2d",)),
    "marginals.quad": ("landaustar.marginals", ("marginal_1d_quadrature",
                                                "marginal_2d_quadrature")),
    "uncertainty.expectation": ("landaustar.uncertainty", ("expectation",)),
    "uncertainty.inner_product": ("landaustar.uncertainty", ("inner_product",)),
    "uncertainty.variance": ("landaustar.uncertainty", ("variance",)),
    "uncertainty.rs_slack": ("landaustar.uncertainty", ("robertson_schrodinger_slack",)),
    "uncertainty.coordinate_moment": ("landaustar.uncertainty", ("coordinate_moment",)),
    "quadrature.gauss_hermite": ("landaustar.quadrature", ("gauss_hermite",)),
    "quadrature.integrate_nd": ("landaustar.quadrature", ("integrate_nd",)),
    "specfun.hermite": ("landaustar.specfun", ("hermite",)),
    "specfun.laguerre": ("landaustar.specfun", ("laguerre",)),
    "phase_space.mode_coords": ("landaustar.phase_space", ("mode_coords_arrays",
                                                           "to_mode_coords")),
    "checks.star": ("landaustar.checks", ("run_star_suite",)),
    "checks.marginals": ("landaustar.checks", ("run_marginals_suite",)),
    "checks.uncertainty": ("landaustar.checks", ("run_uncertainty_suite",)),
    "checks.coherent": ("landaustar.checks", ("run_coherent_suite",)),
    "cli.cmd": ("landaustar.cli", ("cmd_eval", "cmd_verify", "cmd_uncertainty",
                                   "cmd_equalities", "cmd_state")),
    "cli.format": ("landaustar.cli", ("table_text",)),
    "cli.emit": ("landaustar.cli", ("emit",)),
}


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(x) for x in arrays)).size)


# Work counters, computed from a call's bound arguments and result.  Byte
# counts are computed from array sizes, not measured.
def _apply_counts(fn_name, a, result):
    letters = sum(len(w) for _, w in a["poly"].terms) if "poly" in a else 1
    return {"ladder_actions": letters,
            # each ladder action reads one coefficient tensor and writes one
            "bytes": letters * 2 * result.coeffs.nbytes}


COUNTERS = {
    "star.apply": _apply_counts,
    "star.star": lambda fn, a, r: {"bytes": a["f"].coeffs.nbytes + a["g"].coeffs.nbytes
                                   + r.coeffs.nbytes},
    "star.json": lambda fn, a, r: {"entries": len((r if fn == "fock_to_json_dict"
                                                   else a["d"])["entries"])},
    "states.fock_values": lambda fn, a, r: {"points": _size(a["a"], a["b"])},
    "states.closed_form": lambda fn, a, r: {"points": _size(a["a"], a["b"])},
    "states.construct": lambda fn, a, r: {"overflowed": int(r.overflow)},
    "marginals.m1d": lambda fn, a, r: {"points": _size(a["x"])},
    "marginals.m2d": lambda fn, a, r: {"points": _size(a["x"], a["y"])},
    "cli.format": lambda fn, a, r: {"bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.layer_names = list(LAYERS)
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        lid = self.layer_names.index(layer)
        counter = COUNTERS.get(layer)
        signature = inspect.signature(fn) if counter else None
        stack, counts = self._stack, self.counts
        spans_layer, spans_start, spans_end, spans_parent = (
            self.layer, self.start, self.end, self.parent)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # a call from inside the same layer is part of the outer call
            outer = parent < 0 or spans_layer[parent] != lid
            idx = len(spans_start)
            spans_layer.append(lid)
            spans_parent.append(parent)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[idx] = clock()
                stack.pop()
                if outer:
                    counts[f"{layer}.calls"] += 1
            if outer and counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, val in counter(fn.__name__, bound, result).items():
                    counts[f"{layer}.{key}"] += val
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS, rebinding each module-level alias."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "landaustar" or name.startswith("landaustar."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self):
        """Restore every rebound attribute and check that it took."""
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        stale = [f"{mod.__name__}.{attr}" for mod, attr, original in self._rebound
                 if getattr(mod, attr) is not original]
        self._rebound = []
        if stale:
            raise RuntimeError(f"tracer left wrapped bindings behind: {stale}")

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, work counters, self time and total span time."""
        self_s, total_s = self_times(self.start, self.end, self.parent)
        out = dict(self.counts)
        per_self = defaultdict(float)
        per_total = defaultdict(float)
        for lid, s, t, p in zip(self.layer, self_s, total_s, self.parent):
            per_self[lid] += s
            # nested calls of the same layer are already inside the outer span
            if p < 0 or self.layer[p] != lid:
                per_total[lid] += t
        for lid, name in enumerate(self.layer_names):
            out[f"{name}.self_s"] = per_self[lid]
            out[f"{name}.wall_s"] = per_total[lid]
        return out


def self_times(start, end, parent):
    """Self time of each span: its duration minus the time its children cover.

    ``parent[i]`` is the index of the enclosing span or -1.  Children covering
    overlapping intervals are counted once (union of intervals, clipped to the
    parent).  Returns (self, duration) lists aligned with the spans.
    """
    n = len(start)
    duration = [end[i] - start[i] for i in range(n)]
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    self_s = list(duration)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        self_s[p] = duration[p] - covered
    return self_s, duration
