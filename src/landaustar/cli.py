"""Command-line interface.

Deterministic, plain-text surface over the library: evaluate states and
marginal densities on grids, run the verification suite, emit uncertainty
tables, check the orthogonal-polynomial integral equalities, and dump/load
states as JSON.  Same configuration always produces byte-identical output.

The argument parser is built once per process, on the first call to
``main``; each call then dispatches to ``cmd_<subcommand>`` by name, looked
up at call time.

Output plumbing: every table, CSV or JSON, is written by ``table_text``,
column by column.  A grid table names its axes' 1-D arrays, so each number
is formatted once per distinct grid value, not once per row, and each value
column once; the row strings are then joined axis by axis in meshgrid "ij"
order.  Tables without a grid (``uncertainty``, ``equalities``, ``verify
--format json``) pass per-row columns only.  The bytes are those of
formatting each cell with ``%.17g`` or ``str`` in CSV, and of ``json.dumps``
of the row-by-row document in JSON.  A grid holds at most
``MAX_GRID_POINTS`` points.

The kernels return unit-free shapes and moments; physical units enter only
here: every ``eval`` target, the state functions included, is a shape at the
grid in axis units (``to_axis_units``) times one prefactor, and
``uncertainty`` scales the second moment by the axis scales; its product
column is ``uncertainty_product``, the function the checks verify.
``equalities`` takes its samples in units of gamma and prints the same bytes
at any units.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 configuration conflict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from .marginals import (
    AXES,
    axis_norm,
    axis_scale,
    integral_equality_residuals,
    is_plane,
    marginal_1d,
    marginal_2d,
)
from .phase_space import PhysParams, axis_mode_coords
from .star import MAX_DOCUMENT_CUTOFF, fock_from_json_dict, fock_to_json_dict
from .states import WignerLabel, parse_state_label, state_fock, state_values
from .uncertainty import second_moment, uncertainty_product

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFIG_CONFLICT = 3

# largest accepted |grid value|: the coordinate scaling of a value near the
# largest double overflows before any kernel sees it
MAX_GRID_VALUE = 1e300
# most points one grid may hold, on one axis and in total; a larger grid is
# refused (exit 2) before anything is allocated.  A 4D table at the bound is
# about 90 MB of text and peaks near 0.6 GB of memory
MAX_GRID_POINTS = 1_000_000
# largest accepted |grid value| in axis units (x / axis_scale), which bounds
# the mode coordinates under extreme units such as --mass 1e-300
_MAX_AXIS_UNITS = 1e305


class ConfigConflict(Exception):
    pass


class InputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: PhysParams
    cutoff: int = 32
    fmt: str = "csv"
    unit_norm: bool = False

    def __post_init__(self):
        if self.cutoff < 2:
            raise ConfigConflict(f"cutoff must be at least 2, got {self.cutoff}")

    def require_labels_fit(self, label):
        """Cutoff must exceed both quantum numbers of the label's base by at least 2."""
        refs = [label.base.n, label.base.l]
        if self.cutoff < max(refs) + 2:
            raise ConfigConflict(
                f"cutoff {self.cutoff} too small for quantum numbers {refs}; "
                f"need at least {max(refs) + 2}")


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def load_config_file(path: str) -> dict:
    values = {}
    allowed = {"hbar": float, "mass": float, "omega": float}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in allowed:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = allowed[key](val.strip())
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    return values


def build_config(args) -> RunConfig:
    values = {"hbar": 1.0, "mass": 1.0, "omega": 1.0}
    config_path = getattr(args, "config", None)
    if config_path:
        values.update(load_config_file(config_path))
    for key in ("hbar", "mass", "omega"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        params = PhysParams(**values)
    except ValueError as exc:
        raise ConfigConflict(str(exc)) from exc
    return RunConfig(params=params,
                     cutoff=getattr(args, "cutoff", 32),
                     fmt=getattr(args, "format", "csv"),
                     unit_norm=getattr(args, "unit_norm", False))


# ---------------------------------------------------------------------------
# grid parsing
# ---------------------------------------------------------------------------

def parse_axis_spec(text: str) -> np.ndarray:
    """'lo:hi:count' -> linspace, plain number -> one pinned value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise InputError(f"malformed grid axis {text!r}: expected 'value' or 'lo:hi:count'")
    try:
        ends = [float(v) for v in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise InputError(f"malformed grid axis {text!r}: {exc}") from exc
    if not all(map(math.isfinite, ends)):
        raise InputError(f"grid axis {text!r} must be finite")
    if any(abs(v) > MAX_GRID_VALUE for v in ends):
        raise InputError(f"grid axis {text!r} is out of range: |value| must be at most "
                         f"{MAX_GRID_VALUE:g}")
    if count is None:
        return np.array(ends)
    if count < 1:
        raise InputError(f"grid count must be positive in {text!r}")
    if count > MAX_GRID_POINTS:
        raise InputError(f"grid axis {text!r} has {count} points; at most "
                         f"{MAX_GRID_POINTS} are accepted")
    return np.linspace(*ends, count)


def to_axis_units(grid: dict, params: PhysParams) -> dict:
    """The grid in axis units, x / axis_scale(axis), where every target is evaluated.

    Values past _MAX_AXIS_UNITS axis units are refused, compared in floats
    that cannot overflow.
    """
    units = {}
    for axis, values in grid.items():
        s = axis_scale(axis, params)
        worst = float(np.max(np.abs(values)))
        if worst > _MAX_AXIS_UNITS * s:
            raise InputError(f"grid value {worst:g} on {axis} is out of range for these "
                             f"units: |{axis}| must be at most {_MAX_AXIS_UNITS * s:g} "
                             f"({_MAX_AXIS_UNITS:g} axis units)")
        units[axis] = values / s
    return units


def unit_prefactor(factor: float, axes) -> float:
    """A target's one unit prefactor, refused if it overflows; checked once, never per value."""
    if not math.isfinite(factor):
        raise InputError(f"values on {', '.join(axes)} overflow in these units: "
                         f"their prefactor is {factor:g}")
    return factor


def parse_named_grid(text: str, axes) -> dict:
    """'q1=-3:3:7,q2=0,...' -> {axis: 1-D array}; missing axes pin to 0."""
    grid = {}
    for item in text.split(",") if text else ():
        if "=" not in item:
            raise InputError(f"malformed grid item {item!r}: expected axis=spec")
        name, _, spec = item.partition("=")
        name = name.strip()
        if name not in axes:
            raise InputError(f"unknown grid axis {name!r}; expected one of {axes}")
        if name in grid:
            raise InputError(f"grid axis {name!r} is given twice")
        grid[name] = parse_axis_spec(spec)
    total = math.prod(len(values) for values in grid.values())
    if total > MAX_GRID_POINTS:
        counts = " x ".join(str(len(values)) for values in grid.values())
        raise InputError(f"grid has {total} points ({counts}); at most "
                         f"{MAX_GRID_POINTS} are accepted")
    return {ax: grid.get(ax, np.array([0.0])) for ax in axes}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell_texts(column, fmt: str) -> list:
    """Each entry's text: in CSV ``%.17g`` for floats and ``str`` otherwise, in
    JSON ``json.dumps``'s own; the type is read off the first entry."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if not values:
        return []
    if fmt == "csv":
        if not isinstance(values[0], float):
            return list(map(str, values))
        return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    if isinstance(values[0], str):
        return list(map(json.dumps, values))
    # numbers and booleans: no entry's text holds ", "
    return json.dumps(values)[1:-1].split(", ")


def table_text(header, columns, fmt: str, json_meta: dict | None = None, axes=()) -> str:
    """CSV or JSON text of a table whose columns each hold one type.

    The leading columns are the grid ``axes``, 1-D arrays whose rows run in
    meshgrid "ij" order (the first axis slowest); ``columns`` then hold one
    entry per row.  Each axis value and each entry is formatted once, so a
    grid coordinate is formatted once however many rows repeat it.  The
    bytes are those of formatting every cell of the row-by-row table.
    """
    sep = "," if fmt == "csv" else ", "
    rows = None
    for axis in axes:
        texts = _cell_texts(axis, fmt)
        rows = texts if rows is None else [r + sep + t for r in rows for t in texts]
    for column in columns:
        texts = _cell_texts(column, fmt)
        rows = texts if rows is None else [r + sep + t
                                           for r, t in zip(rows, texts, strict=True)]
    rows = rows or []
    if fmt == "csv":
        return "\n".join([",".join(header), *rows]) + "\n"
    head = json.dumps({**(json_meta or {}), "columns": list(header)})
    points = "[[" + "], [".join(rows) + "]]" if rows else "[]"
    return head[:-1] + ', "points": ' + points + "}\n"


def params_doc(params: PhysParams) -> dict:
    return {"hbar": params.hbar, "mass": params.mass, "omega": params.omega}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args, cfg: RunConfig) -> int:
    if args.state is None:
        target, state_text = "wigner", args.target
    else:
        target, state_text = args.target, args.state
    label = parse_state_label(state_text)
    params, h = cfg.params, cfg.params.planck_h

    if target == "wigner":
        grid = parse_named_grid(args.grid, AXES)
        units = to_axis_units(grid, params)
        factor = unit_prefactor(1.0 / h / h if cfg.unit_norm else 1.0, AXES)
        flat = [m.reshape(-1) for m in np.meshgrid(*units.values(), indexing="ij")]
        vals = factor * state_values(label, *axis_mode_coords(*flat))
        meta = {"target": "wigner", "state": state_text, "params": params_doc(params)}
        emit(table_text((*AXES, "value"), (vals,), cfg.fmt, meta, axes=grid.values()),
             args.out)
        return EXIT_OK

    kind, _, detail = target.partition(":")
    if kind == "marginal1d":
        if detail not in AXES:
            raise InputError(f"unknown marginal axis {detail!r}")
        if not isinstance(label, WignerLabel):
            raise InputError("1D marginals are defined for wigner:n,l states")
        xs = parse_axis_spec(args.grid if args.grid else "0")
        units = to_axis_units({detail: xs}, params)
        factor = unit_prefactor(1.0 / axis_scale(detail, params) if cfg.unit_norm else
                                4.0 * math.sqrt(math.pi) * axis_norm(detail, params), (detail,))
        vals = factor * np.atleast_1d(marginal_1d(label.n, label.l, units[detail]))
        meta = {"axis": detail, "n": label.n, "l": label.l, "params": params_doc(params)}
        emit(table_text(("x", "value"), (vals,), cfg.fmt, meta, axes=(xs,)), args.out)
        return EXIT_OK

    if kind == "marginal2d":
        plane = tuple(detail.split(","))
        if not is_plane(plane):
            raise InputError(f"unknown marginal plane {detail!r}")
        if not isinstance(label, WignerLabel):
            raise InputError("2D marginals are defined for wigner:n,l states")
        grid = parse_named_grid(args.grid, plane)
        units = to_axis_units(grid, params)
        sx, sy = (axis_scale(ax, params) for ax in plane)
        factor = unit_prefactor(1.0 / sx / sy if cfg.unit_norm else (h / sx) * (h / sy), plane)
        u, v = (m.reshape(-1) for m in np.meshgrid(*units.values(), indexing="ij"))
        vals = factor * marginal_2d(label.n, label.l, plane, u, v)
        meta = {"plane": list(plane), "n": label.n, "l": label.l,
                "params": params_doc(params)}
        emit(table_text((*plane, "value"), (vals,), cfg.fmt, meta, axes=grid.values()),
             args.out)
        return EXIT_OK

    raise InputError(f"unknown eval target {target!r}")


def cmd_verify(args, cfg: RunConfig) -> int:
    results = checks.run_suite(args.suite, cfg.params)
    passed = [bool(r.passed) for r in results]
    n_pass = sum(passed)
    timings = args.timings
    if cfg.fmt == "json":
        header = ("check", "passed", "residual", "tolerance") + (("seconds",) if timings else ())
        rows = [[r.name, ok, float(r.residual), float(r.tolerance)]
                + ([float(r.seconds)] if timings else [])
                for r, ok in zip(results, passed)]
        meta = {"suite": args.suite, "params": params_doc(cfg.params),
                "passed": n_pass, "total": len(results)}
        errors = {r.name: r.error for r in results if r.error is not None}
        if errors:
            meta["errors"] = errors
        text = table_text(header, list(zip(*rows)), "json", meta)
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {r.name}: residual={fmt17(r.residual)} "
                 f"tolerance={fmt17(r.tolerance)}"
                 + (f" seconds={r.seconds:.3g}" if timings else "")
                 + (f" error={r.error}" if r.error is not None else "")
                 for r, ok in zip(results, passed)]
        lines.append(f"{n_pass}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    emit(text, args.out)
    return EXIT_OK if n_pass == len(results) else EXIT_VERIFY_FAILED


def parse_range(text: str):
    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise InputError(f"reversed range {text!r}: need lo <= hi")
            return range(lo, hi + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError as exc:
        raise InputError(f"malformed range {text!r}: expected 'n' or 'lo..hi'") from exc


def cmd_uncertainty(args, cfg: RunConfig) -> int:
    n_range = parse_range(args.n_range)
    l_range = parse_range(args.l_range)
    hb = cfg.params.hbar
    sq, sp = axis_scale("q1", cfg.params), axis_scale("p1", cfg.params)
    rows = []
    for n, l in itertools.product(n_range, l_range):
        m = second_moment(n, l)
        product = uncertainty_product(n, l, 1, cfg.params)
        if not math.isfinite(product):
            raise InputError(f"the uncertainty product of ({n}, {l}) overflows in these units")
        rows.append((n, l, sq * math.sqrt(m), sp * math.sqrt(m), product, hb * (m - 0.5)))
    meta = {"params": params_doc(cfg.params)}
    emit(table_text(("n", "l", "dq1", "dp1", "product", "bound_gap"),
                    list(zip(*rows)), cfg.fmt, meta), args.out)
    return EXIT_OK


def cmd_equalities(args, cfg: RunConfig) -> int:
    pairs = []
    for item in args.pairs.split(";"):
        try:
            n, l = (int(v) for v in item.split(","))
        except ValueError as exc:
            raise InputError(f"malformed pair {item!r}: expected 'n,l'") from exc
        pairs.append((n, l))
    try:
        samples = [float(v) for v in args.samples.split(",")]
    except ValueError as exc:
        raise InputError(f"malformed samples {args.samples!r}") from exc
    if not all(map(math.isfinite, samples)):
        raise InputError(f"samples must be finite, got {args.samples!r}")
    rows = []
    for (n, l), sample in itertools.product(pairs, samples):
        # the terms grow like sample^(2(n+l)); one that overflows is refused
        try:
            with np.errstate(over="raise", invalid="raise"):
                ((y, lhs, lag, herm),) = integral_equality_residuals(n, l, [sample])
        except FloatingPointError as exc:
            raise InputError(f"sample {sample:g} overflows the terms of ({n}, {l})") from exc
        # relative to the left-hand side, which grows like sample^(2(n+l)),
        # so an identity that holds reads the same at every sample
        rows.append((n, l, y, lag / lhs, herm / lhs))
    meta = {"params": params_doc(cfg.params)}
    emit(table_text(("n", "l", "q1_over_gamma", "residual_position_plane",
                     "residual_mixed_plane"), list(zip(*rows)), cfg.fmt, meta), args.out)
    return EXIT_OK


def cmd_state(args, cfg: RunConfig) -> int:
    if args.action == "dump":
        if cfg.cutoff > MAX_DOCUMENT_CUTOFF:
            raise ConfigConflict(f"cutoff {cfg.cutoff} exceeds {MAX_DOCUMENT_CUTOFF}, "
                                 "the largest cutoff of a state document")
        label = parse_state_label(args.source)
        cfg.require_labels_fit(label)
        rep = state_fock(label, cfg.cutoff)
    else:  # load: parse, validate, re-emit canonical form
        try:
            with open(args.source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read state file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed state file at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
        rep = fock_from_json_dict(doc)
    emit(json.dumps(fock_to_json_dict(rep)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # defaults are applied in build_config; SUPPRESS keeps a subcommand's
    # parse from overriding a flag given before the subcommand
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=sup)
    common.add_argument("--hbar", type=float)
    common.add_argument("--mass", type=float)
    common.add_argument("--omega", type=float)
    common.add_argument("--cutoff", type=int,
                        help="Fock cutoff of 'state dump', from 2 to 32 (default 32)")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--unit-norm", action="store_true",
                        help="divide density values by h^2")
    common.add_argument("--out", help="write output to a file")
    common.add_argument("--config", help="key=value file with hbar, mass, omega")

    parser = argparse.ArgumentParser(
        prog="landaustar",
        parents=[common],
        description="Phase-space toolkit for a charged particle in a uniform "
                    "magnetic field: star products, Wigner functions, coherent "
                    "states, marginal densities and uncertainty relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a state or marginal on a grid")
    p_eval.add_argument("target",
                        help="state label, or a target (wigner, marginal1d:AXIS, "
                             "marginal2d:AX1,AX2) followed by the state label")
    p_eval.add_argument("state", nargs="?", default=None)
    p_eval.add_argument("--grid", default="",
                        help="axis=lo:hi:count or axis=value items, comma separated; "
                             "bare lo:hi:count for 1D marginals; missing axes pin to 0")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the verification suite")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=("all",) + checks.SUITES)
    p_verify.add_argument("--timings", action="store_true",
                          help="report each check's wall time in seconds")

    p_unc = sub.add_parser("uncertainty", parents=[common],
                           help="uncertainty product table")
    p_unc.add_argument("n_range", help="'n' or 'lo..hi'")
    p_unc.add_argument("l_range", help="'l' or 'lo..hi'")

    p_eq = sub.add_parser("equalities", parents=[common],
                          help="orthogonal-polynomial integral-equality residual sweep")
    p_eq.add_argument("--pairs", default="1,0;2,1;3,3;2,2",
                      help="semicolon-separated n,l pairs (n >= l)")
    p_eq.add_argument("--samples", default="0,0.7,1.4",
                      help="comma-separated q1 samples in units of gamma")

    p_state = sub.add_parser("state", parents=[common],
                             help="dump or load a state as JSON")
    p_state.add_argument("action", choices=("dump", "load"))
    p_state.add_argument("source", help="state label (dump) or file path (load)")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # join '--grid -4:4:81' so a leading minus is not taken for a flag
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            joined.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    args = build_parser().parse_args(joined)
    args.out = getattr(args, "out", None)
    try:
        cfg = build_config(args)
        # looked up at call time, so a rebound cmd_* is the one that runs
        return globals()["cmd_" + args.command](args, cfg)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConfigConflict as exc:
        print(f"configuration conflict: {exc}", file=sys.stderr)
        return EXIT_CONFIG_CONFLICT


if __name__ == "__main__":
    sys.exit(main())
