"""Seeded workloads: input plans, timed operations and their oracle checks.

A plan is plain data (lists, dicts, strings, numbers) generated from the
seed alone, split into rounds.  Every round has the same mix of operation
kinds, so a run that stops between rounds keeps the mix whatever its length.
The package receives only the generated inputs, through its public API and
``cli.main``; functions are looked up on their modules at call time so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

_checks = importlib.import_module("landaustar.checks")
_cli = importlib.import_module("landaustar.cli")
_phase = importlib.import_module("landaustar.phase_space")
_star = importlib.import_module("landaustar.star")
_states = importlib.import_module("landaustar.states")
_unc = importlib.import_module("landaustar.uncertainty")

PARAMS = _phase.PhysParams()

OK, MISS, KNOWN, ERROR = "ok", "miss", "known_defect", "error"

# ROADMAP item 1: the alternating Hermite sum in marginal_1d loses all
# accuracy as n + l grows; against the quadrature oracle at the tolerances
# below the first misses appear at n + l = 22.  Misses of marginal_1d-based
# answers (1D marginals, uncertainty rows) from this sum upwards are counted
# as known defects; a miss anywhere else is a failure.
M1D_CANCELLATION_NL = 20


@dataclass
class Outcome:
    """One timed operation and the verdict on its answer."""

    kind: str
    seconds: float
    points: int = 0
    verdict: str = OK
    digest: str = ""
    overflowed: bool = False
    detail: str = ""


def _digest(payload) -> str:
    if isinstance(payload, np.ndarray):
        payload = payload.tobytes()
    elif not isinstance(payload, bytes):
        payload = repr(payload).encode()
    return hashlib.sha1(payload).hexdigest()


def _close(got, want, rtol, atol):
    """Worst |got - want| / (atol + rtol |want|); <= 1 passes."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    err = np.abs(got - want) / (atol + rtol * np.abs(want))
    return float(np.max(err)) if np.all(np.isfinite(err)) else math.inf


def _stratified(rng, items):
    """Endless stream over ``items`` in which each block is a permutation."""
    items = list(items)
    while True:
        yield from (items[i] for i in rng.permutation(len(items)))


def _num(x: float) -> str:
    return f"{x:.4f}"


def _alpha_text(rng, radius=2.0):
    """Seeded complex number in the disk |alpha| <= radius, as CLI label text."""
    r = radius * math.sqrt(rng.random())
    t = 2.0 * math.pi * rng.random()
    return f"{r * math.cos(t):.6f},{r * math.sin(t):.6f}"


def _grid_text(spec: dict) -> str:
    return ",".join(f"{ax}={_num(lo)}:{_num(hi)}:{k}" for ax, (lo, hi, k) in spec.items())


def _grid_axes(spec: dict):
    """The axis arrays the CLI builds from the same text."""
    return {ax: np.linspace(float(_num(lo)), float(_num(hi)), k)
            for ax, (lo, hi, k) in spec.items()}


def _read_table(path: Path, fmt: str):
    """(rows as a float array, file text) of a CLI table written as CSV or JSON."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        rows = json.loads(text)["points"]
    else:
        rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")[1:]]
    return np.array(rows, dtype=float), text


class Workload:
    """Base class: a workload plans rounds and runs their operations."""

    name = ""
    rounds_planned = 0
    # operation kinds whose latency is the workload's per-operation metric
    latency_kinds: tuple = ()

    def plan(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, op: dict, ctx: dict, workdir: Path, check: bool) -> Outcome:
        """Time one operation; with ``check`` also judge its answer."""
        raise NotImplementedError

    def work_units(self, outcomes) -> tuple:
        """(units done, busy seconds) behind the workload's throughput metric."""
        return sum(o.points for o in outcomes), sum(o.seconds for o in outcomes)

    def latency_ms(self, outcomes) -> list:
        """Latency samples of the workload's per-operation metric."""
        return [1e3 * o.seconds for o in outcomes if o.kind in self.latency_kinds]


# ---------------------------------------------------------------------------
# verify: the paper-reproduction suite
# ---------------------------------------------------------------------------

class Verify(Workload):
    """Full passes of checks.run_suite over every suite, as `landaustar verify all`.

    A pass is the operation.  Its four suites differ in cost by a factor of
    four, and the slowest, the dense uncertainty checks, is also the one whose
    time varies most between runs, so per-suite latencies would make the
    tail a measurement of one suite.
    """

    name = "verify"
    rounds_planned = 20
    latency_kinds = ("pass",)

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        return [[{"kind": "pass", "suites": rng.permutation(_checks.SUITES).tolist()}]
                for _ in range(self.rounds_planned)]

    def run(self, op, ctx, workdir, check):
        t0 = time.perf_counter()
        results = [r for suite in op["suites"] for r in _checks.run_suite(suite, PARAMS)]
        seconds = time.perf_counter() - t0
        out = Outcome("pass", seconds, points=len(results),
                      digest=_digest([(r.name, r.residual, r.tolerance) for r in results]))
        failed = [r.name for r in results if not r.passed]
        if check and failed:
            out.verdict, out.detail = MISS, "failed checks: " + ", ".join(failed)
        return out


# ---------------------------------------------------------------------------
# densities: closed-form and quadrature routes through cli.main
# ---------------------------------------------------------------------------

AXES = ("q1", "q2", "p1", "p2")
CLOSED_FORM_PLANES = (("q1", "q2"), ("q1", "p2"))
QUADRATURE_PLANES = (("q1", "p1"), ("q2", "p1"), ("q2", "p2"), ("p1", "p2"))
# Grid sizes are fixed, so every round emits the same number of points.
EVAL4D_COUNTS = (6, 5, 5, 4)
EVAL4D_PER_KIND = 3
M1D_POINTS = 101
M2D_SIDE = 11


def _hermite_sum_cost(n, l):
    """Array operations of marginal_1d(n, l), up to a constant factor.

    Its Hermite sum has (n+1)(l+1) terms; a term evaluates a polynomial of
    degree 2(n+l-j-k) by recurrence, n+l array operations on average, plus a
    few more.
    """
    return (n + 1) * (l + 1) * (n + l + 5)


def _table_cost(n0, l0):
    """Cost of the uncertainty table n0..n0+1 x l0..l0+1: two marginals a row."""
    return sum(_hermite_sum_cost(n, l) for n in (n0, n0 + 1) for l in (l0, l0 + 1))


def _band(pairs, cost, target, tol):
    """The pairs whose modelled cost lies within ``tol`` (relative) of ``target``."""
    return [p for p in pairs if abs(cost(*p) - target) <= tol * target]


# Each round draws one 1D marginal from each cost band, (target, tolerance),
# so that every round, and every seed, has the same spread of call costs
# (about 6, 15, 40 and 95 ms on a 2-core x86 machine).  The lowest band is
# anchored at (0, 30) and holds pairs with n + l in 13..30; the highest holds
# n + l in 45..48, inside the range where marginal_1d is wrong today.
# Together the bands hold every n and every l in 0..30.
M1D_BANDS = ((_hermite_sum_cost(0, 30), 0.2), (4000, 0.1), (12000, 0.1), (30000, 0.08))
# Uncertainty tables cost as much as the one at (22, 0), within 25%: 49 of
# them, from (0, 19)..(0, 23) through (6, 6) to (19, 0)..(23, 0), whose rows
# cover 0..24.
TABLE_ANCHOR, TABLE_TOL = (22, 0), 0.25
# 2D marginals on the quadrature planes have n + l = 30; quadrature cost
# grows with n + l, so they cost the same whatever n is.
QUAD_PLANE_NL = 30


def _axis_halfwidth(rng, ax, lo, hi):
    scale = PARAMS.gamma if ax.startswith("q") else PARAMS.hbar / PARAMS.gamma
    return scale * rng.uniform(lo, hi)


class Densities(Workload):
    """A stream of `eval`/`uncertainty` CLI calls that never builds a Fock tensor.

    Every round makes the same thirteen calls up to their quantum numbers,
    grids, labels and formats, and the expensive calls draw their quantum
    numbers from bands of equal modelled cost.  So rounds cost about the
    same, and the latency distribution is the same for every seed.
    """

    name = "densities"
    rounds_planned = 600
    latency_kinds = ("cli",)

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        grid30 = [(n, l) for n in range(31) for l in range(31)]
        grid23 = [(n, l) for n in range(24) for l in range(24)]
        m1d = [_stratified(rng, _band(grid30, _hermite_sum_cost, t, tol))
               for t, tol in M1D_BANDS]
        tables = _stratified(rng, _band(grid23, _table_cost, _table_cost(*TABLE_ANCHOR),
                                        TABLE_TOL))
        nl30 = (_stratified(rng, range(31)), _stratified(rng, range(31)))
        quad_n = _stratified(rng, range(QUAD_PLANE_NL + 1))
        rounds = []
        for r in range(self.rounds_planned):
            ops = []
            for _ in range(EVAL4D_PER_KIND):
                ops.append(self._eval4d(rng, "wigner:%d,%d" % (next(nl30[0]), next(nl30[1]))))
                ops.append(self._eval4d(rng, "coherent:%s,%s" % (_alpha_text(rng),
                                                                 _alpha_text(rng))))
            for axis, band in zip(rng.permutation(AXES), m1d):
                n, l = next(band)
                h = _axis_halfwidth(rng, axis, 2.0, 5.0)
                ops.append({"kind": "marginal1d", "axis": str(axis), "n": n, "l": l,
                            "grid": [-h, h, M1D_POINTS], "fmt": self._fmt(rng),
                            "sample": self._sample(rng, M1D_POINTS)})
            nq = next(quad_n)
            for plane, (n, l) in ((CLOSED_FORM_PLANES[r % 2], (next(nl30[0]), next(nl30[1]))),
                                  (QUADRATURE_PLANES[r % 4], (nq, QUAD_PLANE_NL - nq))):
                grid = {ax: [-_axis_halfwidth(rng, ax, 1.5, 3.0),
                             _axis_halfwidth(rng, ax, 1.5, 3.0), M2D_SIDE] for ax in plane}
                ops.append({"kind": "marginal2d", "plane": list(plane), "n": n, "l": l,
                            "grid": grid, "fmt": self._fmt(rng),
                            "sample": self._sample(rng, M2D_SIDE ** 2)})
            n0, l0 = next(tables)
            ops.append({"kind": "uncertainty", "n": [n0, n0 + 1], "l": [l0, l0 + 1],
                        "fmt": self._fmt(rng)})
            rounds.append([ops[i] for i in rng.permutation(len(ops))])
        return rounds

    @staticmethod
    def _fmt(rng):
        return "json" if rng.random() < 0.5 else "csv"

    @staticmethod
    def _sample(rng, size):
        """Indices of the points checked against the quadrature oracle."""
        return sorted(rng.choice(size, 2, replace=False).tolist())

    def _eval4d(self, rng, label):
        counts = rng.permutation(EVAL4D_COUNTS)
        grid = {}
        for ax, count in zip(AXES, counts):
            h = _axis_halfwidth(rng, ax, 1.0, 2.5)
            grid[ax] = [-h, h, int(count)]
        return {"kind": "eval4d", "label": label, "grid": grid, "fmt": self._fmt(rng)}

    # -- running -------------------------------------------------------------

    def run(self, op, ctx, workdir, check):
        kind = op["kind"]
        out_path = workdir / f"out.{op['fmt']}"
        if kind == "eval4d":
            args = ["eval", op["label"], "--grid=" + _grid_text(op["grid"])]
        elif kind == "marginal1d":
            lo, hi, count = op["grid"]
            args = ["eval", f"marginal1d:{op['axis']}", f"wigner:{op['n']},{op['l']}",
                    f"--grid={_num(lo)}:{_num(hi)}:{count}"]
        elif kind == "marginal2d":
            args = ["eval", "marginal2d:" + ",".join(op["plane"]), f"wigner:{op['n']},{op['l']}",
                    "--grid=" + _grid_text(op["grid"])]
        else:
            args = ["uncertainty", "%d..%d" % tuple(op["n"]), "%d..%d" % tuple(op["l"])]
        argv = ["--format", op["fmt"], "--out", str(out_path)] + args

        t0 = time.perf_counter()
        code = _cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            return Outcome("cli", seconds, verdict=ERROR, detail=f"exit {code}: {argv}")
        rows, text = _read_table(out_path, op["fmt"])
        out_path.unlink()
        out = Outcome("cli", seconds, points=len(rows), digest=_digest(text))
        if check:
            self._check(op, rows, out)
        return out

    def _check(self, op, rows, out):
        kind = op["kind"]
        known = False
        if kind == "eval4d":
            axes = _grid_axes(op["grid"])
            mesh = [m.reshape(-1) for m in np.meshgrid(*axes.values(), indexing="ij")]
            a, b = oracles.mode_coords(*mesh)
            kind_, _, rest = op["label"].partition(":")
            if kind_ == "wigner":
                n, l = (int(v) for v in rest.split(","))
                want = oracles.wigner(n, l, a, b)
            else:
                v = [float(x) for x in rest.split(",")]
                want = oracles.coherent(complex(v[0], v[1]), complex(v[2], v[3]), a, b)
            err = max(_close(rows[:, :4], np.stack(mesh, axis=1), 1e-12, 1e-12),
                      _close(rows[:, 4], want, 1e-9, 1e-9))
        elif kind == "marginal1d":
            x = np.linspace(float(_num(op["grid"][0])), float(_num(op["grid"][1])), op["grid"][2])
            idx = op["sample"]
            want = oracles.marginal_1d(op["n"], op["l"], op["axis"], x[idx], PARAMS)
            err = max(_close(rows[:, 0], x, 1e-12, 1e-12),
                      _close(rows[idx, 1], want, 1e-6, 1e-8))
            known = op["n"] + op["l"] >= M1D_CANCELLATION_NL
        elif kind == "marginal2d":
            axes = _grid_axes(op["grid"])
            x, y = (m.reshape(-1) for m in np.meshgrid(*axes.values(), indexing="ij"))
            idx = op["sample"]
            want = oracles.marginal_2d(op["n"], op["l"], tuple(op["plane"]), x[idx], y[idx], PARAMS)
            err = max(_close(rows[:, 0], x, 1e-12, 1e-12), _close(rows[:, 1], y, 1e-12, 1e-12),
                      _close(rows[idx, 2], want, 1e-8, 1e-10))
        else:
            n_lo, n_hi = op["n"]
            l_lo, l_hi = op["l"]
            nl = [(n, l) for n in range(n_lo, n_hi + 1) for l in range(l_lo, l_hi + 1)]
            want = np.array([oracles.uncertainty_product(n, l) for n, l in nl])
            got = rows[:, 4] if len(rows) == len(nl) else np.array([])
            err = max(_close(rows[:, :2], np.array(nl, dtype=float), 0.0, 1e-12),
                      _close(got, want, 1e-8, 0.0),
                      _close(rows[:, 5], got - 0.5 * PARAMS.hbar, 1e-12, 1e-12))
            missed = [(n, l) for (n, l), w, g in zip(nl, want, got)
                      if not abs(g - w) <= 1e-8 * w]
            known = bool(missed) and all(n + l >= M1D_CANCELLATION_NL for n, l in missed)
        if err > 1.0:
            out.verdict = KNOWN if known else MISS
            out.detail = f"{kind} {op.get('n')},{op.get('l')}: error/tolerance {err:.3g}"


# ---------------------------------------------------------------------------
# fock: dense cutoff^4 states, star-polynomial queries, pointwise and JSON IO
# ---------------------------------------------------------------------------

CUTOFFS = (16, 24, 32)
STATE_KINDS = ("wigner", "coherent", "gencoherent")
# Dumps are dense: N^4 entries for coherent states.  A round trip at cutoff
# 24 or 32 takes 8 to 20 s on a 2-core x86 machine, longer than a run can
# spend on one operation, so the JSON path is exercised on the cutoff-16
# states.
IO_CUTOFF = 16
# An unflagged state may drop tail weight up to states.TAIL_TOLERANCE (1e-12),
# i.e. amplitudes up to 1e-6.  A Wigner function is bilinear in the state and
# bounded by 4, so its values can move by up to 8 * sqrt(1e-12).
FOCK_VALUE_ATOL = 8e-6
FOCK_EVAL_COUNTS = (4, 4, 3, 3)


def _random_observables(rng, lengths):
    """Random star monomials p = c*w with |w| in ``lengths``; each observable is p + conj(p).

    Half of all the letters act on each mode: a left action on the second
    mode is a batch of small matrix products and costs more than one on the
    first, so an even split keeps the cost of a state's queries steady.
    """
    total = sum(lengths)
    modes = rng.permutation([i % 2 for i in range(total)])
    letters = [_star.GENERATORS[2 * m + int(bar)]
               for m, bar in zip(modes, rng.integers(0, 2, size=total))]
    out, at = [], 0
    for n in lengths:
        out.append([[float(rng.normal()), float(rng.normal()), letters[at:at + n]]])
        at += n
    return out


def _observable(spec, coords):
    if isinstance(spec, str):
        return coords[spec]
    p = _star.StarPolynomial.from_terms((complex(re, im), tuple(w)) for re, im, w in spec)
    return p + p.conjugate()


class Fock(Workload):
    """Per state: build, query, evaluate through the Fock route, dump and load."""

    name = "fock"
    rounds_planned = 40
    latency_kinds = ("expectation", "variance", "rs_slack")

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        states = [(c, k) for c in CUTOFFS for k in STATE_KINDS]
        rounds = []
        for _ in range(self.rounds_planned):
            ops = []
            for i in rng.permutation(len(states)):
                cutoff, kind = states[i]
                n, l = (int(v) for v in rng.integers(0, 7, size=2))
                a1, a2 = _alpha_text(rng), _alpha_text(rng)
                label = {"wigner": f"wigner:{n},{l}", "coherent": f"coherent:{a1},{a2}",
                         "gencoherent": f"gencoherent:{n},{l}:{a1},{a2}"}[kind]
                j = int(rng.integers(1, 3))
                # the operations after a build act on the state it built
                ops.append({"kind": "build", "label": label, "cutoff": cutoff})
                # word lengths are fixed per query so that every round costs
                # about the same; the letters and coefficients are random
                e, v, f, g = _random_observables(rng, (3, 2, 1, 2))
                ops.append({"kind": "expectation", "f": e})
                ops.append({"kind": "variance", "f": v})
                ops.append({"kind": "rs_slack", "f": f"q{j}", "g": f"p{j}"})
                ops.append({"kind": "rs_slack", "f": f, "g": g})
                if kind == "gencoherent":
                    grid = {ax: [-_axis_halfwidth(rng, ax, 1.0, 2.5),
                                 _axis_halfwidth(rng, ax, 1.0, 2.5), k]
                            for ax, k in zip(AXES, FOCK_EVAL_COUNTS)}
                    ops.append({"kind": "fock_eval", "grid": grid})
                if cutoff == IO_CUTOFF:
                    ops.append({"kind": "state_io"})
            rounds.append(ops)
        return rounds

    @staticmethod
    def _state_tuple(label):
        if isinstance(label, _states.WignerLabel):
            return ("wigner", label.n, label.l)
        if isinstance(label, _states.CoherentLabel):
            return ("coherent", label.alpha1, label.alpha2)
        return ("gencoherent", label.base.n, label.base.l, label.alpha1, label.alpha2)

    def run(self, op, ctx, workdir, check):
        kind = op["kind"]
        if kind == "build":
            ctx.clear()
            label = _states.parse_state_label(op["label"])
            t0 = time.perf_counter()
            rep = _states.state_fock(label, op["cutoff"])
            seconds = time.perf_counter() - t0
            ctx["state"] = (rep, op, label)
            out = Outcome(kind, seconds, digest=_digest(rep.coeffs), overflowed=rep.overflow)
            if check and not abs(rep.trace() - 1.0) <= 1e-9:
                out.verdict = KNOWN if rep.overflow else MISS
                out.detail = f"{op['label']} at cutoff {op['cutoff']}: trace {rep.trace()}"
            return out
        rep, build, label = ctx["state"]
        if kind in self.latency_kinds:
            return self._query(op, rep, build, label, check)
        if kind == "fock_eval":
            return self._fock_eval(op, rep, build, label, workdir, check)
        return self._state_io(rep, build, workdir, check)

    def _query(self, op, rep, build, label, check):
        kind = op["kind"]
        coords = _unc.coordinate_polynomials(PARAMS)
        f = _observable(op["f"], coords)
        g = _observable(op["g"], coords) if "g" in op else None
        s = _unc.StateFunctional(rep, PARAMS)
        t0 = time.perf_counter()
        if kind == "expectation":
            got = _unc.expectation(f, s)
        elif kind == "variance":
            got = _unc.variance(f, s)
        else:
            got = _unc.robertson_schrodinger_slack(f, g, s)
        seconds = time.perf_counter() - t0
        out = Outcome(kind, seconds, digest=_digest(got), overflowed=rep.overflow)
        if check:
            state = self._state_tuple(label)
            if kind == "expectation":
                want, scale = oracles.expectation_with_scale(f, state)
            elif kind == "variance":
                want, scale = oracles.variance(f, state)
            else:
                want, scale = oracles.rs_slack(f, g, state)
            if not abs(got - want) <= 1e-8 * scale:
                out.verdict = KNOWN if rep.overflow else MISS
                out.detail = (f"{kind} on {build['label']} at cutoff {build['cutoff']}: "
                              f"{got} vs {want}")
        return out

    def _fock_eval(self, op, rep, build, label, workdir, check):
        out_path = workdir / "fock_eval.csv"
        argv = ["--cutoff", str(build["cutoff"]), "--out", str(out_path), "eval", build["label"],
                "--grid=" + _grid_text(op["grid"])]
        t0 = time.perf_counter()
        code = _cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            return Outcome("fock_eval", seconds, verdict=ERROR, detail=f"exit {code}: {argv}")
        rows, text = _read_table(out_path, "csv")
        out_path.unlink()
        out = Outcome("fock_eval", seconds, points=len(rows), digest=_digest(text),
                      overflowed=rep.overflow)
        if check:
            a, b = oracles.mode_coords(*(rows[:, i] for i in range(4)))
            want = oracles.displaced_wigner(label.base.n, label.base.l,
                                            label.alpha1, label.alpha2, a, b)
            axes = _grid_axes(op["grid"])
            mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes.values(), indexing="ij")],
                            axis=1)
            err = max(_close(rows[:, :4], mesh, 1e-12, 1e-12),
                      _close(rows[:, 4], want, 0.0, FOCK_VALUE_ATOL))
            if err > 1.0:
                out.verdict = KNOWN if rep.overflow else MISS
                out.detail = (f"fock_eval {build['label']} at cutoff {build['cutoff']}: "
                              f"error/tolerance {err:.3g}")
        return out

    def _state_io(self, rep, build, workdir, check):
        dump_path, load_path = workdir / "state.json", workdir / "state_reloaded.json"
        dump = ["--cutoff", str(build["cutoff"]), "--out", str(dump_path),
                "state", "dump", build["label"]]
        load = ["--out", str(load_path), "state", "load", str(dump_path)]
        t0 = time.perf_counter()
        codes = (_cli.main(dump), _cli.main(load))
        seconds = time.perf_counter() - t0
        if codes != (0, 0):
            return Outcome("state_io", seconds, verdict=ERROR, detail=f"exit {codes}")
        dumped = dump_path.read_bytes()
        reloaded = load_path.read_bytes()
        dump_path.unlink()
        load_path.unlink()
        out = Outcome("state_io", seconds, digest=_digest(dumped), overflowed=rep.overflow)
        if check:
            doc = json.loads(dumped)
            coeffs = np.zeros_like(rep.coeffs)
            for m1, n1, m2, n2, re, im in doc["entries"]:
                coeffs[m1, n1, m2, n2] = complex(re, im)
            if reloaded != dumped or doc["cutoff"] != rep.cutoff \
                    or not np.array_equal(coeffs, rep.coeffs):
                out.verdict = MISS
                out.detail = f"state round trip of {build['label']} is not exact"
        return out

    def work_units(self, outcomes):
        queries = [o for o in outcomes if o.kind in self.latency_kinds]
        return len(queries), sum(o.seconds for o in queries)

    def latency_ms(self, outcomes):
        """Time of each state's four queries together.

        Single queries fall into a dozen cost levels (query kind x cutoff)
        whose order shifts with the machine, so their median sits on a step
        between two levels.  A state's query set costs about 100 ladder
        actions on an N^4 tensor: three well-separated levels, one per cutoff.
        """
        out = []
        for o in outcomes:
            if o.kind == "build":
                out.append(0.0)
            elif o.kind in self.latency_kinds:
                out[-1] += 1e3 * o.seconds
        return out


WORKLOADS = {w.name: w for w in (Verify(), Densities(), Fock())}


def run_rounds(workload, rounds, budget_s, workdir, check):
    """Run whole rounds until the budget is spent, to the nearest round.

    Another round starts while it is expected to end no more than half a
    round past the budget, judged by the last round's wall time, so runs
    measure the budget on average whatever a round costs.  At least one
    round always runs.  An operation that raises, or whose
    output cannot be read, is recorded as an error and the run goes on.
    Returns the outcomes of each round run.
    """
    done = []
    start = time.monotonic()
    last = 0.0
    for ops in rounds:
        began = time.monotonic()
        if done and began - start + last / 2 > budget_s:
            break
        ctx = {}
        outcomes = []
        for op in ops:
            try:
                outcomes.append(workload.run(op, ctx, workdir, check))
            except Exception as exc:  # counted as a failed operation
                outcomes.append(Outcome(op["kind"], 0.0, verdict=ERROR, detail=repr(exc)))
        done.append(outcomes)
        last = time.monotonic() - began
    return done
