"""Self-tests of the benchmark: inputs, span arithmetic, tracer and oracles.

    python3 -m pytest perfbench -q

Not part of the package's test suite; they take no timings.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cli = importlib.import_module("landaustar.cli")
marginals = importlib.import_module("landaustar.marginals")
states = importlib.import_module("landaustar.states")
unc = importlib.import_module("landaustar.uncertainty")
PARAMS = workloads.PARAMS


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    first = json.dumps(w.plan(7))
    assert json.dumps(w.plan(7)) == first
    if name != "verify":  # verify takes no inputs beyond the suite order
        assert json.dumps(w.plan(8)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_mix(name):
    rounds = workloads.WORKLOADS[name].plan(3)
    mixes = {tuple(sorted(op["kind"] for op in ops)) for ops in rounds}
    assert len(mixes) == 1


def test_marginal_quantum_numbers_cover_the_range():
    rounds = workloads.WORKLOADS["densities"].plan(5)[:60]
    m1d = [op for ops in rounds for op in ops if op["kind"] == "marginal1d"]
    assert sorted({op["n"] for op in m1d}) == sorted({op["l"] for op in m1d}) == list(range(31))
    assert max(op["n"] + op["l"] for op in m1d) >= 45
    rows = {v for ops in rounds for op in ops if op["kind"] == "uncertainty" for v in op["n"]}
    assert rows == set(range(25))


def test_densities_rounds_cost_the_same():
    for seed in (1, 2):
        rounds = workloads.WORKLOADS["densities"].plan(seed)
        for ops in rounds[:100]:
            m1d = sorted(workloads._hermite_sum_cost(op["n"], op["l"])
                         for op in ops if op["kind"] == "marginal1d")
            for cost, (target, tol) in zip(m1d, workloads.M1D_BANDS):
                assert abs(cost - target) <= tol * target


# -- span arithmetic ----------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    self_s, total = tracer.self_times(start, end, parent)
    assert self_s == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert total == pytest.approx([10.0, 3.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 2.0, 4.0, 9.0]
    end = [10.0, 5.0, 8.0, 12.0]   # the last child runs past its parent
    parent = [-1, 0, 0, 0]
    self_s, _ = tracer.self_times(start, end, parent)
    assert self_s[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 201))
    assert stats.tail(xs, 90.0) == (180, 90.0)
    assert stats.tail(xs[:100], 90.0) == (90, 90.0)
    assert stats.tail(xs[:99], 90.0) == (99, 100.0)
    assert stats.tail([3.0, 1.0, 2.0], 90.0) == (3.0, 100.0)
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- tracer -------------------------------------------------------------------

def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "landaustar" or name.startswith("landaustar."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    return out


def test_tracer_rebinds_every_alias_and_restores_them(tmp_path):
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # `from .star import fock_to_json_dict` copied the function into cli,
        # and the package attribute `landaustar.star` is the star function
        assert cli.fock_to_json_dict is not before[("landaustar.cli", "fock_to_json_dict")]
        assert sys.modules["landaustar"].star is not before[("landaustar", "star")]
        rep = states.state_fock(states.CoherentLabel(0.3, -0.2j), 8)
        s = unc.StateFunctional(rep, PARAMS)
        unc.variance(unc.coordinate_polynomials(PARAMS)["q1"], s)
        out = tmp_path / "state.json"
        assert cli.main(["--cutoff", "8", "--out", str(out), "state", "dump", "wigner:1,2"]) == 0
    finally:
        t.uninstall()
    assert _bindings() == before
    m = t.layer_metrics()
    assert m["states.construct.calls"] == 2   # state_fock's inner coherent_fock is not counted
    assert m["uncertainty.variance.calls"] == 1
    assert m["uncertainty.inner_product.calls"] == 1
    assert m["uncertainty.expectation.calls"] == 2
    # q1 is a sum of four one-letter words; variance applies q1 or its
    # conjugate four times
    assert m["star.apply.ladder_actions"] == 4 * 4
    assert m["star.json.entries"] == 1
    assert m["cli.cmd.calls"] == 1 and m["cli.emit.calls"] == 1
    for layer in ("states.construct", "uncertainty.variance", "star.apply"):
        assert 0.0 <= m[f"{layer}.self_s"] <= m[f"{layer}.wall_s"]


def test_traced_and_untraced_answers_match(tmp_path):
    w = workloads.WORKLOADS["densities"]
    ops = w.plan(11)[0]
    plain = [w.run(op, {}, tmp_path, check=False).digest for op in ops]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [w.run(op, {}, tmp_path, check=False).digest for op in ops]
    finally:
        t.uninstall()
    assert traced == plain
    m = t.layer_metrics()
    # four 1D marginals, and two per row of the 2 x 2 uncertainty table
    assert m["marginals.m1d.calls"] == 4 + 2 * 4 and m["cli.cmd.calls"] == len(ops)
    assert "star.apply.calls" not in m


def test_benchmark_json_names_what_the_tracer_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {"calls", "self_s", "wall_s", "ladder_actions", "bytes", "entries", "points",
               "overflowed"}
    for m in spec["per_layer"]:
        layer, _, metric = m["name"].rpartition(".")
        if layer == "trace":
            continue
        assert layer in tracer.LAYERS and metric in metrics, m["name"]
        assert metric in ("calls", "self_s", "wall_s") or layer in tracer.COUNTERS, m["name"]


# -- oracles against production routes on cases known to be good ---------------

ALPHAS = (0.5 - 0.4j, -0.3 + 0.6j, 0.7, -0.2j)


def _points(rng, count=40):
    q = rng.uniform(-2.0, 2.0, size=(2, count))
    p = rng.uniform(-1.2, 1.2, size=(2, count))
    return q[0], q[1], p[0], p[1]


def test_closed_form_oracles_match_the_package():
    rng = np.random.default_rng(1)
    pts = _points(rng)
    a, b = oracles.mode_coords(*pts)
    a_pkg, b_pkg = importlib.import_module("landaustar.phase_space").mode_coords_arrays(
        *pts, PARAMS)
    assert np.allclose(a, a_pkg, atol=1e-15) and np.allclose(b, b_pkg, atol=1e-15)
    for n in range(7):
        for l in range(7):
            assert np.allclose(oracles.wigner(n, l, a, b),
                               np.real(states.wigner_values(n, l, a, b)), atol=1e-12)
    for a1, a2 in zip(ALPHAS, ALPHAS[::-1]):
        label = states.CoherentLabel(a1, a2)
        assert np.allclose(oracles.coherent(a1, a2, a, b), states.coherent_values(label, a, b),
                           atol=1e-14)


def test_displaced_wigner_matches_the_fock_route():
    rng = np.random.default_rng(2)
    a, b = oracles.mode_coords(*_points(rng, 25))
    for n, l in ((0, 0), (2, 1), (6, 6)):
        label = states.GeneralizedCoherentLabel(ALPHAS[0], ALPHAS[1], states.WignerLabel(n, l))
        rep = states.state_fock(label, 24)
        assert not rep.overflow
        got = np.real(states.fock_values(rep, a, b))
        assert np.allclose(got, oracles.displaced_wigner(n, l, ALPHAS[0], ALPHAS[1], a, b),
                           atol=1e-9)


def _state_cases():
    yield states.WignerLabel(3, 5), ("wigner", 3, 5)
    yield states.CoherentLabel(ALPHAS[0], ALPHAS[2]), ("coherent", ALPHAS[0], ALPHAS[2])
    base = states.WignerLabel(2, 6)
    yield (states.GeneralizedCoherentLabel(ALPHAS[1], ALPHAS[3], base),
           ("gencoherent", 2, 6, ALPHAS[1], ALPHAS[3]))


def test_moment_oracles_match_the_trace_route():
    rng = np.random.default_rng(3)
    coords = unc.coordinate_polynomials(PARAMS)
    for label, state in _state_cases():
        s = unc.StateFunctional(states.state_fock(label, 24), PARAMS)
        for _ in range(4):
            f, g = (workloads._observable(spec, coords)
                    for spec in workloads._random_observables(rng, (3, 2)))
            want, scale = oracles.expectation_with_scale(f, state)
            assert abs(unc.expectation(f, s) - want) <= 1e-10 * scale
            want, scale = oracles.variance(f, state)
            assert abs(unc.variance(f, s) - want) <= 1e-10 * scale
            want, scale = oracles.rs_slack(f, g, state)
            assert abs(unc.robertson_schrodinger_slack(f, g, s) - want) <= 1e-10 * scale
        want, scale = oracles.rs_slack(coords["q1"], coords["p1"], state)
        got = unc.robertson_schrodinger_slack(coords["q1"], coords["p1"], s)
        assert abs(got - want) <= 1e-10 * scale


def test_marginal_oracles_match_the_closed_forms():
    x = np.array([-1.7, -0.2, 0.9, 2.4])
    for n, l in ((0, 0), (3, 1), (6, 6)):
        for axis in marginals.AXES:
            assert np.allclose(marginals.marginal_1d(n, l, axis, x, PARAMS),
                               oracles.marginal_1d(n, l, axis, x, PARAMS), rtol=1e-9, atol=1e-12)
        for plane in (("q1", "q2"), ("q1", "p2"), ("p1", "p2")):
            assert np.allclose(marginals.marginal_2d(n, l, plane, x, x[::-1], PARAMS),
                               oracles.marginal_2d(n, l, plane, x, x[::-1], PARAMS),
                               rtol=1e-10, atol=1e-13)
        product = unc.uncertainty_product(n, l, 1, PARAMS)
        assert math.isclose(product, oracles.uncertainty_product(n, l), rel_tol=1e-10)


def test_a_densities_round_checks_clean_below_the_known_defect(tmp_path):
    w = workloads.WORKLOADS["densities"]
    for op in w.plan(4)[0]:
        if op["kind"] in ("marginal1d", "marginal2d"):
            op = dict(op, n=op["n"] % 7, l=op["l"] % 7)
        elif op["kind"] == "uncertainty":
            n0, l0 = op["n"][0] % 6, op["l"][0] % 6
            op = dict(op, n=[n0, n0 + 1], l=[l0, l0 + 1])
        out = w.run(op, {}, tmp_path, check=True)
        assert out.verdict == workloads.OK, out.detail
