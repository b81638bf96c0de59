import hashlib
import importlib
import itertools
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.special import eval_laguerre

from landaustar import checks, cli, states
from landaustar.cli import main
from landaustar.marginals import axis_norm, marginal_1d_quadrature
from landaustar.phase_space import PhysParams, mode_coords_arrays

PARAMS = PhysParams()


def translate_reference(n, l, alpha1, alpha2, q1, q2=0.0, p1=0.0, p2=0.0):
    """(n, l) Wigner function shifted by (alpha1, alpha2) in mode space, by SciPy."""
    a, b = mode_coords_arrays(q1, q2, p1, p2, PARAMS)
    xa, xb = 4.0 * abs(a - alpha1) ** 2, 4.0 * abs(b - alpha2) ** 2
    return ((-1.0) ** (n + l) * 4.0 * eval_laguerre(n, xa) * eval_laguerre(l, xb)
            * np.exp(-0.5 * (xa + xb)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_wigner_grid(capsys):
    code, out, _ = run_cli(capsys, "eval", "wigner:0,0",
                           "--grid", "q1=-3:3:7,q2=0,p1=0,p2=0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1,q2,p1,p2,value"
    assert len(lines) == 8
    center = lines[4].split(",")
    assert float(center[0]) == 0.0
    assert float(center[4]) == 4.0


def test_eval_marginal_even_positive(capsys):
    code, out, _ = run_cli(capsys, "eval", "marginal1d:q1", "wigner:1,1",
                           "--grid", "-4:4:81")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    vals = np.array([float(r[1]) for r in rows])
    assert len(vals) == 81
    assert np.all(vals > 0)
    # grid endpoints differ in the last ulp, so evenness holds to rounding
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-12)


def test_eval_marginal_center_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "marginal1d:q1", "wigner:2,1",
                           "--grid", "0")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[1])
    assert value == pytest.approx(7.0 * axis_norm("q1", PARAMS) / 4.0, rel=1e-15)


def test_eval_unit_norm_divides_by_h_squared(capsys):
    _, plain, _ = run_cli(capsys, "eval", "marginal1d:q1", "wigner:1,0", "--grid", "0.5")
    _, scaled, _ = run_cli(capsys, "eval", "marginal1d:q1", "wigner:1,0",
                           "--grid", "0.5", "--unit-norm")
    v_plain = float(plain.strip().splitlines()[1].split(",")[1])
    v_scaled = float(scaled.strip().splitlines()[1].split(",")[1])
    assert v_scaled == pytest.approx(v_plain / PARAMS.planck_h ** 2, rel=1e-15)


def test_eval_marginal2d(capsys):
    code, out, _ = run_cli(capsys, "eval", "marginal2d:q1,q2", "wigner:1,0",
                           "--grid", "q1=-2:2:5,q2=-2:2:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1,q2,value"
    assert len(lines) == 26
    assert all(float(line.split(",")[2]) >= 0.0 for line in lines[1:])


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "eval", "marginal1d:q1",
                           "wigner:1,1", "--grid", "-1:1:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "q1" and doc["n"] == 1 and doc["l"] == 1
    assert doc["params"] == {"hbar": 1.0, "mass": 1.0, "omega": 1.0}
    assert len(doc["points"]) == 3


def test_eval_coherent_state(capsys):
    code, out, _ = run_cli(capsys, "eval", "coherent:0,0,0,0",
                           "--grid", "q1=0,q2=0,p1=0,p2=0")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(4.0)


def test_eval_generalized_coherent_state(capsys):
    code, out, _ = run_cli(capsys, "eval", "gencoherent:1,0:0,0,0,0",
                           "--grid", "q1=0,q2=0,p1=0,p2=0", "--cutoff", "12")
    assert code == 0
    # zero displacement reduces to the (1, 0) Wigner value at the origin
    assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(-4.0)


def test_eval_rejects_marginal_of_coherent(capsys):
    code, _, err = run_cli(capsys, "eval", "marginal1d:q1", "coherent:1,0,0,0",
                           "--grid", "0")
    assert code == 2
    assert "wigner" in err


@pytest.mark.parametrize("label,form", [
    ("wigner:2", "wigner:n,l"),
    ("coherent:1,x,0,0", "coherent:re1,im1,re2,im2"),
    ("gencoherent:1,1", "gencoherent:n,l:re1,im1,re2,im2"),
])
def test_malformed_label_names_its_form(capsys, label, form):
    """A label without its kind's form is refused with that form, not with
    the text of a failed number conversion."""
    code, out, err = run_cli(capsys, "eval", label, "--grid", "q1=0")
    assert code == 2 and out == ""
    assert err.strip() == f"error: malformed state label {label!r}: expected {form}"


def test_eval_label_cutoff_conflict(capsys):
    """n = 40 past the default cutoff 32 was refused, though eval reads no cutoff."""
    code, out, _ = run_cli(capsys, "eval", "wigner:40,0", "--grid", "q1=0:0.9:4")
    assert code == 0
    q1, vals = _rows(out)[:, 0], _rows(out)[:, 4]
    np.testing.assert_allclose(vals, translate_reference(40, 0, 0j, 0j, q1),
                               rtol=1e-12, atol=0.0)


def test_eval_translate_is_exact_at_large_displacement(capsys):
    """The Fock route at cutoff 8 printed -2.13 here with exit 0."""
    code, out, _ = run_cli(capsys, "--cutoff", "8", "eval", "gencoherent:1,0:5,0,0,0",
                           "--grid", "q1=0")
    assert code == 0
    want = translate_reference(1, 0, 5.0 + 0j, 0j, 0.0)
    assert want == pytest.approx(7.6378e-20, rel=1e-4)
    assert _rows(out)[0, 4] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eval_output_does_not_depend_on_cutoff(capsys):
    argv = ("eval", "gencoherent:3,2:1.9,1.9,0.3,-1.2", "--grid", "q1=0:1:3")
    code, small, _ = run_cli(capsys, "--cutoff", "2", *argv)
    assert code == 0
    code, large, _ = run_cli(capsys, "--cutoff", "128", *argv)
    assert code == 0
    assert small == large


def test_eval_builds_no_fock_state(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a Fock state")

    for module in (states, cli):
        for name in ("state_fock", "fock_values"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for label in ("wigner:2,1", "coherent:1,0,0,-0.5", "gencoherent:1,2:0.6,-0.3,0.2,0.5"):
        code, out, _ = run_cli(capsys, "eval", label, "--grid", "q1=-1:1:3,p2=0.5")
        assert code == 0
        assert _rows(out).shape == (3, 5)


@pytest.mark.parametrize("label", ["wigner:151,0", "gencoherent:0,151:0,0,0,0"])
def test_eval_refuses_quantum_numbers_past_150(capsys, label):
    """eval reads no cutoff: the bound is 150 at any cutoff, the default included."""
    for cutoff in (("--cutoff", "200"), ()):
        code, out, err = run_cli(capsys, *cutoff, "eval", label, "--grid", "q1=0")
        assert code == 2
        assert out == ""
        assert "out of range" in err and "150" in err


def test_state_dump_refuses_a_label_past_the_cutoff(capsys):
    """state dump writes a Fock tensor, so it alone reads --cutoff."""
    code, out, err = run_cli(capsys, "--cutoff", "8", "state", "dump", "wigner:7,0")
    assert code == 3
    assert out == ""
    assert "cutoff 8" in err


def test_state_documents_past_the_cutoff_bound_are_refused_at_once(tmp_path, capsys):
    """A cutoff-1000 tensor would take 14.6 TiB; the bound refuses it unallocated."""
    path = tmp_path / "big.json"
    path.write_text('{"cutoff": 1000, "entries": []}', encoding="utf-8")
    for argv, want in ((("state", "load", str(path)), 2),
                       (("--cutoff", "1000", "state", "dump", "wigner:0,0"), 3)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == want and out == "" and "1000" in err and "32" in err


@pytest.mark.parametrize("plane", ["q1,q1", "q1", "q1,q2,p1", "q1,x1"])
def test_eval_refuses_an_unknown_plane(capsys, plane):
    code, out, err = run_cli(capsys, "eval", f"marginal2d:{plane}", "wigner:1,0",
                             "--grid", "q1=0")
    assert code == 2 and out == ""
    assert err == f"error: unknown marginal plane {plane!r}\n"


def test_eval_bad_grid(capsys):
    code, _, err = run_cli(capsys, "eval", "wigner:0,0", "--grid", "q9=0")
    assert code == 2
    assert "axis" in err


def test_uncertainty_table(capsys):
    code, out, _ = run_cli(capsys, "uncertainty", "0..2", "0..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,dq1,dp1,product,bound_gap"
    assert len(lines) == 10
    products = [float(line.split(",")[4]) for line in lines[1:]]
    want = [0.5 * (n + l + 1) for n in range(3) for l in range(3)]
    np.testing.assert_allclose(products, want, rtol=1e-10)


def test_uncertainty_single_cell(capsys):
    code, out, _ = run_cli(capsys, "uncertainty", "0", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[4]) == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("argv", [("uncertainty", "1..0", "0..2"),
                                  ("--format", "json", "uncertainty", "3..1", "0"),
                                  ("uncertainty", "3..1", "0")])
def test_uncertainty_reversed_range_is_refused(capsys, argv):
    """A reversed range is an input error, not an empty table with exit 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "reversed range" in err and repr(argv[-2]) in err


def test_uncertainty_range_conflict(capsys):
    """--cutoff 4 refused n up to 6, though the moments read no cutoff."""
    code, out, _ = run_cli(capsys, "--cutoff", "4", "uncertainty", "0..6", "0")
    assert code == 0
    rows = _rows(out)
    np.testing.assert_allclose(rows[:, 4], 0.5 * (rows[:, 0] + 1.0), rtol=1e-10)


def test_equalities_sweep(capsys):
    code, out, _ = run_cli(capsys, "equalities")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,q1_over_gamma,residual_position_plane,residual_mixed_plane"
    assert len(lines) == 13
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) <= 1e-8
        assert float(parts[4]) <= 1e-8


def test_equalities_rejects_bad_pair(capsys):
    code, out, err = run_cli(capsys, "equalities", "--pairs", "1,2")
    assert code == 2 and out == ""
    assert "pair (1, 2)" in err and "n >= l" in err


def test_state_dump_load_round_trip(tmp_path, capsys):
    code, dumped, _ = run_cli(capsys, "state", "dump", "coherent:1,0,0,0",
                              "--cutoff", "16")
    assert code == 0
    doc = json.loads(dumped)
    assert doc["cutoff"] == 16
    # diagonal entries are real and positive for a coherent projector
    diag = [e for e in doc["entries"] if e[0] == e[1] and e[2] == e[3]]
    assert diag and all(e[4] > 0 and e[5] == 0.0 for e in diag)

    path = tmp_path / "state.json"
    path.write_text(dumped, encoding="utf-8")
    code, reloaded, _ = run_cli(capsys, "state", "load", str(path))
    assert code == 0
    assert reloaded == dumped


# sha256 of unflagged state documents, captured before a document could carry
# the overflow key: a state without the flag keeps its bytes
@pytest.mark.parametrize("label, digest", [
    ("wigner:3,2", "3ef520c58c5c593b05331ae2570940a7bf9ee5731cfb231c269cf32ef08aef12"),
    ("gencoherent:2,1:0.4,-0.3,0.2,0.5",
     "ca97dadb0e86cea25704ece8861a627555180333956d6e874ef403f63c2bae59"),
])
def test_unflagged_state_documents_keep_their_bytes(tmp_path, capsys, label, digest):
    """The document written by --out has these bytes, and loading it writes them again."""
    dumped, reloaded = tmp_path / "state.json", tmp_path / "reloaded.json"
    code, out, _ = run_cli(capsys, "--cutoff", "16", "--out", str(dumped), "state", "dump", label)
    assert code == 0 and out == ""
    text = dumped.read_bytes()
    assert b'"overflow"' not in text
    assert hashlib.sha256(text).hexdigest() == digest
    code, _, _ = run_cli(capsys, "--out", str(reloaded), "state", "load", str(dumped))
    assert code == 0 and reloaded.read_bytes() == text


def test_a_flagged_state_keeps_its_flag_through_a_document(tmp_path, capsys):
    """A document dropped the overflow flag, so a truncated state read as exact
    after a dump and a load."""
    flagged, reloaded = tmp_path / "flagged.json", tmp_path / "flagged_reloaded.json"
    code, _, _ = run_cli(capsys, "--cutoff", "16", "--out", str(flagged), "state", "dump",
                         "coherent:5,0,0,0")
    assert code == 0 and flagged.read_bytes().endswith(b'], "overflow": true}\n')
    code, _, _ = run_cli(capsys, "--out", str(reloaded), "state", "load", str(flagged))
    assert code == 0 and reloaded.read_bytes() == flagged.read_bytes()


def test_state_load_truncated_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"cutoff": 4, "entries": [[0, 0, 0,', encoding="utf-8")
    code, _, err = run_cli(capsys, "state", "load", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_state_load_bad_entry(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text('{"cutoff": 2, "entries": [[0, 0, 0, 5, 1.0, 0.0]]}',
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "state", "load", str(path))
    assert code == 2
    assert "position" in err or "range" in err


@pytest.mark.parametrize("text", [
    '{"cutoff": 4, "entries": [5]}',
    '{"cutoff": 4, "entries": null}',
    '{"cutoff": 4, "entries": [[0.7, 0, 0, 1.9, 1.0, 0.0]]}',
    '{"cutoff": 0, "entries": []}',
    '{"cutoff": 2, "entries": [], "overflow": false}',
    '{"cutoff": 2, "entries": [], "overflow": 1}',
    '{"cutoff": 2, "entries": [], "overflow": "true"}',
    '{"cutoff": 2, "entries": [], "overflow": null}',
    '{"cutoff": 2, "entries": [[0, 0, 0, 0, 1.0, 0.0]], "overflw": true}',
], ids=["entry-not-a-list", "entries-null", "fractional-index", "cutoff-zero",
        "overflow-false", "overflow-one", "overflow-string", "overflow-null", "misspelt-key"])
def test_state_load_rejects_malformed_document(tmp_path, capsys, text):
    path = tmp_path / "bad3.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "state", "load", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hbar_is_a_config_conflict(capsys, value):
    code, out, err = run_cli(capsys, "--hbar", value, "uncertainty", "0", "0")
    assert code == 3
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("label", ["coherent:nan,0,0,0", "gencoherent:1,0:inf,0,0,0"])
def test_eval_rejects_non_finite_displacement(capsys, label):
    code, out, err = run_cli(capsys, "eval", label, "--grid", "q1=0", "--cutoff", "8")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("eval", "wigner:0,0", "--grid", "q1=nan"),
    ("eval", "marginal1d:q1", "wigner:1,1", "--grid", "inf"),
    ("eval", "wigner:0,0", "--grid", "q1=0:inf:3"),
    ("equalities", "--pairs", "1,0", "--samples", "nan"),
])
def test_non_finite_grid_and_samples_are_input_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("eval", "marginal1d:p1", "wigner:1,1", "--grid", "1.7e308"),
    ("eval", "marginal2d:q1,p2", "wigner:1,1", "--grid", "q1=0,p2=1.7e308"),
    ("eval", "gencoherent:1,1:0,0,0,0", "--grid", "q1=1.7e308,p2=1.7e308"),
    ("eval", "wigner:0,0", "--grid", "q1=-1.7e308:0:3"),
])
def test_grid_values_beyond_1e300_are_input_errors(capsys, argv):
    """The coordinate scaling overflowed here and printed nan with exit 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "1e+300" in err


@pytest.mark.parametrize("argv", [
    ("eval", "marginal1d:p1", "wigner:1,1", "--grid", "1e300"),
    ("eval", "marginal2d:q1,p2", "wigner:1,1", "--grid", "q1=0,p2=1e300"),
    ("eval", "gencoherent:1,1:0,0,0,0", "--grid", "q1=1e300,p2=1e300"),
])
def test_grid_value_1e300_is_accepted_and_far(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _rows(out)[0, -1] == 0.0


@pytest.mark.parametrize("argv", [
    ("--mass", "1e-300", "eval", "marginal1d:p1", "wigner:1,1", "--grid", "1e300"),
    ("--hbar", "1e-300", "eval", "gencoherent:1,1:0,0,0,0", "--grid", "q1=1e300"),
    ("--hbar", "1e-300", "eval", "wigner:1,1", "--grid", "q1=1e300"),
])
def test_grid_values_beyond_1e305_axis_units_are_input_errors(capsys, argv):
    """Extreme units overflowed the coordinate scaling: nan, or 0 after a warning."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "axis units" in err


@pytest.mark.parametrize("pairs", ["30,30;100,0", "150,0", "30,30"])
def test_equalities_past_n_plus_l_16_are_input_errors(capsys, pairs):
    """The alternating sum cancelled to residuals of 1e12 or nan with exit 0."""
    for samples in (("--samples", "0,1"), ()):
        code, out, err = run_cli(capsys, "equalities", "--pairs", pairs, *samples)
        assert code == 2
        assert out == ""
        assert "n + l <= 16" in err


def test_equalities_at_n_plus_l_16_still_pass(capsys):
    code, out, _ = run_cli(capsys, "equalities", "--pairs", "16,0;9,7")
    assert code == 0
    rows = _rows(out)
    assert rows.shape == (6, 5)
    assert np.all(rows[:, 3:] <= 1e-8)


@pytest.mark.parametrize("label", ["wigner:2,1", "gencoherent:1,2:0.6,-0.3,0.2,0.5"])
def test_state_dump_is_reproducible_and_reloads_exactly(tmp_path, capsys, label):
    _, first, _ = run_cli(capsys, "state", "dump", label, "--cutoff", "8")
    code, second, _ = run_cli(capsys, "state", "dump", label, "--cutoff", "8")
    assert code == 0 and first == second
    diag = [e for e in json.loads(first)["entries"] if e[0] == e[1] and e[2] == e[3]]
    assert diag and all(e[5] == 0.0 for e in diag)
    path = tmp_path / "state.json"
    path.write_text(first, encoding="utf-8")
    code, reloaded, _ = run_cli(capsys, "state", "load", str(path))
    assert code == 0 and reloaded == first


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("hbar = 2.0\nmass = 1.0\n# comment\nomega = 0.5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "uncertainty", "0", "0")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(1.0,
                                                                             rel=1e-10)
    # flag overrides the file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--hbar", "1.0",
                           "uncertainty", "0", "0")
    assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(0.5,
                                                                             rel=1e-10)


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("cutoff = 5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "--config", str(cfg), "uncertainty", "0", "0")
    assert code == 2
    assert "unknown key" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "uncertainty", "0", "0", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8").startswith("n,l,dq1")


@pytest.mark.parametrize("argv", [("uncertainty", "0", "0"),
                                  ("state", "dump", "wigner:0,0"),
                                  ("verify", "marginals")])
def test_an_unwritable_output_file_is_an_input_error(capsys, request, tmp_path, argv):
    """--out to a directory or into a missing one exits 2 and names the output file."""
    if "verify" in argv:
        request.getfixturevalue("shared_verify")
    for path in (tmp_path, tmp_path / "nodir" / "out.txt"):
        code, out, err = run_cli(capsys, "--out", str(path), *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output file: "), err


def test_undecodable_config_and_state_files_are_named_input_errors(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"hbar = 1 # \xff\n")
    code, _, err = run_cli(capsys, "--config", str(path), "uncertainty", "0", "0")
    assert code == 2 and err.startswith("error: cannot read config file: "), err
    code, _, err = run_cli(capsys, "state", "load", str(path))
    assert code == 2 and err.startswith("error: cannot read state file: "), err


def test_cutoff_is_checked_only_by_state_dump(capsys):
    """Every command accepts --cutoff; only state dump reads it."""
    assert (run_cli(capsys, "--cutoff", "1", "uncertainty", "0", "0")
            == run_cli(capsys, "uncertainty", "0", "0"))
    code, _, err = run_cli(capsys, "--cutoff", "1", "state", "dump", "wigner:0,0")
    assert code == 3 and "need at least 2" in err, err


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "eval", "marginal1d:p2", "wigner:3,2",
                          "--grid", "-2:2:21")
    _, second, _ = run_cli(capsys, "eval", "marginal1d:p2", "wigner:3,2",
                           "--grid", "-2:2:21")
    assert first == second


def test_verify_reports_are_reproducible(capsys, request):
    """A fresh in-process run prints the bytes of the session's shared pass."""
    _, fresh, _ = run_cli(capsys, "verify", "marginals")
    request.getfixturevalue("shared_verify")
    _, shared, _ = run_cli(capsys, "verify", "marginals")
    assert fresh == shared


def test_verify_subset_via_entry_point(capsys, shared_verify):
    """End-to-end console invocation, including exit status, and a byte-equal
    report from the in-process shared pass."""
    proc = subprocess.run(
        [sys.executable, "-m", "landaustar", "verify", "marginals"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert any("integral-equality n=2 l=1" in line for line in lines)
    assert lines[-1].endswith("checks passed")
    code, out, _ = run_cli(capsys, "verify", "marginals")
    assert code == 0
    assert out == proc.stdout



def test_verify_reports_a_check_that_raises(capsys, monkeypatch):
    """A check that raises is one FAIL with residual inf and its message; the
    other checks still run and the run exits 1, in text and in JSON."""
    def check_marginal_evenness(params):
        raise RuntimeError("kernel broke\non two lines")

    monkeypatch.setattr(checks, "check_marginal_evenness", check_marginal_evenness)
    code, out, _ = run_cli(capsys, "verify", "marginals")
    lines = out.splitlines()
    fails = [line for line in lines if not line.startswith("PASS")]
    assert code == 1
    assert fails == ["FAIL marginal-evenness: residual=inf tolerance=0 "
                     "error=RuntimeError: kernel broke on two lines",
                     f"{len(lines) - 2}/{len(lines) - 1} checks passed"]

    code, out, _ = run_cli(capsys, "--format", "json", "verify", "marginals")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] == doc["total"] - 1 == len(doc["points"]) - 1
    assert doc["errors"] == {"marginal-evenness": "RuntimeError: kernel broke on two lines"}
    assert ["marginal-evenness", False, math.inf, 0.0] in doc["points"]


def test_verify_survives_the_lowering_root_mutant(capsys, monkeypatch):
    """With the lowering step's roots off by one, a check raised "bracket mean
    not purely imaginary" and the whole run ended with exit 2 and no report."""
    star_module = importlib.import_module("landaustar.star")

    def lowering_off_by_one(x, raising):
        rows = len(x)
        out = np.zeros((rows + raising, x.shape[1]), dtype=x.dtype)
        if raising:
            out[1:] = star_module._roots(rows)[:, None] * x
        else:
            out[:-1] = star_module._roots(rows)[1:][:, None] * x[1:]
        return out

    monkeypatch.setattr(star_module, "_ladder_step", lowering_off_by_one)
    code, out, _ = run_cli(capsys, "verify", "uncertainty")
    lines = out.splitlines()
    assert code == 1
    assert any(line.startswith("FAIL ") and "bracket mean not purely imaginary" in line
               for line in lines)
    passed, total = (int(v) for v in lines[-1].split()[0].split("/"))
    assert passed < total == len(lines) - 1


def _rows(out):
    return np.array([[float(v) for v in line.split(",")]
                     for line in out.strip().splitlines()[1:]])


def test_uncertainty_at_large_quantum_numbers(capsys):
    code, out, _ = run_cli(capsys, "uncertainty", "21", "20")
    assert code == 0
    assert _rows(out)[0, 4] == pytest.approx(21.0 * PARAMS.hbar, rel=1e-10)


def test_eval_marginal_at_large_quantum_numbers(capsys):
    code, out, _ = run_cli(capsys, "eval", "marginal1d:q1", "wigner:30,30",
                           "--grid", "-1:1:3")
    assert code == 0
    x, vals = _rows(out).T
    assert np.all(vals >= 0.0)
    np.testing.assert_allclose(vals, marginal_1d_quadrature(30, 30, "q1", x, PARAMS),
                               rtol=1e-8)


@pytest.mark.parametrize("argv,want", [
    (("--cutoff", "102", "eval", "marginal2d:q1,p2", "wigner:100,0",
      "--grid", "q1=0,p2=20"), 6.046149930934953e-221),
    (("--cutoff", "152", "eval", "marginal2d:q1,q2", "wigner:150,0",
      "--grid", "q1=30,q2=0"),
     4.0 * math.pi / PARAMS.gamma ** 2 * math.exp(-450.0 + 150 * math.log(450.0)
                                                  - math.lgamma(151))),
    (("eval", "gencoherent:1,0:0.5,0,0,0", "--grid", "q1=1e200,q2=0,p1=0,p2=0"), 0.0),
    (("eval", "wigner:1,0", "--grid", "q1=1e200,q2=0,p1=0,p2=0"), 0.0),
    (("eval", "coherent:1,0,0,0", "--grid", "q1=1e200,q2=0,p1=0,p2=0"), 0.0),
    (("eval", "marginal1d:q1", "wigner:1,1", "--grid", "1e200"), 0.0),
    (("eval", "marginal2d:q2,p2", "wigner:3,2", "--grid", "q2=1e200,p2=0"), 0.0),
    # W(0) = 4 (-1)^(n + l)
    (("eval", "wigner:150,150", "--grid", "q1=0:1:3"), 4.0),
    # the momentum plane of (150, 0) is the Poisson weight in rho^2 = (gamma p1/hbar)^2
    (("--cutoff", "152", "eval", "marginal2d:p2,p1", "wigner:150,0", "--grid", "p2=0:2:3,p1=1"),
     4.0 * math.pi * PARAMS.gamma ** 2 * math.exp(-PARAMS.gamma ** 2
                                                  + 150 * math.log(PARAMS.gamma ** 2)
                                                  - math.lgamma(151))),
    # references at 60 digits, from the exact mixture weights (rational Wigner
    # small-d sums) and mpmath's Hermite and Laguerre polynomials: the 1D
    # density h^2/s sum_k w_k phi_k(x/s)^2 at x = -3, and the conjugate plane
    # h^2/hbar (1/pi) sum_k (-1)^k w_k e^(-r^2) L_k(2 r^2) at (q1, p1) = (0, 1)
    (("--cutoff", "152", "eval", "marginal1d:q1", "wigner:100,0", "--grid", "-3:3:7"),
     0.90825009954196215252),
    (("--cutoff", "152", "eval", "marginal1d:p2", "wigner:150,150", "--grid", "-3:3:7"),
     1.4786691075688675408),
    (("eval", "marginal1d:p2", "wigner:150,150", "--grid", "-3:3:7"), 1.4786691075688675408),
    (("--cutoff", "302", "eval", "marginal2d:q1,p1", "wigner:150,150",
      "--grid", "q1=0:2:3,p1=1"), 0.14254147598858566141),
])
def test_far_points_and_large_quantum_numbers_give_true_values(capsys, argv, want):
    """Overflowing intermediates once printed nan or inf here with exit 0.

    The value checked is the table's first row."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _rows(out)[0, -1] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_json_grid_points_run_in_ij_order(capsys):
    """A 4D JSON table holds one point per grid node, the first axis slowest."""
    code, out, _ = run_cli(capsys, "--format", "json", "eval", "coherent:0.4,0,-0.6,0.3",
                           "--grid", "q1=-1:1:3,q2=0:1:2,p1=0.5,p2=-2:2:5")
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 3 * 2 * 1 * 5
    assert [p[:4] for p in points[:2]] == [[-1.0, 0.0, 0.5, -2.0], [-1.0, 0.0, 0.5, -1.0]]


def test_closed_form_plane_needs_no_quadrature_rule(capsys):
    """n + l + 8 = 308 exceeds the largest Gauss-Hermite order; no plane uses one."""
    code, out, _ = run_cli(capsys, "--cutoff", "302", "eval", "marginal2d:q1,q2",
                           "wigner:150,150", "--grid", "q1=0:2:3,q2=1")
    assert code == 0
    vals = _rows(out)[:, 2]
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    # the conjugate plane at the origin is 4 pi hbar times the parity delta_nl
    code, out, _ = run_cli(capsys, "--cutoff", "302", "eval", "marginal2d:q1,p1",
                           "wigner:150,150", "--grid", "q1=0,p1=0")
    assert code == 0
    assert _rows(out)[0, 2] == pytest.approx(12.566370614359172, rel=0, abs=1e-12)


def test_plane_prefactor_does_not_overflow_at_large_hbar(capsys):
    """h^2 overflows at hbar = 1e200; the density (h/gamma)^2 g^2/pi does not."""
    code, out, _ = run_cli(capsys, "--hbar", "1e200", "eval", "marginal2d:q1,q2",
                           "wigner:0,0", "--grid", "q1=1,q2=0")
    assert code == 0
    assert out == "q1,q2,value\n1,0,6.2831853071795858e+200\n"
    # a prefactor beyond the float range is refused, not printed as inf
    code, out, err = run_cli(capsys, "--hbar", "1e300", "--mass", "1e300", "eval",
                             "marginal2d:q1,q2", "wigner:0,0", "--grid", "q1=0,q2=0")
    assert code == 2
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize("argv", [
    ("--hbar", "1e300", "--mass", "1e-300", "uncertainty", "0", "0"),
    ("--hbar", "1e-300", "--mass", "1e300", "uncertainty", "0", "0"),
    ("--mass", "1e-300", "--omega", "1e-300", "eval", "marginal2d:q1,q2", "wigner:1,0",
     "--grid", "q1=0,q2=0"),
])
def test_units_outside_the_float_range_are_config_conflicts(capsys, argv):
    """gamma or hbar/gamma overflowed or vanished: a traceback with exit 1."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "gamma" in err


# hbar^2 and h^2 leave the float range from hbar ~ 1.3e154 on, and h^2
# underflows to subnormals from hbar ~ 1e-155; no output is formed from them

def test_marginal_1d_at_hbar_1e200(capsys):
    """axis_norm's hbar**2 raised OverflowError (exit 1)."""
    params = PhysParams(hbar=1e200)
    code, out, _ = run_cli(capsys, "--hbar", "1e200", "eval", "marginal1d:q1", "wigner:0,0",
                           "--grid", "1")
    assert code == 0
    want = 4.0 * math.pi ** 1.5 * 1e200 * (1e200 / params.gamma)
    assert _rows(out)[0, 1] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("hbar,n", [("1e200", 0), ("1e-160", 1), ("1e154", 1)])
def test_uncertainty_product_at_extreme_hbar(capsys, hbar, n):
    """The moments divided by h**2: an OverflowError (exit 1) at 1e200 and 1e154,
    and products of 0 at 1e-160."""
    code, out, _ = run_cli(capsys, "--hbar", hbar, "uncertainty", str(n), str(n))
    assert code == 0
    want = 0.5 * float(hbar) * (2 * n + 1)
    assert _rows(out)[0, 4] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_equalities_at_hbar_1e200(capsys):
    code, out, _ = run_cli(capsys, "--hbar", "1e200", "equalities", "--pairs", "1,0")
    assert code == 0
    rows = _rows(out)
    assert rows.shape == (3, 5)
    assert np.all(rows[:, 3:] <= 1e-8)


def test_unit_norm_at_hbar_1e200(capsys):
    """--unit-norm divided by h**2 and raised OverflowError; the true value,
    4/h^2 ~ 1e-401, is below the double range."""
    code, out, _ = run_cli(capsys, "--hbar", "1e200", "--unit-norm", "eval", "wigner:0,0",
                           "--grid", "q1=0")
    assert code == 0
    assert _rows(out)[0, 4] == 0.0


# One unit boundary for every target: each value is its unit-free shape times
# one prefactor.  At the origin of the ground state every 1D shape is
# 1/sqrt(pi) and every plane shape 1/pi; the density is h^2 (dropped under
# --unit-norm) over the product of the axis scales, gamma = sqrt(2 hbar) and
# hbar/gamma.  The reference is formed in logs, so it never overflows.
EXTREME_HBARS = ("1e-300", "1e-200", "1e200", "1e250", "1e300")
LOG_MAX = math.log(sys.float_info.max)


def _log_scales(hbar):
    log_hbar = math.log(float(hbar))
    log_gamma = 0.5 * (math.log(2.0) + log_hbar)
    return log_hbar, {"q": log_gamma, "p": log_hbar - log_gamma}


@pytest.mark.parametrize("unit_norm", [False, True])
@pytest.mark.parametrize("hbar", EXTREME_HBARS)
@pytest.mark.parametrize("target,grid", [
    ("marginal1d:q1", "0"), ("marginal1d:q2", "0"), ("marginal1d:p1", "0"),
    ("marginal1d:p2", "0"), ("marginal2d:q1,q2", "q1=0,q2=0"),
    ("marginal2d:q1,p2", "q1=0,p2=0"), ("marginal2d:q1,p1", "q1=0,p1=0"),
])
def test_densities_at_extreme_units(capsys, target, grid, hbar, unit_norm):
    """--hbar 1e250 --unit-norm printed inf and --hbar 1e-300 --unit-norm printed 0."""
    axes = target.partition(":")[2].split(",")
    log_hbar, log_s = _log_scales(hbar)
    log_value = -0.5 * len(axes) * math.log(math.pi) - sum(log_s[ax[0]] for ax in axes)
    if not unit_norm:
        log_value += 2.0 * (math.log(2.0 * math.pi) + log_hbar)
    flags = ("--unit-norm",) if unit_norm else ()
    code, out, err = run_cli(capsys, *flags, "--hbar", hbar, "eval", target, "wigner:0,0",
                             "--grid", grid)
    if code == 2:
        assert out == "" and "overflow" in err
        assert log_value > LOG_MAX
    else:
        assert code == 0 and log_value < LOG_MAX
        assert _rows(out)[0, -1] == pytest.approx(math.exp(log_value), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("unit_norm", [False, True])
@pytest.mark.parametrize("hbar", EXTREME_HBARS)
@pytest.mark.parametrize("n,l", [(0, 0), (1, 1)])
def test_uncertainty_at_extreme_units(capsys, n, l, hbar, unit_norm):
    """--hbar 1e300 printed inf and --hbar 1e-300 printed 0 for every column."""
    log_hbar, log_s = _log_scales(hbar)
    m = 0.5 * (n + l + 1)
    want = [math.exp(log_s["q"] + 0.5 * math.log(m)), math.exp(log_s["p"] + 0.5 * math.log(m)),
            math.exp(log_hbar + math.log(m)),
            math.exp(log_hbar + math.log(m - 0.5)) if m > 0.5 else 0.0]
    flags = ("--unit-norm",) if unit_norm else ()
    code, out, _ = run_cli(capsys, *flags, "--hbar", hbar, "uncertainty", str(n), str(l))
    assert code == 0
    np.testing.assert_allclose(_rows(out)[0, 2:], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("argv,want", [
    (("uncertainty", "150", "150"), 150.5),
    (("--cutoff", "202", "uncertainty", "100", "100"), 100.5),
    (("--hbar", "1e300", "uncertainty", "0", "0"), 5e299),
    (("--hbar", "1e-300", "uncertainty", "1", "1"), 1.5e-300),
    (("uncertainty", "20..21", "20..21"), [20.5, 21.0, 21.0, 21.5]),
])
def test_uncertainty_products_over_the_accepted_range(capsys, argv, want):
    """The quadrature route stopped at n + l = 191 (exit 2) and left the float range."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    np.testing.assert_allclose(_rows(out)[:, 4], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("argv,message", [
    (("uncertainty", "151", "0"), "150"),
    (("uncertainty", "-1", "0"), "150"),
    (("--hbar", "1e307", "uncertainty", "150", "150"), "overflow"),
])
def test_uncertainty_refusals(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_uncertainty_table_meets_its_bound(capsys):
    """The ground state printed product 0.49999999999999978 and bound_gap -2.2e-16."""
    code, out, _ = run_cli(capsys, "uncertainty", "0..6", "0..6")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 49
    assert np.all(rows[:, 5] >= 0.0)
    assert rows[0, 4] == 0.5 and rows[0, 5] == 0.0


@pytest.mark.parametrize("argv,axis", [
    (("eval", "wigner:0,0", "--grid", "q1=0,q1=1"), "q1"),
    (("eval", "marginal2d:q1,p2", "wigner:1,0", "--grid", "q1=0,p2=1,p2=2"), "p2"),
])
def test_repeated_grid_axis_is_an_input_error(capsys, argv, axis):
    """The last value of a repeated axis silently replaced the first."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"'{axis}'" in err


@pytest.mark.parametrize("argv,count", [
    (("eval", "wigner:0,0", "--grid", "q1=0:1:1000,q2=0:1:1000,p1=0:1:1000,p2=0:1:1000"),
     10 ** 12),
    (("eval", "marginal1d:q1", "wigner:0,0", "--grid", "0:1:10000000000"), 10 ** 10),
    (("eval", "marginal2d:q1,p2", "wigner:1,0", "--grid", "q1=0:1:1001,p2=0:1:1000"),
     1001 * 1000),
])
def test_oversized_grids_are_input_errors(capsys, argv, count):
    """A 1000^4 grid ended in a MemoryError traceback with exit 1, before any output."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert f"{count} points" in err and f"{cli.MAX_GRID_POINTS}" in err


def test_grid_at_the_point_bound_is_accepted():
    grid = cli.parse_named_grid(f"q1=0:1:{cli.MAX_GRID_POINTS // 4},p2=-1:1:4", ("q1", "p2"))
    assert math.prod(len(v) for v in grid.values()) == cli.MAX_GRID_POINTS


@pytest.mark.parametrize("argv", [
    ("equalities", "--pairs", "2,1", "--samples", "1e308"),
    ("equalities", "--pairs", "16,0", "--samples", "0,1e10"),
])
def test_equality_samples_that_overflow_are_input_errors(capsys, argv):
    """These printed nan with exit 0, after a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    sample = argv[-1].split(",")[-1]
    assert f"sample {float(sample):g}" in err


@pytest.mark.parametrize("argv,bound", [
    (("equalities",), 1e-13),
    (("equalities", "--pairs", "2,1", "--samples", "1e4"), 1e-14),
], ids=["default-sweep", "sample-1e4"])
def test_equalities_print_the_same_bytes_at_any_units(capsys, argv, bound):
    """The identities are unit-free in y = q1/gamma; at --hbar 1e300 a sample of
    1e4 gamma once overflowed (exit 2) only because of the units.  The
    residuals are relative to the left-hand side, so an identity that holds
    reads as holding at 1e4 gamma too, where its terms are ~1e24."""
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    assert np.all(_rows(want)[:, 3:] <= bound)
    for units in (("--hbar", "1e-200"), ("--hbar", "1e200", "--mass", "3"),
                  ("--hbar", "1e300")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *units, *argv)
        assert code == 0 and out == want


# sha256 of stdout for a fixed command set, captured from the per-cell table
# formatter; a digest moves only with a deliberate change to printed bytes
_GRID4 = "q1=-2:2:3,q2=-1:1:2,p1=0:1.5:2,p2=-1:1:3"
_GRID4_PINNED = "q1=-1:1:3,q2=0.25:0.25:2,p1=0.75,p2=-1.5:0:4"
GOLDEN_OUTPUT = {
    "wigner-csv": (("--format", "csv", "eval", "wigner:2,1", "--grid", _GRID4),
                   "de96047856a257032e9bc3c421be150d52ce4c7775814b6e4aee3ae3a9a36b6c"),
    "wigner-json": (("--format", "json", "eval", "wigner:2,1", "--grid", _GRID4),
                    "940b0e6be14d2e37d4e2cc89845d62cad63eb2fe3c256103033b6dfe9e116586"),
    "coherent-csv": (("--format", "csv", "eval", "coherent:0.5,-0.3,0.2,0.1",
                      "--grid", _GRID4),
                     "b024ebc2a927a471aa1bf953a21c856eb8c36e22fc4a0f220ec8f0bd5b079422"),
    "coherent-json": (("--format", "json", "eval", "coherent:0.5,-0.3,0.2,0.1",
                       "--grid", _GRID4),
                      "500e677e05de9d505043512219e986d8c4142f56465a7dd617b34f58bb4efef2"),
    "gencoherent-csv": (("--format", "csv", "eval", "gencoherent:1,2:0.4,0,-0.3,0.7",
                         "--grid", _GRID4),
                        "159b49eea7e0c084a0656978f35bd2f911c64b9a61f290bc687e1adcd3a4424f"),
    "gencoherent-json": (("--format", "json", "eval", "gencoherent:1,2:0.4,0,-0.3,0.7",
                          "--grid", _GRID4),
                         "40093d759f11d88a9968031b7bfda2b0c724799c6fa410750f8c4d5786128c3f"),
    "marginal1d-csv": (("--format", "csv", "eval", "marginal1d:p2", "wigner:3,1",
                        "--grid", "-3:3:13"),
                       "d2e1b20432f934a74f73a8b03140e8cc08c02b24a36ac27735104ca409e174be"),
    "marginal1d-json": (("--format", "json", "eval", "marginal1d:p2", "wigner:3,1",
                         "--grid", "-3:3:13"),
                        "687bdad188d526c3bd18b78ce4d354ae845dece0913704708fcb5cebc76737d0"),
    "marginal2d-csv": (("--format", "csv", "eval", "marginal2d:q1,p2", "wigner:2,1",
                        "--grid", "q1=-2:2:5,p2=-1:1:3"),
                       "d1cb215641ed00e4a196c949c45f6dbddea7a34412882d0ba79d732d179236de"),
    "marginal2d-json": (("--format", "json", "eval", "marginal2d:q1,p2", "wigner:2,1",
                         "--grid", "q1=-2:2:5,p2=-1:1:3"),
                        "61690fb5bbd95d87ca7289dcfe57094d2e60b3bda99fa1b77f2bb4a3c49bdd56"),
    "uncertainty": (("uncertainty", "0..2", "0..1"),
                    "9ba9303e04818ec39eaf90406c9843d7f4487d02823a915eff979eccd1e0cd59"),
    # residuals relative to each sample's left-hand side
    "equalities": (("equalities",),
                   "8bf667315601d6fbadf6eff7d73a8bfc0956e445ae9211e3c8029b647fc8da7f"),
    "unit-norm": (("--unit-norm", "eval", "wigner:0,0", "--grid", "q1=0"),
                  "2ae08374fbb82645dd27091e06ba13991bb66778608382342e776c63189f8b29"),
    "uncertainty-hbar-1e200": (("--hbar", "1e200", "uncertainty", "0", "0"),
                               "509a4f142dfee4ed88f281cbcaec699b9329b33b6a42a1750349d2134dc83f16"),
    # 1/s of the momentum axis, about 8e-126, where h^2/s overflows
    "marginal1d-unit-norm-hbar-1e250": (
        ("--unit-norm", "--hbar", "1e250", "eval", "marginal1d:p1", "wigner:0,0", "--grid", "0"),
        "c06fe70e51e61394417cda10cb60365ff224ef23a6f5cef5dbdb06ee2fd64a30"),
    # a repeated coordinate (q2), zeros on q1 and p2 and a pinned p1
    "coherent-pinned-csv": (("--format", "csv", "eval", "coherent:0.4,0,-0.6,0.3",
                             "--grid", _GRID4_PINNED),
                            "169e172baad61eed085f3279014f543bde6e14ac7640ec4b8453be1acf25f17a"),
    "coherent-pinned-json": (("--format", "json", "eval", "coherent:0.4,0,-0.6,0.3",
                              "--grid", _GRID4_PINNED),
                             "ae8cbca51a66d54da536e692570630000d8e5c26ff32da3859a738074b48ae2c"),
    "marginal2d-3x5-json": (("--format", "json", "eval", "marginal2d:q1,q2", "wigner:2,0",
                             "--grid", "q1=-1:1:3,q2=-2:2:5"),
                            "2d0d753f17a92adda867f6c9fab77bd03c25fe20a29aefad56e22fa530dc5862"),
    "verify-marginals-json": (("--format", "json", "verify", "marginals"),
                              "ff89417288f50e6c3508a5034e05152b6b9ce9587c2f2c535a329ab44297826f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT))
def test_golden_output_bytes(capsys, request, name):
    argv, digest = GOLDEN_OUTPUT[name]
    if "verify" in argv:
        request.getfixturevalue("shared_verify")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


def test_flags_do_not_leak_between_calls(capsys, tmp_path):
    """The parser is reused: a second call sees none of the first call's flags."""
    argv = ("eval", "wigner:1,0", "--grid", "q1=-1:1:3,p2=0.5")
    code, out, _ = run_cli(capsys, "--format", "json", "--hbar", "2",
                           "--out", str(tmp_path / "first.json"), *argv)
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "landaustar", *argv],
                          capture_output=True, text=True)
    assert code == 0 and proc.returncode == 0, proc.stderr
    assert out == proc.stdout


def test_rebound_command_is_dispatched(capsys, monkeypatch):
    """main looks each cmd_* up at call time, so a rebound one is reached."""
    run_cli(capsys, "eval", "wigner:0,0", "--grid", "q1=0")
    seen = []

    def fake(args, cfg):
        seen.append((args.target, cfg.fmt))
        return 7

    monkeypatch.setattr(cli, "cmd_eval", fake)
    code, _, _ = run_cli(capsys, "--format", "json", "eval", "wigner:0,0")
    assert code == 7 and seen == [("wigner:0,0", "json")]


def _per_cell_table(header, rows, fmt, json_meta=None):
    """Table text formatted one cell at a time."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                                  for v in row))
        return "\n".join(lines) + "\n"
    doc = dict(json_meta or {})
    doc["columns"] = list(header)
    doc["points"] = [[v for v in row] for row in rows]
    return json.dumps(doc) + "\n"


_ROW_TABLES = {
    "empty": [],
    "one-row": [(0, -1, float("nan"), np.float64(-0.0), 5e-324)],
    "four-rows": [(0, -1, float("nan"), np.float64(-0.0), 5e-324),
                  (1, 2 ** 70, float("inf"), np.float64(2.5), -float("inf")),
                  (-3, 7, -0.0, np.float64(1e-310), 0.1),
                  (4, 0, 1.7976931348623157e308, np.float64(float("nan")), -5e-324)],
    "strings-and-booleans": [("a, b", True, 0.5, -1, 1.7976931348623157e308),
                             ('q"\\, [x]', False, -0.0, 2, -1.7976931348623157e308)],
}
_EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def _grid_table(seed):
    """Grid axes (1-4, one single-point) with an int and a float column, and its rows."""
    rng = np.random.default_rng(seed)
    n_axes = 1 + seed % 4
    pool = _EXTREMES + [0.0, 1.0, 0.1] + rng.normal(scale=3.0, size=4).tolist()
    axes = [np.array(rng.choice(pool, size=1 if k == seed % n_axes else int(rng.integers(1, 5))))
            for k in range(n_axes)]
    size = math.prod(len(a) for a in axes)
    ints = rng.integers(-2 ** 62, 2 ** 62, size=size).tolist()
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    specials = (float("nan"), float("inf"), -float("inf"), *_EXTREMES)
    at = rng.permutation(size)[:len(specials)]
    values[at] = specials[:len(at)]
    rows = [(*coords, k, v) for coords, k, v in
            zip(itertools.product(*(a.tolist() for a in axes)), ints, values.tolist(),
                strict=True)]
    return axes, [ints, values], rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", [*_ROW_TABLES, *(f"grid-{seed}" for seed in range(12))])
def test_table_text_matches_per_cell_formatting(case, fmt):
    """Column-wise text, each grid axis formatted once, equals the per-cell text of the rows."""
    if case in _ROW_TABLES:
        rows = _ROW_TABLES[case]
        header, axes, columns = ("n", "l", "a", "b", "c"), (), list(zip(*rows))
    else:
        axes, columns, rows = _grid_table(int(case.removeprefix("grid-")))
        header = tuple(f"x{k}" for k in range(len(axes))) + ("k", "value")
    meta = {"params": {"hbar": 1.0}}
    assert (cli.table_text(header, columns, fmt, meta, axes=axes)
            == _per_cell_table(header, rows, fmt, meta))


def test_verify_json_format(capsys, monkeypatch, shared_verify):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "marginals")
    doc = json.loads(out)
    assert code == 0
    assert doc["columns"] == ["check", "passed", "residual", "tolerance"]
    assert doc["suite"] == "marginals" and doc["params"]["hbar"] == 1.0
    assert doc["total"] == doc["passed"] == len(doc["points"]) > 0
    assert all(ok is True and res <= tol for _, ok, res, tol in doc["points"])

    failing = [checks.CheckResult("good", 0.0, 1.0), checks.CheckResult("bad", 2.0, 1.0)]
    monkeypatch.setattr(checks, "run_suite", lambda suite, params: failing)
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "star")
    doc = json.loads(out)
    assert code == 1
    assert (doc["suite"], doc["passed"], doc["total"]) == ("star", 1, 2)
    assert doc["points"] == [["good", True, 0.0, 1.0], ["bad", False, 2.0, 1.0]]
    code, out, _ = run_cli(capsys, "verify", "star")
    assert code == 1
    assert out == ("PASS good: residual=0 tolerance=1\n"
                   "FAIL bad: residual=2 tolerance=1\n"
                   "1/2 checks passed\n")


def test_verify_timings(capsys, monkeypatch, shared_verify):
    """--timings adds each check's wall time; without it the report is unchanged."""
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "marginals", "--timings")
    doc = json.loads(out)
    assert code == 0
    assert doc["columns"] == ["check", "passed", "residual", "tolerance", "seconds"]
    assert doc["total"] == doc["passed"] == len(doc["points"]) > 0
    assert all(math.isfinite(seconds) and seconds >= 0 for *_, seconds in doc["points"])

    timed = [checks.CheckResult("good", 0.0, 1.0, 0.25), checks.CheckResult("bad", 2.0, 1.0, 1.5)]
    monkeypatch.setattr(checks, "run_suite", lambda suite, params: timed)
    _, out, _ = run_cli(capsys, "verify", "star", "--timings")
    assert out == ("PASS good: residual=0 tolerance=1 seconds=0.25\n"
                   "FAIL bad: residual=2 tolerance=1 seconds=1.5\n"
                   "1/2 checks passed\n")
    _, out, _ = run_cli(capsys, "--format", "json", "verify", "star", "--timings")
    assert json.loads(out)["points"] == [["good", True, 0.0, 1.0, 0.25],
                                         ["bad", False, 2.0, 1.0, 1.5]]
    _, out, _ = run_cli(capsys, "verify", "star")
    assert out == ("PASS good: residual=0 tolerance=1\n"
                   "FAIL bad: residual=2 tolerance=1\n"
                   "1/2 checks passed\n")
    _, out, _ = run_cli(capsys, "--format", "json", "verify", "star")
    assert json.loads(out)["points"] == [["good", True, 0.0, 1.0], ["bad", False, 2.0, 1.0]]


def test_suite_runner_shares_a_checks_time_among_its_results():
    def one(params):
        return checks.CheckResult("one", 0.0, 1.0)

    def two(params):
        return [checks.CheckResult("x", 0.0, 1.0), checks.CheckResult("y", 0.0, 1.0)]

    out = checks._run((one, two), PARAMS)
    assert [r.name for r in out] == ["one", "x", "y"]
    assert all(r.seconds >= 0 for r in out)
    assert out[1].seconds == out[2].seconds
    # the time is not part of a result's value
    assert out[0] == checks.CheckResult("one", 0.0, 1.0)
