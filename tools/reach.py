"""Which functions and lines of the landaustar package its commands reach.

Runs a fixed list of CLI commands, every ``eval`` kind and plane family,
``uncertainty``, ``equalities``, ``state dump`` and ``load`` with their input
errors, then ``verify all``, in this process under ``sys.settrace``.  The
functions a module defines are read from its source with ``ast``, and its
executable lines from the compiled code.  Prints, per module, the functions
and lines reached out of those defined, then each unreached function and the
unreached lines.

Exits 1 when an unreached function is not in ALLOWED under its own qualified
name (an allowed class does not cover its methods), or when an entry of
ALLOWED is needed for nothing: it names no unreached function and no name of
``landaustar.__all__`` that cli.py and checks.py leave unnamed (the rule of
tests/test_surface.py).  Run from the repository root:

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import importlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "landaustar"

# Unreached by the commands below, or exported and named in neither cli.py nor
# checks.py, and kept: name -> why.  A function or method is named by its
# qualified name; a class entry serves only the export rule.
ALLOWED = {
    "to_mode_coords": "perfbench/tracer.py LAYERS binds it (phase_space.mode_coords)",
    "PhasePoint": "the point type of to_mode_coords",
    "PhasePoint.__post_init__": "refuses a non-finite point given to to_mode_coords",
    "ModeCoords": "the result type of to_mode_coords",
    "coordinate_polynomials": "perfbench's fock workload builds its observables with it",
    "oracle_apply_word": "test oracle of the ladder actions (tests/test_star.py)",
    "PolyGauss": "the symbol type of the bidifferential-series oracle (wigner_symbol)",
    "PolyGauss.eval": "test oracle: pointwise values of a symbol (tests/test_star.py)",
    "PolyGauss.standard_gaussian": "test oracle: the ground Gaussian symbol",
    "StarPolynomial.__radd__": "operator protocol: number + polynomial",
    "StarPolynomial.__rsub__": "operator protocol: number - polynomial",
    "QuadratureRule": "the type gauss_hermite returns, exported with it",
}


def commands(work: Path):
    """(argv, expected exit code) for each command the tool runs, verify last."""
    state, flagged = work / "state.json", work / "flagged.json"
    (work / "units.conf").write_text("hbar = 0.5  # a comment\nmass = 2\n")
    (work / "bad_key.conf").write_text("charge = 1\n")
    (work / "bad_entry.json").write_text('{"cutoff": 2, "entries": [[0, 0, 0, 9, 1.0, 0.0]]}')
    (work / "misspelt.json").write_text('{"cutoff": 2, "entries": [], "overflw": true}')
    (work / "not_json.json").write_text("{")
    return [
        (["eval", "wigner:2,1", "--grid", "q1=-1:1:3,p2=0.5"], 0),
        (["--format", "json", "eval", "wigner", "coherent:0.4,0,-0.6,0.3",
          "--grid", "q1=-1:1:3,q2=0:1:2,p1=0.5,p2=-2:2:5"], 0),
        (["--unit-norm", "eval", "wigner", "gencoherent:1,0:0.5,0,0,0", "--grid", "q1=0"], 0),
        (["eval", "marginal1d:q1", "wigner:3,1", "--grid", "-3:3:7"], 0),
        (["--unit-norm", "--hbar", "2", "eval", "marginal1d:p2", "wigner:2,2",
          "--grid", "0.5"], 0),
        (["eval", "marginal2d:q1,q2", "wigner:2,1", "--grid=q1=-1:1:3,q2=0.5"], 0),
        (["eval", "marginal2d:p1,p2", "wigner:2,1", "--grid", "p1=0:1:3,p2=1"], 0),
        (["eval", "marginal2d:q1,p2", "wigner:2,1", "--grid", "q1=0:1:3,p2=1"], 0),
        (["--unit-norm", "eval", "marginal2d:q2,p1", "wigner:1,2", "--grid", "q2=0,p1=1"], 0),
        (["eval", "marginal2d:q1,p1", "wigner:2,1", "--grid", "q1=0:1:3,p1=1"], 0),
        (["eval", "marginal2d:p2,q2", "wigner:1,1", "--grid", "p2=0,q2=1"], 0),
        (["uncertainty", "0..3", "0..2"], 0),
        (["--format", "json", "--config", str(work / "units.conf"), "uncertainty", "1", "1"], 0),
        (["equalities"], 0),
        (["--format", "json", "equalities", "--pairs", "2,1", "--samples", "0.5,1e4"], 0),
        (["--cutoff", "8", "--out", str(state), "state", "dump",
          "gencoherent:2,1:0.4,-0.3,0.2,0.5"], 0),
        (["state", "load", str(state)], 0),
        (["--cutoff", "16", "--out", str(flagged), "state", "dump", "coherent:5,0,0,0"], 0),
        (["state", "load", str(flagged)], 0),
        # input errors (2) and configuration conflicts (3)
        (["state", "load", str(work / "bad_entry.json")], 2),
        (["state", "load", str(work / "misspelt.json")], 2),
        (["state", "load", str(work / "not_json.json")], 2),
        (["state", "load", str(work / "missing.json")], 2),
        (["--config", str(work / "bad_key.conf"), "uncertainty", "0", "0"], 2),
        (["eval", "marginal1d:q1", "coherent:0,0,0,0"], 2),
        (["eval", "marginal3d:q1", "wigner:0,0"], 2),
        (["eval", "wigner:0,0", "--grid",
          "q1=0:1:1000,q2=0:1:1000,p1=0:1:1000,p2=0:1:1000"], 2),
        (["--hbar", "1e250", "eval", "marginal1d:p1", "wigner:0,0", "--grid", "0"], 2),
        (["--hbar", "1e-300", "eval", "wigner:1,1", "--grid", "q1=1e300"], 2),
        (["equalities", "--pairs", "2,1", "--samples", "1e308"], 2),
        (["uncertainty", "1..x", "0"], 2),
        (["--cutoff", "8", "state", "dump", "wigner:7,0"], 3),
        (["--cutoff", "64", "state", "dump", "wigner:0,0"], 3),
        (["--hbar", "1e300", "--mass", "1e-300", "uncertainty", "0", "0"], 3),
        (["verify", "all"], 0),
    ]


class Recorder:
    """Records the lines run and the code objects entered in the package's files."""

    def __init__(self):
        self.lines: set = set()
        self.entered: set = set()
        self.root = str(PACKAGE)

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def run_commands(recorder: Recorder) -> list:
    """Run every command under the recorder.  Returns the commands whose exit
    code was not the expected one."""
    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        listed = commands(Path(tmp))
        sink = io.StringIO()
        sys.settrace(recorder)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli = importlib.import_module("landaustar.cli")
                argv, sys.argv = sys.argv, ["landaustar", "uncertainty", "0", "0"]
                try:  # python -m landaustar
                    runpy.run_module("landaustar", run_name="__main__")
                except SystemExit as exc:
                    if exc.code != 0:
                        wrong.append((["-m landaustar", *sys.argv[1:]], exc.code))
                finally:
                    sys.argv = argv
                for args, want in listed:
                    got = cli.main(args)
                    sink.seek(0)
                    sink.truncate()
                    if got != want:
                        wrong.append((args, got))
        finally:
            sys.settrace(None)
    return wrong


def defined_functions(path: Path) -> dict:
    """(first line, name) of each def in the file -> its qualified name, classes
    and enclosing functions joined by dots.  The first line of a decorated def
    is its first decorator's, as in its code object."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(first, child.name)] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def executable_lines(path: Path) -> set:
    """Lines that hold code: module-level lines and function bodies, without
    each function's own first line, which is entered rather than run."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        starts = {line for _, line in dis.findlinestarts(code) if line}
        if code.co_name != "<module>":
            starts.discard(code.co_firstlineno)
        lines |= starts
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def static_surface() -> set:
    """Names of landaustar.__all__ that neither cli.py nor checks.py names."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (exported,) = [ast.literal_eval(node.value) for node in init.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    named = set()
    for module in ("cli.py", "checks.py"):
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return set(exported) - named


def judge(unreached, unnamed_exports) -> tuple:
    """(the unreached qualified names not in ALLOWED, the ALLOWED entries that
    name neither an unreached function nor an unnamed export)."""
    refused = [name for name in unreached if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(unreached) - set(unnamed_exports))
    return refused, stale


def ranges(numbers) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    out, numbers = [], sorted(numbers)
    for k, n in enumerate(numbers):
        if k and n == numbers[k - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    if "landaustar" in sys.modules:
        sys.exit("error: landaustar is already imported, so its import would not be traced")
    recorder = Recorder()
    wrong = run_commands(recorder)
    for cmd, code in wrong:
        print(f"error: exit {code} from {' '.join(cmd)}", file=sys.stderr)
    if wrong:
        return 2

    print(f"{'module':<16}{'functions':>12}{'lines':>12}")
    unreached, unreached_lines = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path)
        functions = defined_functions(path)
        missed = [name for (first, short), name in functions.items()
                  if (filename, first, short) not in recorder.entered]
        lines = executable_lines(path)
        run = {line for f, line in recorder.lines if f == filename} & lines
        print(f"{path.name:<16}{len(functions) - len(missed):>7}/{len(functions):<4}"
              f"{len(run):>7}/{len(lines):<4}")
        unreached += [(path.stem, name) for name in missed]
        if lines - run:
            unreached_lines[path.name] = ranges(lines - run)

    refused, stale = judge([name for _, name in unreached], static_surface())
    print("\nunreached functions:")
    for module, name in unreached:
        reason = "NOT ALLOWED" if name in refused else f"allowed: {ALLOWED[name]}"
        print(f"  {module}.{name}  {reason}")
    for name in stale:
        print(f"stale ALLOWED entry: {name}")
    print("\nunreached lines:")
    for name, text in unreached_lines.items():
        print(f"  {name}: {text}")
    return 1 if refused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
