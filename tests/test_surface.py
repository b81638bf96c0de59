"""The supported API, landaustar.__all__, is what the commands and checks use,
every optional parameter of the package is one that some caller sets, and no
command but verify loads scipy.

The first two rules are static: they read the sources with ast.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import ChainMap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_export_is_named_by_the_cli_or_the_checks_or_allowed():
    assert reach.static_surface() <= set(reach.ALLOWED), sorted(
        reach.static_surface() - set(reach.ALLOWED))


def test_all_is_what_the_package_root_exports():
    import landaustar

    exported = {name for name, value in vars(landaustar).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(landaustar.__all__) == sorted(exported)


def test_an_unreached_function_is_allowed_only_by_its_own_name():
    """An allowed class covers none of its methods, and an entry that names
    neither an unreached function nor an unnamed export is stale."""
    assert "PolyGauss" in reach.ALLOWED and "PolyGauss.diff" not in reach.ALLOWED
    refused, _ = reach.judge(["PolyGauss.eval", "PolyGauss.diff"], set())
    assert refused == ["PolyGauss.diff"]
    refused, stale = reach.judge(["PolyGauss.eval"], {"PolyGauss"})
    assert refused == []
    assert stale == sorted(set(reach.ALLOWED) - {"PolyGauss.eval", "PolyGauss"})
    assert reach.ranges([7, 1, 3, 2]) == "1-3, 7"


def test_no_command_but_verify_loads_scipy(tmp_path):
    """scipy serves verify's oracles and the tests: a fresh interpreter that
    imports the CLI and runs every other command of tools/reach.py, each to
    its expected exit code, leaves it unloaded."""
    rows = [(argv, want) for argv, want in reach.commands(tmp_path) if "verify" not in argv]
    script = (
        "import contextlib, io, json, sys\n"
        "def step(name, code=None):\n"
        "    loaded = any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
        "    steps.append((name, code, loaded))\n"
        "steps = []\n"
        "import landaustar.cli as cli\n"
        "step('import landaustar.cli')\n"
        "sink = io.StringIO()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "        code = cli.main(argv)\n"
        "    step(' '.join(argv), code)\n"
        "print(json.dumps(steps))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([argv for argv, _ in rows])],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    steps = json.loads(proc.stdout)
    wrong = [(name, want, code) for (name, code, _), (_, want) in zip(steps[1:], rows, strict=True)
             if code != want]
    assert not wrong, wrong
    loaded_after = [name for name, _, loaded in steps if loaded]
    assert not loaded_after, f"scipy is loaded after: {loaded_after[0]}"


def test_each_listed_function_is_a_code_object_at_its_first_line():
    """The tool matches a call to its def by (first line, name), decorators
    included, so every def it lists has to be a code object there."""
    for path in reach.PACKAGE.glob("*.py"):
        stack, code_objects = [compile(path.read_text(), str(path), "exec")], set()
        while stack:
            code = stack.pop()
            code_objects.add((code.co_firstlineno, code.co_name))
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        assert set(reach.defined_functions(path)) <= code_objects, path.name


# the trees whose calls may set an optional parameter of the package
CALLERS = ("src", "perfbench", "tools", "tests")


def _parameters(node) -> list:
    """(name, positional index or None, default source or None) for each
    parameter a caller writes: self and cls are not counted, and a
    keyword-only parameter has no index."""
    a = node.args
    positional = [arg.arg for arg in a.posonlyargs + a.args]
    skip = int(positional[:1] in (["self"], ["cls"]))
    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
    out = [(name, k - skip, default) for k, (name, default)
           in enumerate(zip(positional, defaults)) if k >= skip]
    out += [(arg.arg, None, default) for arg, default in zip(a.kwonlyargs, a.kw_defaults)]
    return [(name, index, None if d is None else ast.unparse(d)) for name, index, d in out]


def _imports(tree, exports: dict, in_package: bool) -> dict:
    """Local name -> what an import binds it to in the package: "" for the
    package itself, a module ("checks") or a def or class ("checks.run_suite").
    ``exports`` maps the names the package root re-exports to their defs."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "landaustar":
                    out[alias.asname or head] = rest if alias.asname else ""
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("landaustar"):
                module = module[len("landaustar."):]
            elif not (in_package and node.level == 1):
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = (
                    f"{module}.{alias.name}" if module else exports.get(alias.name, alias.name))
    return out


def parameter_values(sources: dict, package: set) -> tuple:
    """(defs, values): defs maps each def's qualified name to its parameters;
    values maps (qualified name, parameter) to the sources of the values it
    can take: its default and what each call that resolves to it passes.

    ``sources`` maps a module name to its text.  A package module is named by
    its stem ("checks"), any other file by its path ("tests/test_star"); a def
    is "module.name" or "module.Class.name".  A call resolves through the
    file's imports, its own defs and classes (a class call to __init__), and
    self and cls; a method call on any other object resolves to every package
    method of that name.  An argument that is a parameter of an enclosing def,
    not assigned there, forwards that parameter's values, so a wrapper that
    passes its own default on sets nothing; a required parameter that no call
    sets takes an unknown value.  A ``**`` keyword passes the keywords of a
    ``dict(...)`` call, written in place or bound to a name in the same file.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exports = _imports(trees["__init__"], {}, True) if "__init__" in trees else {}
    imports = {name: _imports(tree, exports, name in package) for name, tree in trees.items()}
    defs, classes, calls = {}, set(), []

    def resolve(expr, scope):
        if isinstance(expr, ast.Name):
            return scope.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = resolve(expr.value, scope)
            if base == "":
                return exports.get(expr.attr, expr.attr)
            if base is not None:
                return imports.get(base, {}).get(expr.attr, f"{base}.{expr.attr}")
        return None

    def walk(node, qual, scope, frames, dicts, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                q = f"{qual}.{child.name}"
                defs[q] = _parameters(child)
                params = {arg.arg for arg in ast.walk(child.args) if isinstance(arg, ast.arg)}
                stored = {n.id for n in ast.walk(child)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                local = dict.fromkeys(params | stored)
                local.update((c.name, f"{q}.{c.name}") for c in child.body
                             if isinstance(c, (ast.FunctionDef, ast.ClassDef)))
                if owner and child.args.args:
                    local[child.args.args[0].arg] = owner    # self or cls
                walk(child, q, scope.new_child(local), [(q, params, stored)] + frames, dicts)
            elif isinstance(child, ast.ClassDef):
                classes.add(f"{qual}.{child.name}")
                walk(child, f"{qual}.{child.name}", scope, frames, dicts, f"{qual}.{child.name}")
            elif isinstance(child, ast.Lambda):
                params = {arg.arg for arg in ast.walk(child.args) if isinstance(arg, ast.arg)}
                walk(child, qual, scope.new_child(dict.fromkeys(params)),
                     [(None, params, set())] + frames, dicts)
            else:
                if isinstance(child, ast.Call):
                    target = resolve(child.func, scope)
                    attr = getattr(child.func, "attr", None) if target is None else None
                    calls.append((target, attr, child, frames, dicts))
                walk(child, qual, scope, frames, dicts)

    for name, tree in trees.items():
        dicts = {node.targets[0].id: node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name) and _is_dict_call(node.value)}
        top = {c.name: f"{name}.{c.name}" for c in tree.body
               if isinstance(c, (ast.FunctionDef, ast.ClassDef))}
        walk(tree, name, ChainMap({**imports[name], **top}), [], dicts)

    values = {(q, name): set() if default is None else {default}
              for q, params in defs.items() for name, _, default in params}
    methods = [q for q in defs if q.rpartition(".")[0] in classes and q.partition(".")[0] in package]
    edges, bound = [], set()
    for target, attr, call, frames, dicts in calls:
        if target in classes:
            target += ".__init__"
        targets = [target] if target in defs else [q for q in methods if q.endswith(f".{attr}")]
        for q in targets:
            for name, arg in _bind(call, defs[q], dicts):
                bound.add((q, name))
                source = _forwarded(arg, frames)
                if source not in values:
                    values[(q, name)].add(ast.unparse(arg))
                else:
                    edges.append((source, (q, name)))
    for key, got in values.items():
        if not got and key not in bound:
            got.add(f"<{key[1]}>")
    changed = True
    while changed:
        changed = False
        for source, dest in edges:
            if not values[source] <= values[dest]:
                values[dest] |= values[source]
                changed = True
    return defs, values


def _is_dict_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"


def _bind(call, params, dicts):
    """(parameter, argument node) for each argument of the call."""
    positional = {index: name for name, index, _ in params if index is not None}
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if k in positional:
            yield positional[k], arg
    names = {name for name, _, _ in params}
    for kw in call.keywords:
        value = dicts.get(getattr(kw.value, "id", None), kw.value)
        items = [kw] if kw.arg is not None else value.keywords if _is_dict_call(value) else []
        yield from ((item.arg, item.value) for item in items if item.arg in names)


def _forwarded(arg, frames):
    """(def, parameter) whose value the argument passes on, or None."""
    if isinstance(arg, ast.Name):
        for q, params, stored in frames:
            if arg.id in params:
                return None if q is None or arg.id in stored else (q, arg.id)
            if arg.id in stored:
                return None
    return None


def unset_optional_parameters(sources: dict, package: set) -> list:
    """"module.def(parameter)" for each optional parameter of a package def
    that takes no value but its default."""
    defs, values = parameter_values(sources, package)
    return sorted(f"{q}({name})" for q, params in defs.items() if q.partition(".")[0] in package
                  for name, _, default in params
                  if default is not None and values[(q, name)] <= {default})


def test_every_optional_parameter_is_set_by_some_call():
    """A default that no call in the package, the benchmark, the tools or the
    tests overrides with another value is a knob nobody turns: it belongs in
    the body as a constant."""
    sources = {}
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            name = (path.stem if path.parent == reach.PACKAGE
                    else path.relative_to(ROOT).with_suffix("").as_posix())
            sources[name] = path.read_text()
    package = {path.stem for path in reach.PACKAGE.glob("*.py")}
    unset = unset_optional_parameters(sources, package)
    assert not unset, unset


def test_the_parameter_rule_follows_forwarded_defaults_and_module_names():
    """A wrapper that forwards the default sets nothing, and a call to a
    same-named def of another module or file sets nothing here."""
    sources = {
        "__init__": "from .m import f\n",
        "m": "def f(x, radius=0.5, points=10):\n    return x\n",
        "other": "def f(x, radius=0.5):\n    return x\n",
        "tests/t": (
            "from landaustar import f\n"
            "from landaustar import other\n"
            "def f_near(x, radius=0.5, points=16):\n"
            "    return f(x, radius=radius, points=points)\n"
            "def g(r):\n"
            "    return f(1, r)\n"
            "def test():\n"
            "    g(0.5)\n"
            "    other.f(2, radius=0.7)\n"),
    }
    assert unset_optional_parameters(sources, {"__init__", "m", "other"}) == ["m.f(radius)"]
    sources["tests/t"] += "    g(0.7)\n"
    assert unset_optional_parameters(sources, {"__init__", "m", "other"}) == []
