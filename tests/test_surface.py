"""The supported API, landaustar.__all__, is what the commands and checks use.

The rule is static: it reads the sources with ast.
"""

import importlib.util
import types
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
