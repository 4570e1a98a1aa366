"""Every public name of the package is reached from outside the tests.

The package serves the command line and the benchmark harness.  A public
function, class, method or class field (an annotated assignment in a class
body, such as a dataclass field) that only tests reach restates through
extra API a claim that the API in use already carries, so it goes unless it
is listed in ``ALLOWED`` with its reason.  The scan reads, with ``ast``, the
code in ``src/orbitopes`` and ``perfbench`` (the harness and its tests);
strings and docstrings do not count.  A module-level function or class is
reached by any name, attribute name or imported name; a method or field
only by an attribute read (``x.name``) or a keyword argument
(``f(name=...)``), so a local variable or a parameter of the same name does
not hide it.  Reads on ``args``, the argparse namespace of the command
handlers, do not count either: ``args.degree`` is a command-line option,
not ``CurveInfo.degree``.

The benchmark harness wraps the functions it names in ``TRACE_TARGETS``,
looked up by name, so each of those names must resolve in the package.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public name -> why it stays although only tests reach it
ALLOWED = {
    "secant_point": "the reference the secant sampler tests compare against",
    "secant_surface_14_known_terms": "criterion 04's 88 known terms of the "
                                     "degree-15 equation",
    "max_min_slack": "a benchmark trace target, which perfbench names only "
                     "in a string",
}


def public_names(path: Path):
    """Public module-level functions and classes of a module, and the public
    methods and annotated fields of those classes as ``Class.member``."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif (isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}"


def referenced_names(paths) -> tuple[set[str], set[str]]:
    """The names that reach a module-level function or class, and those
    that reach a method or field: attribute reads and keyword arguments."""
    names, members = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "args")):
                members.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                members.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names | members, members


def test_public_api_is_reached_outside_the_tests():
    modules = sorted((ROOT / "src" / "orbitopes").glob("*.py"))
    names, members = referenced_names(
        modules + sorted((ROOT / "perfbench").rglob("*.py")))
    unreached = {name for path in modules for name in public_names(path)
                 if name.rsplit(".", 1)[-1] not in
                 (members if "." in name else names)}
    assert unreached - ALLOWED.keys() == set()
    assert ALLOWED.keys() <= unreached, "an allowed name is reached now; drop it"


def trace_targets() -> list[str]:
    """The keys of ``TRACE_TARGETS`` in the harness, read without importing
    it."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.target.id == "TRACE_TARGETS"):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no TRACE_TARGETS in perfbench/worker.py")


def test_trace_targets_resolve_in_the_package():
    targets = trace_targets()
    assert targets
    for qualname in targets:
        module, *path = qualname.split(".")
        owner = importlib.import_module(f"orbitopes.{module}")
        assert len(path) in (1, 2), qualname
        for attr in path:
            assert attr in vars(owner), qualname
            owner = vars(owner)[attr]
        assert callable(owner) or isinstance(owner, classmethod), qualname
