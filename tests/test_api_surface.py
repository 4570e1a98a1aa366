"""Every public name of the package is reached from outside the tests.

The package serves the command line and the benchmark harness.  A public
function, class or method that only tests reach restates through extra API
a claim that the API in use already carries, so it goes unless it is listed
in ``ALLOWED`` with its reason.  The scan reads, with ``ast``, the names,
attribute names and imported names in ``src/orbitopes`` and ``perfbench``
(the harness and its tests); strings and docstrings do not count.
"""

import ast
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
    methods of those classes as ``Class.method``."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_public_api_is_reached_outside_the_tests():
    modules = sorted((ROOT / "src" / "orbitopes").glob("*.py"))
    used = referenced_names(modules + sorted((ROOT / "perfbench").rglob("*.py")))
    unreached = {name for path in modules for name in public_names(path)
                 if name.rsplit(".", 1)[-1] not in used}
    assert unreached - ALLOWED.keys() == set()
    assert ALLOWED.keys() <= unreached, "an allowed name is reached now; drop it"
