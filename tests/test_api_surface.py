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
not hide it.  A read on the first parameter of a method (``self.name``,
``cls.name``) reaches only the member of the enclosing class or of one of
its bases, so a class's own ``self.name`` does not hide a method ``name``
of another class.  Reads on ``args``, the argparse namespace of the
command handlers, do not count either: ``args.degree`` is a command-line
option, not ``CurveInfo.degree``.

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


def self_reads(tree):
    """The attribute reads on the first parameter of a method (``self`` or
    ``cls``), each with the name of the method's class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (not isinstance(method, ast.FunctionDef) or not method.args.args
                    or any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in method.decorator_list)):
                continue
            first = method.args.args[0].arg
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == first):
                    yield node, cls.name


def referenced_names(paths) -> tuple[set[str], set[str]]:
    """The names that reach a module-level function or class, and those
    that reach a method or field: attribute reads and keyword arguments by
    leaf name, and reads on ``self`` as ``Class.member``, for the enclosing
    class and each of its bases."""
    names, members, own, bases = set(), set(), set(), {}
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {id(node): cls for node, cls in self_reads(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [base.id for base in node.bases
                                    if isinstance(base, ast.Name)]
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif id(node) in owner:
                own.add((owner[id(node)], node.attr))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "args")):
                members.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                members.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])

    def lineage(cls):
        yield cls
        for base in bases.get(cls, ()):
            yield from lineage(base)

    members |= {f"{cls}.{attr}" for start, attr in own for cls in lineage(start)}
    return names | members, members


def unreached_names(modules, paths) -> set[str]:
    """The public names of ``modules`` that no code in ``paths`` reaches."""
    names, members = referenced_names(paths)
    return {name for path in modules for name in public_names(path)
            if not {name, name.rsplit(".", 1)[-1]}
            & (members if "." in name else names)}


def test_public_api_is_reached_outside_the_tests():
    modules = sorted((ROOT / "src" / "orbitopes").glob("*.py"))
    unreached = unreached_names(
        modules, modules + sorted((ROOT / "perfbench").rglob("*.py")))
    assert unreached - ALLOWED.keys() == set()
    assert ALLOWED.keys() <= unreached, "an allowed name is reached now; drop it"


def test_a_read_on_self_reaches_only_its_own_class(tmp_path):
    # Cell.scaled reads its own field area, which a scan by leaf name takes
    # for a read of the method Plot.area too; Square reads the field side
    # it inherits from Cell
    module = tmp_path / "shapes.py"
    module.write_text(
        "class Plot:\n"
        "    def area(self):\n"
        "        return 0\n"
        "class Cell:\n"
        "    side: int\n"
        "    area: int\n"
        "    def scaled(self):\n"
        "        return self.area\n"
        "class Square(Cell):\n"
        "    def perimeter(self):\n"
        "        return 4 * self.side\n"
        "def use(cell):\n"
        "    return cell.scaled(), Square().perimeter()\n"
        "use(Plot())\n")
    _, members = referenced_names([module])
    assert {"Cell.area", "Cell.side", "Square.side"} <= members
    assert "area" not in members
    assert unreached_names([module], [module]) == {"Plot.area"}


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
