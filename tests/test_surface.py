"""Every public module-level function and class of the package is reached from
outside the tests: from a package module other than ``__init__`` (its own
included), from a perfbench or scripts module, or from the acceptance criteria.
A name that only tests call is a second surface beside the kernels the runs
use. Each name has one import path, its module's: ``__init__`` holds only the
package docstring.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names that no such module references, each with its reason
ALLOWED = {
    "sweep_trial": "perfbench/spans.py wraps it by its dotted name, a string",
}


def referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    package = sorted((ROOT / "src" / "localtts").glob("*.py"))
    readers = [path for path in package if path.name != "__init__.py"] + [
        *sorted(ROOT.glob("perfbench/*.py")), *sorted(ROOT.glob("scripts/*.py")),
        ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(referenced_names, readers))
    public = {node.name: f"{path.stem}.{node.name}" for path in package
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unreached = [public[name] for name in public if name not in used and name not in ALLOWED]
    assert not unreached, f"public names that only tests call: {', '.join(unreached)}"
    # an allowed name that is reached, or gone, leaves the list
    stale = [name for name in ALLOWED if name in used or name not in public]
    assert not stale, f"allowed names that are reached or gone: {', '.join(stale)}"


def test_init_holds_only_its_docstring():
    tree = ast.parse((ROOT / "src" / "localtts" / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1, [type(n).__name__ for n in tree.body]
