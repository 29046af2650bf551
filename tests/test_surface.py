"""Every public module-level function and class of the package is reached from
outside the tests: from a package module (its own included; the re-exports of
``__init__`` do not count), from a perfbench or scripts module, or from the
acceptance criteria. A name that only tests call is a second surface beside
the kernels the runs use.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names that no such module references, each with its reason
ALLOWED = {
    "best_of_n": "public API: the best-of-N baseline, a search with no refinement",
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
