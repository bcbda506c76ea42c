"""Every public function and class of zipvl is used by the package, its scripts or its benchmark.

The package's API is its modules (`from zipvl.engine import prefill`); the
package itself re-exports nothing. Each module-level def or class in a
src/zipvl/*.py file whose name does not start with "_" must be named
somewhere in a .py file under src/zipvl, scripts/ or perfbench/ other than
its own def or class line. A name counts where the code names it: as a
variable, an attribute, an imported name, or a string made only of dotted
names (perfbench's tracer finds its targets by such strings). A docstring, a
comment or a prose message does not count. A definition that only tests
reach fails here: delete it, or give it a caller.
"""

import ast
import pathlib
import re

import zipvl

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zipvl"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _trees() -> dict[pathlib.Path, ast.Module]:
    files = list(PACKAGE.glob("*.py"))
    files += list((ROOT / "scripts").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(files)}


def _definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _named(tree: ast.Module) -> set[str]:
    """The names the code in tree refers to, docstrings and comments aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def test_every_public_definition_is_used_outside_its_definition():
    trees = _trees()
    named = set().union(*map(_named, trees.values()))
    defined = {
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _definitions(tree)
    }
    assert len(defined) > 40  # the check sees the modules' definitions
    assert sorted(d for d in defined if d.split(".")[1] not in named) == []


def test_the_package_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1
    assert not hasattr(zipvl, "__all__")
