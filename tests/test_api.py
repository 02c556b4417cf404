"""The public surface as the package states it: each module's __all__,
and the names the README and the caps docstring cite."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import kuniform
from kuniform import caps

MODULES = {info.name: importlib.import_module(f"kuniform.{info.name}") for info in pkgutil.iter_modules(kuniform.__path__)}
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(name for name, module in MODULES.items() if hasattr(module, "__all__")))
def test_all_lists_each_public_name(name):
    """Every name in __all__ resolves, and every public top-level def or
    class of the module is in it."""
    module = MODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    tree = ast.parse(inspect.getsource(module))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(n for n in defined if not n.startswith("_") and n not in module.__all__) == []


def _classes() -> dict:
    """Each class defined in a kuniform module, by name."""
    return {
        name: obj
        for module in MODULES.values()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }


def _unresolved(cited: list[str]) -> list[str]:
    """The dotted names among cited whose head is a kuniform module (or
    kuniform itself) or class, and whose tail is no attribute of it."""
    heads = {**MODULES, **_classes(), "kuniform": kuniform}
    bad = []
    for dotted in cited:
        head, *tail = dotted.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for part in tail:
            if not hasattr(obj, part):
                bad.append(dotted)
                break
            obj = getattr(obj, part)
    return bad


def _outside_fences(text: str) -> str:
    return "".join(part for i, part in enumerate(re.split(r"^```.*$", text, flags=re.M)) if i % 2 == 0)


DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"


def test_cited_names_resolve():
    """Every backticked module.name or Class.attr in the README, outside
    code fences, and every such dotted name in the caps docstring names
    something that exists."""
    readme = re.findall(rf"`({DOTTED})", _outside_fences(README.read_text()))
    assert {"codes._read_coset", "states._Purified", "PureState.to_vector"} <= set(readme)
    assert _unresolved(readme) == []
    cited = re.findall(rf"\b{DOTTED}", caps.__doc__)
    assert "states._Purified.undecided" in cited
    assert _unresolved(cited) == []


def _private_definitions(tree: ast.Module) -> list:
    """The names of a module's private functions, classes and methods: each
    def or class whose name has one leading underscore, and each method of
    a private class but its dunders."""
    found = []

    def visit(node, private_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and (child.name.startswith("_") or private_class and not isinstance(child, ast.ClassDef)):
                    found.append(child.name)
                visit(child, isinstance(child, ast.ClassDef) and child.name.startswith("_"))
            else:
                visit(child, private_class)

    visit(tree, False)
    return found


def test_every_private_helper_is_named_outside_its_definition():
    """Every private function, class or method defined in the package is
    named somewhere in it besides its own definition: as a name, an
    attribute, or a string that is exactly the name (as getattr takes it).
    A helper that a change left without a caller fails here.  Names are
    compared as words, so two methods of one name count as one."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(kuniform.__file__).parent.rglob("*.py"))]
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            named.add(node.value)
    assert sorted({name for tree in trees for name in _private_definitions(tree)} - named) == []
