"""Every name the benchmark in ``perfbench/`` reads from the package resolves.

The benchmark files are parsed, not imported, so this stays fast and needs
none of the benchmark's own set-up.
"""

import ast
import importlib
from pathlib import Path

import pytest

from wreathnorm import oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs: names imported from the package's modules, and
    attributes read off a package module bound to a local name."""
    modules: dict[str, str] = {}  # local name -> module path
    used: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wreathnorm":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "wreathnorm"
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] != "wreathnorm":
                continue
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(submodule)
                except ModuleNotFoundError:
                    used.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add((modules[node.value.id], node.attr))
    return used


def test_the_parsed_surface_holds_the_bfs_entry_points():
    used = set().union(*(_used_names(_tree(path)) for path in SOURCES))
    assert {
        ("wreathnorm.oracle", "SbarContext"),
        ("wreathnorm.oracle", "bounded_norm"),
        ("wreathnorm.oracle", "bfs_norms"),
        ("wreathnorm.lamp", "LampElem"),
    } <= used


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_names_used_by_the_benchmark_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in sorted(_used_names(_tree(path)))
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_benchmark_validators_resolve_on_oracle():
    tree = _tree(PERFBENCH / "harness.py")
    [validators] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "VALIDATORS" for t in node.targets)
    ]
    names = ast.literal_eval(validators).values()
    assert names and all(callable(getattr(oracle, name, None)) for name in names)
