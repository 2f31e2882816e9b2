"""Examples: every script must parse, expose a main() and import only
names that repro still exports.

Running the examples end-to-end takes minutes (they use the full
small-8core system); importability and structure are what unit tests can
cheaply guarantee.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_at_least_three_examples_exist():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_parses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_main_guard(path):
    source = path.read_text()
    assert 'if __name__ == "__main__":' in source
    assert "def main(" in source


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_uses_public_api(path):
    """Examples must import from the package, not hack internals."""
    tree = ast.parse(path.read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    modules = set()
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
    assert "repro" in modules, f"{path.name} never imports repro"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_repro_imports_resolve(path):
    """Every name an example imports from repro must still exist."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (
                f"{path.name}: {node.module} has no {alias.name!r}")
