"""numpy stays the only runtime dependency of the package and its scripts."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dctpipe").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dctpipe"}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_is_scanned():
    assert len(MODULES) > 10 and all(p.is_file() for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_only_the_standard_library_and_numpy(path):
    extra = imported_packages(path) - ALLOWED
    assert not extra, f"{path.name} imports {sorted(extra)}"
