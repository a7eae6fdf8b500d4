"""The package's input rules each exist once, in block_dct: _check_int, _check_real, _check_finite.

No other module of the package tests finiteness, integer-ness or bool-ness by itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dctpipe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "block_dct.py")
# (module, name) pairs that only the rules in block_dct may use
FORBIDDEN = {("np", "isfinite"), ("numpy", "isfinite"), ("math", "isfinite"), ("operator", "index")}


def _mentions_bool(node: ast.expr) -> bool:
    """Whether an isinstance type argument names bool or numpy's bool, alone or in a tuple."""
    if isinstance(node, ast.Tuple):
        return any(_mentions_bool(e) for e in node.elts)
    return (isinstance(node, ast.Name) and node.id == "bool") or (
        isinstance(node, ast.Attribute) and node.attr in ("bool", "bool_")
    )


def rule_copies(path: Path) -> list[str]:
    """Each use in a module of a check that belongs to block_dct's rules, as 'line: source'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            bad = (node.value.id, node.attr) in FORBIDDEN
        elif isinstance(node, ast.ImportFrom):
            bad = any((node.module, alias.name) in FORBIDDEN for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            bad = node.func.id == "isinstance" and len(node.args) == 2 and _mentions_bool(node.args[1])
        else:
            bad = False
        if bad:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_every_module_is_scanned():
    assert len(MODULES) > 10 and all(p.is_file() for p in MODULES)


def test_the_scan_finds_each_kind_of_copy(tmp_path):
    module = tmp_path / "copies.py"
    module.write_text(
        "import math, operator\nfrom numpy import isfinite\n"
        "np.isfinite(x)\nmath.isfinite(x)\noperator.index(n)\n"
        "isinstance(v, bool)\nisinstance(v, (int, np.bool_))\nisinstance(v, int)\n"
    )
    assert sorted(int(line.split(":")[0]) for line in rule_copies(module)) == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_copies_a_block_dct_rule(path):
    assert not rule_copies(path), f"{path.name} copies a rule of block_dct: {rule_copies(path)}"
