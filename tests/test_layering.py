"""One reader of the elimination, one integer product loop.

`exact.rref` is read only by `exact.independent_subset`; rank, kernels,
solutions and inverses are questions to that function, and no other
module names `rref`.  So a change of elimination touches `rref` and
`independent_subset` only.  Likewise the integer dot product
`map(mul, ...)` is written only in `exact.int_matmul`, so no module
forks a second product loop.  This parses the sources under src/ and
imports nothing from them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "elemop"
MODULES = sorted(SRC.glob("*.py"))


def _rref_references(tree):
    """Line numbers of every identifier, attribute or import naming rref."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "rref":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "rref":
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and "rref" in (node.name, node.asname):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "exact.py"], ids=lambda p: p.name)
def test_rref_is_named_only_in_exact(path):
    assert _rref_references(ast.parse(path.read_text())) == []


def test_only_independent_subset_reads_rref():
    tree = ast.parse((SRC / "exact.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "rref" in functions
    inside = set(_rref_references(functions["independent_subset"]))
    assert inside, "independent_subset must call rref"
    assert set(_rref_references(tree)) == inside


def _dot_products(tree):
    """Line numbers of every call map(mul, ...), by name or attribute."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "map"
            and node.args
        ):
            first = node.args[0]
            if (isinstance(first, ast.Name) and first.id == "mul") or (
                isinstance(first, ast.Attribute) and first.attr == "mul"
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "exact.py"], ids=lambda p: p.name)
def test_dot_product_is_written_only_in_exact(path):
    assert _dot_products(ast.parse(path.read_text())) == []


def test_only_int_matmul_writes_the_dot_product():
    tree = ast.parse((SRC / "exact.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    inside = set(_dot_products(functions["int_matmul"]))
    assert inside, "int_matmul must hold the dot product"
    assert set(_dot_products(tree)) == inside
