"""One reader of the elimination.

`exact.rref` is read only by `exact.independent_subset`; rank, kernels,
solutions and inverses are questions to that function, and no other
module names `rref`.  So a change of elimination touches `rref` and
`independent_subset` only.  This parses the sources under src/ and
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
