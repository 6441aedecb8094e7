"""One reader of the elimination, one integer product loop, one
nilpotency predicate and no dead surface.

`exact.rref` is read only by `exact.independent_subset`; rank, kernels,
solutions and inverses are questions to that function, and no other
module names `rref`.  So a change of elimination touches `rref` and
`independent_subset` only.  Likewise the integer dot product
`map(mul, ...)` is written only in `exact.int_matmul`, and the Gaussian
cross term x*u - y*v only in `exact.gaussian_int_matmul`, so no module
forks a second product loop; the trace-identity expansion of `nilpotency`
runs on `int_matmul` alone, complex spaces on their real embedding.  `Scalar` is a value that is parsed,
compared and printed, with no arithmetic dunder, and the modules above
`exact` read no Scalar entries and name neither `ONE` nor `ZERO`: their
coordinates and coefficients stay on the grids.  The characteristic polynomial is named
only in `exact` and in the `oracle` printout of `cli`, so every verdict
asks `is_nilpotent_matrix`.  The `oracle` command names none of the
classifier's structural tools, so its sampling shares no shortcut with
the classifier.  A vector is a d x 1 `Matrix`, so no
module names the retired tuple-vector helpers.  Every LQN verdict is
built in `classify._lqn`, the one caller of `verify_certificate` in its
module, so no positive verdict skips the trust boundary.  `classify` is
the one ladder for an operator: `nilpotency` defines no verdict type of
its own and names `classify` only in `all_x_nilpotent`, which does
nothing but delegate to it.  That boundary,
`certificate`, imports only `errors`, `exact` and `operators`; neither
its import closure nor that of `serialize` reaches `nilpotency` or
`classify`, and the CLI `verify` command names nothing those two define,
so no search code takes part in a check.  Matrices are
read and written at the JSON boundary, and printed as text, on their
integer grids: `serialize` names neither `Fraction` nor `Scalar`, and
`Matrix.to_text` and the repr read no `Scalar` entries.  And every
public top-level function or class is used by some other module or by
the benchmark, or is kept on purpose with its reason.  This parses the
sources under src/ and perfbench/ and imports nothing from them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elemop"
MODULES = sorted(SRC.glob("*.py"))


def _named(node):
    """The identifiers a node names: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name, node.asname)
    return ()


def _references(tree, names):
    """Line numbers of every identifier, attribute or import naming one of names."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if any(name in names for name in _named(node))
    ]


def _rref_references(tree):
    return _references(tree, {"rref"})


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


def _cross_terms(tree):
    """Line numbers of every Gaussian cross term x*u - y*v: a difference
    whose right side is a product and whose left side is a product, or a
    sum ending in one, as in t + x*u - y*v."""

    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and is_product(node.right)
        and (
            is_product(node.left)
            or (
                isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Add)
                and is_product(node.left.right)
            )
        )
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "exact.py"], ids=lambda p: p.name)
def test_gaussian_cross_term_is_written_only_in_exact(path):
    assert _cross_terms(ast.parse(path.read_text())) == []


def test_only_gaussian_int_matmul_writes_the_cross_term():
    """Every multiply-accumulate on the grids, the linear combinations,
    the coefficient tensor, ratio and the divisions among them, is a
    kernel call; nothing multiplies Gaussian rationals by hand."""
    tree = ast.parse((SRC / "exact.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    inside = set(_cross_terms(functions["gaussian_int_matmul"]))
    assert inside, "gaussian_int_matmul must hold the cross term"
    assert set(_cross_terms(tree)) == inside


def test_the_trace_identity_expansion_names_only_the_integer_kernel():
    """One integer arithmetic for the expansion: `nilpotency` names
    `int_matmul` and not `gaussian_int_matmul`."""
    tree = ast.parse((SRC / "nilpotency.py").read_text())
    assert _references(tree, {"int_matmul"}), "the expansion must run on int_matmul"
    assert _references(tree, {"gaussian_int_matmul"}) == []


ARITHMETIC_DUNDERS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "matmul")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__", "_coerce"}


def test_scalar_defines_no_arithmetic():
    """Scalar is parsed, compared and printed; its arithmetic is gone."""
    tree = ast.parse((SRC / "exact.py").read_text())
    scalar = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scalar")
    defined = {
        name
        for node in scalar.body
        for name in _defined(node)
        + tuple(t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name))
    }
    assert sorted(defined & ARITHMETIC_DUNDERS) == []
    assert "__str__" in defined and "is_zero" in defined


GRID_MODULES = ["operators.py", "classify.py", "nilpotency.py", "spaces.py"]
SCALAR_ENTRY_READS = {"entries", "entry", "row"}
SCALAR_CONSTANTS = {"ONE", "ZERO"}


@pytest.mark.parametrize("name", GRID_MODULES)
def test_coordinates_stay_on_the_grids(name):
    """The layers above exact read no Scalar entries of a matrix and name
    no Scalar constant, so no coordinate or coefficient leaves the grids
    for Scalar arithmetic."""
    tree = ast.parse((SRC / name).read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_ENTRY_READS
    ]
    assert reads == []
    assert _references(tree, SCALAR_CONSTANTS) == []


CHAR_POLY = {"char_poly", "lambda_power"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("exact.py", "cli.py")], ids=lambda p: p.name
)
def test_char_poly_is_named_only_in_exact_and_the_oracle(path):
    assert _references(ast.parse(path.read_text()), CHAR_POLY) == []


def test_cli_names_char_poly_only_for_the_oracle_printout():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    allowed = set(_references(functions["_cmd_oracle"], CHAR_POLY))
    allowed.update(line for node in imports for line in _references(node, CHAR_POLY))
    assert set(_references(tree, CHAR_POLY)) == allowed


CLASSIFIER_SHORTCUTS = {
    "classify",
    "minimal_length",
    "all_x_nilpotent",
    "block_strict_triangularize",
    "subspace_all_nilpotent",
}


def test_oracle_names_no_classifier_shortcut():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _references(functions["_cmd_oracle"], CLASSIFIER_SHORTCUTS) == []


# -- one storage for vectors ----------------------------------------------

TUPLE_VECTORS = {"Vector", "vectorize", "vec_sub", "vec_scale", "vec_is_zero", "outer", "_zero_vec"}


def _defined(node):
    """The name a definition binds, if any."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return (node.name,)
    return ()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_a_tuple_vector_helper(path):
    tree = ast.parse(path.read_text())
    named = {
        name for node in ast.walk(tree) for name in _named(node) + _defined(node)
    }
    assert sorted(named & TUPLE_VECTORS) == []


# -- one builder of LQN verdicts ------------------------------------------


def _lqn_builds(tree):
    """Line numbers of every ClassificationVerdict(...) call whose status
    is the constant "LQN", given by position or by keyword."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "ClassificationVerdict" in _named(node.func):
            status = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "status":
                    status = keyword.value
            if isinstance(status, ast.Constant) and status.value == "LQN":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "classify.py"], ids=lambda p: p.name)
def test_no_other_module_builds_an_lqn_verdict(path):
    assert _lqn_builds(ast.parse(path.read_text())) == []


def test_only_lqn_builds_an_lqn_verdict_and_verifies_it():
    tree = ast.parse((SRC / "classify.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    inside = set(_lqn_builds(functions["_lqn"]))
    assert inside, "_lqn must build the LQN verdict"
    assert set(_lqn_builds(tree)) == inside
    verify = {"verify_certificate"}
    checked = set(_references(functions["_lqn"], verify))
    assert checked, "_lqn must call verify_certificate"
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {line for node in imports for line in _references(node, verify)}
    assert imported, "classify must take verify_certificate from certificate"
    assert set(_references(tree, verify)) == checked | imported


# -- one ladder for an operator ---------------------------------------------


def _top_level(tree):
    return {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_nilpotency_defines_no_verdict_type():
    """No function of nilpotency that takes an operator returns a class
    that nilpotency defines; the operator's verdict is classify's."""
    tops = _top_level(ast.parse((SRC / "nilpotency.py").read_text()))
    classes = {name for name, node in tops.items() if isinstance(node, ast.ClassDef)}
    assert not classes & {"Certified", "Refuted", "ProbablyNilpotent"}
    on_operators = [
        node
        for node in tops.values()
        if isinstance(node, ast.FunctionDef)
        and node.args.args
        and "ElementaryOperator" in {n for sub in ast.walk(node.args.args[0]) for n in _named(sub)}
    ]
    assert on_operators, "nilpotency must still hold operator-level helpers"
    for node in on_operators:
        assert node.returns is not None, node.name
        returned = {n for sub in ast.walk(node.returns) for n in _named(sub)}
        assert sorted(returned & classes) == [], node.name


def test_nilpotency_names_classify_only_to_delegate():
    tree = ast.parse((SRC / "nilpotency.py").read_text())
    delegate = _top_level(tree)["all_x_nilpotent"]
    inside = set(_references(delegate, {"classify"}))
    assert inside, "all_x_nilpotent must delegate to classify"
    assert set(_references(tree, {"classify"})) == inside
    docstring, imported, returned = delegate.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(imported, ast.ImportFrom) and imported.module == "classify"
    assert isinstance(returned, ast.Return) and isinstance(returned.value, ast.Call)
    assert _named(returned.value.func) == ("classify",)


# -- one trust boundary ----------------------------------------------------

SEARCH_MODULES = {"nilpotency", "classify"}


def _imported_modules(tree):
    """The elemop modules a module imports: `from .x import ...` names x,
    and `from . import ...` the package itself, whose __init__ imports
    every layer."""
    return {
        node.module or "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def _import_closure(name):
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        todo.extend(_imported_modules(ast.parse((SRC / f"{module}.py").read_text())))
    return seen - {name}


@pytest.mark.parametrize("name", ["certificate", "serialize"])
def test_the_trust_boundary_imports_no_search_code(name):
    assert sorted(_import_closure(name) & SEARCH_MODULES) == []


def test_certificate_imports_only_the_arithmetic_and_operator_layers():
    tree = ast.parse((SRC / "certificate.py").read_text())
    assert _imported_modules(tree) <= {"errors", "exact", "operators"}


def test_cli_verify_names_no_search_code():
    """_cmd_verify, and every cli function it reaches by name, names
    nothing that nilpotency or classify defines."""
    searched = set()
    for module in SEARCH_MODULES:
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            searched.update(_defined(node))
            if isinstance(node, ast.Assign):
                searched.update(t.id for t in node.targets if isinstance(t, ast.Name))
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen = ["_cmd_verify"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        assert _references(functions[name], searched) == [], name
        todo.extend(
            node.id for node in ast.walk(functions[name])
            if isinstance(node, ast.Name) and node.id in functions
        )
    assert "_load_instance" in seen


# -- the text and JSON boundary on the grids ------------------------------

SCALAR_TYPES = {"Fraction", "fractions", "Scalar"}
SCALAR_READERS = {"entries", "entry", "row", "Scalar", "_scalar_over"}


def test_serialize_names_neither_fraction_nor_scalar():
    assert _references(ast.parse((SRC / "serialize.py").read_text()), SCALAR_TYPES) == []


def test_matrix_text_reads_no_scalar_entries():
    """to_text and the repr, and every Matrix method they reach through
    self, read the grids only."""
    tree = ast.parse((SRC / "exact.py").read_text())
    matrix = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Matrix")
    methods = {n.name: n for n in matrix.body if isinstance(n, ast.FunctionDef)}
    todo, seen = ["to_text", "__repr__"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        assert _references(methods[name], SCALAR_READERS) == [], name
        todo.extend(
            node.attr
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in methods
        )
    assert {"to_text", "__repr__"} <= seen


# -- no dead surface -------------------------------------------------------

#: Public names that no other module and no benchmark uses, kept because
#: they carry a notion of the paper or are the way tests build inputs.
KEEP = {
    "dim_phi_x_squared_range": "the paper's rank bound on phi(x)^2 for the exceptional forms",
    "special_plane_member": "the paper's exceptional plane of nilpotent 3 x 3 matrices",
    "construct_triangular_rep": "the paper's representation with v_i u_j = 0 for i >= j",
    "structure_dimv1": "the paper's structure theorem for dim V(phi) = 1",
    "gerstenhaber_check": "Gerstenhaber's bound on the dimension of a nil space",
    "hat_space": "the paper's evaluation maps, bounded by the local dimension",
    "is_locally_linearly_dependent": "the paper's local linear dependence",
    "adjoint_flip": "the paper's flip of every pair (a_i, b_i) to (b_i, a_i)",
    "compose_is_zero": "the paper's vanishing compositions psi(phi(x)) = 0",
}


def _orphans():
    """Public top-level functions and classes of src/elemop that no other
    top-level statement there names (re-exports in __init__ aside) and no
    file of perfbench/ names, counting the strings of its tables of traced
    functions."""
    tops = [
        node
        for path in MODULES
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    names_in = [{n for sub in ast.walk(top) for n in _named(sub)} for top in tops]
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            bench.update(_named(node))
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                bench.add(node.value)
    return {
        top.name
        for top in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and top.name not in bench
        and not any(top.name in names for other, names in zip(tops, names_in) if other is not top)
    }


def test_every_public_name_is_used_or_kept_on_purpose():
    assert sorted(_orphans() - KEEP.keys()) == []


def test_every_kept_name_is_still_unused_elsewhere():
    assert sorted(KEEP.keys() - _orphans()) == []
