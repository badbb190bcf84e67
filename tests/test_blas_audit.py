"""No matrix product in the package outside a named allow-list.

A matrix product goes to BLAS (gemm, gemv, syrk, dot), whose kernel
OpenBLAS picks by CPU at run time and whose rounding follows that kernel
and the shape of the call; numpy's elementwise products and row reductions
round alike on every CPU. So every `@`, `np.dot`, `np.matmul`, `np.einsum`,
`np.inner`, `np.vecdot`, `np.tensordot` or `np.linalg` in
src/factortilt/*.py, found by walking each module's syntax tree, must sit
in a function of ALLOWED, and each function there must still make one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "factortilt"
# (module, function): the tilt's score (a gemv) and the correlation kernel's
# stacked matmul (a syrk per pair); removing either removes its entry
ALLOWED = {("weighting", "composite_score"), ("calibration", "pair_correlations")}
PRODUCTS = {"dot", "matmul", "einsum", "inner", "vecdot", "tensordot", "linalg"}


def matrix_products(source: str) -> list[tuple[str | None, int, str]]:
    """(enclosing function or None, line, what) of each matrix product in
    the module source: the @ operator, an attribute or import named in
    PRODUCTS (np.dot, x.dot, numpy.linalg, from numpy import einsum)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((function, node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append((function, node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = set((node.module or "").split(".")) | {alias.name for alias in node.names}
            found.extend((function, node.lineno, name) for name in sorted(names & PRODUCTS))
        elif isinstance(node, ast.Import):
            found.extend((function, node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "numpy" and PRODUCTS & set(alias.name.split(".")))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_matrix_product_outside_the_allow_list():
    sites = {(path.stem, function): (line, what) for path in sorted(SRC.glob("*.py"))
             for function, line, what in matrix_products(path.read_text(encoding="utf-8"))}
    stray = {f"{module}.py:{line} {what} in {function}" for (module, function), (line, what) in sites.items()
             if (module, function) not in ALLOWED}
    assert not stray, sorted(stray)
    assert ALLOWED <= set(sites), f"no matrix product left in {sorted(ALLOWED - set(sites))}: drop the entry"


@pytest.mark.parametrize("source, what", [
    ("def f(a, b):\n    return a @ b\n", "@"),
    ("def f(a, b):\n    a @= b\n", "@"),
    ("def f(a, b):\n    return np.dot(a, b)\n", "dot"),
    ("def f(a, b):\n    return a.dot(b)\n", "dot"),
    ("def f(a, b):\n    return np.einsum('ij,j->i', a, b)\n", "einsum"),
    ("def f(a):\n    return np.linalg.norm(a)\n", "linalg"),
    ("from numpy import tensordot\n", "tensordot"),
    ("from numpy.linalg import solve\n", "linalg"),
    ("import numpy.linalg as la\n", "numpy.linalg"),
])
def test_the_audit_finds_each_kind_of_matrix_product(source, what):
    assert [w for _, _, w in matrix_products(source)] == [what]


def test_the_audit_ignores_elementwise_products_and_row_sums():
    source = "def f(a, b):\n    return np.add.reduce(np.multiply(a, b), axis=1) * a\n"
    assert matrix_products(source) == []
