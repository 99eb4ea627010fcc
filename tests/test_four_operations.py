"""The four-operations rule, checked on the source: every module of the
package computes with +, -, x and / only.

A static walk over the AST of each ``src/fourops/*.py`` fails on:

- an import of ``cmath``, ``decimal`` or ``numpy``;
- a ``math`` attribute (or ``from math import``) outside {inf, isfinite,
  lcm}: constants, a finiteness test and the integer lcm, no function
  that computes a root or a transcendental value;
- a call of ``pow``;
- a ``**`` (or ``**=``) whose exponent is not an int expression: int
  literals and the integer names in INT_NAMES (orders, degrees and
  indices) under +, - and x.  x ** n with int n is n - 1 products, or
  their reciprocal when n < 0.

``abs()`` cannot be typed statically.  Every call site is listed in
ABS_SITES with the real value it takes; a new one fails the test until
it is listed there.  |x| of a real x is a comparison and a sign flip.

Integer floor division ``//``, remainder ``%`` and the shifts ``<<`` and
``>>`` count as allowed exact-integer operations and are not flagged: on
ints they are division with remainder and multiplication or division by
a power of 2, which ``Fraction`` already relies on through its gcd.
"""

import ast
from pathlib import Path

import pytest

import fourops

SOURCES = sorted(Path(fourops.__file__).resolve().parent.glob("*.py"))

FORBIDDEN_MODULES = {"cmath", "decimal", "numpy"}
MATH_NAMES = {"inf", "isfinite", "lcm"}
# The names an exponent may read: each is an int in every module.
INT_NAMES = {"j", "k", "n"}

# (module, enclosing function, argument): why the argument is real.
ABS_SITES = {
    ("estermann", "_gaussian_candidates", "u"): "integer numerator of Re zeta^k",
    ("estermann", "_gaussian_candidates", "v"): "integer numerator of Im zeta^k",
    ("estermann", "steepest_candidate", "re"): "Re alpha, a float",
    ("estermann", "steepest_candidate", "im"): "Im alpha, a float",
    ("poly", "shift_norms", "v.real"): "Re b_j",
    ("poly", "shift_norms", "v.imag"): "Im b_j",
    ("scalars", "ComplexScalar.one_norm", "self.re"): "the real part",
    ("scalars", "ComplexScalar.one_norm", "self.im"): "the imaginary part",
    ("scalars", "check_norm_product", "a"): "integer numerator of Re z",
    ("scalars", "check_norm_product", "b"): "integer numerator of Im z",
    ("scalars", "check_norm_product", "c"): "integer numerator of Re w",
    ("scalars", "check_norm_product", "e"): "integer numerator of Im w",
    ("scalars", "check_norm_product", "a * c - b * e"): "numerator of Re zw",
    ("scalars", "check_norm_product", "a * e + b * c"): "numerator of Im zw",
    ("scalars", "conjugation_keeps_norm", "a"): "integer numerator of Re z",
    ("scalars", "conjugation_keeps_norm", "b"): "integer numerator of Im z",
    ("scalars", "conjugation_keeps_norm", "c"): "integer numerator of Re conj(z)",
    ("scalars", "conjugation_keeps_norm", "e"): "integer numerator of Im conj(z)",
    ("solver", "_ExactShift.__init__", "u"): "integer numerator of Re B_j",
    ("solver", "_ExactShift.__init__", "v"): "integer numerator of Im B_j",
    ("solver", "positive_nth_root", "residual"): "x^n - c for a float x",
}


def is_int_expression(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.Name):
        return node.id in INT_NAMES
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.UAdd, ast.USub)) and is_int_expression(node.operand)
    if isinstance(node, ast.BinOp):
        return (
            isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
            and is_int_expression(node.left)
            and is_int_expression(node.right)
        )
    return False


def scan(path: Path):
    """(violations, abs call sites) of one module."""
    violations, abs_sites = [], []

    def flag(node, what):
        violations.append(f"{path.name}:{node.lineno}: {what}")

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.split(".")[0] in FORBIDDEN_MODULES:
                        flag(child, f"import {alias.name}")
                    if alias.name == "math" and alias.asname not in (None, "math"):
                        flag(child, "math imported under another name")
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                top = child.module.split(".")[0]
                if top in FORBIDDEN_MODULES:
                    flag(child, f"from {child.module} import")
                if top == "math":
                    for alias in child.names:
                        if alias.name not in MATH_NAMES:
                            flag(child, f"from math import {alias.name}")
            elif isinstance(child, ast.Attribute):
                if isinstance(child.value, ast.Name) and child.value.id == "math":
                    if child.attr not in MATH_NAMES:
                        flag(child, f"math.{child.attr}")
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "pow":
                    flag(child, "pow()")
                elif child.func.id == "abs":
                    site = (path.stem, ".".join(scope), ast.unparse(child.args[0]))
                    abs_sites.append(site)
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Pow):
                exponent = child.right if isinstance(child, ast.BinOp) else child.value
                if not is_int_expression(exponent):
                    flag(child, f"non-int exponent in {ast.unparse(child)}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return violations, abs_sites


SCANS = {path.name: scan(path) for path in SOURCES}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_module_uses_only_the_four_operations(name):
    violations, _ = SCANS[name]
    assert violations == []


def test_every_abs_call_takes_a_listed_real_value():
    sites = [site for _, found in SCANS.values() for site in found]
    unlisted = [site for site in sites if site not in ABS_SITES]
    assert unlisted == [], "abs() of a value not known to be real"
    # A site that is gone comes off the list.
    assert sorted(set(sites)) == sorted(ABS_SITES)


@pytest.mark.parametrize(
    "source",
    [
        "import cmath",
        "import numpy as np",
        "import math as m",
        "from decimal import Decimal",
        "import math\nx = math.sqrt(2)",
        "from math import exp",
        "y = pow(2, 3)",
        "y = x ** 0.5",
        "y = x ** (1 / 2)",
        "y = x ** m",
        "y **= 0.5",
    ],
)
def test_the_scan_flags_each_forbidden_form(tmp_path, source):
    path = tmp_path / "probe.py"
    path.write_text(source)
    violations, _ = scan(path)
    assert len(violations) == 1
