"""Only ``grassmann`` tells F_2 apart from other fields: every other
module reads rows through its leaf form and row routines, so none
compares a field's order with 2."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multilin"


def _is_order(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "q") or (
        isinstance(node, ast.Attribute) and node.attr == "q"
    )


def _has_two(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_has_two, node.elts))
    return isinstance(node, ast.Constant) and node.value == 2


# q <op> 2 for the operators that tell q = 2 from the other orders; q >= 2
# and q < 2 only check that q is an order at all
SINGLES_OUT = (ast.Eq, ast.NotEq, ast.Gt, ast.LtE, ast.In, ast.NotIn)
FLIPPED = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE}


def order_comparisons_with_two(source: str) -> list:
    """The line numbers of the comparisons of ``q`` or ``<expr>.q`` with 2
    that single out F_2 (``q == 2``, ``2 < field.q``, ``q in (2, 3)``, ...)
    in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, op, b in zip(operands, node.ops, operands[1:]):
                if _has_two(a) and _is_order(b):
                    a, b, op = b, a, FLIPPED.get(type(op), type(op))()
                if _is_order(a) and _has_two(b) and isinstance(op, SINGLES_OUT):
                    found.append(node.lineno)
    return found


def test_the_detector_sees_every_spelling():
    source = (
        "q == 2\nfield.q != 2\n2 < T.field.q\nq in (2, 4)\nq <= 2\n"
        "field.p == 2\nq == 3\n2 <= q <= 9\nq < 2\n"
    )
    assert order_comparisons_with_two(source) == [1, 2, 3, 4, 5]
    assert order_comparisons_with_two((SRC / "grassmann.py").read_text())


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "grassmann.py")
)
def test_no_module_but_grassmann_tests_for_f2(module):
    lines = order_comparisons_with_two((SRC / module).read_text())
    assert not lines, f"{module} compares a field's order with 2 at lines {lines}"
