"""Only cyclotomic knows the coordinate format of a field element: no other
module of coxrep imports a private name from it, calls a private
FieldContext method (the fold and its canonical index, the product and its
term and packed kernels, the fold table and its widening, and the
fixed-point cosines) or passes `_normalized`, which skips the constructor's
canonical form (trimmed coordinates, gcd(content, den) = 1).  The modules
are parsed, not imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coxrep"
PRIVATE_METHODS = {"_fold", "_fold_into", "_canonical", "_product", "_term_product",
                   "_packed_product", "_rows", "_widen", "_cosines"}


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("cyclotomic"):
            found += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.keyword) and node.arg == "_normalized":
            found.append(f"line {node.value.lineno}: _normalized=")
        elif isinstance(node, ast.Attribute):
            if node.attr in PRIVATE_METHODS:
                found.append(f"line {node.lineno}: .{node.attr}")
            elif isinstance(node.value, ast.Name) and node.value.id == "cyclotomic" \
                    and node.attr.startswith("_"):
                found.append(f"line {node.lineno}: cyclotomic.{node.attr}")
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "cyclotomic.py"))
def test_only_cyclotomic_knows_the_coordinate_format(name):
    assert violations(ast.parse((SRC / name).read_text())) == []



def test_the_guard_sees_a_normalized_keyword():
    source = "x = 1\nFieldElement(ctx, (0, 1, 0), _normalized=True)\n"
    assert violations(ast.parse(source)) == ["line 2: _normalized="]
