"""Field arithmetic is decided once, in gf: Field.__init__ binds a prime
field's native mod-p add, neg and mul over the table methods, and polyring
branches on is_prime_field only where its kernels defer the mod-p reduction
(_mul_codes, _reduce_codes) and in the two callers that reduce their
unreduced output (Poly.__mul__, MonicSieve.grow).

The scan is stdlib ast only, like test_imports.
"""

import ast
from pathlib import Path

from ffsym.gf import field_make

SRC = Path(__file__).resolve().parent.parent / "src" / "ffsym"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def readers(source: str, attr: str) -> set[str]:
    """The qualified names of the functions and classes that read attr."""
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope + (child.name,) if isinstance(child, _SCOPES) else scope)

    visit(ast.parse(source), ())
    return found


def test_polyring_branches_on_prime_field_only_in_the_deferred_kernels():
    source = (SRC / "polyring.py").read_text()
    assert readers(source, "is_prime_field") == {
        "_mul_codes", "_reduce_codes", "Poly.__mul__", "MonicSieve.grow",
    }


def test_gf_arithmetic_methods_do_not_branch_on_prime_field():
    source = (SRC / "gf.py").read_text()
    assert not readers(source, "is_prime_field") & {"Field.add", "Field.neg", "Field.mul"}


def test_prime_fields_bind_native_arithmetic():
    for p, e in ((2, 1), (257, 1), (65521, 1)):
        assert {"add", "neg", "mul"} <= set(vars(field_make(p, e)))
    for p, e in ((2, 2), (3, 5)):
        assert not {"add", "neg", "mul"} & set(vars(field_make(p, e)))


def test_scan_finds_readers():
    source = (
        "x = f.flag\n"
        "class C:\n"
        "    def m(self):\n"
        "        self.flag = 1\n"
        "        def inner():\n"
        "            return self.flag\n"
        "def g(h):\n"
        "    return h.other\n"
    )
    assert readers(source, "flag") == {"<module>", "C.m.inner"}
