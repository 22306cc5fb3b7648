"""Traversal/rewriting utility tests."""

from repro.lang import (
    Assign,
    CallStmt,
    DoLoop,
    IntLit,
    VarRef,
    clone,
    contains_name,
    find_all,
    parse,
    parse_expr,
    parse_stmt,
    substitute,
)
from repro.lang.ast_nodes import ArrayRef, BinOp
from repro.lang.visitor import (
    ExprTransformer,
    find_enclosing_body,
    index_of,
    rewrite_body,
    statements,
)


class TestWalk:
    def test_find_all_array_refs(self):
        s = parse_stmt("a(i) = b(j) + c(k)")
        refs = find_all(s, ArrayRef)
        assert sorted(r.name for r in refs) == ["a", "b", "c"]

    def test_walk_enters_if_branches(self):
        s = parse_stmt("if (x > 0) then\na(1) = 1\nelse\nb(2) = 2\nendif")
        refs = find_all(s, ArrayRef)
        assert sorted(r.name for r in refs) == ["a", "b"]

    def test_contains_name(self):
        s = parse_stmt("do i = 1, n\n  a(i) = b + 1\nenddo")
        assert contains_name(s, "b")
        assert contains_name(s, "a")
        assert not contains_name(s, "zz")


class TestCloneAndSubstitute:
    def test_clone_is_deep(self):
        s = parse_stmt("a(i) = 1")
        c = clone(s)
        c.lhs.name = "zz"
        assert s.lhs.name == "a"

    def test_substitute_var(self):
        e = parse_expr("i + j * i")
        out = substitute(e, {"i": parse_expr("k + 1")})
        assert not contains_name(out, "i")
        assert contains_name(out, "k")

    def test_substitute_does_not_mutate_original(self):
        e = parse_expr("i + 1")
        substitute(e, {"i": IntLit(value=5)})
        assert contains_name(e, "i")

    def test_substitute_replacement_not_shared(self):
        rep = parse_expr("k + 1")
        e = parse_expr("i + i")
        out = substitute(e, {"i": rep})
        occurrences = [
            n for n in out.walk() if isinstance(n, BinOp) and n.op == "+"
        ]
        # top + two copies
        assert len(occurrences) == 3
        assert occurrences[1] is not occurrences[2]


class TestExprTransformer:
    def test_bottom_up_rewrite(self):
        class Inc(ExprTransformer):
            def visit_IntLit(self, node):
                return IntLit(value=node.value + 1)

        e = clone(parse_expr("1 + 2 * 3"))
        out = Inc().visit(e)
        vals = sorted(n.value for n in out.walk() if isinstance(n, IntLit))
        assert vals == [2, 3, 4]


class TestRewriteBody:
    def test_splice_expands(self):
        body = [parse_stmt("x = 1"), parse_stmt("call c()")]

        def fn(s):
            if isinstance(s, CallStmt):
                return [parse_stmt("y = 2"), parse_stmt("z = 3")]
            return None

        out = rewrite_body(body, fn)
        assert len(out) == 3

    def test_rewrite_recurses_into_loops(self):
        loop = parse_stmt("do i = 1, 3\n  call c()\nenddo")

        def fn(s):
            if isinstance(s, CallStmt):
                return parse_stmt("x = 9")
            return None

        out = rewrite_body([loop], fn)
        assert isinstance(out[0].body[0], Assign)

    def test_remove_via_empty_list(self):
        body = [parse_stmt("x = 1"), parse_stmt("y = 2")]
        out = rewrite_body(body, lambda s: [] if isinstance(s, Assign) and s.lhs.name == "x" else None)
        assert len(out) == 1


class TestBodySearch:
    def test_statements_preorder(self):
        loop = parse_stmt("do i = 1, 2\n  a(i) = 0\n  do j = 1, 2\n    b(j) = 1\n  enddo\nenddo")
        kinds = [type(s).__name__ for s in statements([loop])]
        assert kinds == ["DoLoop", "Assign", "DoLoop", "Assign"]

    def test_find_enclosing_body(self):
        tree = parse(
            "program p\ninteger :: a(4)\ninteger :: i\n"
            "do i = 1, 4\n  a(i) = i\nenddo\nend"
        )
        loop = tree.main.body[0]
        inner = loop.body[0]
        assert find_enclosing_body(tree.main.body, inner) is loop.body
        assert find_enclosing_body(tree.main.body, loop) is tree.main.body

    def test_index_of_identity(self):
        a = parse_stmt("x = 1")
        b = clone(a)
        body = [a]
        assert index_of(body, a) == 0
        assert index_of(body, b) == -1  # structural equal, different identity
