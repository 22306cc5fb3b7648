"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.lang import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    DoLoop,
    FuncCall,
    If,
    IntLit,
    Print,
    Program,
    Slice,
    Subroutine,
    TypeDecl,
    UnaryOp,
    VarRef,
    WhileLoop,
    parse,
    parse_expr,
    parse_stmt,
)


class TestExpressions:
    def test_precedence_add_mul(self):
        e = parse_expr("a + b * c")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.right, BinOp) and e.right.op == "*"

    def test_parens_override(self):
        e = parse_expr("(a + b) * c")
        assert e.op == "*"
        assert isinstance(e.left, BinOp) and e.left.op == "+"

    def test_left_associativity(self):
        e = parse_expr("a - b - c")
        assert e.op == "-"
        assert isinstance(e.left, BinOp) and e.left.op == "-"
        assert isinstance(e.right, VarRef) and e.right.name == "c"

    def test_power_right_associative(self):
        e = parse_expr("a ** b ** c")
        assert e.op == "**"
        assert isinstance(e.right, BinOp) and e.right.op == "**"

    def test_unary_minus(self):
        e = parse_expr("-a + b")
        assert e.op == "+"
        assert isinstance(e.left, UnaryOp)

    def test_unary_minus_power_binds_tighter(self):
        # Fortran: -a**2 == -(a**2)
        e = parse_expr("-a ** 2")
        assert isinstance(e, UnaryOp)
        assert isinstance(e.operand, BinOp) and e.operand.op == "**"

    def test_unary_plus_dropped(self):
        e = parse_expr("+a")
        assert isinstance(e, VarRef)

    def test_logical_precedence(self):
        e = parse_expr("a < b .and. c > d .or. e == f")
        assert e.op == ".or."
        assert e.left.op == ".and."

    def test_not(self):
        e = parse_expr(".not. a == b")
        assert isinstance(e, UnaryOp) and e.op == ".not."
        assert isinstance(e.operand, BinOp)

    def test_intrinsic_call(self):
        e = parse_expr("mod(i, 4)")
        assert isinstance(e, FuncCall) and e.name == "mod"
        assert len(e.args) == 2

    def test_unknown_name_paren_is_arrayref(self):
        e = parse_expr("foo(i, j)")
        assert isinstance(e, ArrayRef)

    def test_slice_subscript(self):
        e = parse_expr("a(1:k, j)")
        assert isinstance(e.subs[0], Slice)
        assert isinstance(e.subs[1], VarRef)

    def test_open_slice(self):
        e = parse_expr("a(:, 2:)")
        s0, s1 = e.subs
        assert s0.lo is None and s0.hi is None
        assert s1.lo is not None and s1.hi is None

    def test_nested_call(self):
        e = parse_expr("max(a(i), min(b, c))")
        assert isinstance(e, FuncCall)
        assert isinstance(e.args[0], ArrayRef)
        assert isinstance(e.args[1], FuncCall)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("a + b c")


class TestStatements:
    def test_assign_scalar(self):
        s = parse_stmt("x = 1")
        assert isinstance(s, Assign) and isinstance(s.lhs, VarRef)

    def test_assign_array(self):
        s = parse_stmt("a(i) = b + 1")
        assert isinstance(s.lhs, ArrayRef)

    def test_call_no_args(self):
        s = parse_stmt("call foo()")
        assert isinstance(s, CallStmt) and s.args == []

    def test_call_bare(self):
        s = parse_stmt("call foo")
        assert isinstance(s, CallStmt) and s.args == []

    def test_call_with_section_arg(self):
        s = parse_stmt("call mpi_isend(a(1:k), k, to, tag, ierr)")
        assert isinstance(s.args[0], ArrayRef)
        assert isinstance(s.args[0].subs[0], Slice)

    def test_do_loop(self):
        s = parse_stmt("do i = 1, n\n  a(i) = i\nenddo")
        assert isinstance(s, DoLoop)
        assert s.var == "i" and s.step is None
        assert len(s.body) == 1

    def test_do_loop_with_step(self):
        s = parse_stmt("do i = 1, n, 2\nenddo")
        assert isinstance(s.step, IntLit)

    def test_do_while(self):
        s = parse_stmt("do while (x < 10)\n  x = x + 1\nenddo")
        assert isinstance(s, WhileLoop)

    def test_if_then_else(self):
        s = parse_stmt("if (a > b) then\n  x = 1\nelse\n  x = 2\nendif")
        assert isinstance(s, If)
        assert len(s.branches) == 1
        assert len(s.else_body) == 1

    def test_if_elseif_chain(self):
        s = parse_stmt(
            "if (a > 1) then\nx = 1\nelseif (a > 2) then\nx = 2\n"
            "elseif (a > 3) then\nx = 3\nendif"
        )
        assert len(s.branches) == 3
        assert s.else_body == []

    def test_one_line_if(self):
        s = parse_stmt("if (a > b) x = 1")
        assert isinstance(s, If)
        assert len(s.branches[0][1]) == 1

    def test_print(self):
        s = parse_stmt("print *, a, b + 1")
        assert isinstance(s, Print) and len(s.items) == 2

    def test_nested_loops(self):
        s = parse_stmt("do i = 1, n\n  do j = 1, m\n    a(i, j) = 0\n  enddo\nenddo")
        assert isinstance(s.body[0], DoLoop)


class TestUnits:
    def test_program(self):
        t = parse("program p\ninteger :: x\nx = 1\nend program p")
        assert isinstance(t.main, Program)
        assert t.main.name == "p"
        assert len(t.main.decls) == 1
        assert len(t.main.body) == 1

    def test_end_without_kind(self):
        t = parse("program p\nend")
        assert t.main.name == "p"

    def test_subroutine_params(self):
        t = parse("subroutine s(a, b)\ninteger :: a, b\na = b\nend subroutine")
        sub = t.subroutine("s")
        assert sub.params == ["a", "b"]

    def test_multiple_units(self):
        t = parse(
            "program p\ncall s(1)\nend program\n\n"
            "subroutine s(x)\ninteger :: x\nend subroutine"
        )
        assert len(t.units) == 2

    def test_subroutine_lookup_missing(self):
        t = parse("program p\nend")
        with pytest.raises(KeyError):
            t.subroutine("nope")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse("")


class TestDeclarations:
    def test_scalar_list(self):
        t = parse("program p\ninteger :: a, b, c\nend")
        decl = t.main.decls[0]
        assert isinstance(decl, TypeDecl)
        assert [e.name for e in decl.entities] == ["a", "b", "c"]

    def test_array_bounds(self):
        t = parse("program p\ninteger :: a(10), b(0:9), c(3, 4)\nend")
        ents = t.main.decls[0].entities
        assert len(ents[0].dims) == 1
        assert ents[1].dims[0].lo.value == 0
        assert len(ents[2].dims) == 2

    def test_parameter_with_init(self):
        t = parse("program p\ninteger, parameter :: n = 8\nend")
        decl = t.main.decls[0]
        assert decl.is_parameter
        assert decl.entities[0].init.value == 8

    def test_old_style_decl(self):
        t = parse("program p\ninteger a(10)\nend")
        assert t.main.decls[0].entities[0].is_array

    def test_dimension_attr(self):
        t = parse("program p\ninteger, dimension(5) :: a, b\nend")
        ents = t.main.decls[0].entities
        assert all(len(e.dims) == 1 for e in ents)

    def test_intent(self):
        t = parse("subroutine s(x)\ninteger, intent(in) :: x\nend")
        assert t.units[0].decls[0].intent == "in"

    def test_external(self):
        t = parse("program p\nexternal foo, bar\nend")
        assert t.main.decls[0].names == ["foo", "bar"]

    def test_implicit_none(self):
        t = parse("program p\nimplicit none\ninteger :: x\nend")
        assert len(t.main.decls) == 2

    def test_symbolic_bounds(self):
        t = parse("program p\ninteger, parameter :: n = 4\ninteger :: a(n, 2*n)\nend")
        dims = t.main.decls[1].entities[0].dims
        assert isinstance(dims[1].hi, BinOp)


class TestRealIntrinsic:
    """``real`` lexes as a type keyword; in an expression, ``real(`` is
    the intrinsic call."""

    def test_real_call_in_an_expression(self):
        e = parse_expr("real(i) * 0.5")
        assert isinstance(e.left, FuncCall)
        assert e.left.name == "real"
        assert isinstance(e.left.args[0], VarRef)

    def test_nested_real_calls_in_an_assignment(self):
        t = parse(
            "program p\nreal :: x\ninteger :: i\n"
            "x = real(i + 1) + real(mod(i, 2))\nend"
        )
        rhs = t.main.body[0].rhs
        assert isinstance(rhs.left, FuncCall) and rhs.left.name == "real"
        assert isinstance(rhs.left.args[0], BinOp)
        assert isinstance(rhs.right.args[0], FuncCall)

    def test_declarations_still_parse(self):
        t = parse(
            "program p\nreal :: x, y(4)\nreal, parameter :: c = 2.0\n"
            "x = real(2)\nend"
        )
        assert [d.base_type for d in t.main.decls] == ["real", "real"]
        assert t.main.decls[1].is_parameter
        assert isinstance(t.main.body[0].rhs, FuncCall)

    def test_bare_real_is_not_an_expression(self):
        with pytest.raises(ParseError, match="got keyword 'real'"):
            parse("program p\nreal :: x\nx = real\nend")

    def test_real_slice_argument_is_rejected(self):
        with pytest.raises(ParseError, match="slice argument"):
            parse_expr("real(1:2)")


class TestErrors:
    def test_missing_enddo(self):
        with pytest.raises(ParseError):
            parse("program p\ndo i = 1, 2\nx = 1\nend program")

    def test_missing_then(self):
        # `if (c)` with a statement is the one-line form; a block needs then
        with pytest.raises(ParseError):
            parse("program p\nif (a > b)\nx = 1\nendif\nend")

    def test_bad_statement(self):
        with pytest.raises(ParseError):
            parse("program p\n123 = x\nend")

    def test_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse("program p\nx = \nend")
        assert exc.value.line >= 2
