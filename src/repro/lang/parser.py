"""Recursive-descent parser for the Fortran-90 subset.

Produces the AST defined in :mod:`repro.lang.ast_nodes`.  The accepted
grammar (informally):

.. code-block:: text

    file       := unit+
    unit       := program | subroutine
    program    := 'program' NAME NL decls stmts end-kw [NAME] NL
    subroutine := 'subroutine' NAME '(' [names] ')' NL decls stmts end-kw
    decl       := type [, parameter] [, intent(..)] [::] entity {, entity}
                | 'external' NAME {, NAME} | 'implicit none'
    stmt       := assign | call | do | do-while | if | print
                | return | continue | exit | cycle
    expr       := precedence-climbing over .or. .and. .not. relational
                  additive multiplicative unary ** primary

Declarations must precede executable statements within a unit, matching
Fortran's specification-part rule.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from .ast_nodes import (
    INTRINSICS,
    ArrayRef,
    Assign,
    BinOp,
    BoolLit,
    CallStmt,
    ContinueStmt,
    CycleStmt,
    DimSpec,
    DoLoop,
    EntityDecl,
    ExitStmt,
    Expr,
    ExternalDecl,
    FuncCall,
    If,
    ImplicitNone,
    IntLit,
    Print,
    Program,
    RealLit,
    Return,
    Slice,
    SourceFile,
    Stmt,
    StrLit,
    Subroutine,
    TypeDecl,
    UnaryOp,
    VarRef,
    WhileLoop,
)
from .lexer import tokenize
from .tokens import Token, TokenKind

_TYPE_KEYWORDS = ("integer", "real", "logical")
_REL_TOKENS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}


class Parser:
    """Token-stream parser.  Use :func:`parse` for the convenient entry."""

    def __init__(self, tokens: List[Token]) -> None:
        self.toks = tokens
        self.i = 0

    # ---------------- token helpers ----------------

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def _peek(self, off: int = 0) -> Token:
        j = min(self.i + off, len(self.toks) - 1)
        return self.toks[j]

    def _advance(self) -> Token:
        t = self.cur
        if t.kind is not TokenKind.EOF:
            self.i += 1
        return t

    def _error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(f"{msg}, got {tok.kind.value} {tok.text!r}", tok.line, tok.col)

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        if self.cur.kind is not kind:
            raise self._error(f"expected {what or kind.value}")
        return self._advance()

    def _expect_kw(self, *names: str) -> Token:
        if not self.cur.is_kw(*names):
            raise self._error(f"expected keyword {'/'.join(names)}")
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self.cur.kind is kind:
            return self._advance()
        return None

    def _accept_kw(self, *names: str) -> Optional[Token]:
        if self.cur.is_kw(*names):
            return self._advance()
        return None

    def _end_of_stmt(self) -> None:
        if self.cur.kind is TokenKind.EOF:
            return
        self._expect(TokenKind.NEWLINE, "end of statement")

    def _skip_newlines(self) -> None:
        while self.cur.kind is TokenKind.NEWLINE:
            self._advance()

    # ---------------- units ----------------

    def parse_file(self) -> SourceFile:
        units: List = []
        self._skip_newlines()
        while self.cur.kind is not TokenKind.EOF:
            if self.cur.is_kw("program"):
                units.append(self._program())
            elif self.cur.is_kw("subroutine"):
                units.append(self._subroutine())
            else:
                raise self._error("expected 'program' or 'subroutine'")
            self._skip_newlines()
        if not units:
            raise ParseError("empty source file")
        return SourceFile(units=units)

    def _program(self) -> Program:
        line = self.cur.line
        self._expect_kw("program")
        name = self._expect(TokenKind.IDENT, "program name").text
        self._end_of_stmt()
        decls = self._decl_part()
        body = self._stmt_list(("end", "endprogram"))
        self._expect_kw("end", "endprogram")
        if self.cur.kind is TokenKind.IDENT:  # optional trailing name
            self._advance()
        return Program(name=name, decls=decls, body=body, line=line)

    def _subroutine(self) -> Subroutine:
        line = self.cur.line
        self._expect_kw("subroutine")
        name = self._expect(TokenKind.IDENT, "subroutine name").text
        params: List[str] = []
        if self._accept(TokenKind.LPAREN):
            if self.cur.kind is not TokenKind.RPAREN:
                params.append(self._expect(TokenKind.IDENT, "parameter name").text)
                while self._accept(TokenKind.COMMA):
                    params.append(self._expect(TokenKind.IDENT, "parameter name").text)
            self._expect(TokenKind.RPAREN)
        self._end_of_stmt()
        decls = self._decl_part()
        body = self._stmt_list(("end", "endsubroutine"))
        self._expect_kw("end", "endsubroutine")
        if self.cur.kind is TokenKind.IDENT:
            self._advance()
        return Subroutine(name=name, params=params, decls=decls, body=body, line=line)

    # ---------------- declarations ----------------

    def _decl_part(self) -> List[Stmt]:
        decls: List[Stmt] = []
        while True:
            self._skip_newlines()
            if self.cur.is_kw("implicit"):
                line = self.cur.line
                self._advance()
                self._expect_kw("none")
                decls.append(ImplicitNone(line=line))
                self._end_of_stmt()
            elif self.cur.is_kw("external"):
                line = self.cur.line
                self._advance()
                names = [self._expect(TokenKind.IDENT, "procedure name").text]
                while self._accept(TokenKind.COMMA):
                    names.append(self._expect(TokenKind.IDENT, "procedure name").text)
                decls.append(ExternalDecl(names=names, line=line))
                self._end_of_stmt()
            elif self.cur.is_kw(*_TYPE_KEYWORDS):
                decls.append(self._type_decl())
                self._end_of_stmt()
            else:
                break
        return decls

    def _type_decl(self) -> TypeDecl:
        line = self.cur.line
        base = self._expect_kw(*_TYPE_KEYWORDS).text
        is_param = False
        intent: Optional[str] = None
        while self.cur.kind is TokenKind.COMMA:
            self._advance()
            if self._accept_kw("parameter"):
                is_param = True
            elif self._accept_kw("intent"):
                self._expect(TokenKind.LPAREN)
                tok = self._advance()
                if not tok.is_kw("in", "out", "inout"):
                    raise self._error("expected in/out/inout", tok)
                intent = tok.text
                self._expect(TokenKind.RPAREN)
            elif self._accept_kw("dimension"):
                # `integer, dimension(n) :: a, b` — shared dims applied below
                self._expect(TokenKind.LPAREN)
                shared_dims = [self._dimspec()]
                while self._accept(TokenKind.COMMA):
                    shared_dims.append(self._dimspec())
                self._expect(TokenKind.RPAREN)
                self._expect(TokenKind.DCOLON)
                entities = self._entity_list()
                for e in entities:
                    if not e.dims:
                        e.dims = [
                            DimSpec(lo=_clone_expr(d.lo), hi=_clone_expr(d.hi))
                            for d in shared_dims
                        ]
                return TypeDecl(
                    base_type=base,
                    is_parameter=is_param,
                    intent=intent,
                    entities=entities,
                    line=line,
                )
            else:
                raise self._error("unknown declaration attribute")
        self._accept(TokenKind.DCOLON)
        entities = self._entity_list()
        return TypeDecl(
            base_type=base,
            is_parameter=is_param,
            intent=intent,
            entities=entities,
            line=line,
        )

    def _entity_list(self) -> List[EntityDecl]:
        entities = [self._entity()]
        while self._accept(TokenKind.COMMA):
            entities.append(self._entity())
        return entities

    def _entity(self) -> EntityDecl:
        line = self.cur.line
        name = self._expect(TokenKind.IDENT, "entity name").text
        dims: List[DimSpec] = []
        if self._accept(TokenKind.LPAREN):
            dims.append(self._dimspec())
            while self._accept(TokenKind.COMMA):
                dims.append(self._dimspec())
            self._expect(TokenKind.RPAREN)
        init: Optional[Expr] = None
        if self._accept(TokenKind.ASSIGN):
            init = self.expr()
        return EntityDecl(name=name, dims=dims, init=init, line=line)

    def _dimspec(self) -> DimSpec:
        line = self.cur.line
        first = self.expr()
        if self._accept(TokenKind.COLON):
            second = self.expr()
            return DimSpec(lo=first, hi=second, line=line)
        return DimSpec(lo=IntLit(value=1, line=line), hi=first, line=line)

    # ---------------- statements ----------------

    def _stmt_list(self, stop_keywords: Tuple[str, ...]) -> List[Stmt]:
        stmts: List[Stmt] = []
        while True:
            self._skip_newlines()
            if self.cur.kind is TokenKind.EOF or self.cur.is_kw(*stop_keywords):
                return stmts
            stmts.append(self.stmt())

    def stmt(self) -> Stmt:
        t = self.cur
        if t.is_kw("do"):
            return self._do()
        if t.is_kw("if"):
            return self._if()
        if t.is_kw("call"):
            return self._call()
        if t.is_kw("print"):
            return self._print()
        if t.is_kw("return"):
            self._advance()
            self._end_of_stmt()
            return Return(line=t.line)
        if t.is_kw("continue"):
            self._advance()
            self._end_of_stmt()
            return ContinueStmt(line=t.line)
        if t.is_kw("exit"):
            self._advance()
            self._end_of_stmt()
            return ExitStmt(line=t.line)
        if t.is_kw("cycle"):
            self._advance()
            self._end_of_stmt()
            return CycleStmt(line=t.line)
        if t.kind is TokenKind.IDENT:
            return self._assign()
        raise self._error("expected a statement")

    def _assign(self) -> Assign:
        line = self.cur.line
        lhs = self._lvalue()
        self._expect(TokenKind.ASSIGN, "'='")
        rhs = self.expr()
        self._end_of_stmt()
        return Assign(lhs=lhs, rhs=rhs, line=line)

    def _lvalue(self) -> Expr:
        tok = self._expect(TokenKind.IDENT, "variable name")
        if self.cur.kind is TokenKind.LPAREN:
            subs = self._subscript_list()
            return ArrayRef(name=tok.text, subs=subs, line=tok.line)
        return VarRef(name=tok.text, line=tok.line)

    def _call(self) -> CallStmt:
        line = self.cur.line
        self._expect_kw("call")
        name = self._expect(TokenKind.IDENT, "subroutine name").text
        args: List[Expr] = []
        if self.cur.kind is TokenKind.LPAREN:
            self._advance()
            if self.cur.kind is not TokenKind.RPAREN:
                args.append(self._actual_arg())
                while self._accept(TokenKind.COMMA):
                    args.append(self._actual_arg())
            self._expect(TokenKind.RPAREN)
        self._end_of_stmt()
        return CallStmt(name=name, args=args, line=line)

    def _actual_arg(self) -> Expr:
        """An actual argument: expression, possibly with slice subscripts."""
        # Array-section actual args like As(1:K) need slice-aware parsing of
        # the top-level ref; self.expr() handles it because _primary parses
        # subscript lists with slices.
        return self.expr()

    def _do(self) -> Stmt:
        line = self.cur.line
        self._expect_kw("do")
        if self._accept_kw("while"):
            self._expect(TokenKind.LPAREN)
            cond = self.expr()
            self._expect(TokenKind.RPAREN)
            self._end_of_stmt()
            body = self._stmt_list(("enddo",))
            self._expect_kw("enddo")
            self._end_of_stmt()
            return WhileLoop(cond=cond, body=body, line=line)
        var = self._expect(TokenKind.IDENT, "loop variable").text
        self._expect(TokenKind.ASSIGN, "'='")
        lo = self.expr()
        self._expect(TokenKind.COMMA, "','")
        hi = self.expr()
        step: Optional[Expr] = None
        if self._accept(TokenKind.COMMA):
            step = self.expr()
        self._end_of_stmt()
        body = self._stmt_list(("enddo",))
        self._expect_kw("enddo")
        self._end_of_stmt()
        return DoLoop(var=var, lo=lo, hi=hi, step=step, body=body, line=line)

    def _if(self) -> If:
        line = self.cur.line
        self._expect_kw("if")
        self._expect(TokenKind.LPAREN)
        cond = self.expr()
        self._expect(TokenKind.RPAREN)
        if not self.cur.is_kw("then"):
            # one-line logical if: `if (c) stmt`
            body = [self.stmt()]
            return If(branches=[(cond, body)], line=line)
        self._expect_kw("then")
        self._end_of_stmt()
        branches: List[Tuple[Expr, List[Stmt]]] = []
        body = self._stmt_list(("elseif", "else", "endif"))
        branches.append((cond, body))
        while self.cur.is_kw("elseif"):
            self._advance()
            self._expect(TokenKind.LPAREN)
            c = self.expr()
            self._expect(TokenKind.RPAREN)
            self._expect_kw("then")
            self._end_of_stmt()
            b = self._stmt_list(("elseif", "else", "endif"))
            branches.append((c, b))
        else_body: List[Stmt] = []
        if self._accept_kw("else"):
            self._end_of_stmt()
            else_body = self._stmt_list(("endif",))
        self._expect_kw("endif")
        self._end_of_stmt()
        return If(branches=branches, else_body=else_body, line=line)

    def _print(self) -> Print:
        line = self.cur.line
        self._expect_kw("print")
        self._expect(TokenKind.STAR, "'*'")
        items: List[Expr] = []
        while self._accept(TokenKind.COMMA):
            items.append(self.expr())
        self._end_of_stmt()
        return Print(items=items, line=line)

    # ---------------- expressions ----------------

    def expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.cur.kind is TokenKind.OR:
            line = self._advance().line
            right = self._and_expr()
            left = BinOp(op=".or.", left=left, right=right, line=line)
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self.cur.kind is TokenKind.AND:
            line = self._advance().line
            right = self._not_expr()
            left = BinOp(op=".and.", left=left, right=right, line=line)
        return left

    def _not_expr(self) -> Expr:
        if self.cur.kind is TokenKind.NOT:
            line = self._advance().line
            return UnaryOp(op=".not.", operand=self._not_expr(), line=line)
        return self._rel_expr()

    def _rel_expr(self) -> Expr:
        left = self._add_expr()
        if self.cur.kind in _REL_TOKENS:
            op = _REL_TOKENS[self.cur.kind]
            line = self._advance().line
            right = self._add_expr()
            return BinOp(op=op, left=left, right=right, line=line)
        return left

    def _add_expr(self) -> Expr:
        left = self._mul_expr()
        while self.cur.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = "+" if self.cur.kind is TokenKind.PLUS else "-"
            line = self._advance().line
            right = self._mul_expr()
            left = BinOp(op=op, left=left, right=right, line=line)
        return left

    def _mul_expr(self) -> Expr:
        left = self._unary_expr()
        while self.cur.kind in (TokenKind.STAR, TokenKind.SLASH):
            op = "*" if self.cur.kind is TokenKind.STAR else "/"
            line = self._advance().line
            right = self._unary_expr()
            left = BinOp(op=op, left=left, right=right, line=line)
        return left

    def _unary_expr(self) -> Expr:
        if self.cur.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.cur.text
            line = self._advance().line
            operand = self._unary_expr()
            if op == "+":
                return operand
            return UnaryOp(op="-", operand=operand, line=line)
        return self._power_expr()

    def _power_expr(self) -> Expr:
        base = self._primary()
        if self.cur.kind is TokenKind.POWER:
            line = self._advance().line
            # ** is right-associative; exponent may itself be unary/power
            exponent = self._unary_expr()
            return BinOp(op="**", left=base, right=exponent, line=line)
        return base

    def _primary(self) -> Expr:
        t = self.cur
        if t.kind is TokenKind.INT:
            self._advance()
            return IntLit(value=int(t.text), line=t.line)
        if t.kind is TokenKind.REAL:
            self._advance()
            return RealLit(value=float(t.text), line=t.line)
        if t.kind is TokenKind.STRING:
            self._advance()
            return StrLit(value=t.text, line=t.line)
        if t.kind is TokenKind.TRUE:
            self._advance()
            return BoolLit(value=True, line=t.line)
        if t.kind is TokenKind.FALSE:
            self._advance()
            return BoolLit(value=False, line=t.line)
        if t.kind is TokenKind.LPAREN:
            self._advance()
            inner = self.expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if t.kind is TokenKind.IDENT or (
            t.is_kw("real") and self._peek(1).kind is TokenKind.LPAREN
        ):
            # ``real`` lexes as a type keyword, but a declaration never
            # starts inside an expression: ``real(`` here is the intrinsic
            self._advance()
            if self.cur.kind is TokenKind.LPAREN:
                subs = self._subscript_list()
                if t.text in INTRINSICS:
                    for s in subs:
                        if isinstance(s, Slice):
                            raise self._error(
                                f"slice argument not allowed to intrinsic {t.text!r}", t
                            )
                    return FuncCall(name=t.text, args=subs, line=t.line)
                return ArrayRef(name=t.text, subs=subs, line=t.line)
            if t.text in INTRINSICS and t.text in ("mynode", "numnodes"):
                # allow bare `mynode` as nullary intrinsic? Require parens.
                pass
            return VarRef(name=t.text, line=t.line)
        raise self._error("expected an expression")

    def _subscript_list(self) -> List[Expr]:
        self._expect(TokenKind.LPAREN)
        subs: List[Expr] = []
        if self.cur.kind is not TokenKind.RPAREN:
            subs.append(self._subscript())
            while self._accept(TokenKind.COMMA):
                subs.append(self._subscript())
        self._expect(TokenKind.RPAREN)
        return subs

    def _subscript(self) -> Expr:
        line = self.cur.line
        lo: Optional[Expr] = None
        if self.cur.kind is not TokenKind.COLON:
            lo = self.expr()
        if self._accept(TokenKind.COLON):
            hi: Optional[Expr] = None
            if self.cur.kind not in (TokenKind.COMMA, TokenKind.RPAREN):
                hi = self.expr()
            return Slice(lo=lo, hi=hi, line=line)
        assert lo is not None
        return lo


def _clone_expr(e: Expr) -> Expr:
    from .visitor import clone

    return clone(e)


def parse(source: str) -> SourceFile:
    """Parse Fortran-subset ``source`` text into a :class:`SourceFile`."""
    return Parser(tokenize(source)).parse_file()


def parse_expr(source: str) -> Expr:
    """Parse a single expression (testing/utility helper)."""
    p = Parser(tokenize(source))
    e = p.expr()
    p._skip_newlines()
    if p.cur.kind is not TokenKind.EOF:
        raise p._error("trailing tokens after expression")
    return e


def parse_stmt(source: str) -> Stmt:
    """Parse a single statement (testing/utility helper)."""
    p = Parser(tokenize(source))
    p._skip_newlines()
    s = p.stmt()
    p._skip_newlines()
    if p.cur.kind is not TokenKind.EOF:
        raise p._error("trailing tokens after statement")
    return s
