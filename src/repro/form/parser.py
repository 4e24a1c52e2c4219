"""Parser for the ASCII (and mathematical) notation of Jahob formulas.

The concrete syntax follows the paper's examples (Figures 2-6), which in turn
follow Isabelle/HOL notation.  Both ASCII and mathematical spellings are
accepted::

    ASCII                     mathematical        meaning
    -----------------------   -----------------   -------------------------
    &   |   ~   -->   <->     ∧ ∨ ¬ → ↔   connectives
    ALL x.   EX x.   % x.     ∀ x.  ∃ x.  λ x.      binders
    =   ~=                    ≠                equality / disequality
    :   ~:                    ∈ ∉              set membership
    Un  Int  -                ∪ ∩ −            set algebra
    {x. P}  {(x,y). P}                            set comprehension
    x..f                                           field dereference
    S^*                                            reflexive transitive closure
    tree [C.f]                                     tree-ness of a backbone
    card S, old t, fieldWrite f x v                interpreted operators

Application is by juxtaposition (``edge x y``), as in HOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import ast as F
from .types import Type, parse_type


class ParseError(Exception):
    """Raised on malformed formula text."""

    def __init__(self, message: str, pos: int = -1, text: str = "") -> None:
        if text and pos >= 0:
            snippet = text[max(0, pos - 20): pos + 20]
            message = f"{message} (at position {pos}, near {snippet!r})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_UNICODE_REPLACEMENTS = [
    ("∧", " & "),
    ("∨", " | "),
    ("¬", " ~ "),
    ("→", " --> "),
    ("⟶", " --> "),
    ("↔", " <-> "),
    ("∀", " ALL "),
    ("∃", " EX "),
    ("λ", " % "),
    ("≠", " ~= "),
    ("∈", " : "),
    ("∉", " ~: "),
    ("∪", " Un "),
    ("∩", " Int "),
    ("−", " - "),
    ("⊆", " subseteq "),
    ("∅", " {} "),
    ("×", " * "),
    ("6=", " ~= "),  # the paper renders != as 6= in plain text extraction
    ("/∈", " ~: "),
]

_SYMBOLS = [
    "-->", "<->", "<=", ">=", "~=", "~:", "::", "..", "^*", "^+", ":=",
    "&", "|", "~", "=", "<", ">", ":", "+", "-", "*", "(", ")", "{", "}",
    "[", "]", ",", ".", "%",
]

_KEYWORDS = {"ALL", "EX", "Un", "Int", "True", "False", "old", "tree",
             "subseteq", "div", "mod", "in"}


@dataclass
class Token:
    kind: str  # 'ident', 'int', 'symbol', 'keyword'
    value: str
    pos: int


def tokenize(text: str) -> List[Token]:
    for src, dst in _UNICODE_REPLACEMENTS:
        text = text.replace(src, dst)
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'$"):
                j += 1
            word = text[i:j]
            # Qualified identifiers: Class.field (but not the binder dot).
            while (
                j < n
                and text[j] == "."
                and j + 1 < n
                and (text[j + 1].isalpha() or text[j + 1] == "_")
                and not text.startswith("..", j)
                and word not in _KEYWORDS
                and word[0].isupper()
            ):
                k = j + 1
                while k < n and (text[k].isalnum() or text[k] in "_'$"):
                    k += 1
                word = word + "." + text[j + 1: k]
                j = k
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, i))
            i = j
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("symbol", sym, i))
                i += len(sym)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        if idx < len(self.tokens):
            return self.tokens[idx]
        return None

    def at_symbol(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "symbol" and tok.value in symbols

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "keyword" and tok.value in words

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text), self.text)
        self.pos += 1
        return tok

    def expect_symbol(self, symbol: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "symbol" or tok.value != symbol:
            found = tok.value if tok else "<eof>"
            raise ParseError(f"expected {symbol!r}, found {found!r}",
                             tok.pos if tok else len(self.text), self.text)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_formula(self) -> F.Term:
        return self.parse_iff()

    def parse_iff(self) -> F.Term:
        left = self.parse_implies()
        while self.at_symbol("<->"):
            self.advance()
            right = self.parse_implies()
            left = F.Iff(left, right)
        return left

    def parse_implies(self) -> F.Term:
        left = self.parse_or()
        if self.at_symbol("-->"):
            self.advance()
            right = self.parse_implies()
            return F.Implies(left, right)
        return left

    def parse_or(self) -> F.Term:
        parts = [self.parse_and()]
        while self.at_symbol("|"):
            self.advance()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return F.Or(tuple(parts))

    def parse_and(self) -> F.Term:
        parts = [self.parse_not()]
        while self.at_symbol("&"):
            self.advance()
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return F.And(tuple(parts))

    def parse_not(self) -> F.Term:
        if self.at_symbol("~"):
            self.advance()
            return F.Not(self.parse_not())
        return self.parse_comparison()

    _CMP = {
        "=": None,
        "~=": None,
        "<": "lt",
        "<=": "lte",
        ">": "gt",
        ">=": "gte",
        ":": "elem",
        "~:": None,
    }

    def parse_comparison(self) -> F.Term:
        left = self.parse_set_expr()
        tok = self.peek()
        if tok is not None and (
            (tok.kind == "symbol" and tok.value in self._CMP)
            or (tok.kind == "keyword" and tok.value in ("subseteq", "in"))
        ):
            self.advance()
            right = self.parse_set_expr()
            op = tok.value
            if op == "=":
                return F.Eq(left, right)
            if op == "~=":
                return F.Not(F.Eq(left, right))
            if op in (":", "in"):
                return F.app("elem", left, right)
            if op == "~:":
                return F.Not(F.app("elem", left, right))
            if op == "subseteq":
                return F.app("subseteq", left, right)
            return F.app(self._CMP[op], left, right)
        return left

    def parse_set_expr(self) -> F.Term:
        left = self.parse_additive()
        while self.at_keyword("Un", "Int"):
            op = self.advance().value
            right = self.parse_additive()
            left = F.app("union" if op == "Un" else "inter", left, right)
        return left

    def parse_additive(self) -> F.Term:
        left = self.parse_multiplicative()
        while self.at_symbol("+", "-"):
            op = self.advance().value
            right = self.parse_multiplicative()
            left = F.app("plus" if op == "+" else "minus", left, right)
        return left

    def parse_multiplicative(self) -> F.Term:
        left = self.parse_unary()
        while self.at_symbol("*") or self.at_keyword("div", "mod"):
            tok = self.advance()
            right = self.parse_unary()
            op = {"*": "times", "div": "div", "mod": "mod"}[tok.value]
            left = F.app(op, left, right)
        return left

    def parse_unary(self) -> F.Term:
        if self.at_symbol("-"):
            self.advance()
            inner = self.parse_unary()
            if isinstance(inner, F.IntLit):
                return F.IntLit(-inner.value)
            return F.app("uminus", inner)
        return self.parse_application()

    def parse_application(self) -> F.Term:
        func = self.parse_postfix()
        args: List[F.Term] = []
        while self._starts_atom():
            args.append(self.parse_postfix())
        if not args:
            return func
        return F.App(func, tuple(args))

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok is None:
            return False
        if tok.kind in ("ident", "int"):
            return True
        if tok.kind == "keyword" and tok.value in ("True", "False", "old", "tree"):
            return True
        if tok.kind == "symbol" and tok.value in ("(", "{"):
            return True
        return False

    def parse_postfix(self) -> F.Term:
        term = self.parse_atom()
        while True:
            if self.at_symbol(".."):
                self.advance()
                tok = self.advance()
                if tok.kind not in ("ident", "keyword"):
                    raise ParseError("expected field name after '..'", tok.pos, self.text)
                term = F.App(F.Var(tok.value), (term,))
            elif self.at_symbol("^*"):
                self.advance()
                term = F.app("rtrancl", term)
            elif self.at_symbol("^+"):
                self.advance()
                term = F.app("trancl", term)
            else:
                return term

    def parse_params(self) -> Tuple[Tuple[str, Optional[Type]], ...]:
        """Parse binder parameters up to (but not including) the '.'"""
        params: List[Tuple[str, Optional[Type]]] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unexpected end of binder", len(self.text), self.text)
            if tok.kind == "symbol" and tok.value == "(":
                # (x::type)
                self.advance()
                name_tok = self.advance()
                self.expect_symbol("::")
                type_tokens = []
                depth = 0
                while not (self.at_symbol(")") and depth == 0):
                    t = self.advance()
                    if t.value == "(":
                        depth += 1
                    elif t.value == ")":
                        depth -= 1
                    type_tokens.append(t.value)
                self.expect_symbol(")")
                params.append((name_tok.value, parse_type(" ".join(type_tokens))))
            elif tok.kind in ("ident", "keyword") and tok.value not in ("True", "False"):
                self.advance()
                if self.at_symbol("::"):
                    self.advance()
                    type_tokens = []
                    while not self.at_symbol("."):
                        type_tokens.append(self.advance().value)
                    params.append((tok.value, parse_type(" ".join(type_tokens))))
                else:
                    params.append((tok.value, None))
            else:
                break
            if self.at_symbol("."):
                break
        if not params:
            raise ParseError("binder without variables", self.peek().pos if self.peek() else -1, self.text)
        return tuple(params)

    def parse_atom(self) -> F.Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text), self.text)

        if tok.kind == "int":
            self.advance()
            return F.IntLit(int(tok.value))

        if tok.kind == "keyword":
            if tok.value == "True":
                self.advance()
                return F.TRUE
            if tok.value == "False":
                self.advance()
                return F.FALSE
            if tok.value == "ALL":
                self.advance()
                params = self.parse_params()
                self.expect_symbol(".")
                body = self.parse_formula()
                return F.Quant("ALL", params, body)
            if tok.value == "EX":
                self.advance()
                params = self.parse_params()
                self.expect_symbol(".")
                body = self.parse_formula()
                return F.Quant("EX", params, body)
            if tok.value == "old":
                self.advance()
                inner = self.parse_postfix()
                return F.Old(inner)
            if tok.value == "tree":
                self.advance()
                self.expect_symbol("[")
                fields = [F.Var(self.advance().value)]
                while self.at_symbol(","):
                    self.advance()
                    fields.append(F.Var(self.advance().value))
                self.expect_symbol("]")
                if len(fields) == 1:
                    return F.app("tree", fields[0])
                if len(fields) == 2:
                    return F.app("tree2", fields[0], fields[1])
                return F.App(F.Var("tree"), tuple(fields))
            raise ParseError(f"unexpected keyword {tok.value!r}", tok.pos, self.text)

        if tok.kind == "ident":
            self.advance()
            if tok.value == "true":
                return F.TRUE
            if tok.value == "false":
                return F.FALSE
            return F.Var(tok.value)

        if tok.kind == "symbol" and tok.value == "%":
            self.advance()
            params = self.parse_params()
            self.expect_symbol(".")
            body = self.parse_formula()
            return F.Lambda(params, body)

        if tok.kind == "symbol" and tok.value == "(":
            self.advance()
            items = [self.parse_formula()]
            while self.at_symbol(","):
                self.advance()
                items.append(self.parse_formula())
            self.expect_symbol(")")
            if len(items) == 1:
                return items[0]
            return F.TupleTerm(tuple(items))

        if tok.kind == "symbol" and tok.value == "{":
            return self.parse_braces()

        raise ParseError(f"unexpected token {tok.value!r}", tok.pos, self.text)

    def parse_braces(self) -> F.Term:
        self.expect_symbol("{")
        if self.at_symbol("}"):
            self.advance()
            return F.EMPTYSET
        # Could be a comprehension {x. P} / {(x,y). P} or a finite set {a, b}.
        start = self.pos
        if self._looks_like_comprehension():
            params = self._parse_compr_params()
            self.expect_symbol(".")
            body = self.parse_formula()
            self.expect_symbol("}")
            return F.SetCompr(params, body)
        self.pos = start
        items = [self.parse_formula()]
        while self.at_symbol(","):
            self.advance()
            items.append(self.parse_formula())
        self.expect_symbol("}")
        return F.finite_set(items)

    def _looks_like_comprehension(self) -> bool:
        """Lookahead: '{ x .' or '{ ( x , y ) .' introduces a comprehension."""
        tok = self.peek()
        if tok is not None and tok.kind == "ident":
            nxt = self.peek(1)
            return nxt is not None and nxt.kind == "symbol" and nxt.value == "."
        if tok is not None and tok.kind == "symbol" and tok.value == "(":
            # scan for ') .'
            depth = 0
            i = self.pos
            while i < len(self.tokens):
                t = self.tokens[i]
                if t.kind == "symbol" and t.value == "(":
                    depth += 1
                elif t.kind == "symbol" and t.value == ")":
                    depth -= 1
                    if depth == 0:
                        after = self.tokens[i + 1] if i + 1 < len(self.tokens) else None
                        return after is not None and after.kind == "symbol" and after.value == "."
                elif t.kind == "symbol" and t.value in ("}",):
                    return False
                i += 1
            return False
        return False

    def _parse_compr_params(self) -> Tuple[Tuple[str, Optional[Type]], ...]:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return ((tok.value, None),)
        self.expect_symbol("(")
        params = []
        while True:
            name_tok = self.advance()
            params.append((name_tok.value, None))
            if self.at_symbol(","):
                self.advance()
                continue
            break
        self.expect_symbol(")")
        return tuple(params)


def parse_formula(text: str) -> F.Term:
    """Parse a formula from its ASCII/mathematical concrete syntax."""
    parser = _Parser(text)
    result = parser.parse_formula()
    if parser.pos != len(parser.tokens):
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.value!r}", tok.pos, text)
    return result
