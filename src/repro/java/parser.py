"""Recursive-descent parser for the mini-Java subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast as J
from .lexer import JavaSyntaxError, JToken, tokenize


class JavaParser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers ------------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[JToken]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind and (value is None or token.value == value)

    def advance(self) -> JToken:
        token = self.peek()
        if token is None:
            raise JavaSyntaxError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> JToken:
        token = self.peek()
        if token is None or token.kind != kind or (value is not None and token.value != value):
            found = f"{token.kind}:{token.value}" if token else "<eof>"
            expected = value or kind
            raise JavaSyntaxError(
                f"expected {expected!r}, found {found!r}",
                line=token.line if token else 0,
                column=token.column if token else 0,
            )
        return self.advance()

    # -- declarations ----------------------------------------------------------------

    def parse_compilation_unit(self) -> J.CompilationUnit:
        unit = J.CompilationUnit()
        pending_spec: List[Tuple[str, int]] = []
        while self.peek() is not None:
            if self.at("spec"):
                token = self.advance()
                pending_spec.append((token.value, token.line))
                continue
            if self.at("keyword", "import") or self.at("keyword", "package"):
                while not self.at("symbol", ";"):
                    self.advance()
                self.advance()
                continue
            cls = self.parse_class(pending_spec)
            pending_spec = []
            unit.classes.append(cls)
        return unit

    def parse_class(self, leading_spec: List[Tuple[str, int]]) -> J.ClassDecl:
        claimed_by = None
        # modifiers and interleaved spec comments (e.g. `public /*: claimedby X */ class`)
        while self.at("keyword", "public") or self.at("keyword", "final") or self.at("spec"):
            if self.at("spec"):
                spec_token = self.advance()
                text = spec_token.value
                if text.startswith("claimedby"):
                    words = text.split()
                    if len(words) < 2:
                        raise JavaSyntaxError(
                            "'claimedby' needs a class name", spec_token.line
                        )
                    claimed_by = words[1].strip()
                else:
                    leading_spec = leading_spec + [(text, spec_token.line)]
            else:
                self.advance()
        token = self.expect("keyword", "class")
        name = self.expect("ident").value
        while not self.at("symbol", "{"):
            self.advance()  # skip extends/implements clauses
        self.expect("symbol", "{")
        cls = J.ClassDecl(name=name, claimed_by=claimed_by, line=token.line,
                          spec_blocks=[text for text, _ in leading_spec],
                          spec_block_lines=[spec_line for _, spec_line in leading_spec])
        while not self.at("symbol", "}"):
            if self.at("spec"):
                spec_token = self.advance()
                cls.spec_blocks.append(spec_token.value)
                cls.spec_block_lines.append(spec_token.line)
                continue
            self.parse_member(cls)
        self.expect("symbol", "}")
        return cls

    def parse_member(self, cls: J.ClassDecl) -> None:
        visibility = "package"
        is_static = False
        while self.at("keyword"):
            word = self.peek().value
            if word in ("public", "private", "protected"):
                visibility = word
                self.advance()
            elif word in ("static", "final"):
                is_static = is_static or word == "static"
                self.advance()
            else:
                break
        spec_before_type: List[Tuple[str, int]] = []
        while self.at("spec"):
            spec_token = self.advance()
            spec_before_type.append((spec_token.value, spec_token.line))
        type_name = self.parse_type_name()
        name = self.expect("ident").value
        if self.at("symbol", "("):
            method = self.parse_method(name, type_name, is_static, visibility)
            cls.methods.append(method)
            cls.spec_blocks.extend(text for text, _ in spec_before_type)
            cls.spec_block_lines.extend(spec_line for _, spec_line in spec_before_type)
        else:
            line = self.peek().line if self.peek() else 0
            cls.fields.append(
                J.FieldDecl(name=name, type_name=type_name, is_static=is_static,
                            visibility=visibility, line=line)
            )
            cls.spec_blocks.extend(text for text, _ in spec_before_type)
            cls.spec_block_lines.extend(spec_line for _, spec_line in spec_before_type)
            # Possibly more declarators or an initialiser (ignored for fields).
            while not self.at("symbol", ";"):
                if self.at("symbol", ","):
                    self.advance()
                    extra = self.expect("ident").value
                    cls.fields.append(
                        J.FieldDecl(name=extra, type_name=type_name, is_static=is_static,
                                    visibility=visibility, line=line)
                    )
                else:
                    self.advance()
            self.expect("symbol", ";")

    def parse_type_name(self) -> str:
        if self.at("keyword"):
            token = self.advance()
        else:
            token = self.expect("ident")
        name = token.value
        while self.at("symbol", "["):
            self.advance()
            self.expect("symbol", "]")
            name += "[]"
        return name

    def parse_method(self, name: str, return_type: str, is_static: bool, visibility: str) -> J.MethodDecl:
        line = self.peek().line if self.peek() else 0
        self.expect("symbol", "(")
        params: List[Tuple[str, str]] = []
        while not self.at("symbol", ")"):
            param_type = self.parse_type_name()
            param_name = self.expect("ident").value
            params.append((param_type, param_name))
            if self.at("symbol", ","):
                self.advance()
        self.expect("symbol", ")")
        contract_parts: List[str] = []
        contract_line = 0
        while self.at("spec"):
            spec_token = self.advance()
            if not contract_parts:
                contract_line = spec_token.line
            contract_parts.append(spec_token.value)
        body: Optional[J.Block] = None
        if self.at("symbol", "{"):
            body = self.parse_block()
        else:
            self.expect("symbol", ";")
        return J.MethodDecl(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            contract_text="\n".join(contract_parts),
            is_static=is_static,
            visibility=visibility,
            line=line,
            contract_line=contract_line,
        )

    # -- statements ---------------------------------------------------------------------

    def parse_block(self) -> J.Block:
        self.expect("symbol", "{")
        block = J.Block()
        while not self.at("symbol", "}"):
            block.statements.append(self.parse_statement())
        self.expect("symbol", "}")
        return block

    def parse_statement(self) -> J.Stmt:
        token = self.peek()
        line = token.line if token else 0
        if self.at("spec"):
            return J.SpecStmt(self.advance().value, line=line)
        if self.at("symbol", "{"):
            return self.parse_block()
        if self.at("keyword", "if"):
            return self.parse_if()
        if self.at("keyword", "while"):
            return self.parse_while()
        if self.at("keyword", "return"):
            self.advance()
            value = None if self.at("symbol", ";") else self.parse_expression()
            self.expect("symbol", ";")
            return J.Return(value, line=line)
        # Local declaration: Type name [= expr];
        if self._looks_like_declaration():
            type_name = self.parse_type_name()
            name = self.expect("ident").value
            init = None
            if self.at("symbol", "="):
                self.advance()
                init = self.parse_expression()
            self.expect("symbol", ";")
            return J.LocalDecl(type_name, name, init, line=line)
        # Assignment or expression statement.
        expr = self.parse_expression()
        if self.at("symbol", "="):
            self.advance()
            value = self.parse_expression()
            self.expect("symbol", ";")
            return J.Assign(expr, value, line=line)
        self.expect("symbol", ";")
        return J.ExprStmt(expr, line=line)

    def _looks_like_declaration(self) -> bool:
        token = self.peek()
        if token is None:
            return False
        if token.kind == "keyword" and token.value in ("int", "boolean", "void"):
            return True
        if token.kind != "ident":
            return False
        offset = 1
        # Skip array brackets in the type.
        while (
            self.peek(offset) is not None
            and self.peek(offset).kind == "symbol"
            and self.peek(offset).value == "["
            and self.peek(offset + 1) is not None
            and self.peek(offset + 1).value == "]"
        ):
            offset += 2
        nxt = self.peek(offset)
        after = self.peek(offset + 1)
        return (
            nxt is not None
            and nxt.kind == "ident"
            and after is not None
            and after.kind == "symbol"
            and after.value in ("=", ";")
        )

    def parse_if(self) -> J.If:
        line = self.expect("keyword", "if").line
        self.expect("symbol", "(")
        condition = self.parse_expression()
        self.expect("symbol", ")")
        then_branch = self._statement_as_block()
        else_branch = None
        if self.at("keyword", "else"):
            self.advance()
            else_branch = self._statement_as_block()
        return J.If(condition, then_branch, else_branch, line=line)

    def parse_while(self) -> J.While:
        line = self.expect("keyword", "while").line
        invariants: List[str] = []
        while self.at("spec"):
            invariants.append(self.advance().value)
        self.expect("symbol", "(")
        condition = self.parse_expression()
        self.expect("symbol", ")")
        body = self._statement_as_block()
        return J.While(condition, body, invariants, line=line)

    def _statement_as_block(self) -> J.Block:
        if self.at("symbol", "{"):
            return self.parse_block()
        statement = self.parse_statement()
        return J.Block([statement])

    # -- expressions -----------------------------------------------------------------------

    def parse_expression(self) -> J.Expr:
        return self.parse_or()

    def parse_or(self) -> J.Expr:
        left = self.parse_and()
        while self.at("symbol", "||"):
            self.advance()
            left = J.Binary("||", left, self.parse_and())
        return left

    def parse_and(self) -> J.Expr:
        left = self.parse_equality()
        while self.at("symbol", "&&"):
            self.advance()
            left = J.Binary("&&", left, self.parse_equality())
        return left

    def parse_equality(self) -> J.Expr:
        left = self.parse_relational()
        while self.at("symbol", "==") or self.at("symbol", "!="):
            op = self.advance().value
            left = J.Binary(op, left, self.parse_relational())
        return left

    def parse_relational(self) -> J.Expr:
        left = self.parse_additive()
        while self.at("symbol", "<") or self.at("symbol", "<=") or self.at("symbol", ">") or self.at("symbol", ">="):
            op = self.advance().value
            left = J.Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> J.Expr:
        left = self.parse_multiplicative()
        while self.at("symbol", "+") or self.at("symbol", "-"):
            op = self.advance().value
            left = J.Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> J.Expr:
        left = self.parse_unary()
        while self.at("symbol", "*") or self.at("symbol", "/") or self.at("symbol", "%"):
            op = self.advance().value
            left = J.Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> J.Expr:
        if self.at("symbol", "!"):
            self.advance()
            return J.Unary("!", self.parse_unary())
        if self.at("symbol", "-"):
            self.advance()
            return J.Unary("-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> J.Expr:
        expr = self.parse_primary()
        while True:
            if self.at("symbol", "."):
                self.advance()
                name = self.expect("ident").value
                if self.at("symbol", "("):
                    args = self.parse_arguments()
                    expr = J.Call(expr, name, args)
                else:
                    expr = J.FieldAccess(expr, name)
            elif self.at("symbol", "["):
                self.advance()
                index = self.parse_expression()
                self.expect("symbol", "]")
                expr = J.ArrayAccess(expr, index)
            else:
                return expr

    def parse_arguments(self) -> List[J.Expr]:
        self.expect("symbol", "(")
        args: List[J.Expr] = []
        while not self.at("symbol", ")"):
            args.append(self.parse_expression())
            if self.at("symbol", ","):
                self.advance()
        self.expect("symbol", ")")
        return args

    def parse_primary(self) -> J.Expr:
        token = self.peek()
        if token is None:
            raise JavaSyntaxError("unexpected end of input in expression")
        if token.kind == "int":
            self.advance()
            return J.IntLiteral(int(token.value))
        if token.kind == "keyword" and token.value in ("true", "false"):
            self.advance()
            return J.BoolLiteral(token.value == "true")
        if token.kind == "keyword" and token.value == "null":
            self.advance()
            return J.NullLiteral()
        if token.kind == "keyword" and token.value == "this":
            self.advance()
            return J.VarRef("this")
        if token.kind == "keyword" and token.value == "new":
            self.advance()
            # Parse the element/class name without consuming array brackets:
            # `new Object[n]` has a length expression inside the brackets.
            name_token = self.advance()
            class_name = name_token.value
            if self.at("symbol", "["):
                self.advance()
                length = self.parse_expression()
                self.expect("symbol", "]")
                return J.NewArray(class_name, length)
            self.expect("symbol", "(")
            self.expect("symbol", ")")
            return J.NewObject(class_name)
        if token.kind == "ident":
            self.advance()
            if self.at("symbol", "("):
                args = self.parse_arguments()
                return J.Call(None, token.value, args)
            return J.VarRef(token.value)
        if token.kind == "symbol" and token.value == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("symbol", ")")
            return expr
        raise JavaSyntaxError(f"unexpected token {token.value!r}",
                              line=token.line, column=token.column)


def parse_java(source: str) -> J.CompilationUnit:
    """Parse a mini-Java compilation unit from source text."""
    return JavaParser(source).parse_compilation_unit()
