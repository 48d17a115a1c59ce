"""Parser for the polynomial expression language used by the CLI.

Grammar (whitespace-insensitive)::

    expr       := ['-'] term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := rational | symbol | '[' expr ',' expr ']' | '(' expr ')'
    symbol     := 'u' '(' set ')' | 'z' '(' set ',' int ')'
    set        := '{' [int (',' int)*] '}'
    rational   := int ['/' int]

``[p,q]`` is the commutator pq - qp.  The universe size n is supplied by the
caller (the CLI takes it from the complex file).  The canonical text form
emitted by poly_text parses back to an equal polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import NodeSet
from .free_algebra import Poly, commutator, u, z


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, expected: str) -> ValueError:
        return ValueError(
            f"parse error at position {self.pos}: expected {expected} "
            f"(near {self.text[self.pos:self.pos + 12]!r})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"{ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("an integer")
        return int(self.text[start:self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                raise ValueError("zero denominator in coefficient")
            return Fraction(num, den)
        return Fraction(num)

    def node_set(self) -> NodeSet:
        self.take("{")
        members = []
        if self.peek() != "}":
            members.append(self.integer())
            while self.peek() == ",":
                self.pos += 1
                members.append(self.integer())
        self.take("}")
        return NodeSet.of(members, self.n)

    def symbol(self) -> Poly:
        kind = self.peek()
        self.pos += 1
        self.take("(")
        a = self.node_set()
        if kind == "z":
            self.take(",")
            i = self.integer()
            self.take(")")
            return Poly.from_symbol(z(a, i))
        self.take(")")
        if a.is_empty:
            return Poly.one()
        return Poly.from_symbol(u(a))

    def factor(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.take(")")
            return p
        if ch == "[":
            self.pos += 1
            p = self.expr()
            self.take(",")
            q = self.expr()
            self.take("]")
            return commutator(p, q)
        if ch in ("u", "z"):
            return self.symbol()
        if ch.isdigit():
            return Poly({(): self.rational()})
        raise self.error("a coefficient, generator, '[' or '('")

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def expr(self) -> Poly:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p


def parse_poly(text: str, n: int) -> Poly:
    """Parse an expression over the universe {1..n}."""
    parser = _Parser(text, n)
    p = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("end of input")
    return p
