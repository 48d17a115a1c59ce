"""Parser for the polynomial expression language used by the CLI.

Grammar (whitespace-insensitive)::

    expr       := ['-'] term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := rational | symbol | '[' expr ',' expr ']' | '(' expr ')'
    symbol     := 'u' '(' set ')' | 'z' '(' set ',' int ')'
    set        := '{' [int (',' int)*] '}'
    rational   := int ['/' int]

``[p,q]`` is the commutator pq - qp.  The universe size n is supplied by the
caller (the CLI takes it from the complex file), and so is an optional bound
on the degree of every product and term (the CLI passes ``--max-degree``).  The
canonical text form emitted by poly_text parses back to an equal polynomial.
Each sum is added into one map by free_algebra._add and taken over unchecked,
since every letter in it was built over n.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .complexes import NodeSet, _require_int
from .free_algebra import Poly, Rational, _add, commutator, exact, u, z

#: refuse expressions that nest '(' and '[' deeper than this
NESTING_CAP = 100

#: one token per match, after any whitespace: a whole generator written
#: without inner spaces, an integer, any other single character, or the end
_TOKEN = re.compile(r"""\s*(?:
    (?P<sym>u\(\{(\d+(?:,\d+)*)?\}\)|z\(\{(\d+(?:,\d+)*)?\},(\d+)\))
  | (?P<int>\d+) | (?P<ch>\S) | \Z)""", re.VERBOSE)


class _Parser:
    """Recursive descent over tokens.  ``tok`` is the current token's text
    ("" at the end) and ``pos`` its position; a generator written with
    spaces inside, or a malformed one, is read token by token instead."""

    def __init__(self, text: str, n: int, max_degree: int | None):
        self.text = text
        self.n = n
        self.max_degree = max_degree
        self.depth = 0
        self.end = 0
        self.advance()

    def advance(self) -> None:
        m = self.match = _TOKEN.match(self.text, self.end)
        self.kind = m.lastgroup
        self.pos = m.start(self.kind) if self.kind else m.end()
        self.end = m.end()
        self.tok = self.text[self.pos:self.end]

    def error(self, expected: str) -> ValueError:
        return ValueError(
            f"parse error at position {self.pos}: expected {expected} "
            f"(near {self.text[self.pos:self.pos + 12]!r})")

    def check_product(self, p: Poly, q: Poly) -> None:
        """Refuse p * q above the degree bound, if any, before multiplying.  The
        free algebra is a domain, so its degree is the sum of the factors'."""
        if self.max_degree is not None and p and q:
            deg = max(map(len, p._terms)) + max(map(len, q._terms))
            if deg > self.max_degree:
                raise ValueError(f"polynomial has a product of degree {deg} "
                                 f"> --max-degree {self.max_degree}")

    def take(self, ch: str) -> None:
        if self.tok != ch:
            raise self.error(f"{ch!r}")
        self.advance()

    def integer(self) -> int:
        if self.kind != "int":
            raise self.error("an integer")
        value = int(self.tok)
        self.advance()
        return value

    def rational(self) -> Rational:
        num = self.integer()
        if self.tok == "/":
            self.advance()
            den = self.integer()
            if den == 0:
                raise ValueError("zero denominator in coefficient")
            return exact(Fraction(num, den))
        return num

    def node_set(self) -> NodeSet:
        self.take("{")
        members = []
        if self.tok != "}":
            members.append(self.integer())
            while self.tok == ",":
                self.advance()
                members.append(self.integer())
        self.take("}")
        return NodeSet.of(members, self.n)

    def symbol(self) -> Poly:
        kind, i = self.tok[0], None
        if self.kind == "sym":
            u_set, z_set, i = self.match.group(2, 3, 4)
            members = [int(v) for v in (u_set or z_set or "").split(",") if v]
            a = NodeSet.of(members, self.n)
            self.advance()
        else:
            self.advance()
            self.take("(")
            a = self.node_set()
            if kind == "z":
                self.take(",")
                i = self.integer()
            self.take(")")
        if kind == "z":
            return Poly.from_symbol(z(a, int(i)))
        return Poly.one() if a.is_empty else Poly.from_symbol(u(a))

    def factor(self) -> Poly:
        ch = self.tok
        if ch in ("(", "["):
            self.depth += 1
            if self.depth > NESTING_CAP:
                raise ValueError(f"expression nests '(' and '[' deeper than "
                                 f"{NESTING_CAP} levels (at position {self.pos})")
            self.advance()
            p = self.expr()
            if ch == "[":
                self.take(",")
                q = self.expr()
                self.check_product(p, q)
                p = commutator(p, q)
            self.take(")" if ch == "(" else "]")
            self.depth -= 1
            return p
        if self.kind == "sym" or ch in ("u", "z"):
            return self.symbol()
        if self.kind == "int":
            return Poly({(): self.rational()})
        raise self.error("a coefficient, generator, '[' or '('")

    def term(self) -> Poly:
        p = self.factor()
        while self.tok == "*":
            self.advance()
            q = self.factor()
            self.check_product(p, q)
            p = p * q
        return p

    def expr(self) -> Poly:
        """Adds the signed terms into one map."""
        negate = self.tok == "-"
        if negate:
            self.advance()
        out = {}
        while True:
            _add(out, self.term()._terms, negate)
            if self.tok not in ("+", "-"):
                return Poly._canonical(out, self.n)
            negate = self.tok == "-"
            self.advance()


def parse_poly(text: str, n: int, max_degree: int | None = None) -> Poly:
    """Parse an expression over the universe {1..n}.  With ``max_degree``,
    a product or commutator of higher degree is refused as soon as its
    factors are read, even where it would later cancel, and so is a result
    with a term of higher degree (only a lone letter at bound 0 gets there)."""
    if max_degree is not None:
        _require_int("max_degree", max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
    parser = _Parser(text, n, max_degree)
    p = parser.expr()
    if parser.kind is not None:
        raise parser.error("end of input")
    if max_degree is not None:
        top = max(p.degrees(), default=0)
        if top > max_degree:
            raise ValueError(f"polynomial has degree {top} > --max-degree {max_degree}")
    return p
