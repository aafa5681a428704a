"""Text format for polynomials.

Grammar (whitespace insignificant):

    expr   := ['-'] term { ('+'|'-') term }
    term   := coeff | [coeff '*'] factor { '*' factor }
    factor := 'x[' i ',' j ']' [ '^' e ]

Coefficients are decimal integers, reduced mod p.  Serialization emits
canonical order (total degree descending, then lex descending), e.g.
``x[1,1]^2*x[2,1] + 2*x[2,2]``.
"""

from __future__ import annotations

import re

from .modules import ModuleSpec
from .poly import Polynomial, mon_sort_key, monomial_multidegree, var_index, variables


class ParseError(ValueError):
    """Parse failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>x\[)|(?P<op>[+\-*^,\]]))"
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if m is None:
                stripped = text[self.pos :].strip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", self.pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            self.pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse_polynomial(text: str, vspec: ModuleSpec) -> Polynomial:
    """Parse ``text`` into a polynomial over the given V spec.

    An empty (or all-whitespace) string and the string "0" both give the
    zero polynomial.
    """
    tz = _Tokenizer(text)
    result = Polynomial.zero(vspec)
    if tz.peek()[0] is None:
        return result
    sign = 1
    kind, val, pos = tz.peek()
    if kind == "op" and val in "+-":
        tz.next()
        sign = -1 if val == "-" else 1
    while True:
        result = result + _parse_term(tz, vspec).scale(sign)
        kind, val, pos = tz.peek()
        if kind is None:
            break
        if kind != "op" or val not in "+-":
            raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        tz.next()
        sign = -1 if val == "-" else 1
    return result


def _parse_term(tz: _Tokenizer, vspec: ModuleSpec) -> Polynomial:
    coeff = 1
    mon = [0] * vspec.dim
    kind, val, start = tz.peek()
    if kind == "int":
        tz.next()
        coeff = int(val)
        if tz.peek()[:2] != ("op", "*"):
            return Polynomial.constant(vspec, coeff)
        tz.next()
    _parse_factor(tz, vspec, mon)
    while tz.peek()[:2] == ("op", "*"):
        tz.next()
        _parse_factor(tz, vspec, mon)
    # sigma moves exponent only within a block, so below 2^63 it stays int64
    if max(monomial_multidegree(vspec, mon)) >= 2**63:
        raise ParseError("degree in one block reaches 2^63", start)
    return Polynomial.from_monomial(vspec, mon, coeff)


def _parse_factor(tz: _Tokenizer, vspec: ModuleSpec, mon: list):
    kind, val, pos = tz.next()
    if kind != "var":
        raise ParseError(f"expected a variable 'x[i,j]', got {val!r}", pos)
    i = _expect_int(tz)
    _expect_op(tz, ",")
    j = _expect_int(tz)
    _expect_op(tz, "]")
    e = 1
    kind, val, pos2 = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        e = _expect_int(tz)
        if e < 1:
            raise ParseError("exponent must be >= 1", pos2)
    try:
        idx = var_index(vspec, i, j)
    except IndexError as exc:
        raise ParseError(str(exc), pos) from None
    mon[idx] += e


def _expect_int(tz: _Tokenizer) -> int:
    kind, val, pos = tz.next()
    if kind != "int":
        raise ParseError(f"expected an integer, got {val!r}", pos)
    return int(val)


def _expect_op(tz: _Tokenizer, op: str):
    kind, val, pos = tz.next()
    if kind != "op" or val != op:
        raise ParseError(f"expected {op!r}, got {val!r}", pos)


def format_polynomial(f: Polynomial) -> str:
    """Canonical serialization; inverse of ``parse_polynomial``."""
    if f.is_zero():
        return "0"
    vars_ = variables(f.vspec)
    parts = []
    for mon in sorted(f.terms, key=mon_sort_key):
        c = f.terms[mon]
        factors = []
        for idx, e in enumerate(mon):
            if e:
                i, j = vars_[idx]
                factors.append(f"x[{i},{j}]" + (f"^{e}" if e > 1 else ""))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)
