"""Tiny expression language for scalar potentials over manifold coordinates.

Grammar (precedence low to high; '^' is right-associative and binds
tighter than unary minus):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are x1..xn (one per coordinate column of the manifold),
functions are sin, cos, exp, abs.  There is no implicit multiplication.
Evaluation is vectorized over nodes and pure: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, EvalDomainError, ParseError
from .manifold import DiscreteManifold

__all__ = ["PsiSpec", "parse", "evaluate"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}


@dataclass(frozen=True)
class Num:
    value: float  # always >= 0; the parser wraps '-' into Neg


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class PsiSpec:
    """Parsed potential expression (immutable AST)."""

    ast: Node


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"^x([1-9]\d*)$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # only whitespace left?
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            offset = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r}", offset)
        self.i += 1

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                node = BinOp(tok[1], node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.i += 1
                node = BinOp(tok[1], node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, text, offset = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "pi":
                return Num(math.pi)
            if text in _FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(text, arg)
            m = _VAR_RE.match(text)
            if m:
                return Var(int(m.group(1)))
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", offset)


def parse(text: str) -> PsiSpec:
    """Parse an expression into a PsiSpec, raising ParseError with the byte offset."""
    try:
        return PsiSpec(_Parser(text).parse())
    except RecursionError:  # the parser recurses once per '(' or unary '-'
        raise ParseError("expression nests too deeply", 0) from None


def _eval(node: Node, coords: np.ndarray, ambient: int):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index > ambient:
            raise DimensionMismatch(
                f"variable x{node.index} but manifold has {ambient} coordinate(s)"
            )
        return coords[:, node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.arg, coords, ambient)
    if isinstance(node, Call):
        return _FUNCTIONS[node.func](_eval(node.arg, coords, ambient))
    if isinstance(node, BinOp):
        a = _eval(node.lhs, coords, ambient)
        b = _eval(node.rhs, coords, ambient)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(np.asarray(b) == 0):
                raise EvalDomainError("division by zero")
            return a / b
        if node.op == "^":
            if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
                raise EvalDomainError("zero raised to a negative power")
            # float64 throughout: python floats would yield complex for
            # negative base with fractional exponent instead of nan
            with np.errstate(invalid="ignore", over="ignore"):
                out = np.asarray(a, dtype=float) ** np.asarray(b, dtype=float)
            if not np.all(np.isfinite(out)):
                raise EvalDomainError("power produced a non-finite value")
            return out
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(spec: PsiSpec, man: DiscreteManifold) -> np.ndarray:
    """Evaluate the potential at every node; returns a float array of length node_count.

    Raises EvalDomainError when the potential is not finite at some node
    (e.g. exp overflowing), since no flow can start from such a potential.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(spec.ast, man.coordinates, man.ambient_dim)
    if np.isscalar(out) or np.ndim(out) == 0:
        out = np.full(man.node_count, float(out))
    else:
        out = np.asarray(out, dtype=float)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise EvalDomainError(f"potential is not finite at {bad} of {out.size} nodes")
    return out
