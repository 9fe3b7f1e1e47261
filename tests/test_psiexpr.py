import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvflow.errors import DimensionMismatch, EvalDomainError, ParseError
from curvflow.psiexpr import BinOp, Call, Neg, Num, PsiSpec, Var, evaluate, parse

from conftest import circle


def _value(text, man):
    return float(evaluate(parse(text), man)[0])


@pytest.fixture(scope="module")
def point():
    # 3-node circle: node 0 sits at x1 = 0
    return circle(3)


def test_constant_tree():
    assert parse("1").ast == Num(1.0)
    assert parse("-3").ast == Neg(Num(3.0))


def test_arithmetic_and_precedence(point):
    cases = {
        "1": 1.0,
        "2+3*4": 14.0,
        "2*3+4": 10.0,
        "6/3/2": 1.0,
        "2-3-4": -5.0,
        "-2^2": -4.0,
        "2^-1": 0.5,
        "(2^3)^2": 64.0,
        "2^3^2": 512.0,
        "1/4": 0.25,
        "-1 + 0.5*cos(x1)": -0.5,
        "cos(pi)": -1.0,
        "pi": math.pi,
        "abs(0-3)": 3.0,
        "exp(0)": 1.0,
        "sin(0)": 0.0,
    }
    for text, want in cases.items():
        assert _value(text, point) == pytest.approx(want, rel=1e-15), text


def test_power_right_associative(point):
    assert _value("2^3^2", point) == _value("2^(3^2)", point)
    assert _value("2^3^2", point) != _value("(2^3)^2", point)


def test_whitespace_insensitive(point):
    a = evaluate(parse("-1+0.5*cos(x1)"), point)
    b = evaluate(parse("  - 1 + 0.5 * cos( x1 )  "), point)
    assert np.array_equal(a, b)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("foo(1)")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("1 + bar")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ParseError) as err:
        parse("1 2")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse(")")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1 + @")
    for deep in ("(" * 300 + "1" + ")" * 300, "-" * 985 + "1"):
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse(deep)
        assert err.value.offset == 0


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2 x1")
    with pytest.raises(ParseError):
        parse("2(3)")


def test_evaluate_samples(circle64):
    x = circle64.coordinates[:, 0]
    assert np.array_equal(evaluate(parse("0"), circle64), np.zeros(64))
    assert np.array_equal(evaluate(parse("cos(x1)"), circle64), np.cos(x))


def test_evaluate_pure(circle64):
    spec = parse("exp(sin(x1)) - 0.25*x1^2")
    a = evaluate(spec, circle64)
    b = evaluate(spec, circle64)
    assert np.array_equal(a, b)


def test_evaluate_domain_errors(circle64):
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1/x1"), circle64)  # node at x1 = 0
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(x1-x1)"), circle64)
    with pytest.raises(EvalDomainError):
        evaluate(parse("0^-1"), circle64)
    with pytest.raises(EvalDomainError):
        evaluate(parse("(0-2)^0.5"), circle64)


def test_evaluate_rejects_non_finite_silently(circle64):
    # exp overflows at most nodes; the error must come without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match="not finite"):
            evaluate(parse("exp(1000*x1)"), circle64)
        with pytest.raises(EvalDomainError, match="not finite"):
            evaluate(parse("exp(1000)"), circle64)
        with pytest.raises(EvalDomainError, match="not finite"):
            evaluate(parse("sin(exp(1000*x1))"), circle64)


def test_variable_bounds(circle64, octahedron):
    with pytest.raises(DimensionMismatch):
        evaluate(parse("x2"), circle64)
    # embedded surface: all three ambient coordinates are usable
    out = evaluate(parse("x3"), octahedron)
    assert np.array_equal(out, octahedron.coordinates[:, 2])
    with pytest.raises(DimensionMismatch):
        evaluate(parse("x4"), octahedron)


def test_var_index_parsing():
    assert parse("x10").ast == Var(10)
    with pytest.raises(ParseError):
        parse("x0")


def test_scalar_broadcast(circle64):
    out = evaluate(parse("2^3"), circle64)
    assert out.shape == (64,)
    assert np.all(out == 8.0)


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.integers(min_value=1, max_value=3).map(Var),
)
_ast = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs"]), kids),
    ),
    max_leaves=20,
)


# A printer for the round-trip test: the shortest text that parses back to
# the same AST.  Precedence levels; atoms are effectively infinite.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM = 9


def _fmt(node):
    if isinstance(node, Num):
        return repr(node.value), _ATOM
    if isinstance(node, Var):
        return f"x{node.index}", _ATOM
    if isinstance(node, Call):
        inner, _ = _fmt(node.arg)
        return f"{node.func}({inner})", _ATOM
    if isinstance(node, Neg):
        inner, prec = _fmt(node.arg)
        # '^' binds tighter than unary minus, so -x^2 means -(x^2): no parens needed
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    p = _PREC[node.op]
    ls, lp = _fmt(node.lhs)
    rs, rp = _fmt(node.rhs)
    if node.op == "^":
        # right-associative: left child needs parens unless it is an atom
        if lp <= p:
            ls = f"({ls})"
        if rp < p and rp != _PREC["neg"]:
            # exponent position re-parses unary minus fine; anything
            # looser (e.g. a+b) needs parens
            rs = f"({rs})"
    else:
        if lp < p:
            ls = f"({ls})"
        if rp <= p:
            rs = f"({rs})"
    return f"{ls}{node.op}{rs}", p


def format_expr(spec):
    """Render the AST back to text; parse(format_expr(s)).ast == s.ast."""
    return _fmt(spec.ast)[0]


@settings(max_examples=200, deadline=None)
@given(ast=_ast)
def test_format_parse_roundtrip(ast):
    spec = PsiSpec(ast)
    text = format_expr(spec)
    assert parse(text).ast == ast
    # printing is a fixed point after one roundtrip
    assert format_expr(parse(text)) == text
