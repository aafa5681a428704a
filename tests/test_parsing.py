import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcov.modules import module_spec
from modcov.parsing import ParseError, format_polynomial, parse_polynomial
from modcov.poly import Polynomial, apply_sigma
from oracle import random_poly

V32 = module_spec(3, [3, 2])


def test_examples():
    f = parse_polynomial("x[1,1]^2*x[2,1] + 2*x[2,2]", V32)
    assert format_polynomial(f) == "x[1,1]^2*x[2,1] + 2*x[2,2]"
    assert format_polynomial(parse_polynomial("0", V32)) == "0"
    assert format_polynomial(parse_polynomial("", V32)) == "0"
    assert format_polynomial(parse_polynomial("  ", V32)) == "0"


def test_coefficients_reduce_mod_p():
    f = parse_polynomial("5*x[1,1]", V32)
    assert format_polynomial(f) == "2*x[1,1]"
    assert parse_polynomial("3*x[1,1]", V32).is_zero()


def test_minus_and_leading_sign():
    f = parse_polynomial("-x[1,1] + x[1,1]", V32)
    assert f.is_zero()
    g = parse_polynomial("x[2,1] - x[3,1]", V32)
    assert format_polynomial(g) == "x[2,1] + 2*x[3,1]"


def test_repeated_variable_multiplies():
    f = parse_polynomial("x[1,1]*x[1,1]", V32)
    assert format_polynomial(f) == "x[1,1]^2"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_polynomial("x[1,1] + + x[2,1]", V32)
    assert e.value.pos == 9
    with pytest.raises(ParseError):
        parse_polynomial("x[9,1]", V32)  # row out of range
    with pytest.raises(ParseError):
        parse_polynomial("x[1,5]", V32)  # block out of range
    with pytest.raises(ParseError):
        parse_polynomial("x[1,1]^0", V32)
    with pytest.raises(ParseError):
        parse_polynomial("y", V32)
    with pytest.raises(ParseError):
        parse_polynomial("x[1,1", V32)


def test_block_degree_stops_below_2_63():
    # sigma moves exponent within a block: a block degree below 2^63 fits int64
    v = module_spec(5, [2, 1])
    top = 2**63 - 1
    f = parse_polynomial(f"x[1,1]*x[2,1]^{top - 1} + x[1,2]^{top}", v)
    assert apply_sigma(f) == f + Polynomial.variable(v, 2, 1, e=top)
    for text, pos in ((f"x[1,1]*x[2,1]^{top}", 0), ("x[2,1] + 3*x[2,1]^99999999999999999999", 9)):
        with pytest.raises(ParseError, match="2\\^63") as e:
            parse_polynomial(text, v)
        assert e.value.pos == pos


def test_round_trip_random():
    rng = random.Random(40)
    specs = [module_spec(2, [2]), module_spec(3, [3, 2]), module_spec(5, [4, 1])]
    for _ in range(300):
        v = rng.choice(specs)
        f = random_poly(rng, v, max_deg=4, max_terms=5, min_terms=0)
        assert parse_polynomial(format_polynomial(f), v) == f


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=5, max_size=5),
            st.integers(1, 2),
        ),
        max_size=4,
    )
)
def test_round_trip_hypothesis(term_list):
    v = V32
    terms = {}
    for mon, c in term_list:
        terms[tuple(mon)] = c
    f = Polynomial(v, terms)
    assert parse_polynomial(format_polynomial(f), v) == f


def test_canonical_string_round_trip():
    # serialize -> parse -> serialize is stable
    rng = random.Random(41)
    for _ in range(100):
        f = random_poly(rng, V32, max_deg=4, max_terms=5, min_terms=0)
        s = format_polynomial(f)
        assert format_polynomial(parse_polynomial(s, V32)) == s
