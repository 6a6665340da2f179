"""Polynomial arithmetic, monomial orders, Catalan helpers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limclose.polycore import (
    Polynomial, MonomialOrder, GREVLEX, LEX, VariableMismatch,
    catalan, catalan_truncated_generating_poly, mod_monomial_power,
    mono_mul, mono_divides,
)

VARS = ("x", "y", "z")


def rand_poly(rng, max_terms=4, max_deg=3, max_coef=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in VARS)
        terms[e] = terms.get(e, 0) + rng.randint(-max_coef, max_coef)
    return Polynomial(VARS, terms)


coefs = st.one_of(st.integers(-9, 9),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coefs, max_size=5).map(
    lambda d: Polynomial(VARS, d))


@settings(max_examples=1000, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    zero = Polynomial.zero(VARS)
    one = Polynomial.constant(1, VARS)
    assert (p + q).terms == (q + p).terms
    assert ((p + q) + r).terms == (p + (q + r)).terms
    assert (p + zero).terms == p.terms
    assert (p - p).terms == zero.terms
    assert (p * q).terms == (q * p).terms
    assert ((p * q) * r).terms == (p * (q * r)).terms
    assert (p * one).terms == p.terms
    assert (p * (q + r)).terms == (p * q + p * r).terms


@settings(max_examples=200, deadline=None)
@given(polys, st.integers(0, 4))
def test_power_is_repeated_product(p, k):
    expected = Polynomial.constant(1, VARS)
    for _ in range(k):
        expected = expected * p
    assert (p ** k).terms == expected.terms


def test_coefficients_stay_exact():
    p = Polynomial(VARS, {(1, 0, 0): Fraction(1, 3)})
    q = p + p + p
    assert q.terms == {(1, 0, 0): 1}
    assert all(isinstance(c, (int, Fraction)) for c in q.terms.values())


def test_variable_mismatch_raises():
    p = Polynomial.variable("x", ("x", "y"))
    q = Polynomial.variable("x", ("x", "z"))
    with pytest.raises(VariableMismatch):
        p + q


def test_lead_terms():
    x = Polynomial.variable("x", VARS)
    y = Polynomial.variable("y", VARS)
    z = Polynomial.variable("z", VARS)
    p = x * y ** 2 + x ** 2 * z  # same degree: grevlex prefers fewer z's
    assert p.lead(GREVLEX)[0] == (1, 2, 0)
    assert p.lead(LEX)[0] == (2, 0, 1)


def test_grevlex_is_degree_compatible():
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randint(0, 5) for _ in VARS)
        b = tuple(rng.randint(0, 5) for _ in VARS)
        if sum(a) < sum(b):
            assert GREVLEX.key(a) < GREVLEX.key(b)


def test_block_order_eliminates_front_variables():
    order = MonomialOrder.block(1)
    # any monomial involving the first variable beats any that does not
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def test_lazard_order_is_ds_on_homogenized_monomials():
    """Homogenized to one degree D by a last variable h, x-monomials compare
    as in ds: lower degree is larger, ties by reverse lex.  Across degrees
    the order stays degree-first, so it is a well-order."""
    order = MonomialOrder.lazard()
    rng = random.Random(3)
    D = 12
    for _ in range(300):
        a = tuple(rng.randint(0, 3) for _ in range(3))
        b = tuple(rng.randint(0, 3) for _ in range(3))
        ha, hb = a + (D - sum(a),), b + (D - sum(b),)
        if sum(a) != sum(b):
            assert (order.key(ha) > order.key(hb)) == (sum(a) < sum(b))
        else:
            assert (order.key(ha) > order.key(hb)) == \
                (GREVLEX.key(a) > GREVLEX.key(b))
        if sum(a) < sum(b):
            assert order.key(a + (0,)) < order.key(b + (0,))


def test_monomial_helpers():
    a, b = (2, 1, 0), (1, 3, 0)
    assert mono_mul(a, b) == (3, 4, 0)
    assert mono_divides((1, 1, 1), a) is False
    assert mono_divides((1, 1, 0), (2, 1, 3)) is True


# -- Catalan helpers --------------------------------------------------------

def test_catalan_first_values():
    assert catalan(8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_binomial_oracle():
    cs = catalan(20)
    for k in range(21):
        assert cs[k] == math.comb(2 * k, k) // (k + 1)


def test_catalan_recurrence():
    cs = catalan(20)
    for k in range(1, 21):
        assert cs[k] == sum(cs[i] * cs[k - 1 - i] for i in range(k))


def test_truncated_generating_polynomial_functional_equation():
    # C(t) = 1 + t C(t)^2 holds through the truncation window
    V = ("u", "v")
    u = Polynomial.variable("u", V)
    v = Polynomial.variable("v", V)
    for n in range(2, 13):
        C = catalan_truncated_generating_poly("u", "v", n - 1, V)
        lhs = C
        rhs = Polynomial.constant(1, V) + (u * v) * C * C
        diff = mod_monomial_power(lhs - rhs, ("u", "v"), n)
        assert not diff.terms, f"functional equation fails at n={n}"


def test_mod_monomial_power_drops_high_exponents():
    V = ("u", "v")
    u = Polynomial.variable("u", V)
    v = Polynomial.variable("v", V)
    p = u ** 3 + u * v ** 2 + Polynomial.constant(1, V)
    q = mod_monomial_power(p, ("u",), 3)
    assert q.terms == (u * v ** 2 + Polynomial.constant(1, V)).terms
    assert mod_monomial_power(p, ("u", "v"), 2).terms == {(0, 0): 1}


def test_primitive_clears_content():
    p = Polynomial(VARS, {(1, 0, 0): 6, (0, 1, 0): -9})
    assert sorted(p.primitive().terms.values()) == [-3, 2]
    q = Polynomial(VARS, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(3, 4)})
    assert set(q.primitive().terms.values()) == {2, 3}
