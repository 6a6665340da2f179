"""Acceptance battery: one test per advertised guarantee, golden values
exact, each emitting a single PASS line (visible with -v via the test name,
and printed for -s runs).  Rows that take minutes are marked slow and run
with --run-slow."""

import random

import pytest

from limclose.polycore import (
    Polynomial, catalan, catalan_truncated_generating_poly,
    mod_monomial_power,
)
from limclose.idealops import Ideal, ideal_sum, ideal_colon, ideal_intersect
from limclose.localring import (
    LocalRingContext, SequenceInR, local_equal, local_contains, local_member,
    local_length, is_sop,
)
from limclose.limitclosure import (
    colon_step, colon_by_product, limit_closure, monomial_property,
)
from limclose.structure import (
    unmixed_component, ij_functions, topology_scan,
    cyclic_cover_closure_check,
)
from limclose.detmaps import express_in_terms, detmap_injective

from oracles import (
    member_oracle, local_member_oracle, quotient_count,
    contracted_quotient_count,
)
from test_detmaps import _quadric_cases, _perturb


def _report(num, desc):
    print(f"acceptance {num:02d}: PASS — {desc}")


# printed closure-generator coefficients: the Catalan numbers C_0..C_8
CATALAN_LITERAL = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def closed_form_generator(ring, n):
    """a_n = x - yv * sum_{i=0}^{n-2} C_i (uv)^i (empty sum for n = 1)."""
    x, y, v = ring.extras["x"], ring.extras["y"], ring.extras["v"]
    if n == 1:
        return x
    C = catalan_truncated_generating_poly("u", "v", n - 2, ring.ctx.vars)
    return x - y * v * C


def colon_table_row(ring, n):
    """(y^{2n}, u^{2n}, v^{2n}) : (yuv)^n in the quadric ring, ambient."""
    ctx = ring.ctx
    y, u, v = ring.extras["y"], ring.extras["u"], ring.extras["v"]
    powered = ctx.adjoin(Ideal(ctx.vars, [y ** (2 * n), u ** (2 * n),
                                          v ** (2 * n)]))
    return colon_by_product(powered, [y] * n + [u] * n + [v] * n)


def test_criterion_01_catalan_colon_table_fast_rows(catalan_ring):
    assert catalan(8) == CATALAN_LITERAL
    ctx = catalan_ring.ctx
    y, u, v = (catalan_ring.extras[k] for k in "yuv")
    for n in range(1, 10):
        a_n = closed_form_generator(catalan_ring, n)
        expected = ctx.adjoin(Ideal(ctx.vars, [y ** n, u ** n, v ** n, a_n]))
        assert local_equal(colon_table_row(catalan_ring, n), expected, ctx), n
    _report(1, "colon table rows n=1..9 match (y^n,u^n,v^n,a_n) exactly")


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 11, 12])
def test_criterion_01_catalan_colon_table_slow_rows(catalan_ring, n):
    ctx = catalan_ring.ctx
    y, u, v = (catalan_ring.extras[k] for k in "yuv")
    a_n = closed_form_generator(catalan_ring, n)
    expected = ctx.adjoin(Ideal(ctx.vars, [y ** n, u ** n, v ** n, a_n]))
    assert local_equal(colon_table_row(catalan_ring, n), expected, ctx)
    _report(1, f"colon table row n={n} matches (slow row)")


def test_criterion_02_limit_closure_closed_form(catalan_ring):
    ctx = catalan_ring.ctx
    y, u, v = (catalan_ring.extras[k] for k in "yuv")
    yuv = catalan_ring.extras["yuv"]
    for n in range(1, 6):
        res = limit_closure(yuv.powers(n))
        a_n = closed_form_generator(catalan_ring, n)
        expected = ctx.adjoin(Ideal(ctx.vars, [y ** n, u ** n, v ** n, a_n]))
        assert local_equal(res.closure, expected, ctx), n
        assert local_length(res.closure, ctx) == n ** 3, n
    _report(2, "closures of (y^n,u^n,v^n), n=1..5, match the closed form "
               "with length n^3")


def test_criterion_03_truncated_generating_function_identity():
    V = ("X", "Y", "U", "V")
    X, Y, U, W = (Polynomial.variable(n, V) for n in V)
    f = X * Y - U * X ** 2 - W * Y ** 2
    for n in range(2, 13):
        C = catalan_truncated_generating_poly("U", "V", n - 2, V)
        lhs = (X - Y * W * C) * (Y - X * U * C)
        # the RHS keeps the full generating function mod (U^n, V^n),
        # i.e. coefficients up to C_{n-1}
        rhs = f * catalan_truncated_generating_poly("U", "V", n - 1, V)
        assert not mod_monomial_power(lhs - rhs, ("U", "V"), n).terms, n
    _report(3, "(X - YVC)(Y - XUC) == f*C mod (U^n,V^n) for n=2..12")


def test_criterion_04_stabilized_intersection_on_split_ring(split_ring):
    ctx = split_ring.ctx
    x = split_ring.extras["x"]
    res = unmixed_component(split_ring.sop)
    assert local_equal(res.component, Ideal(ctx.vars, [x]), ctx)
    # the witness x lies in every tested closure
    for n in (1, 2, 3):
        closure = limit_closure(split_ring.sop.powers(n)).closure
        assert local_member(x, closure, ctx), n
    _report(4, "stabilized closure intersection equals the (x)-class ideal; "
               "witness x in every tested closure")


def test_criterion_05_monomial_property_battery(plane, space, split_ring,
                                                catalan_ring,
                                                three_level_ring):
    battery = (plane, space, split_ring, catalan_ring, three_level_ring)
    for fix in battery:
        assert is_sop(fix.sop)
        assert monomial_property(fix.sop), fix.ctx.vars
    _report(5, f"1 not in (x)^lim for every sop in the {len(battery)}-ring "
               "battery")


def test_criterion_06_ij_functions(plane, split_ring, catalan_ring):
    for fix, cm in ((plane, True), (catalan_ring, True), (split_ring, False)):
        tab = ij_functions(fix.sop, n_max=4)
        Is = [r[4] for r in tab.rows]
        Js = [r[5] for r in tab.rows]
        assert all(v >= 0 for v in Is + Js)
        assert all(a <= b for a, b in zip(Is, Is[1:]))
        assert all(a <= b for a, b in zip(Js, Js[1:]))
        if cm:
            assert Is == [0, 0, 0, 0] and Js == [0, 0, 0, 0]
    tab = ij_functions(split_ring.sop, n_max=4)
    assert [r[4] for r in tab.rows] == [1, 2, 3, 4]
    _report(6, "I, J >= 0 and nondecreasing on the quadric and split rings; "
               "identically 0 on Cohen-Macaulay fixtures")


def test_criterion_07_determinantal_equivalence(catalan_ring):
    rng = random.Random(2024)
    cases = _quadric_cases(catalan_ring)
    assert len(cases) >= 6
    assert sum(1 for _, _, s in cases if s) == 3
    assert sum(1 for _, _, s in cases if not s) == 3
    for X, Y, expect_sop in cases:
        assert is_sop(Y) == expect_sop
        prob = express_in_terms(Y, X)
        assert detmap_injective(prob) == expect_sop
        for _ in range(5):
            assert detmap_injective(_perturb(prob, rng)) == expect_sop
    _report(7, "detmap injectivity == is_sop on 6 cases, stable under 5 "
               "matrix re-expressions each")


def test_criterion_08_topology_dichotomy(plane, catalan_ring, split_ring):
    for fix in (plane, catalan_ring):
        rep = topology_scan(fix.sop, n0=4, v_max=8)
        assert rep.success and rep.failure_k is None, fix.ctx.vars
    rep = topology_scan(split_ring.sop, n0=4, v_max=8)
    assert not rep.success and rep.failure_k == 2
    # witness reduces to x modulo m^2
    ctx = split_ring.ctx
    diff = rep.witness - split_ring.extras["x"]
    assert local_member(diff, ctx.m_power(2), ctx)
    _report(8, "affine-shadow scan: equivalent topologies on unmixed "
               "fixtures, split ring fails at k=2 with witness x mod m^2")


def test_criterion_09_final_counterexample(glued_ring):
    ctx = glued_ring.ctx
    x = glued_ring.extras["x"]
    witnesses = []
    for n in (1, 2, 3):
        closure = limit_closure(glued_ring.sop.powers(n)).closure
        if not local_member(x, closure, ctx):
            # re-certify with the truncated-linear-algebra oracle: False at
            # any truncation proves local non-membership
            gens = list(closure.reduced_gens()) + list(ctx.defining.gens)
            assert not local_member_oracle(x, gens, 6)
            witnesses.append(n)
    assert witnesses, "no n <= 3 separates x from the closure"
    _report(9, f"x not in (y^n,u^n,v^n)^lim on the glued ring for n in "
               f"{witnesses}; certified by the truncation oracle")


def test_criterion_10_contraction_identity_on_veronese(veronese_pair):
    # oracle first: the three integers from semigroup lattice-point counting
    R_exps = veronese_pair.extras["R_exps"]
    S_exps = veronese_pair.extras["S_exps"]
    shifts = [(4, 0), (0, 4)]
    assert quotient_count(R_exps, shifts, 40) == 5
    assert contracted_quotient_count(R_exps, S_exps, shifts, 40) == 3
    rep = cyclic_cover_closure_check(veronese_pair.extras["map"],
                                     veronese_pair.sop)
    assert rep.equal
    assert rep.length_mod_ideal == 5
    assert rep.length_mod_closure == 3
    assert rep.closure_excess == 2
    _report(10, "(a,d)^lim == (a,d)S cap R with lengths 5 / 3 / excess 2, "
                "oracle-confirmed")


# -- criterion 11: property suites --------------------------------------------

VARS3 = ("x", "y", "z")


def _rand_poly(rng, max_terms=3, max_deg=3, max_coef=4):
    # degree 1..max_deg per term: keeping generators inside the maximal
    # ideal keeps colon certificates within the oracle's cofactor bound
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0, 0, 0]
        for _ in range(rng.randint(1, max_deg)):
            e[rng.randrange(3)] += 1
        c = rng.randint(-max_coef, max_coef)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return Polynomial(VARS3, terms)


def test_criterion_11a_groebner_canonicity_under_shuffles():
    rng = random.Random(5)
    pools = [[_rand_poly(rng) for _ in range(rng.randint(2, 4))]
             for _ in range(10)]
    for gens in pools:
        base = [str(g) for g in Ideal(VARS3, gens).reduced_gens()]
        for _ in range(10):   # 10 pools x 10 shuffles = 100 trials
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [g * Polynomial.constant(rng.choice([1, 2, -1, 3]),
                                              VARS3)
                      for g in shuffled]
            assert [str(g) for g in
                    Ideal(VARS3, scaled).reduced_gens()] == base
    _report(11, "a) reduced bases invariant under 100 generator "
                "shuffles/rescalings")


def test_criterion_11b_ideal_algebra_vs_linear_algebra_oracle():
    rng = random.Random(7)

    def nonzero(rng):
        while True:
            p = _rand_poly(rng)
            if not p.is_zero():
                return p

    def oracle_member(f, gens):
        # yes-sound brute force: escalate the cofactor bound before
        # declaring a mismatch with the Groebner verdict
        return any(member_oracle(f, gens, b) for b in (6, 10, 12))

    for trial in range(20):
        g1, g2 = nonzero(rng), nonzero(rng)
        I = Ideal(VARS3, [g1, g2])
        J = Ideal(VARS3, [nonzero(rng), nonzero(rng)])
        f = _rand_poly(rng)
        # membership: the bounded oracle is sound for yes
        if member_oracle(f, I.gens, 3):
            assert I.contains_poly(f), trial
        # random combinations are members both ways
        comb = g1 * _rand_poly(rng, max_deg=2) + \
            g2 * _rand_poly(rng, max_deg=2)
        assert I.contains_poly(comb)
        assert oracle_member(comb, I.gens), trial
        # intersection generators belong to both sides
        for g in ideal_intersect(I, J).reduced_gens():
            assert oracle_member(g, I.gens), trial
            assert oracle_member(g, J.gens), trial
        # colon characterization: c * f in I, witnessed by the oracle
        if not f.is_zero():
            for c in ideal_colon(I, f).reduced_gens():
                assert oracle_member(c * f, I.gens), trial
    _report(11, "b) membership/intersection/colon agree with degree-bounded "
                "linear algebra on 20 random ideals")


def test_criterion_11c_chain_monotonicity_everywhere(plane, space, split_ring,
                                                     catalan_ring, glued_ring,
                                                     three_level_ring):
    fixtures = (plane, space, split_ring, catalan_ring, glued_ring,
                three_level_ring)
    for fix in fixtures:
        seq = fix.sop if fix is not glued_ring else glued_ring.sop
        prev = None
        for n in (1, 2, 3):
            step = colon_step(seq, n)
            if prev is not None:
                assert local_contains(prev, step, fix.ctx), fix.ctx.vars
            prev = step
    _report(11, "c) colon chains monotone on every fixture")


def test_criterion_11d_quotient_formula(split_ring):
    ctx = split_ring.ctx
    N = split_ring.extras["U"]
    ctx_bar = LocalRingContext(ctx.vars, ctx.adjoin(N))
    seq_bar = SequenceInR(list(split_ring.sop.entries), ctx_bar)
    for n in (1, 2):
        up = limit_closure(split_ring.sop.powers(n)).closure
        down = limit_closure(seq_bar.powers(n)).closure
        assert local_equal(down, ideal_sum(up, N), ctx_bar)
    _report(11, "d) closure in R/N equals the image of the closure for "
                "N inside every closure")
