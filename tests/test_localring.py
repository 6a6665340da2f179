"""Local ring machinery: membership at the origin, lengths, dimensions,
systems of parameters, m-power containment."""

import random

import pytest

from limclose import idealops, localring
from limclose.polycore import Polynomial
from limclose.idealops import Ideal, ideal_colon, _fresh_tag_var
from limclose.localring import (
    LocalRingContext, SequenceInR, local_member, local_contains, local_equal,
    is_local_unit_ideal, local_length, local_dim, is_sop,
    contained_in_m_power, NotMPrimary, _local_leads,
)

from oracles import local_member_oracle, local_length_oracle


def rand_poly(rng, vars, max_terms=3, max_deg=3, max_coef=4):
    terms = {}
    n = len(vars)
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        c = rng.randint(-max_coef, max_coef)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return Polynomial(vars, terms)


def test_context_rejects_unit_defining_ideal():
    V = ("x",)
    one_plus = Polynomial.constant(1, V) + Polynomial.variable("x", V)
    with pytest.raises(ValueError):
        LocalRingContext(V, Ideal(V, [one_plus]))


def test_sequence_rejects_units_and_foreign_variables(plane):
    with pytest.raises(ValueError):
        SequenceInR([plane.ctx.one() + plane.extras["x"]], plane.ctx)
    with pytest.raises(Exception):
        SequenceInR([Polynomial.variable("w", ("w",))], plane.ctx)


def test_local_membership_units_invert(plane):
    # 1 + x is a unit at the origin, so x in ((1+x) x) locally
    x, y = plane.extras["x"], plane.extras["y"]
    I = Ideal(plane.ctx.vars, [(plane.ctx.one() + x) * x])
    assert local_member(x, I, plane.ctx)
    assert not I.contains_poly(x)  # globally it is not a member
    assert not local_member(y, I, plane.ctx)


def test_local_membership_against_truncation_oracle(plane):
    rng = random.Random(17)
    V = plane.ctx.vars
    checked = 0
    for _ in range(40):
        gens = [rand_poly(rng, V) for _ in range(2)]
        gens = [g - Polynomial.constant(g.constant_term, V) for g in gens]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(V, gens)
        f = rand_poly(rng, V)
        f = f - Polynomial.constant(f.constant_term, V)
        if f.is_zero():
            continue
        got = local_member(f, I, plane.ctx)
        oracle = local_member_oracle(f, gens, trunc_deg=8)
        if not oracle:
            # truncation failure certifies local non-membership
            assert not got
        else:
            # a member must pass every truncation
            if got:
                assert oracle
        checked += 1
    assert checked >= 25


def test_local_contains_and_equal(plane):
    x, y = plane.extras["x"], plane.extras["y"]
    ctx = plane.ctx
    I = Ideal(ctx.vars, [x])
    J = Ideal(ctx.vars, [(ctx.one() + y) * x, x ** 2])
    assert local_equal(I, J, ctx)
    assert not local_contains(Ideal(ctx.vars, [y]), I, ctx)


def test_unit_ideal_detection(plane):
    ctx = plane.ctx
    x = plane.extras["x"]
    assert is_local_unit_ideal(Ideal(ctx.vars, [ctx.one() + x]), ctx)
    assert not is_local_unit_ideal(Ideal(ctx.vars, [x]), ctx)


def test_unit_ideal_test_needs_no_basis_inside_m(plane, split_ring,
                                                 monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("buchberger ran")

    for fx in (plane, split_ring):
        ctx = fx.ctx
        x, y = fx.extras["x"], fx.extras["y"]
        with monkeypatch.context() as m:
            m.setattr(idealops, "buchberger", no_basis)
            assert not is_local_unit_ideal(ctx.zero_ideal(), ctx)
            assert not is_local_unit_ideal(Ideal(ctx.vars, [x, y ** 2]), ctx)
            assert not is_local_unit_ideal(fx.sop.ideal(), ctx)
            assert is_local_unit_ideal(Ideal(ctx.vars, [ctx.one() + x]), ctx)
            assert is_local_unit_ideal(
                Ideal(ctx.vars, [x, ctx.one() - y]), ctx)


def test_local_leads_cache_answers_every_presentation_alike(split_ring,
                                                           monkeypatch,
                                                           uncached):
    """_local_leads on another presentation of I is a hit, made while the
    kernel cannot run, and returns what an uncached call on that
    presentation returns, as a fresh list; no cached key is over the
    homogenizing variable."""
    ctx = split_ring.ctx
    V = ctx.vars
    tag = _fresh_tag_var(V)
    rng = random.Random(41)
    for _ in range(8):
        gens = []
        count = rng.randint(1, 3)
        while len(gens) < count:
            f = rand_poly(rng, V, max_deg=2)
            f = f - Polynomial.constant(f.constant_term, V)
            if not f.is_zero():
                gens.append(f)
        first = _local_leads(Ideal(V, gens), ctx)
        for _ in range(4):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [g * rng.choice([1, -1, 2, -2, 3, -3]) for g in shuffled]
            I2 = Ideal(V, scaled + [scaled[0] * rng.choice([-1, 2])])
            want = uncached(_local_leads, I2, ctx)
            with monkeypatch.context() as m:
                m.setattr(localring, "lead_monomials", None)
                got = _local_leads(I2, ctx)
                got.append(None)
                again = _local_leads(I2, ctx)
            assert again == want == first
        assert all(tag not in key[0] for key in idealops._GB_CACHE.entries)


def test_local_length_matches_standard_monomials(plane):
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    assert local_length(Ideal(ctx.vars, [x, y]), ctx) == 1
    assert local_length(Ideal(ctx.vars, [x ** 2, y ** 3]), ctx) == 6
    # (x^2, xy, y^2) = m^2
    assert local_length(ctx.m_power(2), ctx) == 3
    # unit ideal locally
    assert local_length(Ideal(ctx.vars, [ctx.one() + x]), ctx) == 0


def test_local_length_sees_only_the_origin(plane):
    # (x^2, xy) defines the y-axis plus an embedded point; not m-primary
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    with pytest.raises(NotMPrimary):
        local_length(Ideal(ctx.vars, [x ** 2, x * y]), ctx)
    # (x^2, x(y - 1)) is locally (x^2, x) = (x): still not finite length
    with pytest.raises(NotMPrimary):
        local_length(Ideal(ctx.vars, [x ** 2, x * (y - ctx.one())]), ctx)
    # but ((y-1)x, y^3) is locally (x, y^3): length 3, the far component
    # on y = 1 is invisible at the origin
    I = Ideal(ctx.vars, [(y - ctx.one()) * x, y ** 3])
    assert local_length(I, ctx) == 3


def test_local_dim_examples(space, split_ring, catalan_ring):
    ctx = space.ctx
    x, y, z = (space.extras[k] for k in "xyz")
    assert ctx.dim == 3
    assert local_dim(Ideal(ctx.vars, [x]), ctx) == 2
    assert local_dim(Ideal(ctx.vars, [x, y]), ctx) == 1
    assert local_dim(Ideal(ctx.vars, [x, y, z]), ctx) == 0
    assert split_ring.ctx.dim == 2
    assert catalan_ring.ctx.dim == 3
    with pytest.raises(ValueError):
        local_dim(Ideal(ctx.vars, [ctx.one()]), ctx)


def test_local_dim_is_local(plane):
    # (x(y-1)) vanishes on the x-axis shifted and the y-axis; at the origin
    # only the branch x = 0 passes through, so local dim is 1
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    assert local_dim(Ideal(ctx.vars, [x * (y - ctx.one())]), ctx) == 1


def test_is_sop_positive_and_negative(space, split_ring, catalan_ring):
    assert is_sop(space.sop)
    x, y, z = (space.extras[k] for k in "xyz")
    ctx = space.ctx
    assert not is_sop(SequenceInR([x, y], ctx))            # too short
    assert not is_sop(SequenceInR([x, y, x * y], ctx))     # dim stays 1
    assert is_sop(split_ring.sop)
    assert is_sop(split_ring.extras["good_sop"])
    # (y, u, v) is a height-2 prime of the quadric ring: not a sop
    assert not is_sop(catalan_ring.extras["yuv"])
    assert is_sop(catalan_ring.sop)


def test_sop_powers_are_sops(split_ring):
    assert is_sop(split_ring.sop.powers(2))
    assert is_sop(split_ring.sop.powers(3))


def test_contained_in_m_power(plane):
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    I = Ideal(ctx.vars, [x ** 2 * y, x ** 3])
    assert contained_in_m_power(I, 1, ctx)
    assert contained_in_m_power(I, 2, ctx)
    assert contained_in_m_power(I, 3, ctx)
    assert not contained_in_m_power(I, 4, ctx)
    # units rescale away: ((1+x) x^2) sits exactly in m^2
    J = Ideal(ctx.vars, [(ctx.one() + x) * x ** 2])
    assert contained_in_m_power(J, 2, ctx)
    assert not contained_in_m_power(J, 3, ctx)
    with pytest.raises(ValueError):
        contained_in_m_power(I, 0, ctx)


def test_contained_in_m_power_matches_the_local_containment():
    # the global test in J + m^k against the local basis of I + m^k it
    # replaced, on seeded random rings with far components, unit factors
    # and embedded points
    rng = random.Random(20)
    verdicts = set()
    for _ in range(40):
        ctx, I = _random_local_ring(rng)
        for k in (1, 2, 3, 4):
            got = contained_in_m_power(I, k, ctx)
            assert got == local_contains(I, ctx.m_power(k), ctx), (I, k)
            verdicts.add(got)
    assert verdicts == {True, False}


def _random_local_ring(rng):
    """A small ring and ideal through the origin: non-homogeneous
    generators, sometimes a far factor (vanishing away from the origin),
    a unit factor, a shared factor (a curve through the origin) or an
    embedded-point monomial."""
    V = ("x", "y") if rng.random() < 0.8 else ("x", "y", "z")
    one = Polynomial.constant(1, V)
    gens, ngens = [], len(V) + rng.randint(0, 1)
    while len(gens) < ngens:
        g = rand_poly(rng, V, max_deg=2 if len(V) == 3 else 3)
        g = g - Polynomial.constant(g.constant_term, V)
        if g.is_zero():
            continue
        v = Polynomial.variable(rng.choice(V), V)
        roll = rng.random()
        if roll < 0.2:
            g = g * (v - rng.choice((1, 2, -1)) * one)      # far component
        elif roll < 0.3:
            g = g * (v + one)                               # unit factor
        gens.append(g)
    roll = rng.random()
    if roll < 0.15:
        shared = Polynomial.variable(V[0], V) + Polynomial.variable(V[1], V) ** 2
        gens = [g * shared for g in gens]
    elif roll < 0.3:
        gens.append(Polynomial(
            V, {tuple(rng.randint(0, 2) for _ in V): 1}))   # embedded point
    J = []
    if rng.random() < 0.3:
        j = rand_poly(rng, V, max_deg=3)
        J = [j - Polynomial.constant(j.constant_term, V)]
    ctx = LocalRingContext(V, Ideal(V, J))
    return ctx, Ideal(V, gens)


def _colon_criterion(f, I, ctx):
    """Reference local membership test: (I + J) : f contains a unit."""
    return f.is_zero() or any(
        g.constant_term for g in ideal_colon(ctx.adjoin(I), f).reduced_gens())


def _unit(rng, V):
    """A random unit at the origin: a non-zero constant plus terms in m."""
    u = rand_poly(rng, V, max_terms=2, max_deg=1)
    return u + Polynomial.constant(rng.choice((1, 2, -3)) - u.constant_term, V)


def _containment_case(rng):
    """A random ring and ideal G (from _random_local_ring), I2 = G with each
    generator multiplied by a unit, and I1 of one to three generators: each a
    combination of generators of G (a local member of I2, seldom a global
    one) or a random element of m."""
    ctx, G = _random_local_ring(rng)
    V = ctx.vars
    I2 = Ideal(V, [g * _unit(rng, V) for g in G.gens])
    gens1 = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            f = Polynomial.zero(V)
            for g in rng.sample(G.gens, rng.randint(1, 2)):
                f = f + rand_poly(rng, V, max_terms=2, max_deg=1) * g
        else:
            f = rand_poly(rng, V, max_deg=2)
            f = f - Polynomial.constant(f.constant_term, V)
        gens1.append(f)
    return ctx, Ideal(V, gens1), I2, G


def test_local_containment_agrees_with_colon_criterion():
    """Differential check over seeded random rings: membership, containment
    and equality from the local lead ideals against the colon criterion, and
    against the truncation oracle, whose False certifies non-membership."""
    rng = random.Random(1983)
    local_only = 0
    for _ in range(80):
        ctx, I1, I2, G = _containment_case(rng)
        gens2 = list(ctx.adjoin(I2).gens)
        members = []
        for f in I1.gens:
            got = local_member(f, I2, ctx)
            assert got == _colon_criterion(f, I2, ctx), (ctx, f, I2)
            if not local_member_oracle(f, gens2, trunc_deg=4):
                assert not got
            if got and not ctx.adjoin(I2).contains_poly(f):
                local_only += 1
            members.append(got)
        assert local_contains(I1, I2, ctx) == all(members)
        assert local_equal(I1, I2, ctx) == (all(members) and all(
            _colon_criterion(g, I1, ctx) for g in I2.gens))
        assert local_equal(I2, G, ctx)
        assert local_equal(Ideal(ctx.vars, [g * _unit(rng, ctx.vars)
                                            for g in I2.gens]), G, ctx)
    assert local_only >= 20


def test_local_length_agrees_with_truncation_oracle():
    """Differential check over seeded random small rings.  A finite length
    L means m^L = 0 in R/IR, so the oracle reads L at N = L and N = L + 1;
    NotMPrimary means no two consecutive truncations agree, so the oracle
    strictly increases."""
    rng = random.Random(2016)
    seen = {"finite": 0, "infinite": 0}
    while min(seen.values()) < 25:
        ctx, I = _random_local_ring(rng)
        if is_local_unit_ideal(I, ctx):
            continue
        gens = list(ctx.adjoin(I).gens) or [ctx.zero_poly()]
        try:
            L = local_length(I, ctx)
        except NotMPrimary:
            seen["infinite"] += 1
            vals = [local_length_oracle(gens, N) for N in range(1, 6)]
            assert all(a < b for a, b in zip(vals, vals[1:])), vals
            assert local_dim(I, ctx) > 0
            continue
        if L > 8:
            continue
        seen["finite"] += 1
        assert local_length_oracle(gens, L) == L
        assert local_length_oracle(gens, L + 1) == L
        assert local_dim(I, ctx) == 0


def test_not_m_primary_hypersurface(space):
    """xyz - 3y^2 - x has linear part -x: locally a smooth surface, so not
    m-primary, of dimension 2."""
    x, y, z = (space.extras[k] for k in "xyz")
    I = Ideal(space.ctx.vars, [x * y * z - 3 * y ** 2 - x])
    with pytest.raises(NotMPrimary):
        local_length(I, space.ctx)
    assert local_dim(I, space.ctx) == 2


def test_length_of_sop_powers_grows_with_multiplicity(plane):
    # regular ring: len(R/(x^n, y^n)) = n^2 exactly
    ctx = plane.ctx
    for n in (1, 2, 3, 4):
        assert local_length(plane.sop.powers(n).ideal(), ctx) == n ** 2
