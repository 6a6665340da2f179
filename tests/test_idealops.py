"""Ideal algebra: products, intersections, colons, saturation, elimination,
contraction, dimensions."""

import random

import pytest

from limclose import idealops
from limclose.groebner import buchberger, exact_quotients
from limclose.polycore import Polynomial, GREVLEX, VariableMismatch
from limclose.idealops import (
    Ideal, ideal_sum, ideal_power, ideal_intersect,
    ideal_colon, ideal_colon_ideal, ideal_saturate, ideals_equal, hull,
    eliminate, contract, RingMapPresentation, count_standard_monomials,
    NotMPrimary, _lead_dim, _fresh_tag_var,
)
from limclose.localring import (
    LocalRingContext, _local_leads, local_equal, is_local_unit_ideal,
)

from oracles import monomials_up_to, rank_exact, standard_monomials, term_mul

VARS = ("x", "y", "z")
X = Polynomial.variable("x", VARS)
Y = Polynomial.variable("y", VARS)
Z = Polynomial.variable("z", VARS)
ONE = Polynomial.constant(1, VARS)


def rand_poly(rng, max_terms=3, max_deg=3, max_coef=4, min_deg=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0, 0, 0]
        for _ in range(rng.randint(min_deg, max_deg)):
            e[rng.randrange(3)] += 1
        c = rng.randint(-max_coef, max_coef)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return Polynomial(VARS, terms)


def rand_ideal(rng, ngens=2):
    return Ideal(VARS, [rand_poly(rng) for _ in range(ngens)])


def test_ambient_mismatch_raises():
    other = Polynomial.variable("x", ("x", "w"))
    with pytest.raises(VariableMismatch):
        Ideal(VARS, [other])
    with pytest.raises(VariableMismatch):
        ideal_sum(Ideal(VARS, [X]), Ideal(("x", "w"), [other]))


def test_sum_product_power_basics():
    I = Ideal(VARS, [X])
    J = Ideal(VARS, [Y])
    assert ideals_equal(ideal_sum(I, J), Ideal(VARS, [X, Y]))
    assert ideals_equal(ideal_power(Ideal(VARS, [X, Y]), 2),
                        Ideal(VARS, [X ** 2, X * Y, Y ** 2]))


def test_power_matches_iterated_product():
    rng = random.Random(1)
    for _ in range(10):
        I = rand_ideal(rng)
        by_product = I
        for _ in range(2):
            by_product = Ideal(VARS, [g * h for g in by_product.gens
                                      for h in I.gens])
        assert ideals_equal(ideal_power(I, 3), by_product)


# -- the process-wide basis cache ---------------------------------------------

def test_basis_cache_agrees_with_uncached_buchberger(monkeypatch):
    """Shuffled, rescaled and repeated generators read back the cached basis,
    which equals an uncached buchberger run on the same generators."""
    rng = random.Random(5)
    pools = [[rand_poly(rng, min_deg=1) for _ in range(rng.randint(2, 4))]
             for _ in range(10)]
    for gens in pools:
        first = Ideal(VARS, gens).reduced_gens()
        for _ in range(10):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [g * rng.choice([1, -1, 2, -2, 3, -3]) for g in shuffled]
            scaled.append(scaled[0] * -1)
            uncached = buchberger(scaled, GREVLEX).generators
            # the shuffles must hit the cache: the kernel is not reachable
            with monkeypatch.context() as m:
                m.setattr(idealops, "buchberger", None)
                cached = Ideal(VARS, scaled).reduced_gens()
            assert uncached == cached == first


def test_basis_cache_keeps_each_ideal_over_its_own_variables():
    # equal exponent tuples over different variables are different ideals
    x = Polynomial.variable("x", ("x", "y"))
    s = Polynomial.variable("s", ("s", "t"))
    assert Ideal(("x", "y"), [x ** 2]).reduced_gens() == [x ** 2]
    assert Ideal(("s", "t"), [s ** 2]).reduced_gens() == [s ** 2]


def _presentations(rng, gens, count):
    """count presentations of (gens): shuffled, each generator scaled by
    +-1, +-2 or +-3, and the first one repeated."""
    out = []
    for _ in range(count):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * rng.choice([1, -1, 2, -2, 3, -3]) for g in shuffled]
        out.append(scaled + [scaled[0] * rng.choice([-1, 2])])
    return out


def test_colon_cache_answers_every_presentation_alike(monkeypatch, uncached):
    """ideal_colon on another presentation of I and g is a hit, made while
    the kernel cannot run, and returns what an uncached call on that
    presentation returns: the same quotients, in a fresh Ideal."""
    rng = random.Random(29)
    tag = _fresh_tag_var(VARS)
    checked = 0
    while checked < 8:
        gens = [rand_poly(rng, min_deg=1) for _ in range(rng.randint(1, 3))]
        g = rand_poly(rng, max_terms=2, min_deg=1)
        if g.is_zero() or g.is_constant():
            continue
        checked += 1
        first = ideal_colon(Ideal(VARS, gens), g).gens
        for scaled in _presentations(rng, gens, 4):
            I2 = Ideal(VARS, scaled)
            g2 = g * rng.choice([1, -1, 2, -2, 3, -3])
            want = uncached(ideal_colon, I2, g2).gens
            with monkeypatch.context() as m:
                m.setattr(idealops, "buchberger", None)
                got = ideal_colon(I2, g2)
                got.gens.append(X)
                again = ideal_colon(I2, g2).gens
            assert again == want == first
            assert all(I2.contains_poly(q * g2) for q in want)
            assert all(tag not in key[0] for key in idealops._GB_CACHE.entries)


def test_basis_cache_stays_within_its_term_budget():
    """Bases, colons and local leads share one budget; each entry counts
    the terms of its key and of its value."""
    cache = idealops._GB_CACHE
    ctx = LocalRingContext(VARS, Ideal(VARS, []))
    rng = random.Random(13)
    kinds = set()
    for n in range(200):
        I = Ideal(VARS, [rand_poly(rng, min_deg=1) for _ in range(3)])
        I.groebner()
        if n % 4 == 0:
            ideal_colon(I, X + Y)
            _local_leads(I, ctx)
        assert cache.terms <= idealops.GB_CACHE_TERM_BUDGET
        for (_, what, canon), (value, terms) in cache.entries.items():
            if what == "local leads":
                kinds.add(what)
                size = len(value)
            elif isinstance(what, tuple):
                kinds.add(what[0])
                size = len(what[1]) + sum(len(q.terms) for q in value)
            else:
                kinds.add("basis")
                size = sum(len(g.terms) for g in value.generators)
            assert terms == sum(map(len, canon)) + size
    assert kinds == {"basis", "colon", "local leads"}
    assert cache.terms == sum(t for _, t in cache.entries.values())
    assert len(cache.entries) < 200    # the budget evicted some bases


def test_intersect_known_cases():
    assert ideals_equal(ideal_intersect(Ideal(VARS, [X]), Ideal(VARS, [Y])),
                        Ideal(VARS, [X * Y]))
    got = ideal_intersect(Ideal(VARS, [X]), Ideal(VARS, [Y, Z]))
    assert ideals_equal(got, Ideal(VARS, [X * Y, X * Z]))
    # intersect with the zero ideal
    assert not ideal_intersect(Ideal(VARS, [X]),
                               Ideal(VARS, [])).reduced_gens()


def test_intersect_contains_products_and_respects_membership():
    rng = random.Random(8)
    for _ in range(10):
        I, J = rand_ideal(rng), rand_ideal(rng)
        K = ideal_intersect(I, J)
        for g in K.gens:
            assert I.contains_poly(g) and J.contains_poly(g)
        for gi in I.gens:
            for gj in J.gens:
                assert K.contains_poly(gi * gj)


def test_colon_trivial_rows():
    assert ideals_equal(ideal_colon(Ideal(VARS, [X ** 2]), X),
                        Ideal(VARS, [X]))
    assert ideals_equal(ideal_colon(Ideal(VARS, [X * Y]), X),
                        Ideal(VARS, [Y]))


def test_colon_characterization():
    rng = random.Random(12)
    for _ in range(10):
        I = rand_ideal(rng)
        g = rand_poly(rng)
        if g.is_zero():
            continue
        C = ideal_colon(I, g)
        for h in C.gens:
            assert I.contains_poly(h * g)
        # spot-check maximality on random candidates
        for _ in range(3):
            h = rand_poly(rng)
            if I.contains_poly(h * g):
                assert C.contains_poly(h)


def test_colon_by_ideal_intersects_generator_colons():
    I = Ideal(VARS, [X * Y, X * Z])
    J = Ideal(VARS, [Y, Z])
    assert ideals_equal(ideal_colon_ideal(I, J), Ideal(VARS, [X * Y, X * Z, X]))
    assert ideals_equal(ideal_colon_ideal(I, Ideal(VARS, [])),
                        Ideal(VARS, [ONE]))


def test_colon_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ideal_colon(Ideal(VARS, [X]), Polynomial.zero(VARS))


def test_saturation_examples():
    I = Ideal(VARS, [X ** 3 * Y, X ** 2 * Z])
    sat, k = ideal_saturate(I, X)
    assert ideals_equal(sat, Ideal(VARS, [Y, Z]))
    assert k == 3
    again, k2 = ideal_saturate(sat, X)
    assert k2 == 0 and ideals_equal(again, sat)


def test_saturation_is_stable_colon_chain():
    rng = random.Random(77)
    for _ in range(8):
        I = rand_ideal(rng)
        g = rand_poly(rng, max_terms=2)
        if g.is_zero() or g.is_constant():
            continue
        sat, k = ideal_saturate(I, g)
        assert ideals_equal(ideal_colon(sat, g), sat)


def _linear_prime(rng, codim):
    """A prime generated by `codim` independent random linear forms."""
    while True:
        P = Ideal(VARS, [sum((rng.randint(-2, 2) * v for v in (X, Y, Z)),
                             Polynomial.zero(VARS)) for _ in range(codim)])
        basis = P.reduced_gens()
        if len(basis) == codim and all(g.total_degree() == 1 for g in basis):
            return P


def _intersection(ideals):
    out = Ideal(VARS, [ONE])
    for Q in ideals:
        out = ideal_intersect(out, Q)
    return out


# components away from the origin, with their dimensions
FAR_COMPONENTS = [(Ideal(VARS, [X - ONE, Y]), 1), (Ideal(VARS, [Z - ONE]), 2),
                  (Ideal(VARS, [X + Y - ONE, Z]), 1)]


def test_hull_of_an_intersection_of_known_components():
    # J is an intersection of powers of random linear primes through the
    # origin (primary, of dimension 3 - codim; embedded ones included) and
    # one component away from the origin.  hull(J, k) must be the
    # intersection of the components of dimension >= k, and the far one is
    # a unit locally.
    rng = random.Random(2024)
    for _ in range(20):
        comps = []
        for _ in range(rng.randint(1, 3)):
            codim = rng.randint(1, 3)
            comps.append((ideal_power(_linear_prime(rng, codim),
                                      rng.randint(1, 2)), 3 - codim))
        far, far_dim = rng.choice(FAR_COMPONENTS)
        J = _intersection([Q for Q, _ in comps] + [far])
        ctx = LocalRingContext(VARS, J)
        assert is_local_unit_ideal(far, ctx)
        for k in range(4):
            near = [Q for Q, d in comps if d >= k]
            H = hull(J, k)
            assert ideals_equal(
                H, _intersection(near + ([far] if far_dim >= k else []))), k
            assert local_equal(H, _intersection(near), ctx), k


def test_poly_divide_exact():
    p = (X + Y) * (X - Z)
    assert exact_quotients([p], X + Y, GREVLEX)[0].terms == (X - Z).terms
    with pytest.raises(ValueError):
        exact_quotients([X ** 2 + Y], X + Y, GREVLEX)


def test_elimination_oracle_set():
    # V(x - y^2, z - y^3): eliminating y gives the cuspidal relation
    I = Ideal(VARS, [X - Y ** 2, Z - Y ** 3])
    # order vars (x, y, z); eliminate y
    got = eliminate(I, ["y"])
    for g in got.gens:
        assert not g.involves(["y"])
    assert got.contains_poly(Z ** 2 - X ** 3)
    # eliminating everything but x from (x - y, y - z)
    J = Ideal(VARS, [X - Y, Y - Z])
    got2 = eliminate(J, ["y", "z"])
    assert not got2.reduced_gens()


def test_elimination_with_a_repeated_name_drops_it_once():
    I = Ideal(VARS, [X - Y ** 2, Z - Y ** 3])
    assert ideals_equal(eliminate(I, ["y", "y"]), eliminate(I, ["y"]))


def test_elimination_members_stay_members():
    rng = random.Random(31)
    for _ in range(8):
        I = rand_ideal(rng, ngens=3)
        E = eliminate(I, ["z"])
        for g in E.gens:
            assert not g.involves(["z"])
            assert I.contains_poly(g)


def test_contract_along_parametrization():
    # kernel of Q[a,b] -> Q[t], a -> t^2, b -> t^3 is (a^3 - b^2)
    src = ("a", "b")
    tgt = ("t",)
    t = Polynomial.variable("t", tgt)
    rmap = RingMapPresentation(
        source_vars=src, source_ideal=Ideal(src, []),
        target_vars=tgt, target_ideal=Ideal(tgt, []),
        images={"a": t ** 2, "b": t ** 3})
    ker = contract(rmap, Ideal(tgt, []))
    a = Polynomial.variable("a", src)
    b = Polynomial.variable("b", src)
    assert ideals_equal(ker, Ideal(src, [a ** 3 - b ** 2]))
    # preimage of (t) is (a, b)
    pre = contract(rmap, Ideal(tgt, [t]))
    assert ideals_equal(pre, Ideal(src, [a, b, a ** 3 - b ** 2]))


def _plain_map(src, tgt, images):
    """The map QQ[src] -> QQ[tgt] sending each source variable to the
    target variable images[v]."""
    return RingMapPresentation(
        source_vars=src, source_ideal=Ideal(src, []),
        target_vars=tgt, target_ideal=Ideal(tgt, []),
        images={v: Polynomial.variable(w, tgt) for v, w in images.items()})


def test_contract_renames_past_a_target_variable_named_like_the_rename():
    # QQ[s] -> QQ[s, s__src], s -> s__src: the preimage of (s__src) is (s);
    # renaming the clashing s to s__src would meet the target's s__src
    rmap = _plain_map(("s",), ("s", "s__src"), {"s": "s__src"})
    pre = contract(rmap, Ideal(rmap.target_vars, [
        Polynomial.variable("s__src", rmap.target_vars)]))
    assert ideals_equal(pre, Ideal(("s",), [Polynomial.variable("s", ("s",))]))


def test_contract_renames_past_a_source_variable_named_like_the_rename():
    # QQ[s, s__src] -> QQ[s], both to s: the preimage of (s) is (s, s__src);
    # renaming the clashing s to s__src would meet the source's s__src
    src = ("s", "s__src")
    rmap = _plain_map(src, ("s",), {"s": "s", "s__src": "s"})
    pre = contract(rmap, Ideal(("s",), [Polynomial.variable("s", ("s",))]))
    assert ideals_equal(pre, Ideal(src, [Polynomial.variable(v, src)
                                         for v in src]))


def test_ring_map_rejects_ill_defined_images():
    src = ("a",)
    tgt = ("t",)
    t = Polynomial.variable("t", tgt)
    with pytest.raises(ValueError):
        RingMapPresentation(
            source_vars=src,
            source_ideal=Ideal(src, [Polynomial.variable("a", src)]),
            target_vars=tgt, target_ideal=Ideal(tgt, []),
            images={"a": t})


def test_krull_dim_examples():
    """dim K[x, y, z]/I is that of the lead-term ideal of I."""
    def krull_dim(gens):
        leads = [g.lead(GREVLEX)[0] for g in Ideal(VARS, gens).reduced_gens()]
        return _lead_dim(leads, len(VARS))

    assert krull_dim([]) == 3
    assert krull_dim([X]) == 2
    assert krull_dim([X * Y, X * Z]) == 2
    assert krull_dim([X, Y, Z]) == 0
    assert krull_dim([X * Y - Z, X ** 2 - Y]) == 1


def test_vecspace_dim_against_row_reduction_oracle():
    rng = random.Random(64)
    cases = 0
    for _ in range(30):
        # random zero-dimensional ideal: pure powers plus noise
        gens = [X ** rng.randint(1, 3), Y ** rng.randint(1, 3),
                Z ** rng.randint(1, 3), rand_poly(rng)]
        I = Ideal(VARS, gens)
        if ideals_equal(I, Ideal(VARS, [ONE])):
            continue
        got = len(standard_monomials(I))
        # oracle: A/I = A/(I + m^D) once D tops the pure powers, and the
        # image of I there is spanned by degree-truncated monomial shifts
        D = 9
        monos = monomials_up_to(3, D - 1)
        index = {m: i for i, m in enumerate(monos)}
        from fractions import Fraction
        cols = []
        for g in gens:
            for s in monos:
                p = term_mul(g, s, 1)
                vec = [Fraction(0)] * len(monos)
                for e, c in p.terms.items():
                    if sum(e) < D:
                        vec[index[e]] = Fraction(c)
                cols.append(vec)
        oracle = len(monos) - rank_exact(cols)
        assert got == oracle
        cases += 1
    assert cases >= 15


def test_standard_monomials_requires_zero_dimensionality():
    with pytest.raises(NotMPrimary):
        standard_monomials(Ideal(VARS, [X]))
    assert standard_monomials(Ideal(VARS, [ONE])) == []
    sm = standard_monomials(Ideal(VARS, [X ** 2, Y, Z]))
    assert sorted(sm) == [(0, 0, 0), (1, 0, 0)]
    # a unit lead anywhere in a lead list, not only first, is the unit ideal
    plane = Ideal(("x", "y"), [])
    assert standard_monomials(plane, leads=[(1, 0), (0, 0)]) == []
    assert count_standard_monomials([(1, 0), (0, 0)], 2) == 0


def _listed(leads, nvars):
    """The listing reference for count_standard_monomials."""
    ring = Ideal(tuple(f"x{i}" for i in range(nvars)), [])
    return len(standard_monomials(ring, leads=leads))


def test_count_standard_monomials_matches_the_listing():
    """The sliced count agrees with the listing on seeded monomial ideals
    in 1-5 variables, given as non-minimal lists (repeats and multiples,
    shuffled): 0 when a unit lead is anywhere in the list, and
    NotMPrimary, from both, when some variable has no pure power."""
    rng = random.Random(73)
    cap = {1: 9, 2: 8, 3: 6, 4: 5, 5: 4}
    counted = raised = units = 0
    for trial in range(300):
        n = 1 + trial % 5
        leads = []
        for i in range(n):
            if rng.random() < 0.92:
                leads.append(tuple(rng.randint(1, cap[n]) if j == i else 0
                                   for j in range(n)))
        for _ in range(rng.randint(0, 6)):
            m = tuple(rng.randint(0, cap[n] - 1) for _ in range(n))
            if any(m):
                leads.append(m)
        for m in rng.sample(leads, min(2, len(leads))):
            leads.append(m)
            leads.append(tuple(e + rng.randint(0, 2) for e in m))
        if trial % 11 == 0:
            leads.append((0,) * n)
        rng.shuffle(leads)
        try:
            want = _listed(leads, n)
        except NotMPrimary:
            with pytest.raises(NotMPrimary):
                count_standard_monomials(leads, n)
            raised += 1
            continue
        assert count_standard_monomials(leads, n) == want, f"trial {trial}"
        counted += 1
        units += want == 0
    assert counted >= 200 and raised >= 30 and units >= 20


def test_count_standard_monomials_at_scale():
    """Counts at about the sizes where listing every standard monomial
    took 0.25 s and 2 s, each pinned by a closed form: prod(a) for the pure
    powers x_i^a_i, and by inclusion-exclusion when u = x1^12 x2^11 and
    v = x3^10 x4^9 (and a multiple of u) join them."""
    a = (29, 29, 29, 28)
    powers = [tuple(a[i] if j == i else 0 for j in range(4)) for i in range(4)]
    assert count_standard_monomials(powers, 4) == 29 ** 3 * 28 == 682_892
    a, b = (17, 16, 15, 14), (12, 11, 10, 9)
    powers = [tuple(a[i] if j == i else 0 for j in range(4)) for i in range(4)]
    u, v = (12, 11, 0, 0), (0, 0, 10, 9)
    box = a[0] * a[1] * a[2] * a[3]
    in_u = (a[0] - b[0]) * (a[1] - b[1]) * a[2] * a[3]
    in_v = a[0] * a[1] * (a[2] - b[2]) * (a[3] - b[3])
    in_both = (a[0] - b[0]) * (a[1] - b[1]) * (a[2] - b[2]) * (a[3] - b[3])
    leads = powers + [v, (12, 11, 1, 0), u]
    assert count_standard_monomials(leads, 4) == \
        box - in_u - in_v + in_both == 45_695
