"""Structural invariants: unmixed component, dimension filtration and good
sops, Hilbert-Samuel tables, the two length-difference functions, topology
scans, and closure contraction along a finite extension."""

import random
from itertools import count

import pytest

from limclose import idealops, localring, structure
from limclose.idealops import Ideal, ideal_intersect, hull
from limclose.polycore import Polynomial
from limclose.localring import (
    LocalRingContext, SequenceInR, local_equal, local_contains, local_length,
    is_sop, NotStabilized,
)
from limclose.structure import (
    unmixed_component, dimension_filtration, is_good_sop,
    submodule_dim, hilbert_samuel, multiplicity, ij_functions, topology_scan,
    cyclic_cover_closure_check, _stabilized_closure_intersection,
)

from oracles import (
    quotient_count, contracted_quotient_count, local_length_oracle,
)


@pytest.fixture(autouse=True)
def power_loop_cap(monkeypatch):
    """`dimension_filtration` ends its power loop at y^[1] on every input
    here; a construction that runs past y^[3] fails, rather than hangs."""
    real = structure.is_good_sop

    def capped(sop):
        assert sop.exponent <= 3, "the power loop did not end by y^[3]"
        return real(sop)

    monkeypatch.setattr(structure, "is_good_sop", capped)


# -- unmixed component -------------------------------------------------------

def test_unmixed_component_split_ring(split_ring):
    ctx = split_ring.ctx
    res = unmixed_component(split_ring.sop)
    assert local_equal(res.component, split_ring.extras["U"], ctx)
    assert res.intersection_depth >= 2


def test_unmixed_component_domain_is_zero(plane, catalan_ring):
    for fix in (plane, catalan_ring):
        res = unmixed_component(fix.sop)
        assert local_contains(res.component, fix.ctx.zero_ideal(), fix.ctx)


def test_unmixed_component_embedded_point():
    # Q[x,y]/(x^2, xy): the line y = 0 with an embedded point at the origin;
    # the finite-length part is the class of x
    V = ("x", "y")
    from limclose.polycore import Polynomial
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    ctx = LocalRingContext(V, Ideal(V, [x ** 2, x * y]))
    sop = SequenceInR([y], ctx)
    res = unmixed_component(sop)
    assert local_equal(res.component, Ideal(V, [x]), ctx)


def test_unmixed_ring_with_two_equal_dimension_branches():
    # Q[x,y]/(x y^2) has both branches of dimension 1 and positive depth:
    # the small part is zero even though the ring is not reduced
    V = ("x", "y")
    from limclose.polycore import Polynomial
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    ctx = LocalRingContext(V, Ideal(V, [x * y ** 2]))
    sop = SequenceInR([x + y], ctx)
    res = unmixed_component(sop)
    assert local_contains(res.component, ctx.zero_ideal(), ctx)


def test_unmixed_component_is_the_top_dimensional_hull(
        plane, split_ring, three_level_ring, catalan_ring, glued_ring):
    # Theorem A against the exact extension-contraction hull of J; the
    # glued ring's own (y, u, v) is not a sop (the x-axis survives it)
    x, y, u, v = (catalan_ring.extras[n] for n in "xyuv")
    glued = glued_ring.ctx
    cases = [(fix.ctx, fix.sop) for fix in
             (plane, split_ring, three_level_ring, catalan_ring)]
    cases.append((glued, SequenceInR([x + y, u, v], glued)))
    # the two inline rings above: (x^2, xy) and (xy^2)
    V = ("x", "y")
    a, b = (Polynomial.variable(n, V) for n in V)
    for relations, sop in (([a ** 2, a * b], [b]), ([a * b ** 2], [a + b])):
        ctx = LocalRingContext(V, Ideal(V, relations))
        cases.append((ctx, SequenceInR(sop, ctx)))
    for ctx, sop in cases:
        U = unmixed_component(sop).component
        assert local_equal(U, hull(ctx.defining, ctx.dim), ctx), ctx.defining


def test_unmixed_component_cap_raises_with_partial_chain(split_ring,
                                                         monkeypatch):
    # one closure intersection cannot show two equal terms
    monkeypatch.setattr(structure, "DEFAULT_INTERSECT_N", 1)
    with pytest.raises(NotStabilized) as exc:
        unmixed_component(split_ring.sop)
    assert len(exc.value.partial_chain) == 1


def test_unmixed_component_requires_sop(split_ring):
    ctx = split_ring.ctx
    x = split_ring.extras["x"]
    with pytest.raises(ValueError):
        unmixed_component(SequenceInR([x], ctx))


# -- dimension filtration ----------------------------------------------------

def test_submodule_dim(split_ring):
    ctx = split_ring.ctx
    x, y = split_ring.extras["x"], split_ring.extras["y"]
    assert submodule_dim(ctx.zero_ideal(), ctx) == -1
    assert submodule_dim(Ideal(ctx.vars, [x]), ctx) == 1    # the line class
    assert submodule_dim(Ideal(ctx.vars, [y]), ctx) == 2    # full dimension


def test_filtration_split_ring(split_ring):
    ctx = split_ring.ctx
    filt = dimension_filtration(split_ring.sop)
    assert filt.dims == [1, 2]
    assert local_equal(filt.chain[0], split_ring.extras["U"], ctx)
    # the returned sop is good for the ring's filtration
    assert is_good_sop(filt.sop)


def test_filtration_reorders_an_ungood_sop(split_ring):
    # (y, x+z) fails goodness as given; the verified sop is a permutation
    filt = dimension_filtration(split_ring.sop)
    assert is_good_sop(filt.sop)
    got = [str(e) for e in filt.sop.entries]
    assert got == ["x + z", "y"]


def test_goodness_is_order_sensitive(split_ring):
    ctx = split_ring.ctx
    filt = dimension_filtration(split_ring.sop)
    bad = SequenceInR(list(reversed(filt.sop.entries)), ctx)
    assert not is_good_sop(bad)


def test_filtration_three_levels(three_level_ring):
    ctx = three_level_ring.ctx
    filt = dimension_filtration(three_level_ring.sop)
    assert filt.dims == [0, 1, 2]
    assert is_good_sop(filt.sop)
    # strictly increasing chain
    for small, big in zip(filt.chain, filt.chain[1:]):
        assert local_contains(small, big, ctx)
        assert not local_equal(small, big, ctx)


def test_filtration_does_not_depend_on_the_sop(split_ring, three_level_ring):
    split_ctx = split_ring.ctx
    three_ctx = three_level_ring.ctx
    x, y, z = (three_level_ring.extras[n] for n in "xyz")
    cases = [
        (split_ctx, split_ring.sop, split_ring.extras["good_sop"]),
        (three_ctx, three_level_ring.sop,
         SequenceInR([x + z, y ** 2], three_ctx)),
    ]
    for ctx, given, good in cases:
        a, b = given.entries
        perturbed = SequenceInR([a + 2 * b, b ** 2], ctx)
        chains = [dimension_filtration(s) for s in (given, good, perturbed)]
        first = chains[0]
        assert is_good_sop(good)
        for filt in chains[1:]:
            assert filt.dims == first.dims
            assert all(local_equal(D, E, ctx)
                       for D, E in zip(filt.chain, first.chain))
        # Theorem A stays the oracle: the part of dimension < j of the
        # closures of the good sop's j-prefix is the level of dimension j - 1
        for D, dim in zip(first.chain[:-1], first.dims[:-1]):
            j = dim + 1
            prefix = SequenceInR(good.entries[:j], ctx)
            K, _ = _stabilized_closure_intersection(prefix, j)
            assert local_equal(D, K, ctx), (ctx.defining, j)


def test_filtration_levels_are_computed_once_per_ring(monkeypatch,
                                                     split_ring):
    # a fresh context of the split ring: its hulls are taken on the first
    # call only, and later calls (goodsop after dimfilt) read them back
    ctx = LocalRingContext(split_ring.ctx.vars, split_ring.ctx.defining)
    hulls = []
    real = localring.hull
    monkeypatch.setattr(localring, "hull",
                        lambda J, k: hulls.append(k) or real(J, k))
    first = structure.filtration_levels(ctx)
    assert hulls == [1, 2]
    good = SequenceInR(split_ring.extras["good_sop"].entries, ctx)
    filt = dimension_filtration(good)
    assert structure.filtration_levels(ctx) == first
    assert hulls == [1, 2]
    assert filt.dims == first[1] == [1, 2]
    assert local_equal(filt.chain[0], split_ring.extras["U"], ctx)


def test_level_dimensions_match_their_annihilators(
        plane, space, split_ring, catalan_ring, glued_ring, three_level_ring,
        two_planes, veronese_pair, small_cm_rings):
    # a level kept from hull(J, j) is given dimension j - 1 by its index;
    # dim R/(J : D) says the same on every fixture ring, and on the
    # embedded-point ring Q[x,y]/(x^2, xy)
    V = ("x", "y")
    a, b = (Polynomial.variable(n, V) for n in V)
    ctxs = [fix.ctx for fix in (plane, space, split_ring, catalan_ring,
                                glued_ring, three_level_ring)]
    ctxs += [two_planes[0], veronese_pair.ctx, veronese_pair.extras["ctxS"]]
    ctxs += [fix.ctx for fix in small_cm_rings.values()]
    ctxs.append(LocalRingContext(V, Ideal(V, [a ** 2, a * b])))
    levels = 0
    for ctx in ctxs:
        chain, dims = structure.filtration_levels(ctx)
        assert dims == [submodule_dim(D, ctx) for D in chain], ctx.defining
        levels += len(chain)
    assert levels == 18


def test_filtration_of_domain_is_trivial(plane):
    filt = dimension_filtration(plane.sop)
    assert filt.dims == [2]
    assert len(filt.chain) == 1
    assert is_good_sop(filt.sop)


def test_constructed_sops_are_good(split_ring, three_level_ring):
    # 15 seeded random linear sops on each ring; T is the three-level
    # ideal by its degree-3 generators, as the benchmark session writes it
    V = split_ring.ctx.vars
    x, y, z = (Polynomial.variable(n, V) for n in V)
    T = LocalRingContext(V, Ideal(V, [x ** 2 * z, x * y * z, x * z ** 2,
                                      y ** 2 * z, y * z ** 2]))
    rng = random.Random(5)
    for ctx in (split_ring.ctx, three_level_ring.ctx, T):
        levels = list(structure.filtration_levels(ctx))
        built = 0
        while built < 15:
            entries = [sum((rng.randint(-2, 2) * v for v in (x, y, z)),
                           ctx.zero_poly()) for _ in range(ctx.dim)]
            sop = SequenceInR(entries, ctx)
            if any(e.is_zero() for e in entries) or not is_sop(sop):
                continue
            built += 1
            filt = dimension_filtration(sop)
            assert is_sop(filt.sop) and is_good_sop(filt.sop), entries
            assert [filt.chain, filt.dims] == levels
    # a 0-dimensional ring: one level, R itself, and the empty sop
    art = LocalRingContext(V, Ideal(V, [x ** 2, y ** 2, z]))
    filt = dimension_filtration(SequenceInR([], art))
    assert filt.dims == [0] and filt.sop.entries == []
    assert is_sop(filt.sop) and is_good_sop(filt.sop)

# -- Hilbert-Samuel ----------------------------------------------------------

def test_hilbert_samuel_regular(plane):
    ctx = plane.ctx
    rep = hilbert_samuel(plane.sop.ideal(), ctx, K=6)
    assert rep.lengths == [1, 3, 6, 10, 15, 21]
    assert rep.stabilized and rep.multiplicity == 1 and rep.degree == 2
    assert rep.polynomial_onset == 1
    assert multiplicity(plane.sop) == 1


def test_hilbert_samuel_split_ring(split_ring):
    rep = hilbert_samuel(split_ring.sop.ideal(), split_ring.ctx, K=6)
    assert rep.lengths == [2, 5, 9, 14, 20, 27]
    assert rep.multiplicity == 1
    assert rep.polynomial_onset == 1


def test_hilbert_samuel_quadric(catalan_ring):
    rep = hilbert_samuel(catalan_ring.sop.ideal(), catalan_ring.ctx, K=6)
    assert rep.lengths == [2, 8, 20, 40, 70, 112]
    assert rep.multiplicity == 2
    assert multiplicity(catalan_ring.sop) == 2


def test_multiplicity_scales_with_powers(plane):
    # e((x^n, y^n)) = n^2 e((x, y)) in the regular plane
    for n in (2, 3):
        assert multiplicity(plane.sop.powers(n)) == n ** 2


def test_multiplicity_rejects_non_sop(catalan_ring):
    with pytest.raises(ValueError):
        multiplicity(catalan_ring.extras["yuv"])


def _per_power_lengths(q, ctx, K):
    """The route the closed form replaces: len R/q^k for k = 1..K."""
    return [local_length(idealops.ideal_power(q, k), ctx)
            for k in range(1, K + 1)]


def _top_difference(lengths, d):
    """The d-th difference of len R/q^k at k = 0, where the length is 0."""
    diffs = [0] + list(lengths[:d])
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs[0]


@pytest.fixture
def routes(monkeypatch):
    """Which length routes `structure` takes: the powers k of every
    ideal_power call and every hilbert_samuel call, by K."""
    taken = {"powers": [], "hs": []}
    power, hs = structure.ideal_power, structure.hilbert_samuel
    monkeypatch.setattr(structure, "ideal_power", lambda I, k: (
        taken["powers"].append(k) or power(I, k)))
    monkeypatch.setattr(structure, "hilbert_samuel", lambda q, ctx, K=8: (
        taken["hs"].append(K) or hs(q, ctx, K)))
    return taken


def test_closed_form_hilbert_samuel_matches_the_per_power_lengths(
        length_cases, catalan_ring, routes):
    # on a Cohen-Macaulay ring a parameter ideal takes the closed form,
    # with no power built, and agrees with the length of every power; it
    # reports e = len R/q with onset 1 even when K <= d + 1
    cm, _ = length_cases
    for seq in cm:
        q, ctx = seq.ideal(), seq.ctx
        rep = hilbert_samuel(q, ctx, K=3)
        assert routes["powers"] == [], (ctx.defining, seq.entries)
        want = _per_power_lengths(q, ctx, 3)
        assert rep.lengths == want, (ctx.defining, seq.entries)
        assert (rep.multiplicity, rep.polynomial_onset, rep.stabilized) == \
            (want[0], 1, True), (ctx.defining, seq.entries)
    rep = hilbert_samuel(catalan_ring.sop.ideal(), catalan_ring.ctx, K=3)
    assert (rep.lengths, rep.multiplicity) == ([2, 8, 20], 2)


def test_multiplicity_matches_the_per_power_route(length_cases, routes):
    # where closure_target applies, e = len R/((x) + U) with no
    # Hilbert-Samuel table; on a Cohen-Macaulay ring it is the d-th
    # difference of the per-power lengths, elsewhere the per-power table's
    # multiplicity
    cm, mixed = length_cases
    for seqs, is_cm in ((cm, True), (mixed, False)):
        for seq in seqs:
            ctx = seq.ctx
            e = multiplicity(seq)
            assert routes["hs"] == [], (ctx.defining, seq.entries)
            if is_cm:
                lengths = _per_power_lengths(seq.ideal(), ctx, ctx.dim)
                assert e == _top_difference(lengths, ctx.dim), seq.entries
            else:
                rep = hilbert_samuel(seq.ideal(), ctx, K=5)
                assert rep.stabilized and e == rep.multiplicity, seq.entries


def _oracle_length(ctx, q):
    """len R/qR by the truncation oracle: the value at the first N that
    equals the value at N + 1 (Nakayama, as in `local_length_oracle`)."""
    gens = list(ctx.adjoin(q).gens)
    prev = None
    for N in count(1):
        val = local_length_oracle(gens, N)
        if val == prev:
            return val
        prev = val


def test_closed_form_lengths_match_the_truncation_oracle(
        plane, space, catalan_ring, small_cm_rings, routes):
    cases = [plane, space, catalan_ring, *small_cm_rings.values()]
    for fix in cases:
        q, ctx = fix.sop.ideal(), fix.ctx
        lengths = hilbert_samuel(q, ctx, K=3).lengths
        assert routes["powers"] == []
        assert lengths == [_oracle_length(ctx, idealops.ideal_power(q, k))
                           for k in (1, 2, 3)], ctx.defining


def test_hilbert_samuel_falls_back_where_r_is_not_cohen_macaulay(
        split_ring, three_level_ring, two_planes, veronese_pair, routes):
    # U != 0 on the split and three-level rings; on two planes and the
    # Veronese R, U = 0 but R is not Cohen-Macaulay
    cases = [(split_ring.ctx, split_ring.sop),
             (three_level_ring.ctx, three_level_ring.sop),
             two_planes, (veronese_pair.ctx, veronese_pair.sop)]
    for ctx, sop in cases:
        rep = hilbert_samuel(sop.ideal(), ctx, K=4)
        assert routes["powers"] == [1, 2, 3, 4], ctx.defining
        assert rep.lengths == _per_power_lengths(sop.ideal(), ctx, 4)
        routes["powers"].clear()


def test_multiplicity_falls_back_where_there_is_no_target(
        two_planes, veronese_pair, routes):
    # R/U is not Cohen-Macaulay: e is read off the Hilbert-Samuel table
    ctx, seq = two_planes
    assert multiplicity(seq) == 2 and routes["hs"] == [8]
    assert multiplicity(veronese_pair.sop, K=6) == 4
    assert routes["hs"] == [8, 6]


def test_multiplicity_does_not_depend_on_k(catalan_ring, two_planes):
    # the quadric's multiplicity needs no table, so no K is too short; two
    # planes have no target, and two lengths show no second difference
    x, y, u, v = (catalan_ring.extras[k] for k in "xyuv")
    assert multiplicity(SequenceInR([x + y, u, v], catalan_ring.ctx),
                        K=2) == 2
    with pytest.raises(NotStabilized):
        multiplicity(two_planes[1], K=2)


# -- length difference functions I and J --------------------------------------

def test_ij_functions_regular_vanish(plane):
    tab = ij_functions(plane.sop, n_max=3)
    for (n, ln, scaled, lclo, I, J) in tab.rows:
        assert I == 0 and J == 0
        assert ln == scaled == lclo == n ** 2


def test_ij_functions_split_ring(split_ring):
    tab = ij_functions(split_ring.sop, n_max=4)
    assert tab.multiplicity == 1 and tab.degree == 2
    Is = [r[4] for r in tab.rows]
    Js = [r[5] for r in tab.rows]
    # I(n) counts the length of the 1-dimensional line component's artinian
    # layer: here exactly n; J vanishes
    assert Is == [1, 2, 3, 4]
    assert Js == [0, 0, 0, 0]


def test_ij_functions_quadric_vanish(catalan_ring):
    # the quadric hypersurface is Cohen-Macaulay: both differences vanish
    tab = ij_functions(catalan_ring.sop, n_max=4)
    assert tab.multiplicity == 2 and tab.degree == 3
    for (n, ln, scaled, lclo, I, J) in tab.rows:
        assert I == 0 and J == 0
        assert ln == lclo == 2 * n ** 3


def test_ij_functions_vanishing_j_where_there_is_a_target(split_ring,
                                                        two_planes):
    # J(n) = 0 exactly where closure_target applies; on two planes, with
    # no target, the window finds J(1) = 2 - 1
    tab = ij_functions(split_ring.sop.powers(2), n_max=2)
    assert [r[5] for r in tab.rows] == [0, 0]
    tab = ij_functions(two_planes[1], n_max=1)
    assert tab.rows == [(1, 3, 2, 1, 1, 1)]


def test_ij_functions_nonnegative_and_increasing(split_ring,
                                                 three_level_ring):
    for fix in (split_ring, three_level_ring):
        tab = ij_functions(fix.sop, n_max=3)
        Is = [r[4] for r in tab.rows]
        Js = [r[5] for r in tab.rows]
        assert all(v >= 0 for v in Is + Js)
        assert all(a <= b for a, b in zip(Is, Is[1:]))
        assert all(a <= b for a, b in zip(Js, Js[1:]))


# -- topology scan -------------------------------------------------------------

def test_topology_scan_regular_succeeds(plane):
    rep = topology_scan(plane.sop, n0=3, v_max=6)
    assert rep.success and rep.failure_k is None and rep.witness is None
    assert [k for k, _ in rep.rows] == [1, 2, 3]
    assert all(v is not None for _, v in rep.rows)


def test_topology_scan_quadric_succeeds(catalan_ring):
    rep = topology_scan(catalan_ring.sop, n0=4, v_max=8)
    assert rep.success and rep.failure_k is None
    vs = [v for _, v in rep.rows]
    assert all(v is not None for v in vs)
    assert all(a <= b for a, b in zip(vs, vs[1:]))


def test_closed_form_hilbert_samuel_cost_does_not_grow_with_k(
        uncached, monkeypatch, catalan_ring):
    # two Lazard runs on a fresh context and an empty cache, whatever K:
    # the dimension and len R/q; the principal J needs no hull loop and no
    # colon
    runs = []
    real = localring.lead_monomials
    monkeypatch.setattr(localring, "lead_monomials", lambda gens, order: (
        runs.append(len(gens)) or real(gens, order)))
    counts = []
    for K in (5, 8):
        ctx = LocalRingContext(catalan_ring.ctx.vars,
                               catalan_ring.ctx.defining)
        runs.clear()
        rep = uncached(hilbert_samuel, catalan_ring.sop.ideal(), ctx, K)
        assert rep.multiplicity == 2
        counts.append(len(runs))
    assert counts == [2, 2]


def test_ij_functions_builds_no_ideal_power(uncached, catalan_ring, routes):
    ctx = LocalRingContext(catalan_ring.ctx.vars, catalan_ring.ctx.defining)
    sop = SequenceInR(catalan_ring.sop.entries, ctx)
    tab = uncached(ij_functions, sop, 4)
    assert [r[3] for r in tab.rows] == [2 * n ** 3 for n in (1, 2, 3, 4)]
    assert routes["powers"] == [] and routes["hs"] == []


def test_topology_scan_split_ring_fails_at_two(split_ring):
    # the class of x lies in every closure but never deep in m^2
    rep = topology_scan(split_ring.sop, n0=3, v_max=6)
    assert not rep.success
    assert rep.failure_k == 2
    assert rep.rows[0] == (1, 1)
    assert str(rep.witness) == "x"


# -- closure contraction along a finite extension ------------------------------

def test_cyclic_cover_closure_veronese(veronese_pair):
    rep = cyclic_cover_closure_check(veronese_pair.extras["map"],
                                     veronese_pair.sop)
    assert rep.equal
    assert rep.length_mod_ideal == 5
    assert rep.length_mod_closure == 3
    assert rep.closure_excess == 2


def test_veronese_lengths_match_semigroup_oracle(veronese_pair):
    R_exps = veronese_pair.extras["R_exps"]
    S_exps = veronese_pair.extras["S_exps"]
    bound = 40
    shifts = [(4, 0), (0, 4)]   # exponents of a and d
    assert quotient_count(R_exps, shifts, bound) == 5
    assert contracted_quotient_count(R_exps, S_exps, shifts, bound) == 3


def test_cyclic_cover_unmixed_guard(split_ring):
    # the split ring is not unmixed: the guard must fire before any map work
    from limclose.idealops import RingMapPresentation
    from limclose.polycore import Polynomial
    ctx = split_ring.ctx
    ident = RingMapPresentation(
        source_vars=ctx.vars, source_ideal=ctx.defining,
        target_vars=ctx.vars, target_ideal=ctx.defining,
        images={v: Polynomial.variable(v, ctx.vars) for v in ctx.vars})
    with pytest.raises(ValueError):
        cyclic_cover_closure_check(ident, split_ring.sop)
