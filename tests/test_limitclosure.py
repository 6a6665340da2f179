"""Limit closures: colon chain behaviour, containments, quotient formula,
mixed closures, monomial property, exact closure targets."""

import random
from functools import partial
from itertools import count

import pytest

from limclose import idealops, limitclosure, localring, structure
from limclose.polycore import Polynomial
from limclose.idealops import Ideal, ideal_sum, ideals_equal, ideal_colon
from limclose.localring import (
    LocalRingContext, SequenceInR, local_equal, local_contains, local_member,
    local_length, is_local_unit_ideal, is_sop, NotMPrimary, NotStabilized,
)
from limclose.limitclosure import (
    colon_step, colon_by_product, limit_closure, limit_closure_mixed,
    monomial_property, closure_colength, closure_target, _colength,
    _stabilize,
)


def test_colon_by_product_matches_expanded_colon(plane):
    x, y = plane.extras["x"], plane.extras["y"]
    I = Ideal(plane.ctx.vars, [x ** 3 * y, y ** 4])
    chained = colon_by_product(I, [x, y ** 2])
    direct = ideal_colon(I, x * y ** 2)
    assert ideals_equal(chained, direct)


def _colon_chain(I, factors):
    """Reference: one ideal_colon per non-constant factor, in order."""
    for f in factors:
        if not f.is_constant():
            I = ideal_colon(I, f)
    return I


def test_colon_by_product_matches_the_chain_of_single_colons(
        split_ring, catalan_ring, space):
    cases = []
    ctx = catalan_ring.ctx
    x, y, u, v = (catalan_ring.extras[k] for k in "xyuv")
    for n in (1, 2, 3):
        powered = Ideal(ctx.vars, [y ** (2 * n), u ** (2 * n), v ** (2 * n)])
        cases.append((ctx.adjoin(powered), [y] * n + [u] * n + [v] * n))
    powered = Ideal(ctx.vars, [(x + y) ** 3, u ** 3, v ** 3])
    cases.append((ctx.adjoin(powered), [x + y] * 2 + [u] * 2 + [v] * 2))
    ctx = split_ring.ctx
    sx, sy, sz = (split_ring.extras[k] for k in "xyz")
    powered = Ideal(ctx.vars, [sy ** 3, (sx + sz) ** 3])
    cases.append((ctx.adjoin(powered), [sy] * 2 + [sx + sz] * 2))
    # random lists mixing monomials, binomials, constants and repeats
    V = space.ctx.vars
    x, y, z = (space.extras[k] for k in "xyz")
    I = Ideal(V, [x ** 4, y ** 3 * z, z ** 4, x ** 2 * y ** 2 - x * z ** 3])
    pool = [x, y, z, x * y, 2 * y * z, x + z, y - z, x * y + z ** 2,
            Polynomial.constant(3, V), Polynomial.constant(-1, V)]
    rng = random.Random(9)
    for _ in range(8):
        cases.append((I, [rng.choice(pool)
                          for _ in range(rng.randint(2, 5))]))
    for I, factors in cases:
        assert ideals_equal(colon_by_product(I, factors),
                            _colon_chain(I, factors)), factors


def test_colon_by_product_merges_adjacent_monomials_only(monkeypatch):
    # one colon per run of adjacent monomials, in the caller's order:
    # moving the monomials past x+y or x+z blows up the quadric's chains
    V = ("x", "y", "z", "u", "v")
    x, y, z, u, v = (Polynomial.variable(n, V) for n in V)
    divisors = []
    monkeypatch.setattr(idealops, "ideal_colon",
                        lambda I, g: divisors.append(g) or I)
    colon_by_product(Ideal(V, [x ** 3]), [x + y, u, u, v, x + z, y])
    assert divisors == [x + y, u ** 2 * v, x + z, y]


def test_colon_by_product_by_zero_raises(plane):
    x = plane.extras["x"]
    zero = plane.ctx.zero_poly()
    I = Ideal(plane.ctx.vars, [x ** 2])
    for factors in ([zero], [x, zero], [zero, x + 1]):
        with pytest.raises(ZeroDivisionError, match="colon by zero"):
            colon_by_product(I, factors)


def test_colon_step_matches_the_colon_by_the_powered_entries(
        split_ring, catalan_ring):
    # ((x^[n+1]) + J) : (x_1 ... x_r)^n with one colon factor x_i^n per
    # entry, against colon_step's factor list x_i repeated n times
    x, y, u, v = (catalan_ring.extras[k] for k in "xyuv")
    cases = [split_ring.sop, catalan_ring.sop,
             SequenceInR([(x + y) ** 2, u, v], catalan_ring.ctx)]
    for seq in cases:
        ctx = seq.ctx
        for n in (1, 2, 3):
            powered = ctx.adjoin(seq.powers(n + 1).ideal())
            want = colon_by_product(powered, [e ** n for e in seq.entries])
            assert ideals_equal(colon_step(seq, n), want), (seq.entries, n)


def test_chain_is_monotone_on_every_fixture(plane, space, split_ring,
                                            catalan_ring):
    for fix in (plane, space, split_ring, catalan_ring):
        ctx = fix.ctx
        prev = None
        for n in range(1, 4):
            step = colon_step(fix.sop, n)
            if prev is not None:
                assert local_contains(prev, step, ctx), ctx.vars
            prev = step


def test_closure_contains_the_ideal_and_reports_chain(split_ring):
    # an m-primary chain is reported by its colengths, and the closure is
    # the chain term at the stabilization index
    res = limit_closure(split_ring.sop)
    ctx = split_ring.ctx
    idx = res.stabilization_index
    assert local_contains(ctx.adjoin(split_ring.sop.ideal()), res.closure, ctx)
    assert idx >= 1
    assert ideals_equal(res.closure, colon_step(split_ring.sop, idx))
    assert local_length(res.closure, ctx) == res.chain[idx - 1]
    assert not is_local_unit_ideal(res.closure, ctx)


def test_colength_is_the_length_of_the_colon_term(
        plane, split_ring, three_level_ring, catalan_ring, two_planes):
    seqs = [plane.sop, split_ring.sop, split_ring.sop.powers(2),
            three_level_ring.sop, catalan_ring.sop, two_planes[1]]
    for seq in seqs:
        for n in (1, 2, 3):
            assert local_length(colon_step(seq, n), seq.ctx) \
                == _colength(seq, n), (seq.entries, seq.exponent, n)


def _colon_term_window(seq, window):
    """Reference: the window over the colon terms themselves, compared by
    local equality, as every chain was stopped before colengths."""
    return _stabilize((colon_step(seq, n) for n in count(1)),
                      partial(local_equal, ctx=seq.ctx), 12, window,
                      "colon chain")


def test_colength_window_agrees_with_the_colon_term_window(
        plane, split_ring, three_level_ring, catalan_ring, two_planes):
    # random linear sops and their squares; the quadric's squares and its
    # window 3 are left out, as they take 10 s and more on the colon terms
    rng = random.Random(14)
    cases = []
    for ctx, quadric in ((plane.ctx, False), (split_ring.ctx, False),
                         (three_level_ring.ctx, False), (two_planes[0], False),
                         (catalan_ring.ctx, True)):
        gens = [Polynomial.variable(n, ctx.vars) for n in ctx.vars]
        found = 0
        while found < 2:
            seq = SequenceInR([sum((rng.randint(-2, 2) * g for g in gens),
                                   ctx.zero_poly()) for _ in range(ctx.dim)],
                              ctx)
            if any(e.is_zero() for e in seq.entries) or not is_sop(seq):
                continue
            found += 1
            cases += [(seq, 2)] if quadric else [
                (s, w) for s in (seq, seq.powers(2)) for w in (2, 3)]
    indices = set()
    for seq, window in cases:
        chain, idx = _colon_term_window(seq, window)
        res = limit_closure(seq, window=window)
        assert res.stabilization_index == idx, (seq.entries, window)
        assert ideals_equal(res.closure, chain[idx - 1])
        assert len(res.chain) == len(chain)
        indices.add(idx)
    assert indices == {1, 2}   # both early and late stabilization occur


def test_an_m_primary_closure_builds_one_colon_term(monkeypatch, split_ring,
                                                    catalan_ring):
    calls = []
    real = limitclosure.colon_step
    monkeypatch.setattr(limitclosure, "colon_step",
                        lambda seq, n: calls.append(n) or real(seq, n))
    for seq in (split_ring.sop, split_ring.sop.powers(2)):
        calls.clear()
        res = limit_closure(seq, window=3)
        assert calls == [res.stabilization_index]
    calls.clear()
    assert monomial_property(split_ring.sop)
    structure.ij_functions(split_ring.sop, n_max=2)
    assert calls == []
    # (y, u, v) is not m-primary on the quadric: the colon terms are windowed
    res = limit_closure(catalan_ring.extras["yuv"])
    assert calls == [1, 2] and res.chain[0].gens


def test_a_capped_chain_carries_its_colengths(split_ring):
    # this square's chain has colengths 5, 4, 4, ...
    x, y, z = (split_ring.extras[k] for k in "xyz")
    seq = SequenceInR([-x - 2 * y, x - y + z], split_ring.ctx).powers(2)
    with pytest.raises(NotStabilized) as exc:
        limit_closure(seq, n_max=2)
    assert exc.value.partial_chain == [5, 4]
    assert limit_closure(seq, n_max=3).chain == [5, 4, 4]
    res = limit_closure(seq, window=3)
    assert (res.chain, res.stabilization_index) == ([5, 4, 4, 4], 2)


@pytest.mark.parametrize("window", [-1, 0, 1])
def test_window_below_two_is_rejected(split_ring, window):
    # a window of 1 compares no terms, and one below 1 indexes off the chain
    with pytest.raises(ValueError, match=f"got {window}"):
        limit_closure(split_ring.sop, window=window)


def test_regular_sequence_closure_is_the_ideal(plane, space):
    # in a Cohen-Macaulay (here regular) ring sop = regular sequence and the
    # closure adds nothing
    for fix in (plane, space):
        for n in (1, 2):
            seq = fix.sop.powers(n)
            res = limit_closure(seq)
            assert local_equal(res.closure, fix.ctx.adjoin(seq.ideal()),
                               fix.ctx)


def test_power_monotonicity(split_ring):
    # (x^[2]) sits inside (x) with the same radical, so closures are nested
    ctx = split_ring.ctx
    c1 = limit_closure(split_ring.sop).closure
    c2 = limit_closure(split_ring.sop.powers(2)).closure
    c3 = limit_closure(split_ring.sop.powers(3)).closure
    assert local_contains(c2, c1, ctx)
    assert local_contains(c3, c2, ctx)


def test_unit_rescaling_does_not_change_the_closure(split_ring):
    ctx = split_ring.ctx
    one = ctx.one()
    y = split_ring.extras["y"]
    a, b = split_ring.sop.entries
    rescaled = SequenceInR([(one + y) * a, b], ctx)
    assert local_equal(limit_closure(split_ring.sop).closure,
                       limit_closure(rescaled).closure, ctx)


def test_small_dimension_submodules_fall_into_the_closure(split_ring):
    # the line component (x) has dimension 1 < 2 = sequence length, so its
    # class lies in every closure of a 2-element sop
    ctx = split_ring.ctx
    x = split_ring.extras["x"]
    for n in (1, 2, 3):
        res = limit_closure(split_ring.sop.powers(n))
        assert local_member(x, res.closure, ctx)
        assert not local_member(x, ctx.adjoin(split_ring.sop.powers(n).ideal()),
                                ctx)


def test_quotient_formula(split_ring):
    # N inside every closure: computing the closure in R/N matches the image
    # of the closure computed upstairs
    ctx = split_ring.ctx
    N = split_ring.extras["U"]   # the ideal (x)
    ctx_bar = LocalRingContext(ctx.vars, ctx.adjoin(N))
    seq_bar = SequenceInR(list(split_ring.sop.entries), ctx_bar)
    for n in (1, 2):
        up = limit_closure(split_ring.sop.powers(n)).closure
        down = limit_closure(seq_bar.powers(n)).closure
        assert local_equal(down, ideal_sum(up, N), ctx_bar)


def test_mixed_closure_degenerate_tail_is_plain_closure(split_ring):
    ctx = split_ring.ctx
    empty = SequenceInR([], ctx)
    got = limit_closure_mixed(split_ring.sop, 2, empty, 1)
    want = limit_closure(split_ring.sop.powers(2))
    assert local_equal(got.closure, want.closure, ctx)
    assert got.stabilization_index == want.stabilization_index


def test_mixed_closure_on_regular_ring_is_the_mixed_ideal(space):
    ctx = space.ctx
    x, y, z = (space.extras[k] for k in "xyz")
    got = limit_closure_mixed(SequenceInR([x, y], ctx), 2,
                              SequenceInR([z], ctx), 3)
    want = Ideal(ctx.vars, [x ** 2, y ** 2, z ** 3])
    assert local_equal(got.closure, want, ctx)


def test_mixed_closure_validation(space, plane):
    ctx = space.ctx
    x, z = space.extras["x"], space.extras["z"]
    head, tail = SequenceInR([x], ctx), SequenceInR([z], ctx)
    with pytest.raises(ValueError, match="head must be non-empty"):
        limit_closure_mixed(SequenceInR([], ctx), 1, tail, 1)
    for powers in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="powers must be >= 1"):
            limit_closure_mixed(head, powers[0], tail, powers[1])
    with pytest.raises(ValueError):   # a tail over other variables
        limit_closure_mixed(head, 1, plane.sop, 1)


def _mixed_chain_reference(head, n, tail, m):
    """The mixed chain as its own formula: the union over k of
    ((head^[n(k+1)], tail^[m]) + J) : (head product)^{nk}, windowed over its
    colon terms; returns the last term of the window."""
    ctx = head.ctx

    def term(k):
        gens = [e ** (n * (k + 1)) for e in head.entries]
        gens += [e ** m for e in tail.entries]
        return colon_by_product(ctx.adjoin(Ideal(ctx.vars, gens)),
                                [e ** (n * k) for e in head.entries])

    chain, _ = _stabilize((term(k) for k in count(1)),
                          partial(local_equal, ctx=ctx), 12, 2, "mixed chain")
    return chain[-1]


def test_mixed_closure_matches_the_mixed_chain_formula(
        split_ring, three_level_ring, two_planes, catalan_ring):
    # the closure of head^[n] over R/(tail^[m]) against the mixed chain
    # built upstairs: both m-primary splits and splits that are not, and a
    # ring with a component away from the origin
    x, y, z = (split_ring.extras[k] for k in "xyz")
    tx, ty, tz = (three_level_ring.extras[k] for k in "xyz")
    pctx, (ac, bd) = two_planes[0], two_planes[1].entries
    qx, qy, u, v = (catalan_ring.extras[k] for k in "xyuv")
    away = LocalRingContext(x.vars, Ideal(x.vars, [x * (y - 1), x * z]))
    splits = [
        (split_ring.ctx, [y], [x + z]), (split_ring.ctx, [x + z], [y]),
        (three_level_ring.ctx, [tz + tx], [ty]), (pctx, [ac], [bd]),
        (catalan_ring.ctx, [qx + qy], [u, v]),    # m-primary
        (catalan_ring.ctx, [qy], [u, v]),         # not m-primary
        (away, [y], [z]),
    ]
    for ctx, head, tail in splits:
        head, tail = SequenceInR(head, ctx), SequenceInR(tail, ctx)
        for n in (1, 2):
            for m in (1, 2):
                got = limit_closure_mixed(head, n, tail, m).closure
                want = _mixed_chain_reference(head, n, tail, m)
                case = (head.entries, n, tail.entries, m)
                assert local_equal(got, want, ctx), case
                assert got.reduced_gens() == want.reduced_gens(), case


def test_colon_step_with_zero_entry_is_unit(split_ring):
    ctx = split_ring.ctx
    seq = SequenceInR([split_ring.extras["y"], ctx.zero_poly()], ctx)
    assert ideals_equal(colon_step(seq, 1), Ideal(ctx.vars, [ctx.one()]))


def test_monomial_property_on_sops(plane, split_ring, catalan_ring):
    assert monomial_property(plane.sop)
    assert monomial_property(split_ring.sop)
    assert monomial_property(catalan_ring.sop)
    with pytest.raises(ValueError):
        monomial_property(catalan_ring.extras["yuv"])   # not a sop


def test_non_sop_sequence_closure_picks_up_the_extra_class(catalan_ring):
    # on the quadric ring the closure of (y, u, v) gains the class of x
    ctx = catalan_ring.ctx
    x = catalan_ring.extras["x"]
    res = limit_closure(catalan_ring.extras["yuv"])
    assert local_member(x, res.closure, ctx)
    assert not local_member(x, ctx.adjoin(catalan_ring.extras["yuv"].ideal()),
                            ctx)


def test_closure_colength_reads_the_closure_length(split_ring, catalan_ring):
    ctx = split_ring.ctx
    for n in (1, 2):
        seq = split_ring.sop.powers(n)
        assert closure_colength(seq) \
            == local_length(limit_closure(seq).closure, ctx)
    with pytest.raises(NotMPrimary):
        closure_colength(catalan_ring.extras["yuv"])


def test_closure_lengths_on_quadric(catalan_ring):
    # lengths of R/(y^n,u^n,v^n)^lim for n = 1, 2: n^3 by the closed form
    ctx = catalan_ring.ctx
    yuv = catalan_ring.extras["yuv"]
    for n in (1, 2):
        res = limit_closure(yuv.powers(n))
        assert local_length(res.closure, ctx) == n ** 3


# -- exact closure targets ---------------------------------------------------

def test_closure_target_is_the_closure(plane, space, split_ring,
                                       three_level_ring, catalan_ring,
                                       glued_ring, random_sops):
    # R/U is Cohen-Macaulay on every ring here, so the target is taken and
    # is locally the windowed closure.  The chains of random squares and
    # cubes on the two 4-variable rings take seconds to minutes, so there
    # the random sops are taken to the first power only.
    rng = random.Random(16)
    cases = []
    for fix in (plane, space, split_ring, three_level_ring):
        for sop in [fix.sop] + random_sops(fix.ctx, rng, 2):
            cases += [sop.powers(v) for v in (1, 2, 3)]
    for fix in (catalan_ring, glued_ring):
        sop = SequenceInR(catalan_ring.sop.entries, fix.ctx)    # (x+y, u, v)
        cases += [sop.powers(v) for v in (1, 2, 3)]
        cases += random_sops(fix.ctx, rng, 2)
    indices = set()
    for seq in cases:
        target = closure_target(seq)
        assert target is not None, (seq.ctx.defining, seq.entries)
        res = limit_closure(seq)
        assert local_equal(target, res.closure, seq.ctx), \
            (seq.ctx.defining, seq.entries)
        indices.add(res.stabilization_index)
    assert indices == {1, 2, 3}     # chains that stop late are covered
    # the glued ring's (y, u, v) is no sop: no target
    assert closure_target(glued_ring.sop) is None


def test_closure_target_needs_a_cohen_macaulay_quotient(two_planes,
                                                        veronese_pair):
    # two planes meeting at a point: U = 0 and R is not Cohen-Macaulay;
    # (x) + U would have colength 3 where the closure has colength 1
    ctx, seq = two_planes
    assert closure_target(seq) is None
    assert closure_colength(seq) == 1
    assert local_length(ideal_sum(seq.ideal(), ctx.hull(ctx.dim)), ctx) == 3
    # the Veronese R is a domain that is not Cohen-Macaulay
    assert closure_target(veronese_pair.sop) is None


def test_hull_and_the_cm_test_run_once_per_ring(monkeypatch, split_ring,
                                                two_planes):
    hulls, cm_tests = [], []
    real_hull, real_cm = localring.hull, limitclosure._regular_modulo
    monkeypatch.setattr(localring, "hull",
                        lambda J, k: hulls.append(k) or real_hull(J, k))
    monkeypatch.setattr(limitclosure, "_regular_modulo",
                        lambda *a: cm_tests.append(a) or real_cm(*a))
    # fresh contexts, so that nothing is cached on them yet
    ctx = LocalRingContext(split_ring.ctx.vars, split_ring.ctx.defining)
    sop = SequenceInR(split_ring.sop.entries, ctx)
    good = SequenceInR(split_ring.extras["good_sop"].entries, ctx)
    for seq in (sop, sop.powers(2), good, good.powers(3)):
        assert closure_target(seq) is not None
    structure.topology_scan(sop, n0=2, v_max=3)
    structure.filtration_levels(ctx)
    assert hulls == [2, 1] and len(cm_tests) == 1
    pctx = LocalRingContext(two_planes[0].vars, two_planes[0].defining)
    pseq = SequenceInR(two_planes[1].entries, pctx)
    for seq in (pseq, pseq.powers(2), pseq):
        assert closure_target(seq) is None
    assert hulls == [2, 1, 2] and len(cm_tests) == 2


@pytest.fixture
def windows(monkeypatch):
    """The sequences `closure_colength` runs the colength window on."""
    seen = []
    real = limitclosure._colength_window
    monkeypatch.setattr(limitclosure, "_colength_window", lambda seq, *a: (
        seen.append(seq) or real(seq, *a)))
    return seen, real


def test_closure_colength_of_a_target_matches_the_window(length_cases,
                                                         windows):
    # len R/((x) + U) against the colength window it replaces, on rings
    # where R is Cohen-Macaulay and where only R/U is
    seen, window = windows
    cm, mixed = length_cases
    for seq in cm + mixed:
        got = closure_colength(seq)
        assert seen == [], (seq.ctx.defining, seq.entries)
        chain, idx = window(seq, 12, 2)
        assert got == chain[idx - 1], (seq.ctx.defining, seq.entries)


def test_closure_colength_falls_back_to_the_window(two_planes,
                                                  veronese_pair, windows):
    seen, _ = windows
    assert closure_colength(two_planes[1]) == 1
    assert closure_colength(veronese_pair.sop) == 3
    assert seen == [two_planes[1], veronese_pair.sop]
    assert monomial_property(two_planes[1])


def test_principal_hull_matches_the_extension_contraction_loop(
        catalan_ring, glued_ring, small_cm_rings):
    # a redundant second generator 2 x f takes J = (f) through the loop
    principal = [fix.ctx.defining for fix in (
        catalan_ring, glued_ring, *small_cm_rings.values())
        if len(fix.ctx.defining.gens) == 1]
    for J in principal:
        f = J.gens[0]
        x = Polynomial.variable(J.vars[0], J.vars)
        redundant = Ideal(J.vars, [f, 2 * x * f])
        for k in range(1, len(J.vars) + 1):
            assert ideals_equal(idealops.hull(J, k),
                                idealops.hull(redundant, k)), (f, k)


def test_cm_shortcut_matches_the_regular_sequence_test(
        plane, space, catalan_ring, glued_ring, small_cm_rings):
    # J with at most one generator: R/U is Cohen-Macaulay, and the sop is
    # R/U-regular by the colon test the shortcut skips
    cases = [(fix.ctx, fix.sop) for fix in
             (plane, space, catalan_ring, *small_cm_rings.values())]
    cases.append((glued_ring.ctx,
                  SequenceInR(catalan_ring.sop.entries, glued_ring.ctx)))
    for ctx, sop in cases:
        if len(ctx.defining.gens) > 1:
            continue
        fresh = LocalRingContext(ctx.vars, ctx.defining)
        assert limitclosure.cm_after_u(SequenceInR(sop.entries, fresh))
        assert limitclosure._regular_modulo(sop.entries, ctx.hull(ctx.dim),
                                            ctx), ctx.defining


@pytest.fixture(scope="module")
def stalled_chain():
    """R = K[a, b^3, b^4, b^5, a^3 b] with the sop (p, p + q) = (a, a + b^3):
    a 2-dimensional domain that is not Cohen-Macaulay, so there is no
    target.  H^1_m(R) = K[a, b]/R has length 9 and a^6 is the least power
    of a killing it, so the colength chain stalls before it reaches
    len R/m = 1."""
    V = tuple("pqrst")
    p, q, r, s, t = (Polynomial.variable(n, V) for n in V)
    ctx = LocalRingContext(V, Ideal(V, [
        r ** 2 - q * s, q ** 2 * r - s ** 2, q ** 3 - r * s,
        p ** 3 * s - r * t, p ** 3 * r - q * t, p ** 3 * q ** 2 - s * t,
        p ** 9 * q - t ** 3]))
    return SequenceInR([p, p + q], ctx)


def test_the_stalled_chain_reaches_the_maximal_ideal_at_step_six(
        stalled_chain):
    seq = stalled_chain
    ctx = seq.ctx
    assert closure_target(seq) is None
    assert [_colength(seq, n) for n in range(1, 9)] == [3, 3, 2, 2, 2, 1, 1, 1]
    res = limit_closure(seq, window=6)
    assert res.stabilization_index == 6
    m = Ideal(ctx.vars, [Polynomial.variable(v, ctx.vars) for v in ctx.vars])
    assert local_equal(res.closure, m, ctx)
    assert [str(g) for g in res.closure.reduced_gens()] == \
        ["t", "s", "r", "q", "p"]


@pytest.mark.xfail(strict=True, reason="the default window of 2 stops at "
                   "step 1, colength 3; the closure is m, colength 1")
def test_the_default_closure_of_the_stalled_chain_is_the_maximal_ideal(
        stalled_chain):
    seq = stalled_chain
    ctx = seq.ctx
    m = Ideal(ctx.vars, [Polynomial.variable(v, ctx.vars) for v in ctx.vars])
    assert local_equal(limit_closure(seq).closure, m, ctx)
    assert closure_colength(seq) == 1
