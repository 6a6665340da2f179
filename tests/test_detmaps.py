"""Determinantal maps: exact determinants, matrix recovery, injectivity of
det(A) : R/(x)^lim -> R/(y)^lim, and its agreement with sop-ness."""

import random
from fractions import Fraction

import pytest

from limclose import frontend, groebner, limitclosure
from limclose.polycore import Polynomial
from limclose.idealops import Ideal
from limclose.localring import LocalRingContext, SequenceInR, is_sop
from limclose.structure import topology_scan
from limclose.detmaps import (
    DetMapProblem, determinant, express_in_terms, detmap_injective,
)

from oracles import leibniz_determinant
from test_bench_pins import _load_workloads


def _rand_matrix(rng, n, vars, max_deg=1):
    def entry():
        p = Polynomial.constant(rng.randint(-3, 3), vars)
        for v in vars[:2]:
            if rng.random() < 0.5:
                p = p + rng.randint(-2, 2) * Polynomial.variable(v, vars)
        return p
    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.fixture(scope="module")
def session_matrices():
    """The coefficient matrices of the benchmark session's five
    detmap(Q, SQ, .) shows (seed 1), as the shows build them."""
    workloads = _load_workloads()
    session = frontend.parse_session(
        workloads.session_text(workloads.Presenter("cli-session", 1, 0)))
    problems = []
    real = frontend.express_in_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "express_in_terms",
                   lambda y, x: problems.append(real(y, x)) or problems[-1])
        frontend.run_session(session)
    quadric = [p for p in problems if p.x.ctx.vars == tuple("xyuv")]
    assert len(quadric) == 5
    return [(p.matrix, p.x.ctx.vars) for p in quadric]


def test_determinant_small_cases(plane):
    V = plane.ctx.vars
    x, y = plane.extras["x"], plane.extras["y"]
    one = plane.ctx.one()
    assert determinant([], V).constant_term == 1
    assert determinant([[x]], V).terms == x.terms
    m = [[x, y], [y, x]]
    assert determinant(m, V).terms == (x * x - y * y).terms
    # singular matrix
    m = [[x, y], [x, y]]
    assert determinant(m, V).is_zero()
    ident = [[one if i == j else Polynomial.zero(V) for j in range(3)]
             for i in range(3)]
    assert determinant(ident, V).constant_term == 1


def test_determinant_agrees_with_leibniz():
    V = ("x", "y")
    rng = random.Random(6)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(4 if n < 6 else 2):
            m = _rand_matrix(rng, n, V)
            assert determinant(m, V).terms == leibniz_determinant(m, V).terms


def test_session_determinants_agree_with_leibniz(session_matrices):
    dets = [determinant(m, V) for m, V in session_matrices]
    assert [d.terms for d in dets] == \
        [leibniz_determinant(m, V).terms for m, V in session_matrices]
    assert [str(d) for d in dets] == ["1", "1", "x + y", "0", "0"]


def test_determinant_runs_no_kernel_division(monkeypatch, session_matrices):
    def no_division(*args, **kwargs):
        raise AssertionError("determinant ran a normal form")

    V = ("x", "y")
    rng = random.Random(8)
    cases = [(_rand_matrix(rng, n, V), V) for n in (2, 3, 4)]
    monkeypatch.setattr(groebner, "normal_form", no_division)
    for m, vars in cases + session_matrices:
        determinant(m, vars)


def test_determinant_multiplicative_on_integers():
    V = ("x",)
    rng = random.Random(13)
    for _ in range(10):
        A = [[Polynomial.constant(rng.randint(-4, 4), V) for _ in range(3)]
             for _ in range(3)]
        B = [[Polynomial.constant(rng.randint(-4, 4), V) for _ in range(3)]
             for _ in range(3)]
        AB = [[sum((A[i][k] * B[k][j] for k in range(3)),
                   Polynomial.zero(V)) for j in range(3)] for i in range(3)]
        assert determinant(AB, V).terms == \
            (determinant(A, V) * determinant(B, V)).terms


def test_problem_validates_expression(plane):
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    X = SequenceInR([x, y], ctx)
    Y = SequenceInR([x + y, y], ctx)
    one = ctx.one()
    zero = ctx.zero_poly()
    good = DetMapProblem(X, Y, [[one, one], [zero, one]])
    assert good.det.constant_term == 1
    with pytest.raises(ValueError):
        DetMapProblem(X, Y, [[one, zero], [zero, one]])   # wrong expression
    with pytest.raises(ValueError):
        DetMapProblem(X, Y, [[one, one]])                 # not square


def test_problem_rejects_sequences_from_two_rings(plane):
    # (x, y) in Q[x,y] and in Q[x,y]/(xy): the same variables, two rings
    x, y = plane.extras["x"], plane.extras["y"]
    V = plane.ctx.vars
    other = LocalRingContext(V, Ideal(V, [x * y]))
    one, zero = plane.ctx.one(), plane.ctx.zero_poly()
    with pytest.raises(ValueError, match="different rings"):
        DetMapProblem(plane.sop, SequenceInR([x, y], other),
                      [[one, zero], [zero, one]])
    # the same ring under two contexts is one ring
    same = LocalRingContext(V, Ideal(V, []))
    prob = DetMapProblem(plane.sop, SequenceInR([x, y], same),
                         [[one, zero], [zero, one]])
    assert prob.det.constant_term == 1


def test_express_in_terms_recovers_a_valid_matrix(plane):
    ctx = plane.ctx
    x, y = plane.extras["x"], plane.extras["y"]
    X = SequenceInR([x, y], ctx)
    Y = SequenceInR([x + 2 * y, x - y], ctx)
    prob = express_in_terms(Y, X)
    # the constructor has already verified y = A.x and the Cramer containment
    assert len(prob.matrix) == 2
    assert not prob.det.is_zero()
    with pytest.raises(ValueError):
        express_in_terms(SequenceInR([x], ctx),
                         SequenceInR([x ** 2], ctx))   # x not in (x^2)


def test_express_in_terms_with_a_zero_entry():
    """A zero entry of x keeps its column: the tracked rows have one entry
    per generator of (x) + J, zero generators included."""
    V = ("x", "y")
    x, y = (Polynomial.variable(v, V) for v in V)
    ctx = LocalRingContext(V, Ideal(V, [x * y]))
    X = SequenceInR([ctx.zero_poly(), y], ctx)
    prob = express_in_terms(SequenceInR([y ** 2, y], ctx), X)
    assert [[str(a) for a in row] for row in prob.matrix] == \
        [["0", "y"], ["0", "1"]]


def test_express_in_terms_when_every_generator_is_zero():
    """x = (0) over J = (0): the tracked basis is empty and carries no
    rows, yet A = (0) expresses y = (0)."""
    V = ("x",)
    ctx = LocalRingContext(V, Ideal(V, []))
    zero = SequenceInR([ctx.zero_poly()], ctx)
    prob = express_in_terms(zero, zero)
    assert prob.matrix == [[ctx.zero_poly()]]
    assert prob.det.is_zero()


def _perturb(problem, rng):
    """A different valid matrix for the same (x, y): add Koszul syzygies
    c*x_j to row i at column k and subtract c*x_k at column j."""
    ctx = problem.x.ctx
    n = len(problem.x)
    rows = [list(r) for r in problem.matrix]
    for _ in range(2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        k = rng.randrange(n)
        if j == k:
            continue
        c = Polynomial.constant(rng.randint(-2, 2), ctx.vars)
        rows[i][j] = rows[i][j] + c * problem.x.entries[k]
        rows[i][k] = rows[i][k] - c * problem.x.entries[j]
    return DetMapProblem(problem.x, problem.y, rows)


def _quadric_cases(catalan_ring):
    """Six cases on the quadric hypersurface (equidimensional): three with
    y a sop, three not.  Every y entry lies in (x) + J so the coefficient
    matrix exists globally; the three non-sop cases get a matrix with
    det = 0 in R from `express_in_terms`."""
    ctx = catalan_ring.ctx
    x, y, u, v = (catalan_ring.extras[k] for k in "xyuv")
    X = catalan_ring.sop                      # (x+y, u, v)
    s = x + y
    cases = [
        (X, SequenceInR([s, u, v], ctx), True),              # identity
        (X, SequenceInR([s + u, u, v], ctx), True),          # unimodular
        (X, SequenceInR([s ** 2, u, v], ctx), True),         # powered entry
        (X, SequenceInR([s * u, u, v], ctx), False),         # drops to (u,v)
        (X, SequenceInR([u, u, v], ctx), False),             # repeated entry
        (X, SequenceInR([ctx.zero_poly(), u, v], ctx), False),  # det = 0
    ]
    return cases


def test_injectivity_agrees_with_sop_on_six_cases(catalan_ring):
    sop_cases = nonsop_cases = 0
    for X, Y, expect_sop in _quadric_cases(catalan_ring):
        assert is_sop(Y) == expect_sop
        prob = express_in_terms(Y, X)
        got = detmap_injective(prob)
        assert got == expect_sop, [str(e) for e in Y.entries]
        if expect_sop:
            sop_cases += 1
        else:
            nonsop_cases += 1
    assert sop_cases == 3 and nonsop_cases == 3


def test_injectivity_is_matrix_independent(catalan_ring):
    rng = random.Random(44)
    for X, Y, expect_sop in _quadric_cases(catalan_ring):
        prob = express_in_terms(Y, X)
        base = detmap_injective(prob)
        for _ in range(5):
            other = _perturb(prob, rng)
            assert detmap_injective(other) == base, \
                [str(e) for e in Y.entries]


def test_zero_determinant_map(catalan_ring):
    ctx = catalan_ring.ctx
    u, v = catalan_ring.extras["u"], catalan_ring.extras["v"]
    X = catalan_ring.sop
    Y = SequenceInR([ctx.zero_poly(), u, v], ctx)
    prob = express_in_terms(Y, X)
    assert prob.det.is_zero() or \
        ctx.defining.contains_poly(prob.det)
    assert not detmap_injective(prob)


def test_readers_build_no_chain_where_the_target_is_exact(
        monkeypatch, split_ring, catalan_ring):
    # R/U is Cohen-Macaulay on the split ring and the quadric: the topology
    # scan and the determinantal map read (x) + U and build no colon term.
    # A determinant that vanishes in R reads no closure of y; a y that is
    # no sop, under a determinant that does not vanish, takes the chain
    calls = []
    real = limitclosure.colon_step
    monkeypatch.setattr(limitclosure, "colon_step",
                        lambda seq, n: calls.append(n) or real(seq, n))
    rep = topology_scan(split_ring.sop, n0=3, v_max=6)
    assert rep.failure_k == 2 and str(rep.witness) == "x"
    assert topology_scan(catalan_ring.sop, n0=2, v_max=4).success
    cases = _quadric_cases(catalan_ring)
    X, D1, D3, D4 = cases[0][0], cases[1][1], cases[3][1], cases[4][1]
    assert detmap_injective(express_in_terms(D1, X))
    for D in (D3, D4):
        prob = express_in_terms(D, X)
        assert catalan_ring.ctx.defining.contains_poly(prob.det)
        assert not detmap_injective(prob)
    assert calls == []
    vars = catalan_ring.ctx.vars
    one, zero = Polynomial.constant(1, vars), Polynomial.zero(vars)
    u = catalan_ring.extras["u"]
    prob = DetMapProblem(X, D3, [[u, zero, zero], [zero, one, zero],
                                 [zero, zero, one]])
    assert not catalan_ring.ctx.defining.contains_poly(prob.det)
    assert not detmap_injective(prob)
    assert calls
