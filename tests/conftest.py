"""Shared fixtures: the rings and parameter sequences every suite reuses."""

import random
import sys
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from limclose import idealops
from limclose.polycore import Polynomial
from limclose.idealops import Ideal, ideal_intersect, RingMapPresentation, contract
from limclose.localring import LocalRingContext, SequenceInR, is_sop


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="run the slow acceptance rows (colon table n=10..12)")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running acceptance rows")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; use --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def uncached():
    """call(fn, *args): fn(*args) on an empty shared cache, as a miss
    computes it; the cache as it was is restored afterwards."""
    cache = idealops._GB_CACHE

    def call(fn, *args):
        saved = cache.entries, cache.terms
        cache.entries, cache.terms = OrderedDict(), 0
        try:
            return fn(*args)
        finally:
            cache.entries, cache.terms = saved

    return call


@dataclass
class RingFixture:
    ctx: LocalRingContext
    sop: SequenceInR
    extras: dict


def _vars_polys(names):
    V = tuple(names)
    return V, [Polynomial.variable(n, V) for n in V]


@pytest.fixture(scope="session")
def plane():
    """Q[x,y] at the origin: regular, Cohen-Macaulay."""
    V, (x, y) = _vars_polys("xy")
    ctx = LocalRingContext(V, Ideal(V, []))
    return RingFixture(ctx, SequenceInR([x, y], ctx), {"x": x, "y": y})


@pytest.fixture(scope="session")
def space():
    """Q[x,y,z] at the origin."""
    V, (x, y, z) = _vars_polys("xyz")
    ctx = LocalRingContext(V, Ideal(V, []))
    return RingFixture(ctx, SequenceInR([x, y, z], ctx),
                       {"x": x, "y": y, "z": z})


@pytest.fixture(scope="session")
def split_ring():
    """Q[x,y,z]/((x) cap (y,z)): a plane and a line glued at the origin.

    Not unmixed; the unmixed component is the class of (x).  The sop
    (y, x+z) is not good in that order; (x+z, y) is.
    """
    V, (x, y, z) = _vars_polys("xyz")
    ctx = LocalRingContext(V, Ideal(V, [x * y, x * z]))
    return RingFixture(ctx, SequenceInR([y, x + z], ctx),
                       {"x": x, "y": y, "z": z,
                        "good_sop": SequenceInR([x + z, y], ctx),
                        "U": Ideal(V, [x])})


@pytest.fixture(scope="session")
def catalan_ring():
    """The quadric hypersurface Q[x,y,u,v]/(xy - ux^2 - vy^2): a
    3-dimensional domain whose colon chains produce Catalan numbers.

    (y, u, v) generates a height-2 prime, so it is NOT a sop; (x+y, u, v)
    is one.
    """
    V, (x, y, u, v) = _vars_polys("xyuv")
    f = x * y - u * x ** 2 - v * y ** 2
    ctx = LocalRingContext(V, Ideal(V, [f]))
    return RingFixture(ctx, SequenceInR([x + y, u, v], ctx),
                       {"x": x, "y": y, "u": u, "v": v, "f": f,
                        "yuv": SequenceInR([y, u, v], ctx)})


@pytest.fixture(scope="session")
def glued_ring(catalan_ring):
    """Q[x,y,u,v]/((f) cap (x)) = Q[x,y,u,v]/(x f): the quadric glued with
    the hyperplane x = 0; the intersection of closures of (y^n,u^n,v^n)
    fails to contain the class of x."""
    V = catalan_ring.ctx.vars
    x = catalan_ring.extras["x"]
    f = catalan_ring.extras["f"]
    ctx = LocalRingContext(V, Ideal(V, [x * f]))
    seq = SequenceInR([catalan_ring.extras["y"], catalan_ring.extras["u"],
                       catalan_ring.extras["v"]], ctx)
    return RingFixture(ctx, seq, {"x": x})


@pytest.fixture(scope="session")
def three_level_ring():
    """Q[x,y,z]/((xz, yz) cap m^3): filtration levels of dimensions
    0, 1, 2."""
    V, (x, y, z) = _vars_polys("xyz")
    m3 = Ideal(V, [a * b * c for a in (x, y, z) for b in (x, y, z)
                   for c in (x, y, z)])
    J = ideal_intersect(Ideal(V, [x * z, y * z]), m3)
    ctx = LocalRingContext(V, J)
    return RingFixture(ctx, SequenceInR([z + x, y], ctx),
                       {"x": x, "y": y, "z": z})


@pytest.fixture(scope="session")
def two_planes():
    """Q[a,b,c,d]/((a,b) cap (c,d)): two planes meeting at the origin,
    with the sop (a + c, b + d)."""
    V = tuple("abcd")
    a, b, c, d = (Polynomial.variable(n, V) for n in V)
    ctx = LocalRingContext(V, Ideal(V, [a * c, a * d, b * c, b * d]))
    return ctx, SequenceInR([a + c, b + d], ctx)


def toric_presentation(src_names, exponents):
    """Defining ideal of the semigroup ring K[t^e : e in exponents] inside
    K[x, y], by eliminating x, y from the graph ideal."""
    tgt, (x, y) = _vars_polys("xy")
    src = tuple(src_names)
    images = {}
    for name, (a, b) in zip(src, exponents):
        images[name] = x ** a * y ** b
    free = RingMapPresentation(
        source_vars=src, source_ideal=Ideal(src, []),
        target_vars=tgt, target_ideal=Ideal(tgt, []),
        images=images)
    return contract(free, Ideal(tgt, [])), images


@pytest.fixture(scope="session")
def veronese_pair():
    """R = Q[x^4, x^3 y, x y^3, y^4] inside its S2-ification
    S = Q[x^4, x^3 y, x^2 y^2, x y^3, y^4] (the full 4-Veronese, CM),
    with the sop (a, d) = (x^4, y^4) of R."""
    R_exps = [(4, 0), (3, 1), (1, 3), (0, 4)]
    S_exps = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    JR, _ = toric_presentation(("a", "b", "c", "d"), R_exps)
    JS, _ = toric_presentation(("p0", "p1", "p2", "p3", "p4"), S_exps)
    VR = ("a", "b", "c", "d")
    VS = ("p0", "p1", "p2", "p3", "p4")
    ctxR = LocalRingContext(VR, JR)
    ctxS = LocalRingContext(VS, JS)
    images = {"a": Polynomial.variable("p0", VS),
              "b": Polynomial.variable("p1", VS),
              "c": Polynomial.variable("p3", VS),
              "d": Polynomial.variable("p4", VS)}
    inclusion = RingMapPresentation(
        source_vars=VR, source_ideal=JR,
        target_vars=VS, target_ideal=JS, images=images)
    a = Polynomial.variable("a", VR)
    d = Polynomial.variable("d", VR)
    sop = SequenceInR([a, d], ctxR)
    return RingFixture(ctxR, sop,
                       {"ctxS": ctxS, "map": inclusion,
                        "R_exps": R_exps, "S_exps": S_exps})


@pytest.fixture(scope="session")
def small_cm_rings():
    """Cohen-Macaulay rings beside the named fixtures, each with a sop: the
    cone Q[x,y,z]/(xy - z^2), the curves Q[x,y]/(x^2 y) and Q[x,y]/(x(1+y))
    (the line x = 0 at the origin, its other component away from it), and
    the complete intersection Q[x,y,z]/(xy, z^2 - xz), three lines."""
    V2, (x, y) = _vars_polys("xy")
    V3, (a, b, c) = _vars_polys("xyz")
    one = Polynomial.constant(1, V2)
    rings = {
        "cone": (V3, [a * b - c ** 2], [a, b]),
        "x2y": (V2, [x ** 2 * y], [x + y]),
        "x(1+y)": (V2, [x * (one + y)], [y]),
        "ci": (V3, [a * b, c ** 2 - a * c], [a + b]),
    }
    out = {}
    for name, (V, relations, sop) in rings.items():
        ctx = LocalRingContext(V, Ideal(V, relations))
        out[name] = RingFixture(ctx, SequenceInR(sop, ctx), {})
    return out


def random_linear_sops(ctx, rng, k):
    """k sops of random linear forms with coefficients in -2..2."""
    gens = [Polynomial.variable(n, ctx.vars) for n in ctx.vars]
    found = []
    while len(found) < k:
        seq = SequenceInR([sum((rng.randint(-2, 2) * g for g in gens),
                               ctx.zero_poly()) for _ in range(ctx.dim)], ctx)
        if not any(e.is_zero() for e in seq.entries) and is_sop(seq):
            found.append(seq)
    return found


@pytest.fixture(scope="session")
def random_sops():
    """random_sops(ctx, rng, k): `random_linear_sops`."""
    return random_linear_sops


@pytest.fixture(scope="session")
def length_cases(plane, space, split_ring, three_level_ring, catalan_ring,
                 glued_ring, small_cm_rings):
    """Sequences for the closed-form length tests, as two lists: on
    Cohen-Macaulay rings, and on rings where only R/U is Cohen-Macaulay
    (U != 0).  Each ring gives its sop and two seeded random linear sops,
    at powers 1 and 2 on rings of at most three variables, and at power 1
    on the four-variable rings, where the per-power length of the cube of
    the ideal of one random square already takes seconds."""
    rng = random.Random(20)

    def seqs(ctx, sop):
        powers = (1,) if len(ctx.vars) > 3 else (1, 2)
        return [s.powers(p) for s in [sop] + random_linear_sops(ctx, rng, 2)
                for p in powers]

    glued_sop = SequenceInR(catalan_ring.sop.entries, glued_ring.ctx)
    cm = seqs(glued_ring.ctx, glued_sop)
    for fix in (plane, space, catalan_ring, *small_cm_rings.values()):
        cm += seqs(fix.ctx, fix.sop)
    mixed = []
    for fix in (split_ring, three_level_ring):
        mixed += seqs(fix.ctx, fix.sop)
    return cm, mixed
