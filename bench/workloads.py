"""The three benchmark workloads: inputs made from a seed, one task per
verdict, and the pinned answer every task is checked against.

A workload is built by `build(name, seed, variant)`, which returns a list of
`Task`s.  Building is the run's set-up (ring construction, session parse);
running the tasks is the measured work.  Every library call goes through a
module attribute (`structure.ij_functions`, not an imported name), so the
outside-in tracer in `tracer.py` sees it once it has rebound that attribute.

The seed fixes only the presentation of the inputs: the order of the
generators of every input ideal and ring relation, and a small nonzero
integer factor on each.  Sequences are never reordered or rescaled, because
goodness of a system of parameters depends on their order.  The ideals,
and so every pinned answer, are the same for every seed.  The cost of a
Buchberger run does depend on the generator order (the six orders of the
quadric's ideal (x+y, u, v) cost `hs-quadric` from 28,910 to 39,186
polynomial terms), so each pass of a run uses its own presentation,
`variant`.  Consecutive variants take consecutive generator orders of every
ideal, from an offset the seed draws per ideal, so a run of k passes covers
k different orders of each and its mean cost hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from limclose import frontend, limitclosure, localring, polycore, structure
from limclose.idealops import Ideal

SCALES = (1, -1, 2, -2, 3, -3)

EXPECTED_CLI = Path(__file__).resolve().parent / "expected" / "cli-session.json"


@dataclass
class Task:
    name: str
    compute: Callable[[], object]
    expected: object


class Presenter:
    """Seeded generator order and rescaling for ideals and relations."""

    def __init__(self, workload, seed, variant):
        self.variant = variant
        self.offsets = random.Random(f"{workload}:{seed}")
        self.rng = random.Random(f"{workload}:{seed}:{variant}")

    def _plan(self, n):
        count = math.factorial(n)
        index = (self.offsets.randrange(count) + self.variant) % count
        return [(i, self.rng.choice(SCALES))
                for i in _nth_permutation(n, index)]

    def polys(self, gens):
        return [gens[i].scale(c) for i, c in self._plan(len(gens))]

    def texts(self, gens):
        """The same for generators written in the session language."""
        return [gens[i] if c == 1 else f"{c}*({gens[i]})"
                for i, c in self._plan(len(gens))]


def _nth_permutation(n, index):
    """The index-th permutation of range(n) in lexicographic order."""
    pool, order = list(range(n)), []
    for k in range(n, 0, -1):
        i, index = divmod(index, math.factorial(k - 1))
        order.append(pool.pop(i))
    return order


def _variables(names):
    V = tuple(names)
    return V, [polycore.Polynomial.variable(n, V) for n in V]


def _quadric(pres):
    V, (x, y, u, v) = _variables("xyuv")
    f = x * y - u * x ** 2 - v * y ** 2
    ctx = localring.LocalRingContext(V, Ideal(V, pres.polys([f])))
    return ctx, (x, y, u, v)


# ---------------------------------------------------------------------------
# catalan-colon: the paper's colon table on the quadric hypersurface
# ---------------------------------------------------------------------------

def _catalan_colon(pres):
    """Rows n = 1..5 of (y^2n, u^2n, v^2n) : (yuv)^n, each compared by
    local_equal with (y^n, u^n, v^n, x - yv * sum_{i<=n-2} C_i (uv)^i)."""
    ctx, (x, y, u, v) = _quadric(pres)
    V = ctx.vars
    tasks = []
    for n in range(1, 6):
        a_n = x if n == 1 else \
            x - y * v * polycore.catalan_truncated_generating_poly(
                "u", "v", n - 2, V)
        powered = Ideal(V, pres.polys([y ** (2 * n), u ** (2 * n),
                                       v ** (2 * n)]))
        closed = Ideal(V, pres.polys([y ** n, u ** n, v ** n, a_n]))
        factors = [y] * n + [u] * n + [v] * n

        def row(powered=powered, closed=closed, factors=factors):
            colon = limitclosure.colon_by_product(ctx.adjoin(powered), factors)
            return localring.local_equal(colon, ctx.adjoin(closed), ctx)

        tasks.append(Task(f"row-{n}", row, True))
    return tasks


# ---------------------------------------------------------------------------
# length-tables: Hilbert-Samuel and I/J tables on three rings
# ---------------------------------------------------------------------------

def _ij_rows(seq, **kw):
    table = structure.ij_functions(seq, **kw)
    return [list(r) for r in table.rows], table.multiplicity, table.degree


def _hs(q, ctx):
    rep = structure.hilbert_samuel(q, ctx, K=6)
    return rep.lengths, rep.multiplicity


def _length_tables(pres):
    """Pinned by tests/test_structure.py and acceptance criterion 06."""
    SeqR = localring.SequenceInR
    LRC = localring.LocalRingContext
    V2, (x2, y2) = _variables("xy")
    plane = LRC(V2, Ideal(V2, []))
    V3, (x3, y3, z3) = _variables("xyz")
    split = LRC(V3, Ideal(V3, pres.polys([x3 * y3, x3 * z3])))
    quad, (x, y, u, v) = _quadric(pres)
    V4 = quad.vars

    plane_sop = SeqR([x2, y2], plane)
    split_sop = SeqR([y3, x3 + z3], split)
    quad_sop = SeqR([x + y, u, v], quad)
    q_plane = Ideal(V2, pres.polys([x2, y2]))
    q_split = Ideal(V3, pres.polys([y3, x3 + z3]))
    q_quad = Ideal(V4, pres.polys([x + y, u, v]))
    return [
        Task("ij-plane", lambda: _ij_rows(plane_sop, n_max=4),
             ([[n, n * n, n * n, n * n, 0, 0] for n in range(1, 5)], 1, 2)),
        Task("ij-split", lambda: _ij_rows(split_sop, n_max=4),
             ([[n, n * n + n, n * n, n * n, n, 0] for n in range(1, 5)],
              1, 2)),
        Task("hs-plane", lambda: _hs(q_plane, plane),
             ([1, 3, 6, 10, 15, 21], 1)),
        Task("hs-split", lambda: _hs(q_split, split),
             ([2, 5, 9, 14, 20, 27], 1)),
        Task("hs-quadric", lambda: _hs(q_quad, quad),
             ([2, 8, 20, 40, 70, 112], 2)),
        Task("ij-quadric", lambda: _ij_rows(quad_sop, n_max=1, K=5),
             ([[1, 2, 2, 2, 0, 0]], 2, 3)),
    ]


# ---------------------------------------------------------------------------
# cli-session: one session file through the path main() takes
# ---------------------------------------------------------------------------

# Ring relations and ideal generators are presented per seed; sequences and
# show statements are fixed.  The expected JSON of every show is pinned in
# expected/cli-session.json; the comments name the tests that pin a value.
RINGS = [
    ("P", "x, y", ["0"]),
    ("A", "x, y, z", ["x*y", "x*z"]),
    ("T", "x, y, z", ["x^2*z", "x*y*z", "x*z^2", "y^2*z", "y*z^2"]),
    ("Q", "x, y, u, v", ["x*y - u*x^2 - v*y^2"]),
    ("B", "s, t", ["0"]),
]
IDEALS = [
    ("I", ["x^2", "x*y"]),
    ("L", ["x^2", "y^3"]),
    ("K", ["x^2"]),
]
DECLARATIONS = """
map phi = B -> P [ s -> x, t -> y^2 ];
seq SP = [x, y];
seq YX = [x + y, y];
seq SA = [y, x + z];
seq ST = [z + x, y];
seq SQ = [x + y, u, v];
seq D1 = [x + y + u, u, v];
seq D2 = [(x + y)^2, u, v];
seq D3 = [(x + y)*u, u, v];
seq D4 = [u, u, v];
"""
SHOWS = """
show sopcheck(P, SP);
show dim(P);
show length(P, L);            # tests/test_frontend.py: 6
show mult(P, SP);             # tests/test_frontend.py: 1
show colon(P, I, x);
show saturate(P, I, x);
show eliminate(P, I, y);
show contract(phi, K);        # tests/test_frontend.py: s^2
show limclose(P, SP);
show monomial-check(P, SP);   # tests/test_frontend.py: true
show topo(P, SP, 3, 6);       # tests/test_structure.py: succeeds
show detmap(P, YX, SP);       # tests/test_frontend.py: true
show gb(A, I);
show dim(A);                  # tests/test_frontend.py: 2
show dim(A, z);               # tests/test_frontend.py: 1
show intersect(A, x, y);
show limclose(A, SA);         # tests/test_frontend.py: stabilizes at 1
show limclose(A, SA, 2);
show limclose-mixed(A, SA, 1, SA, 2);
show unmixed(A, SA);          # tests/test_frontend.py: (x)
show dimfilt(A, SA);          # tests/test_structure.py: dims 1, 2
show goodsop(A, SA);          # tests/test_frontend.py: false
show topo(A, SA, 3, 6);       # tests/test_structure.py: fails at k=2, x
show sopcheck(A, SA);         # tests/test_frontend.py: true
show monomial-check(A, SA);   # acceptance criterion 05: true
show sopcheck(T, ST);
show dim(T);
show monomial-check(T, ST);   # acceptance criterion 05: true
show dimfilt(T, ST);          # tests/test_structure.py: dims 0, 1, 2
show unmixed(T, ST);
show sopcheck(Q, SQ);         # tests/test_detmaps.py: true
show dim(Q);                  # tests/conftest.py: 3
show monomial-check(Q, SQ);   # acceptance criterion 05: true
show topo(Q, SQ, 2, 4);       # tests/test_structure.py: succeeds
show detmap(Q, SQ, SQ);       # tests/test_detmaps.py: true
show detmap(Q, SQ, D1);       # tests/test_detmaps.py: true
show detmap(Q, SQ, D2);       # tests/test_detmaps.py: true
show detmap(Q, SQ, D3);       # tests/test_detmaps.py: false
show detmap(Q, SQ, D4);       # tests/test_detmaps.py: false
show catalan-demo(3);         # tests/test_frontend.py: true
"""


def session_text(pres):
    lines = []
    for name, vars, rels in RINGS:
        lines.append(f"ring {name} = QQ[{vars}] / "
                     f"({', '.join(pres.texts(rels))});")
    for name, gens in IDEALS:
        lines.append(f"ideal {name} = ({', '.join(pres.texts(gens))});")
    return "\n".join(lines) + DECLARATIONS + SHOWS


def _cli_session(pres):
    config = frontend.Config()
    session = frontend.parse_session(session_text(pres))
    shows = [st for st in session.statements if st.kind == "show"]
    # bind the rings, sequences, ideals and the map first: that is set-up
    session.statements = [st for st in session.statements
                          if st.kind != "show"]
    frontend.run_session(session, config)
    expected = json.loads(EXPECTED_CLI.read_text())
    if len(expected) != len(shows):
        raise ValueError(f"{EXPECTED_CLI.name} pins {len(expected)} shows, "
                         f"the session has {len(shows)}")

    for st, pin in zip(shows, expected):
        if pin["show"].split("(")[0] != st.name:
            raise ValueError(f"{EXPECTED_CLI.name} pins {pin['show']!r} "
                             f"where line {st.line} shows {st.name!r}")

    def show(stmt):
        result = frontend.run_command(stmt, session, config)
        return json.loads(frontend.render(result, "json"))

    return [Task(f"{i + 1:02d}-{st.name}", lambda st=st: show(st),
                 pin["answer"])
            for i, (st, pin) in enumerate(zip(shows, expected))]


BUILDERS = {
    "catalan-colon": _catalan_colon,
    "length-tables": _length_tables,
    "cli-session": _cli_session,
}


def build(workload, seed, variant):
    return BUILDERS[workload](Presenter(workload, seed, variant))
