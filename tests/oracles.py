"""Independent brute-force oracles used to cross-check the kernel.

Everything here is deliberately dumb: degree-bounded exact linear algebra
over the rationals, listings of standard monomials, monomial orders as
nested tuple keys, and lattice-point counting for semigroup rings.  No
code is shared with the library under test beyond the Polynomial
container, except that `standard_monomials` may read its lead ideal off a
reduced basis.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

from limclose.idealops import NotMPrimary
from limclose.polycore import Polynomial, GREVLEX


def term_mul(p, exps, coeff):
    """p times the single term coeff * x^exps."""
    return Polynomial(p.vars, {tuple(a + b for a, b in zip(e, exps)):
                               c * coeff for e, c in p.terms.items()})


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def order_key(order, exps):
    """Reference sort key of a MonomialOrder, read from its kind, block
    size and permutation as nested tuples, not from its weight rows:
    ascending key order is ascending monomial order."""
    if order.perm is not None:
        out = [0] * len(exps)
        for i, p in enumerate(order.perm):
            out[p] = exps[i]
        exps = tuple(out)
    if order.kind == "lex":
        return exps
    if order.kind == "grevlex":
        return _grevlex_key(exps)
    if order.kind == "lazard":
        return (sum(exps), exps[-1], _grevlex_key(exps[:-1]))
    head, tail = exps[:order.elim], exps[order.elim:]
    return (_grevlex_key(head), _grevlex_key(tail))


def standard_monomials(I, order=GREVLEX, leads=None):
    """Monomials outside the lead-term ideal (of I's reduced basis under
    order, or spanned by `leads`), listed; raises NotMPrimary unless
    the quotient is a finite-dimensional vector space.  The reference for
    `idealops.count_standard_monomials`."""
    if leads is None:
        leads = [g.lead(order)[0] for g in I.groebner(order).generators]
    nvars = len(I.vars)
    caps = [None] * nvars
    for m in leads:
        nz = [i for i, e in enumerate(m) if e]
        if len(nz) == 1:
            i = nz[0]
            if caps[i] is None or m[i] < caps[i]:
                caps[i] = m[i]
    if any(c is None for c in caps):
        if any(not any(m) for m in leads):
            return []  # unit ideal
        raise NotMPrimary("lead ideal lacks a pure power of some variable")
    out = []
    mono = [0] * nvars

    def rec(i):
        # the standard monomials are closed under division: once a prefix
        # (zeros after it) lies in the lead ideal, so do all larger ones
        for e in range(caps[i]):
            mono[i] = e
            t = tuple(mono)
            if any(all(a <= b for a, b in zip(m, t)) for m in leads):
                break
            if i + 1 == nvars:
                out.append(t)
            else:
                rec(i + 1)
        mono[i] = 0

    rec(0)
    return out


def leibniz_determinant(matrix, vars):
    """Determinant of a square matrix of polynomials as the sum over all
    permutations p of sign(p) * prod_i matrix[i][p(i)], the sign read off
    the inversion count.  The reference for `detmaps.determinant`."""
    n = len(matrix)
    total = Polynomial.zero(vars)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Polynomial.constant((-1) ** inversions, vars)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def monomials_up_to(nvars, max_deg):
    """All exponent tuples of total degree <= max_deg, in a fixed order."""
    out = []
    for exps in product(range(max_deg + 1), repeat=nvars):
        if sum(exps) <= max_deg:
            out.append(exps)
    out.sort()
    return out


def _int_row(vec):
    """The non-zero entries of a rational vector as a sparse primitive
    integer row {column: value}: denominators cleared, content divided out."""
    entries = {i: Fraction(c) for i, c in enumerate(vec) if c}
    den = lcm(*(c.denominator for c in entries.values()))
    return _primitive({i: int(c * den) for i, c in entries.items()})


def _primitive(row):
    content = gcd(*row.values())
    if content in (0, 1):
        return row
    return {i: c // content for i, c in row.items()}


class EchelonBasis:
    """Row echelon basis of the span of the vectors added so far, kept
    fraction-free: each row is a sparse primitive integer row whose lowest
    column, its pivot, is the pivot of no other row."""

    def __init__(self, vectors=()):
        self.rows = {}      # pivot column -> row
        for v in vectors:
            self.add(v)

    def residue(self, vec):
        """vec reduced by the rows by cross-multiplication until its lowest
        column is no pivot: empty exactly when vec lies in the span."""
        row = _int_row(vec)
        while row:
            p = min(row)
            piv = self.rows.get(p)
            if piv is None:
                break
            g = gcd(row[p], piv[p])
            a, b = row[p] // g, piv[p] // g
            row = {i: b * c for i, c in row.items()}
            for i, c in piv.items():
                s = row.get(i, 0) - a * c
                if s:
                    row[i] = s
                else:
                    del row[i]
            row = _primitive(row)
        return row

    def add(self, vec):
        row = self.residue(vec)
        if row:
            self.rows[min(row)] = row


def rank_exact(vectors):
    """Rank of a list of rational vectors."""
    return len(EchelonBasis(vectors).rows)


def in_span(vectors, target):
    """Exact membership of target in the rational span of vectors."""
    return not EchelonBasis(vectors).residue(target)


def _poly_vector(p, monos):
    index = {m: i for i, m in enumerate(monos)}
    vec = [Fraction(0)] * len(monos)
    for e, c in p.terms.items():
        if e not in index:
            return None   # degree overflow: caller chose the bound too small
        vec[index[e]] = Fraction(c)
    return vec


def member_oracle(f, gens, cof_deg):
    """Global membership by brute force: is f = sum h_i g_i solvable with
    deg h_i <= cof_deg?  Sound for 'yes'; a 'no' only rules out bounded
    cofactors."""
    if f.is_zero():
        return True
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    nvars = len(f.vars)
    shifts = monomials_up_to(nvars, cof_deg)
    row_deg = cof_deg + max(g.total_degree() for g in gens)
    row_deg = max(row_deg, f.total_degree())
    monos = monomials_up_to(nvars, row_deg)
    columns = []
    for g in gens:
        for s in shifts:
            columns.append(_poly_vector(term_mul(g, s, 1), monos))
    target = _poly_vector(f, monos)
    return in_span(columns, target)


def local_member_oracle(f, gens, trunc_deg):
    """Local membership at the origin via Krull truncation: f lies in the
    localized ideal iff f is in (gens) + m^N for every N.

    Membership in (gens) + m^N is exact linear algebra in the truncated
    polynomial ring.  Returns the verdict at N = trunc_deg: False is a
    certificate of local non-membership; True at a generous N is the
    membership verdict.
    """
    nvars = len(f.vars)
    monos = [m for m in monomials_up_to(nvars, trunc_deg - 1)]

    def truncate_vec(p):
        index = {m: i for i, m in enumerate(monos)}
        vec = [Fraction(0)] * len(monos)
        for e, c in p.terms.items():
            if sum(e) < trunc_deg:
                vec[index[e]] = Fraction(c)
        return vec

    columns = []
    shifts = monomials_up_to(nvars, trunc_deg - 1)
    for g in gens:
        if g.is_zero():
            continue
        for s in shifts:
            columns.append(truncate_vec(term_mul(g, s, 1)))
    return in_span(columns, truncate_vec(f))


def local_length_oracle(gens, N):
    """dim K[x]/((gens) + m^N): the monomials of degree < N minus the rank
    of the shifts s*g (deg s < N) truncated below degree N.

    The quotient is supported at the origin, so this is also the length of
    R/(I + m^N)R.  Equal values at N and N+1 mean m^N lies in I + m^(N+1),
    hence in I locally by Nakayama: the value is then the local length of
    R/IR.  At least one generator (possibly zero) fixes the variables.
    """
    nvars = len(gens[0].vars)
    monos = monomials_up_to(nvars, N - 1)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for s in monos:
            vec = [0] * len(monos)
            for e, c in g.terms.items():
                t = tuple(a + b for a, b in zip(e, s))
                if sum(t) < N:
                    vec[index[t]] = c
            if any(vec):
                rows.append(vec)
    return len(monos) - rank_exact(rows)


# ---------------------------------------------------------------------------
# semigroup counting for monomial-curve / Veronese fixtures
# ---------------------------------------------------------------------------

def semigroup_elements(generators, bound):
    """All lattice points of the semigroup generated by `generators`
    (tuples), with every coordinate < bound.  Includes the origin."""
    gens = [tuple(g) for g in generators]
    seen = {tuple([0] * len(gens[0]))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if all(c < bound for c in q) and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def quotient_count(ring_gens, ideal_shifts, bound):
    """Length of (semigroup ring)/(monomial ideal): count ring semigroup
    points not reachable as shift + ring point, coordinates < bound.

    ideal_shifts are the exponent vectors of the ideal generators.
    """
    ring_pts = semigroup_elements(ring_gens, bound)
    ideal_pts = set()
    for s in ideal_shifts:
        for p in ring_pts:
            q = tuple(a + b for a, b in zip(s, p))
            if all(c < bound for c in q):
                ideal_pts.add(q)
    return len([p for p in ring_pts if p not in ideal_pts])


def contracted_quotient_count(ring_gens, big_gens, ideal_shifts, bound):
    """Length of R/(I S cap R) for semigroup rings R inside S: count points
    of R's semigroup that are NOT of the form shift + (point of S's
    semigroup), coordinates < bound."""
    ring_pts = semigroup_elements(ring_gens, bound)
    big_pts = semigroup_elements(big_gens, bound)
    contracted = set()
    for s in ideal_shifts:
        for p in big_pts:
            q = tuple(a + b for a, b in zip(s, p))
            if all(c < bound for c in q) and q in ring_pts:
                contracted.add(q)
    return len([p for p in ring_pts if p not in contracted])
