"""Buchberger's algorithm, multivariate division with cofactor tracking,
reduced canonical bases, ideal membership and equality.

Determinism: divisors are tried in list order with the leading term reduced
first.  Each new basis element passes through one Gebauer-Moeller update,
which decides once which of its pairs are queued and which queued pairs are
dropped; the queued S-pairs are then processed by minimal lcm degree, ties
broken by pair indices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .polycore import (
    Polynomial, MonomialOrder, GREVLEX,
    mono_mul, mono_div, mono_divides, mono_lcm, mono_degree, mono_coprime,
)


@dataclass
class Cofactors:
    """Division certificate: input = sum(coefficients[i] * divisors[i]) + remainder."""
    remainder: Polynomial
    coefficients: list


@dataclass
class GroebnerBasis:
    generators: list
    order: MonomialOrder
    # rows expressing each generator over the original input generators
    origin_cofactors: list | None = field(default=None, repr=False)

    def __post_init__(self):
        self._leads = None
        self._primitives = None

    def leads(self):
        if self._leads is None:
            self._leads = [g.lead(self.order)[0] for g in self.generators]
        return self._leads

    def primitives(self):
        """Integer-primitive multiples of the generators, which divide like
        the generators themselves (same leads, same remainders)."""
        if self._primitives is None:
            self._primitives = [g.primitive() for g in self.generators]
        return self._primitives


def normal_form(f, divisors, order, track=False, leads=None):
    """Deterministic multivariate division of f by the divisor list, in
    integer arithmetic; with `track`, also the quotient of each divisor.
    `leads`, when given, are the leading monomials of the divisors, which
    must then have integer coefficients only: no divisor is scanned,
    replaced or asked for its lead.

    The working polynomial is kept as S * (true value) for a running integer
    scale S: dividing a term by a leading coefficient that does not divide it
    exactly rescales everything instead of introducing fractions.  Divisors
    with fractional coefficients are replaced by their integer-primitive
    multiples p_i = r_i * g_i, which cancel the same terms.  The quotients by
    the p_i are collected at the same scale S; at the end each is divided by
    S and multiplied by r_i, and the remainder is divided by S.
    """
    vars = f.vars
    given = divisors
    scale = 1
    for c in f.terms.values():
        if isinstance(c, Fraction):
            scale = lcm(scale, c.denominator)
    work = {e: int(c * scale) for e, c in f.terms.items()}
    if leads is None:
        leads = [g.lead(order)[0] for g in divisors]
        if any(isinstance(c, Fraction)
               for g in divisors for c in g.terms.values()):
            divisors = [g.primitive() for g in divisors]
    remainder = {}
    cof = [{} if track else None for _ in divisors]
    reducers = [(m, g.terms[m], g, d) for m, g, d in zip(leads, divisors, cof)]
    # every dict held at scale S: rescaled and divided together
    scaled = [work, remainder] + (cof if track else [])
    negkey = order.negkey
    # lazy max-heap over the working terms: stale entries (monomials no
    # longer present in work) are skipped on pop
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    rescales = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if rescales >= 32:
            # keep the integers small: divide out the common content
            rescales = 0
            g0 = gcd(scale, c, *(v for d in scaled for v in d.values()))
            if g0 > 1:
                scale //= g0
                c //= g0
                for d in scaled:
                    for e in d:
                        d[e] //= g0
        for lm, lc, g, quot in reducers:
            if mono_divides(lm, m):
                if lc == 1:
                    q = c
                elif lc == -1:
                    q = -c
                else:
                    q, rr = divmod(c, lc)
                    if rr:
                        t = abs(lc // gcd(c, lc))
                        scale *= t
                        c *= t
                        for d in scaled:
                            for e in d:
                                d[e] *= t
                        q = c // lc
                        rescales += 1
                q_exp = mono_div(m, lm)
                for e, gc in g.terms.items():
                    if e == lm:
                        continue
                    me = mono_mul(e, q_exp)
                    old = work.get(me, 0)
                    s = old - q * gc
                    if s:
                        work[me] = s
                        if not old:
                            heapq.heappush(heap, (negkey(me), me))
                    else:
                        work.pop(me, None)
                if quot is not None:
                    quot[q_exp] = q
                break
        else:
            remainder[m] = c
    if scale != 1:
        remainder = {e: Fraction(c, scale) for e, c in remainder.items()}
    quotients = []
    if track:
        for (lm, lc, _, quot), g in zip(reducers, given):
            r = Fraction(lc, scale) / g.terms[lm]
            quotients.append(
                Polynomial(vars, {e: v * r for e, v in quot.items()}))
    return Cofactors(Polynomial(vars, remainder), quotients)


def _row_sum(pairs, width, vars):
    """sum(multiplier * row) over (multiplier, cofactor row) pairs: a row of
    `width` polynomials over the input generators."""
    out = [Polynomial.zero(vars)] * width
    for mult, row in pairs:
        if not mult.is_zero():
            out = [a + mult * r for a, r in zip(out, row)]
    return out


def buchberger(gens, order=GREVLEX, track=False):
    """Groebner basis of the ideal generated by `gens`.

    With `track`, every basis element carries a cofactor row with one entry
    per input generator, zero generators included.
    """
    n_orig = len(gens)
    basis = []
    rows = []          # cofactor rows over the input gens
    leads = []         # leading monomial of each basis element
    active = []        # indices new pairs may use (see _update)
    pairs = []         # heap of (lcm degree, j, i, lcm) with j < i
    dead = set()       # queued (j, i) that a later update dropped
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        if track:
            basis.append(g)
            rows.append([Polynomial.constant(int(t == k), g.vars)
                         for t in range(n_orig)])
        else:
            basis.append(g.primitive())
        leads.append(g.lead(order)[0])
        active = _update(leads, active, pairs, dead)
    if not basis:
        return GroebnerBasis([], order, origin_cofactors=[] if track else None)
    vars = basis[0].vars

    while pairs:
        _, j, i, lcm = heapq.heappop(pairs)
        if (j, i) in dead:
            continue
        gi, gj = basis[i], basis[j]
        ti, tj = mono_div(lcm, leads[i]), mono_div(lcm, leads[j])
        # s = ci*ti*gi - cj*tj*gj cancels the two leading terms
        ci, cj = gj.terms[leads[j]], gi.terms[leads[i]]
        s = gi.term_mul(ti, ci) - gj.term_mul(tj, cj)
        if s.is_zero():
            continue
        # untracked elements are primitive integer polynomials already
        nf = normal_form(s, basis, order, track=track,
                         leads=None if track else leads)
        r = nf.remainder
        if r.is_zero():
            continue
        if track:
            # r = ci*ti*gi - cj*tj*gj - sum(q_k g_k); push down to input gens
            mults = [(Polynomial.monomial(ti, vars, ci), rows[i]),
                     (Polynomial.monomial(tj, vars, -cj), rows[j])]
            mults += [(-q, rows[k]) for k, q in enumerate(nf.coefficients)]
            basis.append(r)
            rows.append(_row_sum(mults, n_orig, vars))
        else:
            basis.append(r.primitive())
        leads.append(r.lead(order)[0])
        active = _update(leads, active, pairs, dead)

    return reduce_basis(
        GroebnerBasis(basis, order, origin_cofactors=rows if track else None))


def _update(leads, active, pairs, dead):
    """Gebauer-Moeller update for the newest element h, of lead leads[-1]
    (Becker-Weispfenning, Groebner Bases, 5.5, UPDATE); returns the new
    active list.  Every element stays a reducer; only pairs read `active`.

    - Criteria M and F: of the pairs (h, g), g active, drop one whose lcm
      another remaining pair's lcm divides.  Pairs with coprime leads are
      dropped only after that (product criterion): they still drop others.
    - Criterion B: a queued pair (g1, g2) dies when lead(h) divides its lcm
      and neither lcm(g1, h) nor lcm(g2, h) equals it.
    - An active element whose lead lead(h) divides is retired.
    """
    i = len(leads) - 1
    mh = leads[i]
    new = [(mono_lcm(mh, leads[j]), j) for j in active]
    kept = []
    for n, (m, j) in enumerate(new):
        if mono_coprime(mh, leads[j]) or not any(
                mono_divides(m2, m) for m2, _ in new[n + 1:] + kept):
            kept.append((m, j))
    for _, j, k, m in pairs:
        if (mono_divides(mh, m) and m != mono_lcm(leads[j], mh)
                and m != mono_lcm(leads[k], mh)):
            dead.add((j, k))
    for m, j in kept:
        if not mono_coprime(mh, leads[j]):
            heapq.heappush(pairs, (mono_degree(m), j, i, m))
    return [j for j in active if not mono_divides(mh, leads[j])] + [i]


def reduce_basis(gb):
    """Unique reduced Groebner basis of a basis of non-zero generators:
    minimal, monic, tail-reduced, sorted by leading monomial (ascending)."""
    order = gb.order
    gens = gb.generators
    rows = gb.origin_cofactors
    track = rows is not None
    leads = [g.lead(order)[0] for g in gens]
    # minimalize: drop generators whose lead is divisible by another's lead
    keep = [i for i, m in enumerate(leads)
            if not any(mono_divides(mj, m) and (mj != m or j < i)
                       for j, mj in enumerate(leads) if j != i)]
    keep.sort(key=lambda i: order.key(leads[i]))
    # tail-reduce in ascending order of the (distinct, irreducible) leads,
    # so each remainder keeps its lead and the list stays sorted
    reduced = []
    red_rows = []
    for n, i in enumerate(keep):
        tail = keep[n + 1:]
        nf = normal_form(gens[i], reduced + [gens[k] for k in tail], order,
                         track=track)
        inv = Fraction(1) / nf.remainder.lead(order)[1]
        reduced.append(nf.remainder * inv)
        if track:
            # r = g - sum(q_k * others_k): rows of the reduced prefix are
            # known, the tail still has its input rows
            vars = gens[i].vars
            others = red_rows + [rows[k] for k in tail]
            mults = [(Polynomial.constant(inv, vars), rows[i])]
            mults += [(q * -inv, r) for q, r in zip(nf.coefficients, others)]
            red_rows.append(_row_sum(mults, len(rows[i]), vars))
    return GroebnerBasis(reduced, order,
                         origin_cofactors=red_rows if track else None)


def ideal_member(f, gb):
    """Membership of f in the ideal of gb; returns (bool, Cofactors | None).

    When gb carries origin cofactors and membership holds, the certificate
    expresses f over the input generators; otherwise it is None.
    """
    rows = gb.origin_cofactors
    if rows is None:
        nf = normal_form(f, gb.primitives(), gb.order, leads=gb.leads())
        return nf.remainder.is_zero(), None
    nf = normal_form(f, gb.generators, gb.order, track=True)
    if not nf.remainder.is_zero():
        return False, None
    width = len(rows[0]) if rows else 0
    return True, Cofactors(nf.remainder,
                           _row_sum(zip(nf.coefficients, rows), width, f.vars))


def ideal_equal(gb1, gb2):
    """Equality of the generated ideals via reduced-basis identity."""
    if gb1.order != gb2.order:
        raise ValueError("order mismatch")
    return [g.terms for g in gb1.generators] == [g.terms for g in gb2.generators]
