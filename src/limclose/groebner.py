"""Buchberger's algorithm, multivariate division with cofactor tracking,
reduced canonical bases, ideal membership and equality.

Determinism: divisors are tried in list order with the leading term reduced
first; S-pairs are processed by minimal lcm degree, ties broken by pair
indices.
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

    def leads(self):
        if self._leads is None:
            self._leads = [g.lead(self.order)[0] for g in self.generators]
        return self._leads


def normal_form(f, divisors, order, track=False):
    """Deterministic multivariate division of f by the divisor list, in
    integer arithmetic; with `track`, also the quotient of each divisor.

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
    if any(isinstance(c, Fraction)
           for g in divisors for c in g.terms.values()):
        divisors = [g.primitive() for g in divisors]
    remainder = {}
    cof = [{} if track else None for _ in divisors]
    leads = [g.lead(order) + (g, d) for g, d in zip(divisors, cof)]
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
        for lm, lc, g, quot in leads:
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
        for (_, lc, _, quot), g in zip(leads, given):
            r = Fraction(lc, scale) / g.lead(order)[1]
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


def _s_poly_parts(gi, gj, order):
    """Multipliers (exps, coeff) for each side of the S-polynomial; the
    S-poly is ti*gi - tj*gj with both leading terms mapped to lcm."""
    (mi, ci) = gi.lead(order)
    (mj, cj) = gj.lead(order)
    lcm = mono_lcm(mi, mj)
    return lcm, (mono_div(lcm, mi), cj), (mono_div(lcm, mj), ci)


def buchberger(gens, order=GREVLEX, track=False):
    """Groebner basis of the ideal generated by `gens`.

    With `track`, every basis element carries a cofactor row with one entry
    per input generator, zero generators included.
    """
    n_orig = len(gens)
    basis = []
    rows = []          # cofactor rows over the input gens
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        if track:
            basis.append(g)
            rows.append([Polynomial.constant(int(t == k), g.vars)
                         for t in range(n_orig)])
        else:
            basis.append(g.primitive())
    if not basis:
        return GroebnerBasis([], order, origin_cofactors=[] if track else None)
    vars = basis[0].vars

    pairs = []
    for i in range(len(basis)):
        for j in range(i):
            _enqueue(pairs, basis, i, j, order)

    while pairs:
        deg, j, i, lcm = heapq.heappop(pairs)
        gi, gj = basis[i], basis[j]
        mi = gi.lead(order)[0]
        mj = gj.lead(order)[0]
        if mono_coprime(mi, mj):
            continue
        if _chain_criterion(basis, order, i, j, lcm):
            continue
        _, (ti, ci), (tj, cj) = _s_poly_parts(gi, gj, order)
        s = gi.term_mul(ti, ci) - gj.term_mul(tj, cj)
        if s.is_zero():
            continue
        nf = normal_form(s, basis, order, track=track)
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
        new_i = len(basis) - 1
        for k in range(new_i):
            _enqueue(pairs, basis, new_i, k, order)

    return reduce_basis(
        GroebnerBasis(basis, order, origin_cofactors=rows if track else None))


def _enqueue(pairs, basis, i, j, order):
    mi = basis[i].lead(order)[0]
    mj = basis[j].lead(order)[0]
    lcm = mono_lcm(mi, mj)
    deg = mono_degree(lcm)
    heapq.heappush(pairs, (deg, j, i, lcm))


def _chain_criterion(basis, order, i, j, lcm):
    """Buchberger's chain criterion, strict-divisibility form: skip (i, j)
    if some third lead divides lcm(i, j) while both side lcms are strictly
    smaller.  Strictness makes the elimination order well-founded."""
    mi = basis[i].lead(order)[0]
    mj = basis[j].lead(order)[0]
    for k in range(len(basis)):
        if k == i or k == j:
            continue
        mk = basis[k].lead(order)[0]
        if (mono_divides(mk, lcm)
                and mono_lcm(mi, mk) != lcm
                and mono_lcm(mj, mk) != lcm):
            return True
    return False


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
    nf = normal_form(f, gb.generators, gb.order, track=rows is not None)
    if not nf.remainder.is_zero():
        return False, None
    if rows is None:
        return True, None
    width = len(rows[0]) if rows else 0
    return True, Cofactors(nf.remainder,
                           _row_sum(zip(nf.coefficients, rows), width, f.vars))


def ideal_equal(gb1, gb2):
    """Equality of the generated ideals via reduced-basis identity."""
    if gb1.order != gb2.order:
        raise ValueError("order mismatch")
    return [g.terms for g in gb1.generators] == [g.terms for g in gb2.generators]
