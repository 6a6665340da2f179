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

from .polycore import (
    Polynomial, MonomialOrder, GREVLEX,
    mono_mul, mono_div, mono_divides, mono_lcm, mono_degree, mono_coprime,
)


@dataclass
class Cofactors:
    """Division certificate: input = sum(coefficients[i] * divisors[i]) + remainder."""
    remainder: Polynomial
    coefficients: list

    def recombine(self, divisors):
        acc = self.remainder
        for c, g in zip(self.coefficients, divisors):
            acc = acc + c * g
        return acc


@dataclass
class GroebnerBasis:
    generators: list
    order: MonomialOrder
    reduced: bool = False
    # rows expressing each generator over the original input generators
    origin_cofactors: list | None = field(default=None, repr=False)

    def __post_init__(self):
        self._leads = None

    def leads(self):
        if self._leads is None:
            self._leads = [g.lead(self.order)[0] for g in self.generators]
        return self._leads


def normal_form(f, divisors, order, track=False):
    """Deterministic multivariate division of f by the divisor list."""
    if not divisors:
        raise ValueError("empty divisor list")
    if not track:
        return _normal_form_fraction_free(f, divisors, order)
    vars = f.vars
    leads = [g.lead(order) + (g,) for g in divisors]
    work = dict(f.terms)
    negkey = order.negkey
    # lazy max-heap over the working terms: stale entries (monomials no
    # longer present in work) are skipped on pop
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    cof = [dict() for _ in divisors]
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for i, (lm, lc, g) in enumerate(leads):
            if mono_divides(lm, m):
                q_exp = mono_div(m, lm)
                q_coef = Fraction(c) / Fraction(lc) if lc != 1 else c
                if isinstance(q_coef, Fraction) and q_coef.denominator == 1:
                    q_coef = int(q_coef)
                # work -= q * g   (leading term cancels by construction)
                for e, gc in g.terms.items():
                    if e == lm:
                        continue
                    me = mono_mul(e, q_exp)
                    old = work.get(me, 0)
                    s = old - q_coef * gc
                    if s:
                        work[me] = s
                        if not old:
                            heapq.heappush(heap, (negkey(me), me))
                    else:
                        work.pop(me, None)
                cof[i][q_exp] = cof[i].get(q_exp, 0) + q_coef
                break
        else:
            remainder[m] = c
    return Cofactors(Polynomial(vars, remainder),
                     [Polynomial(vars, d) for d in cof])


def _normal_form_fraction_free(f, divisors, order):
    """Division without cofactor tracking, in pure integer arithmetic.

    The working polynomial is kept as S * (true value) for a running integer
    scale S: dividing a term by a leading coefficient that does not divide it
    exactly rescales everything instead of introducing fractions.  The exact
    remainder is recovered by one division per term at the end.
    """
    from math import gcd, lcm
    vars = f.vars
    leads = [g.lead(order) + (g,) for g in divisors]
    scale = 1
    for c in f.terms.values():
        if isinstance(c, Fraction):
            scale = lcm(scale, c.denominator)
    work = {e: int(c * scale) for e, c in f.terms.items()}
    if any(isinstance(c, Fraction) for _, _, g in leads
           for c in g.terms.values()):
        # the remainder does not depend on scalar multiples of the divisors:
        # replace fractional divisors by their integer-primitive models
        prim = [g.primitive() for _, _, g in leads]
        leads = [g.lead(order) + (g,) for g in prim]
    negkey = order.negkey
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    rescales = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if rescales >= 32:
            # keep the integers small: divide out the common content
            rescales = 0
            g0 = gcd(scale, c)
            for val in work.values():
                g0 = gcd(g0, val)
            for val in remainder.values():
                g0 = gcd(g0, val)
            if g0 > 1:
                scale //= g0
                c //= g0
                for e in work:
                    work[e] //= g0
                for e in remainder:
                    remainder[e] //= g0
        for lm, lc, g in leads:
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
                        for e in work:
                            work[e] *= t
                        for e in remainder:
                            remainder[e] *= t
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
                break
        else:
            remainder[m] = c
    if scale == 1:
        return Cofactors(Polynomial(vars, remainder), [])
    rem = {e: Fraction(c, scale) for e, c in remainder.items()}
    return Cofactors(Polynomial(vars, rem), [])


def _s_poly_parts(gi, gj, order):
    """Multipliers (exps, coeff) for each side of the S-polynomial; the
    S-poly is ti*gi - tj*gj with both leading terms mapped to lcm."""
    (mi, ci) = gi.lead(order)
    (mj, cj) = gj.lead(order)
    lcm = mono_lcm(mi, mj)
    return lcm, (mono_div(lcm, mi), cj), (mono_div(lcm, mj), ci)


def buchberger(gens, order=GREVLEX, track=False):
    """Groebner basis of the ideal generated by `gens`.

    With `track`, every basis element carries a cofactor row over the input
    generators.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis([], order, reduced=True,
                             origin_cofactors=[] if track else None)
    vars = gens[0].vars
    basis = []
    rows = []          # cofactor rows over the original gens
    n_orig = len(gens)

    def add_element(p, row):
        basis.append(p)
        rows.append(row)

    for k, g in enumerate(gens):
        if track:
            row = [Polynomial.zero(vars) for _ in range(n_orig)]
            row[k] = Polynomial.constant(1, vars)
            add_element(g, row)
        else:
            add_element(g.primitive(), None)

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
            # r = ci*ti*gi - cj*tj*gj - sum(q_k g_k); push down to original gens
            row = [Polynomial.zero(vars) for _ in range(n_orig)]
            contrib = [(i, Polynomial.monomial(ti, vars, ci)),
                       (j, Polynomial.monomial(tj, vars, -cj))]
            contrib += [(k, -q) for k, q in enumerate(nf.coefficients)]
            for k, mult in contrib:
                if mult.is_zero():
                    continue
                for t, rk in enumerate(rows[k]):
                    row[t] = row[t] + mult * rk
            add_element(r, row)
        else:
            add_element(r.primitive(), None)
        new_i = len(basis) - 1
        for k in range(new_i):
            _enqueue(pairs, basis, new_i, k, order)

    gb = GroebnerBasis(basis, order, reduced=False,
                       origin_cofactors=rows if track else None)
    return reduce_basis(gb)


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
    """Unique reduced Groebner basis: minimal, monic, tail-reduced,
    sorted by leading monomial (ascending)."""
    order = gb.order
    gens = [g for g in gb.generators if not g.is_zero()]
    rows = gb.origin_cofactors
    track = rows is not None
    if not gens:
        return GroebnerBasis([], order, reduced=True,
                             origin_cofactors=[] if track else None)
    vars = gens[0].vars

    # minimalize: drop generators whose lead is divisible by another's lead
    keep = []
    leads = [g.lead(order)[0] for g in gens]
    for i, m in enumerate(leads):
        dominated = False
        for j, mj in enumerate(leads):
            if i == j:
                continue
            if mono_divides(mj, m) and (mj != m or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)

    kept = [(gens[i], rows[i] if track else None) for i in keep]
    kept.sort(key=lambda t: order.key(t[0].lead(order)[0]))

    reduced = []
    red_rows = []
    for idx, (g, row) in enumerate(kept):
        others = reduced + [h for h, _ in kept[idx + 1:]]
        if others:
            nf = normal_form(g, others, order, track=track)
            r = nf.remainder
        else:
            nf = None
            r = g
        if r.is_zero():
            continue
        lc = r.lead(order)[1]
        inv = Fraction(1) / Fraction(lc)
        if track:
            new_row = [Polynomial.zero(vars) for _ in row]
            # r = g - sum(q_k * others_k); others rows known for the reduced
            # prefix, original rows for the tail
            tail_rows = red_rows + [rr for _, rr in kept[idx + 1:]]
            contribs = [(row, Polynomial.constant(1, vars))]
            if nf is not None:
                contribs += [(tail_rows[k], -q) for k, q in enumerate(nf.coefficients)]
            for src_row, mult in contribs:
                if mult.is_zero():
                    continue
                for t, rk in enumerate(src_row):
                    new_row[t] = new_row[t] + mult * rk
            new_row = [c * inv for c in new_row]
            red_rows.append(new_row)
        reduced.append(r * inv)

    pairs = sorted(zip(reduced, red_rows if track else [None] * len(reduced)),
                   key=lambda t: order.key(t[0].lead(order)[0]))
    reduced = [p for p, _ in pairs]
    red_rows = [r for _, r in pairs] if track else None
    return GroebnerBasis(reduced, order, reduced=True,
                         origin_cofactors=red_rows)


def ideal_member(f, gb, original_gens=None):
    """Membership of f in the ideal of gb; returns (bool, Cofactors | None).

    When gb carries origin cofactors and membership holds, the certificate
    expresses f over the original generators.
    """
    if not gb.generators:
        return f.is_zero(), Cofactors(f, [])
    nf = normal_form(f, gb.generators, gb.order, track=True)
    if not nf.remainder.is_zero():
        return False, None
    if gb.origin_cofactors is None:
        return True, nf
    n_orig = len(gb.origin_cofactors[0]) if gb.origin_cofactors else 0
    vars = f.vars
    out = [Polynomial.zero(vars) for _ in range(n_orig)]
    for q, row in zip(nf.coefficients, gb.origin_cofactors):
        if q.is_zero():
            continue
        for t, rk in enumerate(row):
            out[t] = out[t] + q * rk
    return True, Cofactors(Polynomial.zero(vars), out)


def ideal_equal(gb1, gb2):
    """Equality of the generated ideals via reduced-basis identity."""
    if gb1.order != gb2.order:
        raise ValueError("order mismatch")
    r1 = gb1 if gb1.reduced else reduce_basis(gb1)
    r2 = gb2 if gb2.reduced else reduce_basis(gb2)
    return [g.terms for g in r1.generators] == [g.terms for g in r2.generators]
