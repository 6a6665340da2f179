"""Buchberger's algorithm, multivariate division with cofactor tracking,
reduced canonical bases, ideal membership.

Inside the kernel a monomial is one int (Monagan & Pearce 2011, "Sparse
polynomial division using a heap"), its order key above its exponents.
The low bits hold one field per variable, and the top bit of each field is
a guard bit that stays clear: a | b exactly when b - a sets no guard bit in
the low bits.  The order key folds the order's integer weight rows
(`MonomialOrder.rows`) into one int with a radix wider than any row value,
so keys compare like `MonomialOrder.key`; keys and exponents both add
under a product, so the fused ints do too, and compare like the key, which
tells monomials apart.  A polynomial is packed once per packing (the
`Polynomial` keeps the result); a run unpacks only the reduced basis it
returns, or with `lead_monomials` only the leads of a minimal basis, which
it never tail-reduces; a field that would overflow restarts the run with
wider fields.  Every basis element is kept integer-primitive, so division
never meets a fraction.  One driver, `normal_form`, divides: membership,
with or without a certificate, is one normal form by the basis, and an
exact quotient one normal form by the divisor.

Cofactors ride in the packed polynomial, as in Singular's `lift`: a
tracked run enters generator k as a * (g_k * T + e_k), in a packing with a
field for T and one per generator.  T's weight row is on top, so every
T-term lies above every e-term, and an e-term is never a lead nor
divisible: an element's e-terms hold its cofactor row, and a division's
remainder holds minus each quotient.  Pairs, reducers and the update read
leads only, so a tracked run takes the untracked run's steps on multiples
of its elements; a remainder with no T-term is a syzygy, and is dropped.

Determinism: the division heap pops terms by descending int, that is by
descending order key, and divisors are tried in list order.  Each new
basis element passes through one Gebauer-Moeller update, which decides
once which of its pairs are queued and which queued pairs are dropped; the
queued S-pairs are then processed by minimal lcm degree, ties broken by
pair indices.  A heap entry
is unique per pair, so purging the dropped entries from the heap cannot
change which pair is processed next.  Field width changes neither choice,
so a widened run gives the same basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .polycore import Polynomial, MonomialOrder, GREVLEX


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


class _Overflow(Exception):
    """An exponent reached a guard bit: rerun with wider fields."""


class _Packing:
    """Monomials over n variables as ints (key << width) + exponents; the
    exponent ints alone, the variables' fields `exps`, serve the pair
    update.  With `tags`, fields for T and for e_0, e_1, ... follow (see
    the module docstring), weighted by a unit row each: T's on top, the
    tags' below the order's rows."""

    def __init__(self, order, n, bits, tags=None):
        self.bits = bits
        fields = n if tags is None else n + 1 + tags
        self.width = fields * bits
        self.exps = (1 << n * bits) - 1
        self.shifts = range(0, n * bits, bits)
        cap = 1 << (bits - 1)
        self.low = cap - 1                  # largest exponent a field holds
        self.guard = sum(cap << s for s in range(0, self.width, bits))
        rows = order.rows(n)
        if tags is not None:
            units = [tuple(int(i == j) for j in range(fields))
                     for i in range(n, fields)]
            rows = (units[:1] + [r + (0,) * (1 + tags) for r in rows]
                    + units[1:])
        radix = self.low * max((sum(map(abs, r)) for r in rows), default=0) + 1
        # the fused int of field i: its key coefficient above its unit
        self.weights = [(sum(r[i] * radix ** (len(rows) - 1 - k)
                             for k, r in enumerate(rows)) << self.width)
                        + (1 << bits * i) for i in range(fields)]
        # the fused ints of T and of each e_k (T is 0 without tags)
        self.t, *self.e = self.weights[n:] or [0]

    def unpack(self, m):
        low = self.low
        return tuple([(m >> s) & low for s in self.shifts])

    def fuse(self, m):
        """The fused int of the monomial whose exponents m holds; with
        tags, times T."""
        return sum(map(mul, self.weights, self.unpack(m))) + self.t

    def degree(self, m):
        return sum(self.unpack(m))

    def lcm(self, a, b):
        """The lcm of two exponent ints."""
        guard = self.guard
        ge = ((a | guard) - b) & guard      # guard set where a_i >= b_i
        mask = ge - (ge >> (self.bits - 1))  # low bits of those fields
        return (a & mask) | (b & ~mask)

    def pack(self, p):
        """`_pack(p)`, kept on p per packing (`Polynomial.once`): the terms
        are a tuple, shared read-only."""
        return p.once(self, self._pack, p)

    def _pack(self, p):
        """(terms, r): the integer-primitive multiple r * p as a tuple of
        (fused monomial, coefficient), leading term first."""
        if not p.terms:
            return (), 1
        low, weights = self.low, self.weights
        den = lcm(*(c.denominator for c in p.terms.values()))
        ints = [c.numerator * (den // c.denominator) for c in p.terms.values()]
        content = gcd(*ints)
        terms = []
        for e, c in zip(p.terms, ints):
            if e and max(e) > low:
                raise _Overflow
            terms.append((sum(map(mul, weights, e)), c // content))
        terms.sort(reverse=True)
        return tuple(terms), _ratio(den, content)


_packing = lru_cache(maxsize=64)(_Packing)     # shared, never mutated


def _ratio(a, b):
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _bits(polys):
    """Field width that holds every exponent of polys with room for
    products: at least 8 bits, guard included."""
    top = max((x for p in polys for e in p.terms for x in e), default=0)
    return max(8, top.bit_length() + 2)


def _widening(bits, run):
    """run(bits), doubling the width after each overflow."""
    while True:
        try:
            return run(bits)
        except _Overflow:
            bits *= 2


def _tagged(packing, g, k):
    """The packed terms of the non-zero g; with tags, those of the
    primitive a * (g * T + e_k), where a is the numerator of the ratio r
    that `pack` returns with r * g."""
    terms, r = packing.pack(g)
    if not packing.t:
        return terms
    r = Fraction(r)
    return ([(f + packing.t, c * r.denominator) for f, c in terms]
            + [(packing.e[k], r.numerator)])


def _split(packing, vars, terms, r):
    """[T-part, e_0 part, e_1 part, ...] of packed terms, times r, as
    Polynomials; without tags, [the polynomial]."""
    parts = [{} for _ in range(1 + len(packing.e))]
    top, low = packing.exps.bit_length(), (1 << packing.width) - 1
    for f, c in terms:
        # the one field above the variables' that is set: T's, or e_k's
        parts[((f & low) >> top).bit_length() // packing.bits][
            packing.unpack(f)] = c * r
    return [Polynomial(vars, part) for part in parts]


def _reducer(terms):
    """(lead, lead coefficient, tail) of a non-zero packed polynomial."""
    f, c = terms[0]
    return f, c, terms[1:]


def _primitive(terms):
    """The terms divided by their positive integer content."""
    content = gcd(*(c for _, c in terms))
    return terms if content == 1 else [(f, c // content) for f, c in terms]


def _divide(guard, terms, reducers):
    """Fraction-free division of a packed integer polynomial, given as
    (monomial, coefficient) pairs that may repeat a monomial and may have
    overflowed (as sums of packed monomials), by integer reducers tried in
    list order.  Returns (remainder, S) with
    S * input = sum(quotient_i * reducer_i) + remainder, the remainder a
    descending list of pairs.

    The working polynomial is kept as S * (true value) for a running integer
    scale S: dividing a term by a leading coefficient that does not divide it
    exactly rescales everything instead of introducing fractions.
    """
    work = {}
    heap = []
    for f, c in terms:
        if f & guard:
            raise _Overflow
        old = work.get(f)
        if old is None:
            work[f] = c
            heap.append(-f)
        elif old + c:
            work[f] = old + c
        else:
            del work[f]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder = {}
    scaled = (work, remainder)          # held at scale S, rescaled together
    scale = 1
    rescales = 0
    # lazy max-heap over the working terms: stale entries (monomials no
    # longer present in work) are skipped on pop
    while heap:
        f = -heappop(heap)
        c = work.pop(f, None)
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
        for red in reducers:
            if not (f - red[0]) & guard:
                break
        else:
            remainder[f] = c
            continue
        lf, lc, tail = red
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
        qf = f - lf
        for e, gc in tail:
            fe = qf + e
            if fe & guard:
                raise _Overflow
            old = work.get(fe, 0)
            s = old - q * gc
            if s:
                work[fe] = s
                if not old:
                    heappush(heap, -fe)
            else:
                del work[fe]
    return list(remainder.items()), scale


def normal_form(f, divisors, order, track=False):
    """Deterministic multivariate division of f by the non-zero divisor
    list, in integer arithmetic; with `track`, also the quotient of each
    divisor.  The divisors are replaced by integer-primitive multiples,
    tagged with `track` (`_tagged`), and f * T by r * f * T; at the
    division's scale S, the remainder is its T-part / (S * r), and the
    quotient of g_k is -(its e_k part) / (S * r)."""
    vars = f.vars
    if any(g.is_zero() for g in divisors):
        raise ValueError("division by zero")

    def run(bits):
        packing = _packing(order, len(vars), bits,
                           len(divisors) if track else None)
        reducers = [_reducer(_tagged(packing, g, k))
                    for k, g in enumerate(divisors)]
        work, r = packing.pack(f)
        rem, scale = _divide(packing.guard,
                             [(e + packing.t, c) for e, c in work], reducers)
        rem, *quotients = _split(packing, vars, rem, _ratio(1, scale * r))
        return Cofactors(rem, [-q for q in quotients])

    return _widening(_bits([f] + list(divisors)), run)


def exact_quotients(polys, g, order):
    """[p / g for p in polys] for a non-zero g that divides every p;
    raises ValueError on a remainder."""
    out = []
    for p in polys:
        nf = normal_form(p, [g], order, track=True)
        if not nf.remainder.is_zero():
            raise ValueError("not exactly divisible")
        out.append(nf.coefficients[0])
    return out


def buchberger(gens, order=GREVLEX, track=False):
    """Groebner basis of the ideal generated by `gens`.

    With `track`, every basis element carries a cofactor row with one entry
    per input generator, zero generators included.
    """
    gens = list(gens)
    if all(g.is_zero() for g in gens):
        return GroebnerBasis([], order, origin_cofactors=[] if track else None)

    vars = gens[0].vars

    def run(bits):
        packing = _packing(order, len(vars), bits,
                           len(gens) if track else None)
        reduced = _reduce(packing, *_complete(gens, packing))
        # the monic forms of the reduced elements, and their rows
        split = [_split(packing, vars, [(lf, lc), *tail], _ratio(1, lc))
                 for lf, lc, tail in reduced]
        return GroebnerBasis([g for g, *_ in split], order, origin_cofactors=(
            [row for _, *row in split] if track else None))

    return _widening(_bits(gens), run)


def lead_monomials(gens, order=GREVLEX):
    """The leading monomials of the reduced basis of (gens), ascending:
    those of `buchberger(gens, order).generators`.  A minimal basis has the
    same leads, so they are read from the pair loop's packed basis, which is
    neither tail-reduced nor unpacked."""
    gens = list(gens)
    if all(g.is_zero() for g in gens):
        return ()

    def run(bits):
        packing = _packing(order, len(gens[0].vars), bits)
        reducers, keep = _complete(gens, packing)
        return tuple(map(packing.unpack, sorted(reducers[i][0] for i in keep)))

    return _widening(_bits(gens), run)


def _complete(gens, packing):
    """The pair loop: (reducers, keep) for a Groebner basis of the non-zero
    gens, packed primitive (`_tagged`), with the indices `keep` of a
    minimal basis among its elements (`_minimal`)."""
    guard, exps = packing.guard, packing.exps
    reducers = []      # one per basis element (see _reducer)
    leads = []         # exponent int of each basis element's lead
    active = []        # indices new pairs may use (see _update)
    pairs = []         # heap of (lcm degree, j, i, lcm) with j < i
    dead = set()       # still queued (j, i) that a later update dropped
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        reducers.append(_reducer(_tagged(packing, g, k)))
        leads.append(reducers[-1][0] & exps)
        active = _update(packing, leads, active, pairs, dead)
    n_in = len(leads)

    while pairs:
        _, j, i, m = heapq.heappop(pairs)
        if (j, i) in dead:
            dead.remove((j, i))
            continue
        lfi, lci, taili = reducers[i]
        lfj, lcj, tailj = reducers[j]
        mf = packing.fuse(m)
        # s = ci*ti*gi - cj*tj*gj cancels the two leading terms
        g0 = gcd(lci, lcj)
        ci, cj = lcj // g0, lci // g0
        ti, tj = mf - lfi, mf - lfj
        s = [(ti + f, ci * c) for f, c in taili]
        s += [(tj + f, -cj * c) for f, c in tailj]
        rem, _ = _divide(guard, s, reducers)
        # zero, or a syzygy: no term in T's field, the unit above exps
        if not rem or packing.t and not rem[0][0] & (exps + 1):
            continue
        reducers.append(_reducer(_primitive(rem)))
        leads.append(rem[0][0] & exps)
        active = _update(packing, leads, active, pairs, dead)

    return reducers, _minimal(guard, leads, active, n_in)


def _update(packing, leads, active, pairs, dead):
    """Gebauer-Moeller update for the newest element h, of lead leads[-1]
    (Becker-Weispfenning, Groebner Bases, 5.5, UPDATE); returns the new
    active list.  Every element stays a reducer; only pairs read `active`,
    and the leads are exponent ints.

    - Criteria M and F: of the pairs (h, g), g active, drop one whose lcm
      another remaining pair's lcm divides.  Pairs with coprime leads
      (lcm = product) are dropped only after that (product criterion):
      they still drop others.  Scanning the pairs in active order, the
      last pair of an lcm drops the earlier ones; an lcm that another
      strictly divides is dropped, by a later pair or by a kept one of a
      minimal divisor.  So the pairs queued are the last pair of each
      minimal lcm that no coprime pair shares.  A divisor is never a
      larger int, so the sorted distinct lcms meet their divisors first.
    - Criterion B: a live queued pair (g1, g2) dies when lead(h) divides
      its lcm and neither lcm(g1, h) nor lcm(g2, h) equals it.  `dead`
      holds the queued pairs that died; once they outnumber the live ones
      the heap is rebuilt, in place, without them.
    - An active element whose lead lead(h) divides is retired.
    """
    guard = packing.guard
    lcm_of = packing.lcm
    i = len(leads) - 1
    mh = leads[i]
    for _, j, k, m in pairs:
        if (not (m - mh) & guard and (j, k) not in dead
                and m != lcm_of(leads[j], mh) and m != lcm_of(leads[k], mh)):
            dead.add((j, k))
    if 2 * len(dead) > len(pairs):
        pairs[:] = [p for p in pairs if (p[1], p[2]) not in dead]
        heapq.heapify(pairs)
        dead.clear()
    top = packing.bits - 1
    hg = mh | guard
    last = {}          # candidate lcm -> the last active j giving it
    coprime = set()    # candidate lcms of some coprime pair
    kept = []          # the active elements lead(h) does not divide
    for j in active:
        lj = leads[j]
        ge = (hg - lj) & guard              # guard set where h_i >= g_i
        mask = ge - (ge >> top)
        m = (mh & mask) | (lj & ~mask)
        last[m] = j
        if m == mh + lj:
            coprime.add(m)
        if (lj - mh) & guard:
            kept.append(j)
    minimal = []
    for m in sorted(last):
        for m2 in minimal:
            if not (m - m2) & guard:
                break
        else:
            minimal.append(m)
            if m not in coprime:
                heapq.heappush(pairs, (packing.degree(m), last[m], i, m))
    kept.append(i)
    return kept


def _minimal(guard, leads, active, n_in):
    """Indices of a minimal basis among the elements of the given leads:
    those whose lead no other lead strictly divides, and of equal leads the
    first.  No active lead is divisible by a later lead (`_update`), and
    the lead of a reduced S-polynomial by no earlier one.  So only the
    first n_in elements, the inputs, which are not reduced against each
    other, need a test: against the earlier active elements for a strict
    divisor, and against the earlier inputs for an equal lead."""
    keep = []
    for i in active:
        m = leads[i]
        if i < n_in:
            if any(not (m - leads[j]) & guard for j in active if j < i):
                continue
            i = leads.index(m)
        keep.append(i)
    return keep


def _reduce(packing, reducers, keep):
    """Reduced basis, as primitive reducers, of packed primitive reducers,
    given the indices `keep` of a minimal basis among them (`_minimal`):
    tail-reduced, sorted by leading monomial (ascending)."""
    guard = packing.guard
    keep = sorted(keep, key=lambda i: reducers[i][0])
    # tail-reduce in ascending order of the (distinct, irreducible) leads,
    # so each remainder keeps its lead and the list stays sorted
    reduced = []
    for n, i in enumerate(keep):
        lf, lc, rest = reducers[i]
        divisors = reduced + [reducers[k] for k in keep[n + 1:]]
        rem, _ = _divide(guard, [(lf, lc), *rest], divisors)
        reduced.append(_reducer(_primitive(rem)))
    return reduced


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
    coefficients = [Polynomial.zero(f.vars)] * width
    for q, row in zip(nf.coefficients, rows):
        if not q.is_zero():
            coefficients = [a + q * r for a, r in zip(coefficients, row)]
    return True, Cofactors(nf.remainder, coefficients)

