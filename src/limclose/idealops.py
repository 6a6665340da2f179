"""Ideal-level algebra over the ambient polynomial ring: sum, power,
equality, intersection, colon, saturation, elimination, contraction along
ring maps, and the dimension and number of standard monomials of a
monomial (lead-term) ideal.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .polycore import Polynomial, MonomialOrder, GREVLEX, VariableMismatch
from .groebner import buchberger, exact_quotients, ideal_member


class NotMPrimary(ValueError):
    """A (lead) ideal is not primary to the ideal of all variables."""


# Retained-term budget of the process-wide cache: the terms of every cached
# key plus those of its value.
GB_CACHE_TERM_BUDGET = 1000


class _BasisCache:
    """Least-recently-used map from canonical keys to reduced bases, colon
    generators and local lead lists, bounded by the number of polynomial
    terms it retains.  Every key starts with the ring's variables."""

    def __init__(self, budget):
        self.budget = budget
        self.terms = 0
        self.entries = OrderedDict()    # key -> (value, terms)

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, terms):
        if terms > self.budget:     # would evict every other entry
            return
        self.entries[key] = (value, terms)
        self.terms += terms
        while self.terms > self.budget:
            _, (_, dropped) = self.entries.popitem(last=False)
            self.terms -= dropped


_GB_CACHE = _BasisCache(GB_CACHE_TERM_BUDGET)


def _memoized(vars, what, gens, compute, size):
    """compute(), memoized under (vars, what, the set of canonical
    generators of gens): the same key for every permutation, rescaling or
    repetition of the generators (`Polynomial.canonical`).  A value enters
    the cache only once compute() returns, counted as the key's generator
    terms plus size(value); every caller shares it, and none may mutate
    it."""
    canon = frozenset(g.canonical()[1] for g in gens)
    key = (vars, what, canon)
    value = _GB_CACHE.get(key)
    if value is None:
        value = compute()
        _GB_CACHE.put(key, value, sum(map(len, canon)) + size(value))
    return value


def _groebner(vars, gens, order):
    """Reduced basis of (gens) under order.  The reduced basis is unique, so
    it is memoized by canonical generators; a miss runs buchberger on gens
    as given."""
    return _memoized(vars, order, gens, lambda: buchberger(gens, order),
                     lambda gb: sum(len(g.terms) for g in gb.generators))


@dataclass
class Ideal:
    vars: tuple
    gens: list

    def __post_init__(self):
        self.vars = tuple(self.vars)
        self.gens = [g for g in self.gens if not g.is_zero()]
        for g in self.gens:
            if g.vars != self.vars:
                raise VariableMismatch(f"{g.vars} vs {self.vars}")

    def groebner(self, order=GREVLEX):
        return _groebner(self.vars, self.gens, order)

    def reduced_gens(self):
        return self.groebner().generators

    def contains_poly(self, f):
        return ideal_member(f, self.groebner())[0]

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _check_same_ambient(I, J):
    if I.vars != J.vars:
        raise VariableMismatch(f"{I.vars} vs {J.vars}")


def ideal_sum(I, J):
    _check_same_ambient(I, J)
    return Ideal(I.vars, I.gens + J.gens)


def ideal_power(I, k):
    """I^k, one generator per degree-k multiset of the generators of I."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Ideal(I.vars, list(I.gens))
    gens = []
    for combo in combinations_with_replacement(I.gens, k):
        p = combo[0]
        for g in combo[1:]:
            p = p * g
        gens.append(p)
    return Ideal(I.vars, gens)


def _fresh_tag_var(vars, name="@t"):
    """name, with underscores appended until it is not among vars."""
    while name in vars:
        name += "_"
    return name


def ideal_intersect(I, J):
    """I cap J via one tag variable t: eliminate t from t*I + (1-t)*J.  The
    elimination basis is asked for once and bypasses the cache."""
    _check_same_ambient(I, J)
    if not I.gens or not J.gens:
        return Ideal(I.vars, [])
    t_name = _fresh_tag_var(I.vars)
    big_vars = (t_name,) + I.vars
    t = Polynomial.variable(t_name, big_vars)
    one_minus_t = Polynomial.constant(1, big_vars) - t
    gens = [t * g.extend_vars(big_vars) for g in I.gens]
    gens += [one_minus_t * h.extend_vars(big_vars) for h in J.gens]
    gb = buchberger(gens, _elimination_order(big_vars, [t_name]))
    return Ideal(I.vars, [g.restrict_vars(I.vars) for g in gb.generators
                          if not g.involves([t_name])])


def ideal_colon(I, g):
    """I : g = (I cap (g)) / g, memoized in the shared cache by the canonical
    generators of I and g.  The intersection's reduced basis depends only on
    the two ideals, and it is divided by the canonical multiple of g, so a
    hit returns what a miss would: a fresh Ideal over the same quotients."""
    if g.is_zero():
        raise ZeroDivisionError("colon by zero")
    if g.vars != I.vars:
        raise VariableMismatch(f"{g.vars} vs {I.vars}")
    if g.is_constant():
        return Ideal(I.vars, list(I.gens))
    c, gkey = g.canonical()

    def colon():
        inter = ideal_intersect(I, Ideal(I.vars, [c]))
        return tuple(exact_quotients(inter.gens, c, GREVLEX))

    quotients = _memoized(I.vars, ("colon", gkey), I.gens, colon,
                          lambda qs: len(gkey) + sum(len(q.terms) for q in qs))
    return Ideal(I.vars, list(quotients))


def colon_by_product(I, factors):
    """I : (f_1 ... f_k) as a chain of colons, I : (gh) = (I : g) : h, with
    each run of adjacent one-term factors multiplied into one monomial.

    Each colon is a full tag-variable elimination, so the chain takes one
    per monomial run and one per other factor; constant runs are skipped.
    On the quadric's colon table (y^2n, u^2n, v^2n) : (yuv)^n, rows 1-5
    take about 0.1 s in-process this way against about 0.6 s for 3n single
    colons (2-vCPU Xeon VM).  The caller's order is kept because the place
    of the other factors matters: merging all monomials ahead of them took
    colon_step((x+y, u, v)^[2], 3) on the quadric from 0.15 s to 12 s, and
    moving the other factors first slowed the split ring's closures of
    (y, x+z)^[k] by about a third."""
    merged = []
    for f in factors:
        if f.is_zero():
            raise ZeroDivisionError("colon by zero")
        if len(f.terms) == 1 and merged and len(merged[-1].terms) == 1:
            merged[-1] = merged[-1] * f
        else:
            merged.append(f)
    out = I
    for f in merged:
        if not f.is_constant():
            out = ideal_colon(out, f)
    return out


def ideal_colon_ideal(I, J):
    """I : J as the intersection of the colons by J's generators."""
    _check_same_ambient(I, J)
    if not J.gens:
        return Ideal(I.vars, [Polynomial.constant(1, I.vars)])
    out = None
    for g in J.gens:
        c = ideal_colon(I, g)
        out = c if out is None else ideal_intersect(out, c)
    return out


def ideals_equal(I, J):
    """Equality of the ideals: their reduced bases, unique, are equal."""
    _check_same_ambient(I, J)
    return ([g.terms for g in I.reduced_gens()]
            == [g.terms for g in J.reduced_gens()])


def ideal_saturate(I, g):
    """Stabilized colon chain I : g^infinity; returns (ideal, exponent).

    The exponent is the first k with I : g^k = I : g^(k+1); for k = 0 the
    ideal is already saturated.
    """
    if g.is_zero():
        raise ZeroDivisionError("saturation by zero")
    current = I
    k = 0
    while True:
        nxt = ideal_colon(current, g)
        if ideals_equal(current, nxt):
            return current, k
        current = nxt
        k += 1


def hull(J, k):
    """Intersection of the primary components of J of dimension >= k, by
    extension and contraction (Gianni, Trager & Zacharias 1988;
    Greuel-Pfister, ch. 4).

    For a k-subset u of the variables with J cap K[u] = 0, the reduced basis
    of J under the block order that eliminates the other variables is one of
    J*K(u)[others], and J : h_u^infinity, for h_u the product of its
    distinct leading coefficients in K[u], is the intersection of the
    components whose primes meet K[u] only in 0.  Every component of dimension >= k has such a u, so
    the intersection over all of them is the answer; with no such u it is
    the unit ideal.  Components away from the origin are units locally.

    A principal J = (f) needs no loop for k < n: every associated prime of
    a nonzero principal ideal of the factorial ring K[x_1..x_n] is a prime
    (p) for a factor p of f, of height 1, so every component has dimension
    n - 1 >= k and the hull is J."""
    vars = J.vars
    if len(J.gens) == 1 and k < len(vars):
        return Ideal(vars, list(J.gens))
    out = None
    for u in combinations(vars, k):
        rest = [v for v in vars if v not in u]
        if not rest:                        # u is every variable
            if J.gens:
                continue
            return Ideal(vars, [])
        order = _elimination_order(vars, rest)
        basis = _groebner(vars, J.gens, order).generators
        if not all(g.involves(rest) for g in basis):
            # J meets K[u]: h_u has a factor in J, so J : h_u^infinity is
            # the unit ideal and changes nothing
            continue
        idx = [vars.index(v) for v in rest]
        h = Polynomial.constant(1, vars)
        for lc in {_u_coefficient(g, g.lead(order)[0], idx).canonical()[0]
                   for g in basis}:
            h = h * lc
        if h.is_constant():
            return Ideal(vars, list(J.gens))    # one term is J itself
        sat, _ = ideal_saturate(J, h)
        out = sat if out is None else ideal_intersect(out, sat)
    if out is None:
        return Ideal(vars, [Polynomial.constant(1, vars)])
    return out


def _u_coefficient(g, m, idx):
    """Coefficient in K[u] of g at the monomial m in the variables idx."""
    return Polynomial(g.vars, {
        tuple(0 if i in idx else a for i, a in enumerate(e)): c
        for e, c in g.terms.items() if all(e[i] == m[i] for i in idx)})


def _elimination_order(vars, drop_names):
    """Block order on vars that eliminates drop_names: the dropped variables
    come first in the comparison, the others keep their order."""
    keep = tuple(v for v in vars if v not in drop_names)
    new_vars = tuple(drop_names) + keep
    return MonomialOrder.block(len(drop_names),
                               perm=tuple(new_vars.index(v) for v in vars))


def eliminate(I, drop_names):
    """Generators of I cap K[remaining vars], via a block elimination order."""
    # a repeated name would give the block order a wrong permutation
    drop_names = list(dict.fromkeys(drop_names))
    for n in drop_names:
        if n not in I.vars:
            raise VariableMismatch(f"unknown variable {n!r}")
    if not drop_names:
        return Ideal(I.vars, list(I.gens))
    gb = _groebner(I.vars, I.gens, _elimination_order(I.vars, drop_names))
    kept = [g for g in gb.generators if not g.involves(drop_names)]
    return Ideal(I.vars, kept)


@dataclass
class RingMapPresentation:
    """A ring map between two finitely presented rings.

    images[v] is the target polynomial the source variable v maps to.
    Construction verifies the map is well defined: images of the source
    defining ideal must land in the target defining ideal.
    """
    source_vars: tuple
    source_ideal: Ideal
    target_vars: tuple
    target_ideal: Ideal
    images: dict

    def __post_init__(self):
        self.source_vars = tuple(self.source_vars)
        self.target_vars = tuple(self.target_vars)
        for v in self.source_vars:
            if v not in self.images:
                raise ValueError(f"no image for source variable {v!r}")
        for g in self.source_ideal.gens:
            img = g.substitute(self.images)
            if not self.target_ideal.contains_poly(img):
                raise ValueError(
                    f"map not well defined: image of {g} not in target ideal")

    def apply(self, f):
        return f.substitute(self.images)


def contract(ring_map, ideal_in_target):
    """Preimage of an ideal along a ring map, via the graph ideal.

    Works in K[target vars + source vars] with the target presentation
    relations adjoined, so this is a ring-map preimage.
    """
    src = ring_map.source_vars
    tgt = ring_map.target_vars
    # a source variable named like a target one gets a name no ring uses
    taken = set(src) | set(tgt)
    ren = {}
    for v in src:
        ren[v] = _fresh_tag_var(taken, f"{v}__src") if v in tgt else v
        taken.add(ren[v])
    big_vars = tuple(tgt) + tuple(ren[v] for v in src)

    gens = [g.extend_vars(big_vars) for g in ring_map.target_ideal.gens]
    gens += [g.extend_vars(big_vars) for g in ideal_in_target.gens]
    for v in src:
        sv = Polynomial.variable(ren[v], big_vars)
        gens.append(sv - ring_map.images[v].extend_vars(big_vars))
    elim = eliminate(Ideal(big_vars, gens), list(tgt))
    sub_vars = tuple(ren[v] for v in src)
    return Ideal(src, [Polynomial(src, g.restrict_vars(sub_vars).terms)
                       for g in elim.gens])


def _lead_dim(leads, nvars):
    """dim K[x_1..x_nvars]/(leads) for a proper monomial ideal: the maximal
    cardinality of a variable subset that supports no lead."""
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if not any(_supported_in(m, sset) for m in leads):
                return size


def _supported_in(m, sset):
    return all(e == 0 or i in sset for i, e in enumerate(m))


def count_standard_monomials(leads, nvars):
    """The number of monomials over nvars variables that no exponent tuple
    in `leads`, minimal or not, divides, counted without listing them: 0
    when some lead is the unit monomial; raises NotMPrimary unless some
    lead is a pure power of every variable."""
    powers = set()
    for m in leads:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return 0
        if len(support) == 1:
            powers.add(support[0])
    if len(powers) < nvars:
        raise NotMPrimary("the ideal is not m-primary locally")
    return _count_standard(leads) if nvars else 1


def _count_standard(leads):
    """The count for leads over n >= 1 variables, a pure power of each
    among them and none the unit monomial (Bayer & Stillman 1992,
    "Computation of Hilbert functions"): slice on the first exponent.  Let
    x_1^cap be the least pure power of x_1 among the leads.  Between
    consecutive distinct first exponents lo < hi of the leads, capped at
    cap, x_1^e * u with lo <= e < hi is standard exactly when u is standard
    for the leads of first exponent at most lo, with x_1 dropped; from cap
    on, nothing is."""
    if len(leads[0]) == 1:
        return min(m[0] for m in leads)
    cap = min(m[0] for m in leads if not any(m[1:]))
    total = 0
    lo = 0
    rest = []          # the leads of first exponent at most lo, x_1 dropped
    for m in sorted(m for m in leads if m[0] < cap):
        if m[0] > lo:
            total += (m[0] - lo) * _count_standard(rest)
            lo = m[0]
        rest.append(m[1:])
    return total + (cap - lo) * _count_standard(rest)
