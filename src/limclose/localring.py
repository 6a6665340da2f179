"""The local ring R = (K[x_1..x_s]/J) localized at the ideal of all
variables: local membership, local comparison, local length, local
dimension, system-of-parameters tests, m-power containment.

Localization is never represented by fractions.  One global basis of
J + m^k, with m^k the `ideal_power` of the variables, decides m-power
containment (`contained_in_m_power`).  Every other answer is read from
the leading monomials of a standard basis of (I + J)*R for the local
degree order ds, computed by Lazard's homogenization on the global
Buchberger kernel (Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.6-1.7).  Only the lead ideal is needed, so the kernel stops at
the leads of a minimal basis (`groebner.lead_monomials`), which is never
tail-reduced.  The length is the number of monomials outside the lead
ideal, counted by slicing on exponents without listing them
(`idealops.count_standard_monomials`); the dimension is that of the lead
ideal; and since ideals I <= I' of the local ring with equal lead ideals
are equal, I1*R <= I2*R exactly when the lead ideal of (I1 + I2)*R lies in
that of I2*R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import Polynomial, MonomialOrder, VariableMismatch, mono_divides
from .groebner import lead_monomials
from .idealops import (
    Ideal, ideal_sum, ideal_power, count_standard_monomials, hull,
    _fresh_tag_var, _memoized, _lead_dim, NotMPrimary,
)


class NotStabilized(RuntimeError):
    """A chain (colon terms or their colengths, closure intersections,
    Hilbert-Samuel differences) did not stabilize within its cap.
    Stabilization is read off a window of equal terms: the one heuristic
    left."""


@dataclass
class LocalRingContext:
    vars: tuple
    defining: Ideal

    def __post_init__(self):
        self.vars = tuple(self.vars)
        if self.defining.vars != self.vars:
            raise VariableMismatch(f"{self.defining.vars} vs {self.vars}")
        for g in self.defining.gens:
            if g.constant_term:
                raise ValueError(
                    "defining ideal has a unit at the origin; localization is zero")
        self._memo = {}

    def once(self, key, compute):
        """compute(), computed once per key and kept: the one memo of the
        answers that depend on the ring alone."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # -- basic ring elements --------------------------------------------------

    def zero_poly(self):
        return Polynomial.zero(self.vars)

    def one(self):
        return Polynomial.constant(1, self.vars)

    def zero_ideal(self):
        return Ideal(self.vars, [])

    def m_power(self, k):
        """m^k, the k-th power of the ideal of the variables, built once
        per k."""
        return self.once(("m_power", k), lambda: ideal_power(
            Ideal(self.vars, [Polynomial.variable(v, self.vars)
                              for v in self.vars]), k))

    def adjoin(self, I):
        """I + J in the ambient ring."""
        return ideal_sum(I, self.defining)

    @property
    def dim(self):
        return self.once("dim", lambda: local_dim(self.zero_ideal(), self))

    def hull(self, k):
        """hull(J, k): the intersection of the components of J of
        dimension >= k, computed once per k."""
        return self.once(("hull", k), lambda: hull(self.defining, k))

    @property
    def is_unmixed(self):
        """U = hull(J, d)/J, the largest submodule of R of dimension < d,
        is zero locally; tested once per ring."""
        return self.once("unmixed", lambda: local_contains(
            self.hull(self.dim), self.zero_ideal(), self))


@dataclass
class SequenceInR:
    entries: list
    ctx: LocalRingContext
    # power provenance: this sequence is base^[exponent]; lets the colon
    # chain for (x^[n])^lim use the cofinal system with exponents n+s
    # instead of n(s+1)
    base: "SequenceInR" = None
    exponent: int = 1

    def __post_init__(self):
        for e in self.entries:
            if e.vars != self.ctx.vars:
                raise VariableMismatch(f"{e.vars} vs {self.ctx.vars}")
            if e.constant_term:
                raise ValueError(f"sequence entry {e} is a unit at the origin")

    def __len__(self):
        return len(self.entries)

    def ideal(self):
        return Ideal(self.ctx.vars, list(self.entries))

    def powers(self, n):
        """The sequence of n-th powers."""
        root = self.base if self.base is not None else self
        return SequenceInR([e ** n for e in self.entries], self.ctx,
                           base=root, exponent=n * self.exponent)


# ---------------------------------------------------------------------------
# local membership and comparison
# ---------------------------------------------------------------------------

def local_member(f, I, ctx):
    """f in (I + J)*R."""
    return local_contains(Ideal(ctx.vars, [f]), I, ctx)


def local_contains(I1, I2, ctx):
    """I1*R subset of I2*R: every local lead of I1 + I2 is divisible by a
    local lead of I2, since (I2 + J)*R lies in (I1 + I2 + J)*R and nested
    ideals with equal lead ideals are equal."""
    if not I1.gens or is_local_unit_ideal(I2, ctx):
        return True
    leads2 = _local_leads(I2, ctx)
    return all(any(mono_divides(m, a) for m in leads2)
               for a in _local_leads(ideal_sum(I1, I2), ctx))


def local_equal(I1, I2, ctx):
    return local_contains(I1, I2, ctx) and local_contains(I2, I1, ctx)


def is_local_unit_ideal(I, ctx):
    """I*R is the unit ideal iff some generator of I is a unit at the
    origin; J has none (checked by LocalRingContext), so otherwise
    I + J lies inside m."""
    return any(g.constant_term for g in I.gens)


# ---------------------------------------------------------------------------
# the local standard basis: lengths and dimensions
# ---------------------------------------------------------------------------

def _local_leads(I, ctx):
    """Leading monomials of a standard basis of (I + J)*R for ds: the
    generators are homogenized by a fresh last variable h, and a minimal
    basis under the lazard order, with h dropped from its leads, is one
    (Lazard).  The leads, not the basis, are memoized in the shared cache by
    the canonical generators of I + J; a hit returns a fresh list."""
    gens = ctx.adjoin(I).gens

    def leads():
        hvars = ctx.vars + (_fresh_tag_var(ctx.vars),)
        homog = []
        for g in gens:
            d = g.total_degree()
            homog.append(Polynomial(hvars, {e + (d - sum(e),): c
                                            for e, c in g.terms.items()}))
        return tuple(m[:-1] for m in lead_monomials(homog,
                                                    MonomialOrder.lazard()))

    return list(_memoized(ctx.vars, "local leads", gens, leads, len))


def local_length(I, ctx):
    """Length of R/I*R: the number of monomials outside the local lead
    ideal, counted, not listed; raises NotMPrimary when I*R is not
    m-primary."""
    if is_local_unit_ideal(I, ctx):
        return 0
    return count_standard_monomials(_local_leads(I, ctx), len(ctx.vars))


def local_dim(I, ctx):
    """Dimension at the origin of A/(I + J): the dimension of the local
    lead ideal, which has the Hilbert-Samuel function of R/I*R."""
    if is_local_unit_ideal(I, ctx):
        raise ValueError("ideal is locally the unit ideal")
    return _lead_dim(_local_leads(I, ctx), len(ctx.vars))


def is_sop(seq):
    """True iff the sequence has length dim R, is locally proper, and cuts
    the dimension to 0: its local length is finite."""
    ctx = seq.ctx
    I = seq.ideal()
    if len(seq) != ctx.dim or is_local_unit_ideal(I, ctx):
        return False
    try:
        local_length(I, ctx)
    except NotMPrimary:
        return False
    return True


def contained_in_m_power(I, k, ctx):
    """I*R subset of m^k*R.  J + m^k is m-primary, so it is the contraction
    of its extension to R, and the test is that every generator of I lies
    in J + m^k: one memoized global basis, no local one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mk = ctx.adjoin(ctx.m_power(k))
    return all(mk.contains_poly(g) for g in I.gens)
