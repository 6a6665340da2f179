"""The local ring R = (K[x_1..x_s]/J) localized at the ideal of all
variables: local membership, local comparison, local length, local
dimension, system-of-parameters tests, m-power containment.

Localization is never represented by fractions.  Membership reduces to a
colon criterion (the colon escapes m iff it contains a unit at the origin);
lengths and dimensions reduce to vector-space dimensions of quotients by
pure variable powers, which are cofinal with the powers of m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .polycore import Polynomial, GREVLEX
from .idealops import (
    Ideal, ideal_sum, ideal_colon, vecspace_dim, standard_monomials,
    NotZeroDimensional, AmbientMismatch,
)


class NotStabilized(RuntimeError):
    """A truncation or colon chain failed to stabilize within its cap."""


class NotMPrimary(ValueError):
    pass


@dataclass
class LocalOptions:
    trunc_start: int = 4
    trunc_max: int = 64
    dim_points: int = 9


@dataclass
class LocalRingContext:
    vars: tuple
    defining: Ideal
    options: LocalOptions = field(default_factory=LocalOptions)

    def __post_init__(self):
        self.vars = tuple(self.vars)
        if self.defining.vars != self.vars:
            raise AmbientMismatch(f"{self.defining.vars} vs {self.vars}")
        for g in self.defining.gens:
            if g.constant_term:
                raise ValueError(
                    "defining ideal has a unit at the origin; localization is zero")
        self._dim = None

    # -- basic ring elements --------------------------------------------------

    def variable(self, name):
        return Polynomial.variable(name, self.vars)

    def zero_poly(self):
        return Polynomial.zero(self.vars)

    def one(self):
        return Polynomial.constant(1, self.vars)

    def zero_ideal(self):
        return Ideal(self.vars, [])

    def ideal(self, gens):
        return Ideal(self.vars, list(gens))

    def maximal_ideal(self):
        return Ideal(self.vars, [self.variable(v) for v in self.vars])

    def m_power(self, k):
        """m^k, generated by all degree-k monomials."""
        n = len(self.vars)
        gens = []
        for combo in combinations_with_replacement(range(n), k):
            e = [0] * n
            for i in combo:
                e[i] += 1
            gens.append(Polynomial.monomial(tuple(e), self.vars))
        return Ideal(self.vars, gens)

    def adjoin(self, I):
        """I + J in the ambient ring."""
        return ideal_sum(I, self.defining)

    @property
    def dim(self):
        if self._dim is None:
            self._dim = local_dim(self.zero_ideal(), self)
        return self._dim


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
                raise AmbientMismatch(f"{e.vars} vs {self.ctx.vars}")
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

    def product(self):
        p = self.ctx.one()
        for e in self.entries:
            p = p * e
        return p


# ---------------------------------------------------------------------------
# local membership and comparison
# ---------------------------------------------------------------------------

def local_member(f, I, ctx):
    """f in (I + J)*A_m, via the colon criterion: (I+J) : f escapes m iff
    some generator of the colon carries a non-zero constant term."""
    if f.is_zero():
        return True
    K = ctx.adjoin(I)
    if K.contains_poly(f):
        return True
    if not K.gens:
        return False
    colon = ideal_colon(K, f)
    return any(g.constant_term for g in colon.reduced_gens())


def local_contains(I1, I2, ctx):
    """I1*R subset of I2*R."""
    return all(local_member(g, I2, ctx) for g in I1.gens)


def local_equal(I1, I2, ctx):
    return local_contains(I1, I2, ctx) and local_contains(I2, I1, ctx)


def is_local_unit_ideal(I, ctx):
    """I*R is the unit ideal iff some generator of I is a unit at the
    origin; J has none (checked by LocalRingContext), so otherwise
    I + J lies inside m."""
    return any(g.constant_term for g in I.gens)


# ---------------------------------------------------------------------------
# truncated dimensions
# ---------------------------------------------------------------------------

def truncated_quotient_dim(I, ctx, N):
    """dim_K of A/(I + J + (v^N for all variables v)).

    The quotient is supported at the origin only, so this equals the length
    of R/(I*R + m^[N]) where m^[N] is the ideal of pure N-th powers.
    """
    gens = list(ctx.adjoin(I).gens)
    gens += [ctx.variable(v) ** N for v in ctx.vars]
    return vecspace_dim(Ideal(ctx.vars, gens))


def _is_origin_only(K, ctx):
    """True if V(K) is globally just the origin: the quotient is finite
    dimensional and every variable is nilpotent modulo K."""
    try:
        dim = vecspace_dim(K)
    except NotZeroDimensional:
        return False
    bound = dim + 1
    return all(K.contains_poly(ctx.variable(v) ** bound) for v in ctx.vars)


def local_length(I, ctx):
    """Length of R/I*R; raises NotMPrimary when the truncated dimensions do
    not stabilize within the configured cap.

    The table N -> dim R/(I*R + m^[N]) is read at N, 2N, 4N, ... and one
    repeated value settles it: equal dimensions at N and 2N mean
    m^[N] lies in I*R + m^[2N], inside I*R + m * m^[N] since
    m^[2N] lies in m * m^[N]; by Nakayama m^[N] lies in I*R, so the value
    is the length.
    """
    K = ctx.adjoin(I)
    if is_local_unit_ideal(I, ctx):
        return 0
    if _is_origin_only(K, ctx):
        # the global quotient already equals the localized one
        return vecspace_dim(K)
    opts = ctx.options
    N = opts.trunc_start
    prev = None
    while N <= opts.trunc_max:
        val = truncated_quotient_dim(I, ctx, N)
        if val == prev:
            return val
        prev = val
        N *= 2
    raise NotMPrimary(
        f"truncated dimensions did not stabilize up to N={opts.trunc_max}; "
        "the ideal is not m-primary locally (or raise trunc_max)")


def local_dim(I, ctx):
    """Dimension at the origin of A/(I + J): growth degree of the
    Hilbert-Samuel style function N -> length(R/(I + m^[N])R).

    Detection is by exact finite differences over the computed table; a
    window of identically-zero (delta+1)-th differences fixes the degree.
    Raises NotStabilized when no degree is detected.
    """
    if is_local_unit_ideal(I, ctx):
        raise ValueError("ideal is locally the unit ideal")
    K = ctx.adjoin(I)
    if _is_origin_only(K, ctx):
        return 0
    npts = ctx.options.dim_points
    vals = [truncated_quotient_dim(I, ctx, N) for N in range(1, npts + 1)]
    try:
        return _growth_degree(vals)
    except NotStabilized:
        # semigroup-type quotients give quasi-polynomial tables; extend the
        # window so the periodic criterion has two full periods to see
        more = max(14, npts + 5)
        vals += [truncated_quotient_dim(I, ctx, N)
                 for N in range(npts + 1, more + 1)]
        return _growth_degree(vals)


def _growth_degree(vals, tail=3, max_period=4):
    """Degree of the eventually (quasi-)polynomial table `vals`.

    Least delta whose (delta+1)-th finite differences either vanish on the
    last `tail` entries, or are periodic with period p <= max_period and
    period sums zero over the last two full periods (the quasi-polynomial
    case: constant leading term, periodic lower terms)."""
    diffs = list(vals)
    for delta in range(len(vals)):
        nxt = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(nxt) >= tail and all(d == 0 for d in nxt[-tail:]):
            return delta
        for p in range(2, max_period + 1):
            if len(nxt) < 2 * p:
                continue
            if sum(nxt[-p:]) == 0 and all(nxt[-i] == nxt[-i - p]
                                          for i in range(1, p + 1)):
                return delta
        if not nxt:
            break
        diffs = nxt
    raise NotStabilized(
        "growth degree undetermined within the computed window (raise dim_points)")


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
    """I*R subset of m^k*R."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return local_contains(I, ctx.m_power(k), ctx)
