"""Limit closures: stabilization of the colon chain, exact closure targets,
mixed-power closures, and the monomial-property test.

The closure of x_1, ..., x_r is the increasing union over n of
(x_1^{n+1}, ..., x_r^{n+1}) : (x_1 ... x_r)^n, taken in the local ring.
`colon_step` is the one formula for a chain term: a mixed closure
(head^[n], tail^[m])^lim is the closure of head^[n] in R/(tail^[m]) and
runs through `limit_closure` like any other.

Stabilization is detected by a window of consecutive equal chain terms,
`DEFAULT_WINDOW` of them unless the caller asks for more (`_stabilize`);
Noetherianity guarantees termination but gives no bound, so the window is a
heuristic.  `topo`, `detmap`, `monomial-check` and the closure column of
`ij` skip the window where `closure_target` applies (below).

Only the comparison inside the window is exact.  When the sequence is
m-primary (for a mixed closure: head and tail together), the window runs
over the colengths len R/chain[n] (`_colength`), which two local standard
bases give without a colon; the chain increases, so two terms are locally
equal exactly when their colengths are, and the one term returned is then
built by `colon_step`.  Where the colengths are infinite the window
compares the colon terms themselves.

Readers that need the closure only locally (`local_closure`, which
`structure.topology_scan` and `detmaps.detmap_injective` call, and
`closure_colength`) can skip the chain on many rings:

Theorem.  Let x be a sop of R, d = dim R >= 1, and U the largest
submodule of R of dimension < d.  If R/U is Cohen-Macaulay, then
(x)^lim = (x) + U.

Proof.  (x)^lim is the kernel of R -> H^d_m(R), r |-> [r/(x_1...x_d)].
Grothendieck vanishing gives H^d_m(U) = 0, so the local cohomology sequence
of 0 -> U -> R -> R/U -> 0 makes H^d_m(R) -> H^d_m(R/U) injective, and
(x)^lim is the preimage of (x R/U)^lim.  x is a sop of R/U, which has
dimension d; on a Cohen-Macaulay R/U it is a regular sequence, so every
chain term ((x^[n+1]) : (x_1...x_d)^n) R/U is (x) R/U, and so is the
closure.  Its preimage is (x) + U.

U is hull(J, d)/J (`LocalRingContext.hull`), and R/U is Cohen-Macaulay
iff one sop of R is R/U-regular; the answer does not depend on the sop,
so `cm_after_u` tests it once per ring.  The same target gives lengths with
no chain: len R/(x)^lim = len R/((x) + U), and, as dim U < d, the
multiplicity e(x; R) = e(x; R/U) = len R/((x) + U) (`structure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import count
from operator import eq, mul

from .idealops import Ideal, colon_by_product, ideal_colon, ideal_sum
from .localring import (
    LocalRingContext, SequenceInR, local_equal, local_contains,
    local_length, is_sop, NotStabilized, NotMPrimary,
)


DEFAULT_N_MAX = 12
DEFAULT_WINDOW = 2


@dataclass
class LimitClosureResult:
    closure: Ideal            # ambient representative, defining ideal adjoined
    stabilization_index: int  # first n with chain[n] == chain[n+1] == ...
    chain: list               # chain[k] stands for the colon at step k+1: its
                              # colength, or the ideal where that is infinite


def _powered(seq, n):
    """(b^[m+n]) and the entries of b, for the sequence's power record
    seq = b^[m], or b = seq and m = 1."""
    base, m = (seq.base, seq.exponent) if seq.base is not None else (seq, 1)
    return (Ideal(seq.ctx.vars, [e ** (m + n) for e in base.entries]),
            base.entries)


def colon_step(seq, n):
    """One term of the union, ambient: ((b^[m+n]) + J) : (b_1...b_r)^n for
    the sequence's power record seq = b^[m], or b = seq and m = 1.

    For m = 1 this is ((x^[n+1]) + J) : (x_1...x_r)^n.  For m > 1 it is a
    term of the cofinal direct system over the base sequence, which has the
    same union as (y^[n+1]) : (y_1...y_r)^n for y = b^[m] (both compute the
    kernel of R/(y) -> H^r, the systems being linked by multiplication by
    powers of b_1...b_r) and much smaller exponents.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = seq.ctx
    if any(e.is_zero() for e in seq.entries):
        # a zero entry: the colon by 0^n is the whole ring
        return Ideal(ctx.vars, [ctx.one()])
    powered, base = _powered(seq, n)
    return colon_by_product(ctx.adjoin(powered),
                            [e for e in base for _ in range(n)])


def _colength(seq, n):
    """len R/colon_step(seq, n), from two local standard bases and no colon.

    With I = (b^[m+n]) and Q = b_1...b_r, the term I : Q^n contains I, and
    modulo I it is the kernel of multiplication by Q^n on M = R/I, whose
    length is that of M/Q^n M.  So
        len R/(I : Q^n) = len R/I - len R/(I + (Q^n)).
    Raises NotMPrimary when (b) is not m-primary."""
    if any(e.is_zero() for e in seq.entries):
        return 0
    powered, base = _powered(seq, n)
    q = reduce(mul, base) ** n
    return (local_length(powered, seq.ctx)
            - local_length(Ideal(powered.vars, powered.gens + [q]), seq.ctx))


def _stabilize(terms, same, n_max, window, what):
    """Chain the first n_max terms of the iterator `terms`, stopped once
    `window` consecutive terms are equal under `same`; returns the chain and
    the index of the first term of that run.  Raises NotStabilized (carrying
    the partial chain) otherwise."""
    if window < 2:
        raise ValueError(f"stabilization window must be at least 2, "
                         f"got {window}")
    chain = []
    for _, term in zip(range(n_max), terms):
        chain.append(term)
        if len(chain) >= window and all(
                same(chain[-1], chain[-k - 1]) for k in range(1, window)):
            return chain, len(chain) - window + 1
    err = NotStabilized(f"{what} did not stabilize within n_max={n_max}")
    err.partial_chain = chain
    raise err


def _colength_window(seq, n_max, window):
    """`_stabilize` over the colengths of the colon chain; raises
    NotMPrimary at the first term when they are infinite."""
    return _stabilize((_colength(seq, n) for n in count(1)), eq, n_max,
                      window, "colon chain")


def limit_closure(seq, n_max=DEFAULT_N_MAX, window=DEFAULT_WINDOW):
    """Iterate the colon chain until `window` consecutive terms are locally
    equal; raises NotStabilized (carrying the partial chain) otherwise.

    An m-primary sequence is windowed over exact colengths, and only the
    returned term is built as a colon; any other sequence is windowed over
    its colon terms."""
    try:
        chain, stable_at = _colength_window(seq, n_max, window)
    except NotMPrimary:
        chain, stable_at = _stabilize(
            (colon_step(seq, n) for n in count(1)),
            partial(local_equal, ctx=seq.ctx), n_max, window, "colon chain")
        closure = chain[stable_at - 1]
    else:
        closure = colon_step(seq, stable_at)
    return LimitClosureResult(closure, stable_at, chain)


def closure_colength(seq, n_max=DEFAULT_N_MAX):
    """len R/(x)^lim for an m-primary sequence: len R/((x) + U) where
    `closure_target` applies, else read off the colength window without
    building the closure; raises NotMPrimary otherwise."""
    target = closure_target(seq)
    if target is not None:
        return local_length(target, seq.ctx)
    chain, stable_at = _colength_window(seq, n_max, DEFAULT_WINDOW)
    return chain[stable_at - 1]


def _regular_modulo(entries, U, ctx):
    """True iff the entries form a regular sequence on R/U locally: for
    each i, (U + (x_<i)) : x_i lies in U + (x_<i).  Colons commute with
    localization, so one ambient colon and one local containment each."""
    for i, e in enumerate(entries):
        head = ideal_sum(U, Ideal(ctx.vars, entries[:i]))
        if not local_contains(ideal_colon(head, e), head, ctx):
            return False
    return True


def cm_after_u(sop):
    """R/U is Cohen-Macaulay, tested on the sop once per ring: it is iff
    the sop is R/U-regular.  When J has at most one generator no colon is
    needed: U = 0 (`idealops.hull`), and R, which is K[x]_m or K[x]_m/(f),
    is Cohen-Macaulay."""
    ctx = sop.ctx
    return ctx.once("cm_after_u", lambda: len(ctx.defining.gens) <= 1
                    or _regular_modulo(sop.entries, ctx.hull(ctx.dim), ctx))


def closure_target(seq):
    """(x) + U, an ambient ideal locally equal to (x)^lim, when d >= 1, seq
    is a sop and R/U is Cohen-Macaulay (the theorem above); None otherwise.
    The sop and Cohen-Macaulay tests run on the base of the sequence's
    power record, and the latter once per ring."""
    ctx = seq.ctx
    base = seq.base if seq.base is not None else seq
    if ctx.dim < 1 or not is_sop(base) or not cm_after_u(base):
        return None
    return ideal_sum(seq.ideal(), ctx.hull(ctx.dim))


def local_closure(seq, n_max=DEFAULT_N_MAX):
    """An ambient ideal locally equal to (x)^lim: the exact target where
    `closure_target` applies, else the stabilized chain's term.  For
    readers that need the closure only locally."""
    return closure_target(seq) or limit_closure(seq, n_max=n_max).closure


def limit_closure_mixed(head, head_power, tail, tail_power,
                        n_max=DEFAULT_N_MAX, window=DEFAULT_WINDOW):
    """(head^[n], tail^[m])^lim: the closure of head^[n] in R/(tail^[m]).
    Modulo tail^[m] the mixed chain is the colon chain of head^[n], so
    `limit_closure` runs over the quotient ring; its closure is an ambient
    ideal containing J + (tail^[m])."""
    if len(head) < 1:
        raise ValueError("head must be non-empty")
    if head_power < 1 or tail_power < 1:
        raise ValueError("powers must be >= 1")
    ctx = head.ctx
    # tail entries have no constant term, so neither has the new relation
    quot = LocalRingContext(ctx.vars, ctx.adjoin(
        Ideal(ctx.vars, [e ** tail_power for e in tail.entries])))
    return limit_closure(
        SequenceInR(head.entries, quot).powers(head_power), n_max, window)


def monomial_property(seq, n_max=DEFAULT_N_MAX):
    """True iff the closure of the sop is proper, i.e. 1 not in (x)^lim."""
    if not is_sop(seq):
        raise ValueError("sequence is not a system of parameters")
    return closure_colength(seq, n_max=n_max) > 0
