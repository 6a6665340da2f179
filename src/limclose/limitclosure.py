"""Limit closures: stabilization of the colon chain, mixed-power closures,
and the monomial-property test.

The closure of x_1, ..., x_r is the increasing union over n of
(x_1^{n+1}, ..., x_r^{n+1}) : (x_1 ... x_r)^n, taken in the local ring.
Stabilization is detected by a window of consecutive locally-equal chain
terms (`_stabilize`, which also stops the closure intersections of
`structure`); Noetherianity guarantees termination but gives no bound, so the
window is a heuristic and callers cross-check stable values independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .idealops import Ideal, colon_by_product
from .localring import (
    SequenceInR, local_equal, is_local_unit_ideal, is_sop, NotStabilized,
)


DEFAULT_N_MAX = 12


@dataclass
class LimitClosureResult:
    closure: Ideal            # ambient representative, defining ideal adjoined
    stabilization_index: int  # first n with chain[n] == chain[n+1] == ...
    chain: list               # chain[k] is the colon at step k+1
    is_proper: bool           # closure != R locally


@dataclass
class MixedClosureSpec:
    head: SequenceInR
    head_power: int
    tail: SequenceInR
    tail_power: int

    def __post_init__(self):
        if len(self.head) < 1:
            raise ValueError("head must be non-empty")
        if self.head_power < 1 or self.tail_power < 1:
            raise ValueError("powers must be >= 1")
        if self.tail.entries and self.tail.ctx is not self.head.ctx:
            if self.tail.ctx.vars != self.head.ctx.vars:
                raise ValueError("head and tail live in different rings")


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
    base, m = (seq.base, seq.exponent) if seq.base is not None else (seq, 1)
    powered = ctx.adjoin(Ideal(ctx.vars,
                               [e ** (m + n) for e in base.entries]))
    return colon_by_product(powered,
                            [e for e in base.entries for _ in range(n)])


def _stabilize(terms, ctx, n_max, window, what):
    """Chain the first n_max terms of the iterator `terms`, stopped once
    `window` consecutive terms are locally equal; returns the chain and the
    index of the first term of that run.  Raises NotStabilized (carrying the
    partial chain) otherwise."""
    if window < 2:
        raise ValueError(f"stabilization window must be at least 2, "
                         f"got {window}")
    chain = []
    for _, term in zip(range(n_max), terms):
        chain.append(term)
        if len(chain) >= window and all(
                local_equal(chain[-1], chain[-k - 1], ctx)
                for k in range(1, window)):
            return chain, len(chain) - window + 1
    err = NotStabilized(f"{what} did not stabilize within n_max={n_max}")
    err.partial_chain = chain
    raise err


def limit_closure(seq, n_max=DEFAULT_N_MAX, window=2):
    """Iterate colon_step until `window` consecutive chain terms are locally
    equal; raises NotStabilized (carrying the partial chain) otherwise."""
    chain, stable_at = _stabilize((colon_step(seq, n) for n in count(1)),
                                  seq.ctx, n_max, window, "colon chain")
    closure = chain[stable_at - 1]
    # the closure contains J, which has no unit at the origin, so it is
    # locally the unit ideal iff one of its generators is a unit there
    return LimitClosureResult(
        closure=closure,
        stabilization_index=stable_at,
        chain=chain,
        is_proper=not is_local_unit_ideal(closure, seq.ctx),
    )


def mixed_colon_step(spec, k):
    """One term of the mixed union:
    ((head^[n(k+1)], tail^[m]) + J) : (head product)^{nk}."""
    ctx = spec.head.ctx
    n, m = spec.head_power, spec.tail_power
    gens = [e ** (n * (k + 1)) for e in spec.head.entries]
    gens += [e ** m for e in spec.tail.entries]
    powered = ctx.adjoin(Ideal(ctx.vars, gens))
    if any(e.is_zero() for e in spec.head.entries):
        return Ideal(ctx.vars, [ctx.one()])
    return colon_by_product(powered, [e ** (n * k) for e in spec.head.entries])


def limit_closure_mixed(spec, n_max=DEFAULT_N_MAX):
    """Stabilized union over k of the mixed colon chain."""
    chain, _ = _stabilize((mixed_colon_step(spec, k) for k in count(1)),
                          spec.head.ctx, n_max, 2, "mixed colon chain")
    return chain[-1]


def monomial_property(seq, n_max=DEFAULT_N_MAX):
    """True iff the closure of the sop is proper, i.e. 1 not in (x)^lim."""
    if not is_sop(seq):
        raise ValueError("sequence is not a system of parameters")
    return limit_closure(seq, n_max=n_max).is_proper
