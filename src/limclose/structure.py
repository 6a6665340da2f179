"""Structural invariants of the local ring: unmixed component via
stabilized intersections of limit closures (Theorem A), dimension
filtration, good sops, Hilbert-Samuel tables and multiplicity,
length-difference functions, topology scans, and closure contraction along
finite extensions.

The filtration levels are exact and do not depend on a sop: D_i is
hull(J, i + 1) / J, the intersection of the components of J of dimension
> i by extension and contraction (`idealops.hull`), computed once per
ring and kept on its context with the annihilators J : D_i.  A good sop
for them is built, not searched for (`dimension_filtration`).  The
unmixed component stays on Theorem A, the paper's route, and the hull is
its test oracle.

Lengths come in closed form wherever a theorem gives them, from one local
length each; the tables and windows remain where none applies:
- where R/U is Cohen-Macaulay (`limitclosure.closure_target`), the
  multiplicity of a sop x is len R/((x) + U), and the closure colengths of
  `ij_functions` are len R/((x^[n]) + U);
- where R itself is Cohen-Macaulay, the Hilbert-Samuel lengths of a
  parameter ideal q are len(R/q) C(k + d - 1, d) (`hilbert_samuel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, count
from math import comb

from .polycore import Polynomial
from .idealops import (
    Ideal, ideal_power, ideal_intersect, ideal_colon_ideal, contract,
)
from .localring import (
    LocalRingContext, SequenceInR, local_equal, local_contains, local_member,
    local_length, local_dim, is_sop, is_local_unit_ideal, contained_in_m_power,
    NotStabilized,
)
from .limitclosure import (
    limit_closure, local_closure, closure_colength, closure_target,
    cm_after_u, _stabilize,
)


DEFAULT_INTERSECT_N = 8


@dataclass
class UnmixedComponentResult:
    component: Ideal
    intersection_depth: int


@dataclass
class DimensionFiltration:
    chain: list            # ambient ideals, smallest submodule first; last is R
    dims: list             # module dimensions, strictly increasing; last is d
    sop: SequenceInR       # good for the chain


@dataclass
class HSReport:
    lengths: list          # lengths of R/q^k for k = 1..K
    degree: int | None
    multiplicity: int | None
    polynomial_onset: int | None
    stabilized: bool


@dataclass
class IJTable:
    rows: list             # (n, length, scaled multiplicity, closure length, I, J)
    multiplicity: int
    degree: int


@dataclass
class TopologyScanReport:
    rows: list             # (k, least v or None)
    success: bool
    failure_k: int | None
    witness: Polynomial | None


@dataclass
class CyclicCoverReport:
    equal: bool
    length_mod_closure: int
    length_mod_ideal: int
    closure_excess: int    # length of closure / (ideal)


# ---------------------------------------------------------------------------
# unmixed component (stabilized intersection of closures of powered sops)
# ---------------------------------------------------------------------------

def _small_dimension_part(W, ctx, threshold):
    """Certified subideal of W of module dimension < threshold.

    Elementwise criterion (annihilator characterization of the largest
    small-dimensional submodule).  Every returned generator carries that
    certificate, so the result is always inside the true small part; only
    completeness rests on the caller's stabilization window.
    """
    return Ideal(ctx.vars, [
        g for g in ctx.adjoin(W).reduced_gens()
        if submodule_dim(Ideal(ctx.vars, [g]), ctx) < threshold])


def _stabilized_closure_intersection(seq, ctx, threshold):
    """Theorem A: the dimension-<threshold part of the intersection of the
    closures of seq^[n], n = 1, 2, ...  The raw intersections keep shrinking
    m-adically, so `_stabilize` watches their certified parts.

    Returns (newest chain term, chain length)."""
    closures = (limit_closure(seq.powers(n)).closure for n in count(1))
    parts = (_small_dimension_part(W, ctx, threshold)
             for W in accumulate(closures, ideal_intersect))
    chain, _ = _stabilize(parts, partial(local_equal, ctx=ctx),
                          DEFAULT_INTERSECT_N, 2, "closure intersection")
    return chain[-1], len(chain)


def unmixed_component(ctx, sop):
    """Largest submodule of R of dimension < d, as an ambient ideal: the
    stabilized intersection over n of the closures of the n-th powers of
    the sop (Theorem A)."""
    if not is_sop(sop):
        raise ValueError("sequence is not a system of parameters")
    comp, depth = _stabilized_closure_intersection(sop, ctx, ctx.dim)
    return UnmixedComponentResult(comp, depth)


# ---------------------------------------------------------------------------
# dimension filtration
# ---------------------------------------------------------------------------

def submodule_dim(D, ctx):
    """Dimension of the submodule of R presented by the ambient ideal D:
    dim R/(0 : D) via the ambient annihilator J : D.  The zero submodule has
    dimension -1."""
    if local_contains(D, ctx.zero_ideal(), ctx):
        return -1
    ann = ideal_colon_ideal(ctx.defining, D)
    return local_dim(ann, ctx)


def is_good_sop(sop):
    """Goodness: D_i meets (x_{d_i+1}, ..., x_d) in zero, for every proper
    level of the dimension filtration of the sop's ring."""
    ctx = sop.ctx
    chain, dims = filtration_levels(ctx)
    for D, dim_i in zip(chain[:-1], dims[:-1]):
        tail = Ideal(ctx.vars, list(sop.entries[dim_i:]))
        inter = ideal_intersect(D, ctx.adjoin(tail))
        if not local_contains(inter, ctx.zero_ideal(), ctx):
            return False
    return True


def filtration_levels(ctx):
    """The levels D_0 subset ... subset D_t = R of the dimension filtration
    and their module dimensions, strictly increasing, ending with R and d."""
    chain, dims, _ = _filtration(ctx)
    return list(chain), list(dims)


def _filtration(ctx):
    """(levels, dims, annihilators J : D_i of the proper levels, which give
    their dimensions).  D_i, the largest submodule of dimension <= i, is
    hull(J, i + 1) / J; zero and locally repeated levels are dropped.  No
    sop is involved, so this is computed once per ring (`ctx.once`)."""
    def levels():
        chain, dims, anns = [], [], []
        for j in range(1, ctx.dim + 1):
            K = ctx.hull(j)
            if local_contains(K, ctx.zero_ideal(), ctx) \
                    or chain and local_equal(chain[-1], K, ctx):
                continue
            anns.append(ideal_colon_ideal(ctx.defining, K))
            chain.append(K)
            dims.append(local_dim(anns[-1], ctx))
        chain.append(ctx.adjoin(Ideal(ctx.vars, [ctx.one()])))  # R itself
        dims.append(ctx.dim)
        return chain, dims, anns
    return ctx.once("filtration", levels)


def dimension_filtration(ctx, sop):
    """The dimension filtration of R (`filtration_levels`) with a good sop
    y built from the sop x; y = x when x is good.

    For j = d, ..., 1 let D be the largest proper level of dimension < j.
    y_j is the first candidate c with dim R/(c, y_{>j}) = j - 1: x_j if it
    lies in Ann D or there is no D, then the reduced generators g_1..g_s of
    ((x) + J) cap Ann D (the entries of x when there is no D), then
    t g_1 + t^2 g_2 + ... + t^s g_s for t = 1, 2, ...  The sop returned is
    y^[n] for the least n that passes `is_good_sop`.  Every loop ends:
    - Every candidate lies in (x) + J, so none is a unit at the origin.
    - Prime avoidance: c must avoid the primes P of dimension j minimal
      over (y_{>j}) + J.  Neither (x) + J, m-primary, nor Ann D, with
      dim V(Ann D) = dim D < j, lies in P, nor does their product, which
      lies in ((x) + J) cap Ann D; so some g_k is outside P.
    - Vandermonde: the c in Q^s with sum c_k g_k in P form a proper
      subspace, which holds at most s - 1 of the independent points
      (t, ..., t^s), t > 0; so at most s - 1 values of t fail per P.
    - Artin-Rees: for each proper level D_i, a = (y_j : j > d_i) lies in
      Ann D_i, so a^n cap D_i lies in a^(n - c) D_i = 0 for n > c; and
      (y_j^n : j > d_i) lies in a^n.
    A good x_j lies in Ann D_i for j > d_i, as x_j D_i lies in
    (x_{>d_i}) cap D_i = 0 (good sops: Cuong-Cuong, Kodai Math. J. 30).
    """
    if not is_sop(sop):
        raise ValueError("sequence is not a system of parameters")
    chain, dims = filtration_levels(ctx)
    levels = list(zip(_filtration(ctx)[2], dims))
    y = []
    for j in range(ctx.dim, 0, -1):
        ann = next((a for a, dm in reversed(levels) if dm < j), None)
        y.insert(0, next(c for c in _candidates(sop, j, ann)
                         if local_dim(Ideal(ctx.vars, [c, *y]), ctx) == j - 1))
    y = SequenceInR(y, ctx)
    return DimensionFiltration(chain, dims, next(
        s for s in map(y.powers, count(1)) if is_good_sop(s)))


def _candidates(sop, j, ann):
    """The candidates for y_j in `dimension_filtration`; ann is Ann D."""
    ctx = sop.ctx
    x_j = sop.entries[j - 1]
    if ann is None or local_member(x_j, ann, ctx):
        yield x_j
    gens = sop.entries if ann is None else ideal_intersect(
        ctx.adjoin(sop.ideal()), ann).reduced_gens()
    yield from gens
    for t in count(1):
        yield sum((t ** k * g for k, g in enumerate(gens, 1)), ctx.zero_poly())


# ---------------------------------------------------------------------------
# Hilbert-Samuel function and multiplicity
# ---------------------------------------------------------------------------

def hilbert_samuel(q, ctx, K=8):
    """Lengths of R/q^k for k = 1..K, with the multiplicity read off the
    stable top finite difference.  Soft-fails (stabilized=False) when the
    polynomial onset is not reached within K.

    When R is Cohen-Macaulay and q is generated by a sop, the lengths are
    len R/q^k = len(R/q) C(k + d - 1, d) and only len R/q is computed: a
    sop of a Cohen-Macaulay local ring is a regular sequence, so gr_q(R) is
    the polynomial ring (R/q)[T_1..T_d] (Matsumura, Commutative Ring
    Theory, Thm 16.2), whose degree-j part has length
    len(R/q) C(j + d - 1, d - 1); summing over j < k gives the closed form.
    Its d-th differences are len R/q from k = 1 on, so that is e, with
    onset 1, for every K >= 1.  R is Cohen-Macaulay when U = 0 locally and
    R/U is.  Otherwise each power's length is computed."""
    d = ctx.dim
    if _generated_by_a_regular_sop(q, ctx):
        ell = local_length(q, ctx)
        lengths = [ell * comb(k + d - 1, d) for k in range(1, K + 1)]
        return HSReport(lengths, d, ell, 1, True)
    lengths = [local_length(ideal_power(q, k), ctx) for k in range(1, K + 1)]
    diffs = list(lengths)
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # diffs[k] is the d-th difference starting at k+1
    onset = None
    if len(diffs) >= 2 and diffs[-1] == diffs[-2]:
        e = diffs[-1]
        onset = len(diffs) - 1
        while onset > 0 and diffs[onset - 1] == e:
            onset -= 1
        return HSReport(lengths, d, e, onset + 1, True)
    return HSReport(lengths, d, None, None, False)


def _generated_by_a_regular_sop(q, ctx):
    """R is Cohen-Macaulay and the generators of q, none a local unit, are
    d elements forming a sop of R."""
    if is_local_unit_ideal(q, ctx) or len(q.gens) != ctx.dim:
        return False
    seq = SequenceInR(q.gens, ctx)
    return is_sop(seq) and ctx.is_unmixed and cm_after_u(seq)


def multiplicity(seq, K=8):
    """Samuel multiplicity e(x; R) of the parameter ideal generated by the
    sop x.

    Where `closure_target` gives (x) + U, this is len R/((x) + U), whatever
    K: multiplicity is additive on 0 -> U -> R -> R/U -> 0 and vanishes on
    U, of dimension < d, so e(x; R) = e(x; R/U), and on the Cohen-Macaulay
    R/U it is len (R/U)/(x) (Matsumura, Commutative Ring Theory,
    Thm 17.11).  Otherwise it is read off `hilbert_samuel` with K powers
    and raises NotStabilized when their top differences have not settled."""
    if not is_sop(seq):
        raise ValueError("sequence is not a system of parameters")
    target = closure_target(seq)
    if target is not None:
        return local_length(target, seq.ctx)
    rep = hilbert_samuel(seq.ideal(), seq.ctx, K=K)
    if not rep.stabilized:
        raise NotStabilized("multiplicity onset not reached; raise K")
    return rep.multiplicity


def ij_functions(seq, n_max=4, K=8):
    """Table of the two non-negative length differences:
    I(n) = len(R/(x^[n])) - n^d e  and  J(n) = n^d e - len(R/(x^[n])^lim).

    Where `closure_target` applies, e and the closure colengths are
    len R/((x) + U) and len R/((x^[n]) + U) (`multiplicity`,
    `closure_colength`), and J(n) = 0 exactly, as
    len R/((x^[n]) + U) = e(x^[n]; R/U) = n^d e."""
    ctx = seq.ctx
    d = ctx.dim
    e = multiplicity(seq, K=K)
    rows = []
    for n in range(1, n_max + 1):
        powered = seq.powers(n)
        ln = local_length(powered.ideal(), ctx)
        scaled = n ** d * e
        lclo = closure_colength(powered)
        rows.append((n, ln, scaled, lclo, ln - scaled, scaled - lclo))
    return IJTable(rows, e, d)


# ---------------------------------------------------------------------------
# topology scan
# ---------------------------------------------------------------------------

def topology_scan(seq, n0=4, v_max=8):
    """For each k <= n0 search the least v <= v_max with
    (x^[v])^lim inside m^k; a k with no such v is a failure witness.

    This compares the limit-closure topology with the m-adic one on the
    affine model (the completed statement is only shadowed here).  Each
    closure is `local_closure`'s.
    """
    ctx = seq.ctx
    rows = []
    failure_k = None
    witness = None
    closure_at = cache(lambda v: local_closure(seq.powers(v)))
    for k in range(1, n0 + 1):
        found = None
        for v in range(1, v_max + 1):
            if contained_in_m_power(closure_at(v), k, ctx):
                found = v
                break
        rows.append((k, found))
        if found is None and failure_k is None:
            failure_k = k
            witness = next((g for g in closure_at(v_max).reduced_gens()
                            if not contained_in_m_power(
                                Ideal(ctx.vars, [g]), k, ctx)), None)
    return TopologyScanReport(rows, failure_k is None, failure_k, witness)


# ---------------------------------------------------------------------------
# closure contraction along a finite extension
# ---------------------------------------------------------------------------

def cyclic_cover_closure_check(ring_map, seq):
    """Compare the closure of a sop in R with the contraction of the closure
    of its image in a module-finite extension S.

    The source must be unmixed: its unmixed component U = hull(J, d)/J,
    the one `closure_target` uses, is zero locally.  Otherwise this is an
    error advising to pass to R/U first.
    """
    ctx = seq.ctx
    if not ctx.is_unmixed:
        raise ValueError(
            "source ring is not unmixed; quotient by the unmixed "
            "component first")
    tctx = LocalRingContext(ring_map.target_vars, ring_map.target_ideal)
    images = [ring_map.apply(e) for e in seq.entries]
    tseq = SequenceInR(images, tctx)
    if not is_sop(tseq):
        raise ValueError("image of the sequence is not a sop of the target")

    res_R = limit_closure(seq)
    res_S = limit_closure(tseq)
    contracted = contract(ring_map, tctx.adjoin(res_S.closure))

    l_clo = local_length(res_R.closure, ctx)
    l_id = local_length(seq.ideal(), ctx)
    return CyclicCoverReport(
        equal=local_equal(res_R.closure, contracted, ctx),
        length_mod_closure=l_clo,
        length_mod_ideal=l_id,
        closure_excess=l_id - l_clo,
    )
