"""Determinantal maps between quotients by limit closures: recover the
coefficient matrix expressing one parameter sequence in terms of another,
take its determinant exactly, and test injectivity of the multiplication map
det(A) : R/(x)^lim -> R/(y)^lim.

The matrices are r x r with r = len(x), which is dim R for a sop, so the
determinant is a cofactor expansion: r! products of polynomials, with no
division and no kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .polycore import Polynomial, GREVLEX
from .groebner import buchberger, ideal_member
from .idealops import ideal_colon, ideals_equal
from .localring import (
    SequenceInR, local_member, local_contains, is_local_unit_ideal,
)
from .limitclosure import local_closure, DEFAULT_N_MAX


@dataclass
class DetMapProblem:
    """y = A.x modulo the defining ideal, with the determinant attached.

    Construction verifies that x and y live in one ring (the same variables
    and defining ideal), the expression (each y_i - sum A_ij x_j lies in the
    defining ideal) and the Cramer containment det(A)*(x) inside (y) + J.
    """
    x: SequenceInR
    y: SequenceInR
    matrix: list           # rows of Polynomial
    det: Polynomial = field(init=False)

    def __post_init__(self):
        ctx, other = self.x.ctx, self.y.ctx
        if other is not ctx and (other.vars != ctx.vars or not ideals_equal(
                other.defining, ctx.defining)):
            raise ValueError("sequences live in different rings")
        r = len(self.x)
        if len(self.y) != r or len(self.matrix) != r \
                or any(len(row) != r for row in self.matrix):
            raise ValueError("matrix must be square of size len(x)")
        J = ctx.defining
        for yi, row in zip(self.y.entries, self.matrix):
            diff = yi
            for a, xj in zip(row, self.x.entries):
                diff = diff - a * xj
            if not (diff.is_zero() or J.contains_poly(diff)):
                raise ValueError(f"row does not express its entry: {diff}")
        self.det = determinant(self.matrix, ctx.vars)
        K = ctx.adjoin(self.y.ideal())
        for xj in self.x.entries:
            p = self.det * xj
            if not (p.is_zero() or K.contains_poly(p)):
                raise ValueError("Cramer containment det(A)*(x) in (y)+J fails")


def determinant(matrix, vars):
    """Exact determinant of a square matrix of polynomials by cofactor
    expansion along the first row."""
    if not matrix:
        return Polynomial.constant(1, vars)
    det = Polynomial.zero(vars)
    for j, a in enumerate(matrix[0]):
        if not a.is_zero():
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            term = a * determinant(minor, vars)
            det = det - term if j % 2 else det + term
    return det


def express_in_terms(y, x):
    """Recover a matrix A with y = A.x mod J from tracked membership
    cofactors in (x) + J; cofactors on the defining generators are
    discarded (they vanish in R).  When every generator is zero the basis
    has no rows and the certificates no coefficients: the rows are padded
    with zeros."""
    ctx = x.ctx
    gens = list(x.entries) + list(ctx.defining.gens)
    gb = buchberger(gens, GREVLEX, track=True)
    zeros = [ctx.zero_poly()] * len(x)
    rows = []
    for yi in y.entries:
        ok, cert = ideal_member(yi, gb)
        if not ok:
            raise ValueError(f"{yi} is not in (x) + J")
        rows.append((cert.coefficients + zeros)[:len(x)])
    return DetMapProblem(x=x, y=y, matrix=rows)


def detmap_injective(problem, n_max=DEFAULT_N_MAX):
    """Injectivity of det(A) : R/(x)^lim -> R/(y)^lim.

    The kernel is ((y)^lim : det)/(x)^lim, so the map is injective iff the
    colon is locally inside (x)^lim.  A determinant that vanishes in R gives
    the zero map, injective only from the zero module, and (y)^lim is not
    built.  Each closure is `local_closure`'s.
    """
    ctx = problem.x.ctx
    clo_x = local_closure(problem.x, n_max)
    if local_member(problem.det, ctx.zero_ideal(), ctx):
        return is_local_unit_ideal(clo_x, ctx)
    kernel = ideal_colon(ctx.adjoin(local_closure(problem.y, n_max)),
                         problem.det)
    return local_contains(kernel, clo_x, ctx)
