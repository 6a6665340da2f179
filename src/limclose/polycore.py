"""Exact sparse multivariate polynomials, monomial orders, Catalan utilities.

Coefficients are exact rationals (python ints, promoted to Fraction on
division).  Monomials are plain exponent tuples, one slot per ring variable.
A monomial order is defined once, by its integer weight rows: the tuple
key here and the packed int key of the Buchberger kernel are both read
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from numbers import Rational
from operator import le, mul


class VariableMismatch(ValueError):
    """Operands live over different variable sets."""


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if a | b, i.e. a[i] <= b[i] for all i."""
    return all(map(le, a, b))


def mono_degree(a):
    return sum(a)


@dataclass(frozen=True, slots=True)
class MonomialOrder:
    """Total, multiplicative well-order on exponent tuples, defined by its
    integer weight rows (`rows`): a monomial's key is the tuple of its
    row products, compared lexicographically.

    kind is one of 'lex', 'grevlex', 'block', 'lazard'.  A block order
    compares the first `elim` variables by grevlex, then the rest by
    grevlex; it eliminates the leading block.  A lazard order reads the last
    variable as a homogenizing h: total degree first, then the exponent of h
    (higher is larger), then grevlex on the others.  On homogenized
    polynomials its leading monomials, with h dropped, are those of the
    local order ds (negative degree, then reverse lex).  `perm` optionally
    permutes variables before comparison (perm[i] = position of variable i
    in the comparison tuple).
    """

    kind: str
    elim: int = 0
    perm: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block", "lazard"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.elim < 1:
            raise ValueError("block order needs at least one eliminated variable")
        if self.perm is not None:
            object.__setattr__(self, "perm", tuple(self.perm))

    @classmethod
    def lex(cls, perm=None):
        return cls("lex", perm=perm)

    @classmethod
    def grevlex(cls, perm=None):
        return cls("grevlex", perm=perm)

    @classmethod
    def block(cls, elim, perm=None):
        return cls("block", elim=elim, perm=perm)

    @classmethod
    def lazard(cls):
        return cls("lazard")

    def key(self, exps):
        """Sort key; ascending key order is ascending monomial order."""
        return tuple(sum(map(mul, r, exps)) for r in self.rows(len(exps)))

    @lru_cache(maxsize=None)
    def rows(self, n):
        """Integer weight rows over n variables, of full rank, so the tuple
        of row . exps determines the monomial; computed once per n."""
        def unit(i, sign=1):
            return tuple(sign * (j == i) for j in range(n))

        def grevlex(lo, hi):
            return ((tuple(int(lo <= j < hi) for j in range(n)),)
                    + tuple(unit(i, -1) for i in reversed(range(lo, hi))))

        if self.kind == "lex":
            rows = tuple(unit(i) for i in range(n))
        elif self.kind == "grevlex":
            rows = grevlex(0, n)
        elif self.kind == "lazard":
            rows = ((1,) * n, unit(n - 1)) + grevlex(0, n - 1)
        else:
            head = min(self.elim, n)
            rows = grevlex(0, head) + grevlex(head, n)
        if self.perm is not None:
            rows = tuple(tuple(r[p] for p in self.perm) for r in rows)
        return rows

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder.block({self.elim})"
        return f"MonomialOrder.{self.kind}()"


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _normalize_coeff(c):
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


class Polynomial:
    """Sparse polynomial over Q: dict from exponent tuple to coefficient.

    Zero coefficients are never stored; the zero polynomial has an empty
    term dict.  Instances are immutable by convention.
    """

    __slots__ = ("vars", "terms", "_canon", "_memo")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        clean = {}
        for exps, c in terms.items():
            if c:
                clean[tuple(exps)] = _normalize_coeff(c)
        self.terms = clean
        self._canon = None
        self._memo = None       # `once`: key -> answer

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars):
        vars = tuple(vars)
        if not c:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exps: 1})

    # -- predicates / accessors ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(mono_degree(e) == 0 for e in self.terms)

    @property
    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def total_degree(self):
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(mono_degree(e) for e in self.terms)

    def lead(self, order):
        """(exponents, coefficient) of the leading term under `order`."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def once(self, key, compute, *args):
        """compute(*args), computed once per key and kept on this
        polynomial; the answer is shared, and no caller may mutate it."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        got = memo.get(key)
        if got is None:
            got = memo[key] = compute(*args)
        return got

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial) and isinstance(other, Rational):
            other = Polynomial.constant(other, self.vars)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial) and isinstance(other, Rational):
            other = Polynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial) and isinstance(other, Rational):
            if not other:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        terms = {}
        for e2, c2 in small.items():
            for e1, c1 in big.items():
                e = mono_mul(e1, e2)
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Polynomial(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def scale(self, c):
        return self * c

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, Rational):
            return self.terms == Polynomial.constant(other, self.vars).terms
        return False

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- normalization -------------------------------------------------------

    def primitive(self):
        """Integer-primitive scalar multiple: clears denominators and divides
        by the (positive) integer content, so the signs of the coefficients
        are kept; a polynomial that is primitive already is returned as it
        is.  Keeps GB internals in integer arithmetic.
        """
        if not self.terms:
            return self
        den = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
        g = 0
        for c in self.terms.values():
            g = gcd(g, int(c * den))
        if den == 1 and g == 1:
            return self
        return Polynomial(self.vars, {e: int(c * den) // g for e, c in self.terms.items()})

    def canonical(self):
        """(c, key) for a non-zero polynomial: c is its integer-primitive
        multiple whose coefficient at the largest exponent tuple is positive,
        the same for all its non-zero scalar multiples, and key is the
        frozenset of c's terms.  Computed once, in a slot of its own: it is
        the hottest of the kept answers."""
        canon = self._canon
        if canon is None:
            c = self.primitive()
            if c.terms[max(c.terms)] < 0:
                c = -c
            canon = self._canon = (c, frozenset(c.terms.items()))
        return canon

    # -- structural helpers ---------------------------------------------------

    def extend_vars(self, new_vars):
        """Re-express over a superset of variables (order of shared names kept)."""
        new_vars = tuple(new_vars)
        idx = [new_vars.index(v) for v in self.vars]
        n = len(new_vars)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for j, exp in zip(idx, e):
                ne[j] = exp
            terms[tuple(ne)] = c
        return Polynomial(new_vars, terms)

    def restrict_vars(self, sub_vars):
        """Project onto a variable subset; fails if any term involves a
        dropped variable."""
        sub_vars = tuple(sub_vars)
        drop = [i for i, v in enumerate(self.vars) if v not in sub_vars]
        idx = [self.vars.index(v) for v in sub_vars]
        terms = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise VariableMismatch(f"term uses dropped variable: {e}")
            terms[tuple(e[i] for i in idx)] = c
        return Polynomial(sub_vars, terms)

    def involves(self, names):
        """True if any term has positive exponent in one of `names`."""
        idx = [self.vars.index(v) for v in names]
        return any(any(e[i] for i in idx) for e in self.terms)

    def substitute(self, images):
        """Map each variable to a polynomial; all images over a common ring."""
        target = None
        for v in self.vars:
            if v not in images:
                raise VariableMismatch(f"no image for variable {v}")
            target = images[v].vars
        out = Polynomial.zero(target)
        for e, c in self.terms.items():
            term = Polynomial.constant(c, target)
            for i, exp in enumerate(e):
                if exp:
                    term = term * images[self.vars[i]] ** exp
            out = out + term
        return out

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        """The terms in descending grevlex order."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True,
                           key=lambda t: GREVLEX.key(t[0])):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e) if k
            )
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if parts and not body.startswith("-"):
                parts.append(f" + {body}")
            elif parts:
                parts.append(f" - {body[1:]}")
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def mod_monomial_power(p, names, n):
    """Reduce modulo the ideal of pure n-th powers of the listed variables:
    drop every term whose exponent in some listed variable is >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = []
    for name in names:
        if name not in p.vars:
            raise VariableMismatch(f"unknown variable {name!r}")
        idx.append(p.vars.index(name))
    terms = {e: c for e, c in p.terms.items() if all(e[i] < n for i in idx)}
    return Polynomial(p.vars, terms)


# ---------------------------------------------------------------------------
# Catalan numbers
# ---------------------------------------------------------------------------

def catalan(k):
    """C_0 .. C_k by the closed form C_i = binomial(2i, i)/(i + 1)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return [comb(2 * i, i) // (i + 1) for i in range(k + 1)]


def catalan_truncated_generating_poly(u, v, k, vars):
    """Sum_{i=0..k} C_i (u*v)^i as a polynomial in the given ring."""
    if u == v:
        raise ValueError("need two distinct variables")
    cs = catalan(k)
    iu, iv = vars.index(u), vars.index(v)
    terms = {}
    for i, c in enumerate(cs):
        e = [0] * len(vars)
        e[iu] = i
        e[iv] = i
        terms[tuple(e)] = c
    return Polynomial(vars, terms)
