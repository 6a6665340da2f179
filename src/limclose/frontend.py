"""Session-file language, command dispatcher, renderers, and CLI.

Grammar (LL(1)):
    statement := ring-decl | seq-decl | ideal-decl | map-decl | show-stmt
    ring-decl := "ring" NAME "=" "QQ" "[" vars "]" "/" "(" polys ")" ";"
    seq-decl  := "seq" NAME "=" "[" exprs "]" ";"
    ideal-decl:= "ideal" NAME "=" "(" exprs ")" ";"
    map-decl  := "map" NAME "=" NAME "->" NAME "[" NAME "->" expr, ... "]" ";"
    show-stmt := "show" COMMAND "(" args ")" ";"
with infix polynomials over ^ * + - and integer literals; a NAME is ASCII,
[A-Za-z_][A-Za-z0-9_]*, and an integer ASCII digits; comments run from '#'
to end of line.
"""

from __future__ import annotations

import json as _json
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .polycore import (
    Polynomial, GREVLEX, LEX, catalan_truncated_generating_poly,
    mod_monomial_power,
)
from .idealops import (
    Ideal, ideal_intersect, ideal_colon_ideal, ideal_saturate, eliminate,
    contract, RingMapPresentation,
)
from .localring import (
    LocalRingContext, SequenceInR, local_length, local_dim,
    local_equal, is_sop,
)
from .limitclosure import (
    colon_step, limit_closure, limit_closure_mixed, monomial_property,
    DEFAULT_N_MAX, DEFAULT_WINDOW,
)
from .structure import (
    unmixed_component, dimension_filtration, is_good_sop, ij_functions,
    topology_scan, multiplicity,
)
from .detmaps import express_in_terms, detmap_injective


SCHEMA_VERSION = 1


class SessionParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SessionRunError(RuntimeError):
    """A module error surfaced by a command, tagged with its location."""


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one alternative per step: a newline, blanks, a comment, or a token.  The
# classes are ASCII: \w takes 'é' and '²', \d takes '١'.
_TOKEN = re.compile(r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
                    r"|(?P<symbol>->|[-()\[\],;=/^*+])")


@dataclass
class _Token:
    kind: str       # name | int | symbol | eof
    value: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SessionParseError(f"unexpected character {text[pos]!r}",
                                    line, pos - line_start + 1)
        pos = m.end()
        if m.lastgroup == "newline":
            line, line_start = line + 1, pos
        elif m.lastgroup:
            toks.append(_Token(m.lastgroup, m.group(), line,
                               m.start() - line_start + 1))
    toks.append(_Token("eof", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@dataclass
class Statement:
    kind: str       # ring | seq | ideal | map | show
    name: str       # binding name, or command name for show
    payload: dict
    line: int
    col: int


@dataclass
class Session:
    statements: list
    # name -> (kind, value): a ring's context, a seq's or an ideal's
    # expressions, a map's (presentation, target context)
    bindings: dict = field(default_factory=dict)


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise SessionParseError(msg, tok.line, tok.col)

    def expect(self, value):
        t = self.next()
        if t.value != value:
            self.err(f"expected {value!r}, found {t.value or 'end of input'!r}", t)
        return t

    def expect_kind(self, kind, what):
        t = self.next()
        if t.kind != kind:
            self.err(f"expected {what}, found {t.value or 'end of input'!r}", t)
        return t.value

    # -- polynomial expressions (to a small AST; variables resolve later) ----

    def expr(self):
        node = self.term()
        while self.peek().value in ("+", "-"):
            op = "add" if self.next().value == "+" else "sub"
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().value == "*":
            self.next()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        if self.peek().value == "-":
            self.next()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek().value == "^":
            self.next()
            node = ("pow", node, int(self.expect_kind("int", "an integer")))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return ("num", int(t.value))
        if t.kind == "name":
            self.next()
            return ("var", t.value)
        if t.value == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        self.err(f"expected a polynomial, found {t.value or 'end of input'!r}")

    def expr_list(self, closer):
        out = [self.expr()]
        while self.peek().value == ",":
            self.next()
            if self.peek().value == closer:
                self.err("trailing comma")
            out.append(self.expr())
        return out

    # -- statements ----------------------------------------------------------

    def statement(self):
        start = self.next()
        if start.kind != "name":
            self.err(f"expected a statement, found {start.value!r}", start)
        # each parser takes the keyword token: ring and show report some
        # errors at it
        parse = {
            "ring": self.ring_decl,
            "seq": partial(self.list_decl, opener="[", closer="]"),
            "ideal": partial(self.list_decl, opener="(", closer=")"),
            "map": self.map_decl,
            "show": self.show_stmt,
        }.get(start.value)
        if parse is None:
            self.err(f"unknown statement {start.value!r}", start)
        name, payload = parse(start)
        return Statement(start.value, name, payload, start.line, start.col)

    def ring_decl(self, start):
        name = self.expect_kind("name", "a name")
        self.expect("=")
        fld = self.peek()
        if self.expect_kind("name", "a name") != "QQ":
            self.err(f"unknown coefficient field {fld.value!r}", fld)
        self.expect("[")
        vars = [self.expect_kind("name", "a name")]
        while self.peek().value == ",":
            self.next()
            vars.append(self.expect_kind("name", "a name"))
        self.expect("]")
        self.expect("/")
        self.expect("(")
        polys = self.expr_list(")")
        self.expect(")")
        self.expect(";")
        if len(set(vars)) != len(vars):
            self.err("duplicate variable name", start)
        return name, {"vars": tuple(vars), "polys": polys}

    def list_decl(self, start, opener, closer):
        """A seq or ideal declaration: its expressions between brackets."""
        name = self.expect_kind("name", "a name")
        self.expect("=")
        self.expect(opener)
        exprs = self.expr_list(closer)
        self.expect(closer)
        self.expect(";")
        return name, {"exprs": exprs}

    def map_decl(self, start):
        name = self.expect_kind("name", "a name")
        self.expect("=")
        source = self.expect_kind("name", "a name")
        self.expect("->")
        target = self.expect_kind("name", "a name")
        self.expect("[")
        images = []
        while True:
            tok = self.peek()
            if self.expect_kind("name", "a name") in dict(images):
                self.err(f"duplicate image for {tok.value!r}", tok)
            self.expect("->")
            images.append((tok.value, self.expr()))
            if self.peek().value != ",":
                break
            self.next()
            if self.peek().value == "]":
                self.err("trailing comma")
        self.expect("]")
        self.expect(";")
        return name, {"source": source, "target": target, "images": images}

    def show_stmt(self, start):
        cmd = self.expect_kind("name", "a name")
        # hyphenated command names (limclose-mixed, ...) lex as name '-' name
        while self.peek().value == "-" and self.toks[self.pos + 1].kind == "name":
            self.next()
            cmd += "-" + self.next().value
        if cmd not in COMMANDS:
            self.err(f"unknown command {cmd!r}", start)
        self.expect("(")
        args = self.expr_list(")") if self.peek().value != ")" else []
        self.expect(")")
        self.expect(";")
        lo, hi = _arity(COMMANDS[cmd][0])
        if len(args) < lo or (hi is not None and len(args) > hi):
            span = (f"at least {lo}" if hi is None
                    else f"{lo}..{hi}" if hi != lo else str(lo))
            self.err(f"command {cmd!r} takes {span} arguments, got {len(args)}",
                     start)
        return cmd, {"args": args}


def parse_session(text):
    """Parse a session file; raises SessionParseError with line/column on
    the first error.  Each binding name is declared once; references are
    resolved at run time."""
    p = _Parser(text)
    statements = []
    declared = set()
    while p.peek().kind != "eof":
        st = p.statement()
        # bare-name show arguments may be bindings or ring variables; they
        # are resolved at run time against the ordered scope
        if st.kind != "show":
            if st.name in declared:
                raise SessionParseError(
                    f"duplicate binding {st.name!r}", st.line, st.col)
            declared.add(st.name)
        statements.append(st)
    return Session(statements=statements)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class Config:
    order: str = "grevlex"
    n_max: int = DEFAULT_N_MAX
    stab_window: int = DEFAULT_WINDOW


@dataclass
class CommandResult:
    kind: str
    generators: list | None = None
    tables: dict | None = None
    verdict: bool | None = None
    stabilization_index: int | None = None
    value: object = None
    warnings: list = field(default_factory=list)


def _eval_poly(node, vars, where):
    kind = node[0]
    if kind == "num":
        return Polynomial.constant(node[1], vars)
    if kind == "var":
        if node[1] not in vars:
            raise SessionRunError(
                f"{where}: unknown variable {node[1]!r} (ring has {', '.join(vars)})")
        return Polynomial.variable(node[1], vars)
    if kind == "neg":
        return -_eval_poly(node[1], vars, where)
    if kind == "pow":
        return _eval_poly(node[1], vars, where) ** node[2]
    a = _eval_poly(node[1], vars, where)
    b = _eval_poly(node[2], vars, where)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    raise AssertionError(kind)


def _as_int(node, where):
    if node[0] == "num":
        return node[1]
    if node[0] == "neg" and node[1][0] == "num":
        return -node[1][1]
    raise SessionRunError(f"{where}: expected an integer argument")


def _arity(kinds):
    """(least, most) argument count for a kind list; most is None when the
    last kind repeats."""
    fixed = [k for k in kinds if k != "*"]
    least = sum(not k.endswith("?") for k in fixed)
    return least, None if kinds[-1:] == ("*",) else len(fixed)


def _evaluate(cmd, args, session, where):
    """Argument values of a show statement, by the kinds its command declares.
    The first ring or map argument fixes the ring later arguments are read in.
    """
    kinds = [k.rstrip("?") for k in COMMANDS[cmd][0] if k != "*"]
    ctx = None
    values = []
    for i, node in enumerate(args):
        kind = kinds[min(i, len(kinds) - 1)]
        name = node[1] if node[0] == "var" else None
        bound, b = session.bindings.get(name, (None, None))
        if kind in ("ring", "map", "seq") and bound != kind:
            what = "sequence" if kind == "seq" else kind
            raise SessionRunError(f"{where}: expected a {what} name")
        if kind == "ring":
            value = ctx = b
        elif kind == "map":
            value, ctx = b
        elif kind == "seq":
            value = SequenceInR([_eval_poly(e, ctx.vars, where) for e in b],
                                ctx)
        elif kind == "ideal":
            # a sequence or ideal name, else an inline principal generator
            exprs = b if bound in ("seq", "ideal") else [node]
            value = Ideal(ctx.vars, [_eval_poly(e, ctx.vars, where)
                                     for e in exprs])
        elif kind == "poly":
            value = _eval_poly(node, ctx.vars, where)
        elif kind == "int":
            # every integer argument is a count or a power
            value = _as_int(node, where)
            if value < 1:
                raise SessionRunError(
                    f"{where}: {cmd}: integer arguments must be at least 1,"
                    f" got {value}")
        else:  # var
            if node[0] != "var":
                raise SessionRunError(f"{where}: {cmd} takes variable names")
            value = node[1]
        values.append(value)
    return values


def run_command(stmt, session, config):
    """Evaluate one show-statement against the session bindings."""
    where = f"line {stmt.line}"
    cmd = stmt.name
    try:
        values = _evaluate(cmd, stmt.payload["args"], session, where)
        return COMMANDS[cmd][1](config, *values)
    except (SessionRunError, SessionParseError, TimeoutError):
        raise
    except Exception as exc:
        raise SessionRunError(f"{where}: {cmd}: {exc}") from exc


# -- command handlers: handler(config, *argument values) -> CommandResult ----

def _ideal_result(ideal, stab=None):
    gens = [str(g) for g in ideal.reduced_gens()]
    return CommandResult(kind="ideal", generators=gens or ["0"],
                         stabilization_index=stab)


def _gb(config, ctx, I):
    order = LEX if config.order == "lex" else GREVLEX
    gens = ctx.adjoin(I).groebner(order).generators
    return CommandResult(kind="ideal",
                         generators=[str(g) for g in gens] or ["0"])


def _dim(config, ctx, I=None):
    I = ctx.zero_ideal() if I is None else I
    return CommandResult(kind="integer", value=local_dim(I, ctx))


def _length(config, ctx, I):
    return CommandResult(kind="integer", value=local_length(I, ctx))


def _mult(config, ctx, s):
    return CommandResult(kind="integer", value=multiplicity(s))


def _colon(config, ctx, I, J):
    return _ideal_result(ideal_colon_ideal(ctx.adjoin(I), J))


def _intersect(config, ctx, I, J):
    return _ideal_result(ideal_intersect(ctx.adjoin(I), ctx.adjoin(J)))


def _saturate(config, ctx, I, g):
    sat, k = ideal_saturate(ctx.adjoin(I), g)
    return _ideal_result(sat, k)


def _eliminate(config, ctx, I, *names):
    return _ideal_result(eliminate(ctx.adjoin(I), names))


def _contract(config, rmap, I):
    return _ideal_result(contract(rmap, I))


def _limclose(config, ctx, s, n=None):
    if n is not None:
        return _ideal_result(colon_step(s, n))
    res = limit_closure(s, n_max=config.n_max, window=config.stab_window)
    return _ideal_result(res.closure, res.stabilization_index)


def _limclose_mixed(config, ctx, head, npow, tail, mpow):
    res = limit_closure_mixed(head, npow, tail, mpow, n_max=config.n_max,
                              window=config.stab_window)
    return _ideal_result(res.closure)


def _monomial_check(config, ctx, s):
    return CommandResult(kind="verdict",
                         verdict=monomial_property(s, n_max=config.n_max))


def _unmixed(config, ctx, s):
    res = unmixed_component(s)
    return _ideal_result(res.component, res.intersection_depth)


def _dimfilt(config, ctx, s):
    filt = dimension_filtration(s)
    rows = [[str(d), ", ".join(str(g) for g in D.reduced_gens()) or "0"]
            for D, d in zip(filt.chain, filt.dims)]
    # the filtration's sop is good by construction
    return CommandResult(kind="table",
                         tables={"columns": ["dim", "generators"],
                                 "rows": rows},
                         verdict=True)


def _goodsop(config, ctx, s):
    return CommandResult(kind="verdict", verdict=is_sop(s) and is_good_sop(s))


def _ij(config, ctx, s, *opts):
    table = ij_functions(s, *opts)
    rows = [[str(c) for c in row] for row in table.rows]
    return CommandResult(
        kind="table",
        tables={"columns": ["n", "length", "e*n^d", "closure-length",
                            "I", "J"],
                "rows": rows},
        value=table.multiplicity)


def _topo(config, ctx, s, *opts):
    rep = topology_scan(s, *opts)
    rows = [[str(k), str(v) if v is not None else "-"] for k, v in rep.rows]
    warnings = []
    if not rep.success:
        warnings.append(f"failure at k={rep.failure_k}, witness {rep.witness}")
    return CommandResult(kind="table",
                         tables={"columns": ["k", "least v"], "rows": rows},
                         verdict=rep.success, warnings=warnings)


def _detmap(config, ctx, sx, sy):
    problem = express_in_terms(sy, sx)
    inj = detmap_injective(problem, n_max=config.n_max)
    rows = [[str(a) for a in row] for row in problem.matrix]
    cols = [f"a{j + 1}" for j in range(len(sx))]
    return CommandResult(kind="table",
                         tables={"columns": cols, "rows": rows},
                         verdict=inj, value=str(problem.det))


def _sopcheck(config, ctx, s):
    return CommandResult(kind="verdict", verdict=is_sop(s))


def _catalan_demo(config, n_max=4):
    """End-to-end battery on the worked quadric example: the colon table,
    its closed-form generator, and the truncated generating-function
    identity."""
    V = ("x", "y", "u", "v")
    x, y, u, v = (Polynomial.variable(n, V) for n in V)
    f = x * y - u * x ** 2 - v * y ** 2
    ctx = LocalRingContext(V, Ideal(V, [f]))
    seq = SequenceInR([y, u, v], ctx)
    rows = []
    ok_all = True
    for n in range(1, n_max + 1):
        colon = colon_step(seq.powers(n), n)
        a_n = x - y * v * catalan_truncated_generating_poly("u", "v", n - 1, V)
        expected = ctx.adjoin(Ideal(V, [y ** n, u ** n, v ** n, a_n]))
        match = local_equal(colon, expected, ctx)
        ok_all = ok_all and match
        rows.append([str(n), str(a_n), "ok" if match else "MISMATCH"])
    ident_ok = True
    for n in range(2, 13):
        C = catalan_truncated_generating_poly("u", "v", n - 2, V)
        lhs = (x - y * v * C) * (y - x * u * C)
        # modulo (u^n, v^n) the full generating function truncates at i <= n-1
        rhs = f * catalan_truncated_generating_poly("u", "v", n - 1, V)
        if mod_monomial_power(lhs - rhs, ("u", "v"), n).terms:
            ident_ok = False
    verdict = ok_all and ident_ok
    warnings = [] if ident_ok else ["generating-function identity failed"]
    return CommandResult(kind="table",
                         tables={"columns": ["n", "a_n", "colon row"],
                                 "rows": rows},
                         verdict=verdict, warnings=warnings)


COMMANDS = {
    # name: (argument kinds, handler).  Kinds: ring, map, seq, ideal, poly,
    # int, var; "?" marks an optional argument, and a final "*" repeats the
    # kind before it.
    "gb": (("ring", "ideal"), _gb),
    "dim": (("ring", "ideal?"), _dim),
    "length": (("ring", "ideal"), _length),
    "mult": (("ring", "seq"), _mult),
    "colon": (("ring", "ideal", "ideal"), _colon),
    "intersect": (("ring", "ideal", "ideal"), _intersect),
    "saturate": (("ring", "ideal", "poly"), _saturate),
    "eliminate": (("ring", "ideal", "var", "*"), _eliminate),
    "contract": (("map", "ideal"), _contract),
    "limclose": (("ring", "seq", "int?"), _limclose),
    "limclose-mixed": (("ring", "seq", "int", "seq", "int"), _limclose_mixed),
    "monomial-check": (("ring", "seq"), _monomial_check),
    "unmixed": (("ring", "seq"), _unmixed),
    "dimfilt": (("ring", "seq"), _dimfilt),
    "goodsop": (("ring", "seq"), _goodsop),
    "ij": (("ring", "seq", "int?"), _ij),
    "topo": (("ring", "seq", "int?", "int?"), _topo),
    "detmap": (("ring", "seq", "seq"), _detmap),
    "sopcheck": (("ring", "seq"), _sopcheck),
    "catalan-demo": (("int?",), _catalan_demo),
}


def run_session(session, config=None):
    """Evaluate every statement in order; returns the list of (statement,
    CommandResult) pairs for show statements."""
    return list(_evaluated_shows(session, config or Config()))


def _evaluated_shows(session, config):
    """Evaluate the statements in order, yielding (statement, CommandResult)
    for each show as soon as it is computed."""
    for stmt in session.statements:
        if stmt.kind == "show":
            yield stmt, run_command(stmt, session, config)
            continue
        if stmt.kind == "ring":
            value = _make_ring(stmt)
        elif stmt.kind == "map":
            value = _make_map(stmt, session)
        else:
            value = stmt.payload["exprs"]
        session.bindings[stmt.name] = stmt.kind, value


def _make_ring(stmt):
    vars = stmt.payload["vars"]
    where = f"line {stmt.line}"
    gens = [_eval_poly(e, vars, where) for e in stmt.payload["polys"]]
    try:
        return LocalRingContext(vars, Ideal(vars, gens))
    except ValueError as exc:
        raise SessionRunError(f"{where}: {exc}") from exc


def _make_map(stmt, session):
    """A map binding's value: its presentation and its target ring."""
    where = f"line {stmt.line}"
    src_kind, src = session.bindings.get(stmt.payload["source"], (None, None))
    tgt_kind, tgt = session.bindings.get(stmt.payload["target"], (None, None))
    if src_kind != "ring" or tgt_kind != "ring":
        raise SessionRunError(f"{where}: map endpoints must be declared rings")
    images = {}
    for v, e in stmt.payload["images"]:
        if v not in src.vars:
            raise SessionRunError(
                f"{where}: {v!r} is not a variable of {stmt.payload['source']}")
        images[v] = _eval_poly(e, tgt.vars, where)
    try:
        rmap = RingMapPresentation(
            source_vars=src.vars, source_ideal=src.defining,
            target_vars=tgt.vars, target_ideal=tgt.defining,
            images=images)
    except ValueError as exc:
        raise SessionRunError(f"{where}: {exc}") from exc
    return rmap, tgt


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(result, format="text"):
    """Render a CommandResult; json output is schema-stable and exact."""
    if format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": result.kind,
            "generators": result.generators,
            "tables": result.tables,
            "verdict": result.verdict,
            "stabilization_index": result.stabilization_index,
            "value": result.value,
            "warnings": list(result.warnings),
        }
        return _json.dumps(doc, sort_keys=True)
    lines = []
    if result.kind == "verdict":
        lines.append("true" if result.verdict else "false")
    elif result.kind == "integer":
        lines.append(str(result.value))
    elif result.kind == "ideal":
        lines.append("(" + ", ".join(result.generators) + ")")
        if result.stabilization_index is not None:
            lines.append(f"stabilized at {result.stabilization_index}")
    elif result.kind == "table":
        cols = result.tables["columns"]
        rows = result.tables["rows"]
        widths = [max(len(str(c)), *(len(r[i]) for r in rows)) if rows else len(str(c))
                  for i, c in enumerate(cols)]
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if result.verdict is not None:
            lines.append("verdict: " + ("true" if result.verdict else "false"))
        if result.value is not None:
            lines.append(f"value: {result.value}")
    for w in result.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv=None):
    import argparse
    import signal

    ap = argparse.ArgumentParser(
        prog="limclose",
        description="limit closures of parameter sequences in localized "
                    "affine rings")
    ap.add_argument("session", help="session file, or - for stdin")
    ap.add_argument("--order", choices=["grevlex", "lex"],
                    default=Config.order,
                    help="monomial order of gb's output; applies to gb only")
    ap.add_argument("--n-max", type=int, default=Config.n_max,
                    help="colon-chain terms to try before giving up")
    ap.add_argument("--stab-window", type=int, default=Config.stab_window,
                    help="chain-stabilization window of limclose; applies "
                         "to limclose and limclose-mixed only")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--timeout-secs", type=int, default=None,
                    help="stop the run with exit code 3 after this many "
                         "seconds; 0 means no limit")
    ns = ap.parse_args(argv)
    limit = 2 ** 31 - 1      # signal.alarm takes a C int
    if ns.timeout_secs is not None and not 0 <= ns.timeout_secs <= limit:
        bound = ">= 0" if ns.timeout_secs < 0 else f"<= {limit}"
        ap.error(f"--timeout-secs must be {bound}, got {ns.timeout_secs}")

    try:
        data = (sys.stdin.buffer.read() if ns.session == "-"
                else Path(ns.session).read_bytes())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one decoding for a file and for stdin: a byte that is not UTF-8 reads
    # as U+FFFD (ignored in a comment, an unexpected character anywhere
    # else), and \r\n and a lone \r each end a line
    text = re.sub(r"\r\n?", "\n", data.decode("utf-8", errors="replace"))

    config = Config(order=ns.order, n_max=ns.n_max,
                    stab_window=ns.stab_window)

    def on_alarm(signum, frame):
        raise TimeoutError(f"timeout after {ns.timeout_secs}s")

    if ns.timeout_secs:
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(ns.timeout_secs)

    fmt = "json" if ns.json else "text"
    try:
        session = parse_session(text)
        # each result is printed as it completes, so a later failing or
        # timed-out show keeps the ones before it
        for stmt, result in _evaluated_shows(session, config):
            if fmt == "text":
                print(f"# {stmt.name} (line {stmt.line})")
            print(render(result, fmt), flush=True)
    except SessionParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    except (SessionRunError, ValueError, RuntimeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ns.timeout_secs:
            signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
