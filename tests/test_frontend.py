"""Session language, dispatcher, renderers, and CLI exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from limclose.frontend import (
    COMMANDS, Config, SessionParseError, SessionRunError,
    parse_session, run_session, render, main, SCHEMA_VERSION,
)
from limclose.idealops import Ideal
from limclose.polycore import GREVLEX, LEX, Polynomial

from test_bench_pins import _load_workloads

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_text(text, **cfg):
    session = parse_session(text)
    return run_session(session, Config(**cfg))


def render_all(results, fmt):
    return [render(r, fmt) for _, r in results]


# -- parsing ------------------------------------------------------------------

def test_parse_basic_session():
    s = parse_session("""
        # a plane and a sequence
        ring P = QQ[x, y] / (0);
        seq S = [x, y];
        show dim(P);
    """)
    kinds = [st.kind for st in s.statements]
    assert kinds == ["ring", "seq", "show"]
    assert s.statements[2].name == "dim"


@pytest.mark.parametrize("text,fragment,line,col", [
    ("ring P = QQ[x,] / (0);", "expected a name", 1, 15),
    ("seq S = [x, y,];", "trailing comma", 1, 15),
    ("ring P = QQ[x] / (x ~ y);", "unexpected character", 1, 21),
    ("show frobnicate(P);", "unknown command", 1, 1),
    ("show dim();", "takes 1..2 arguments, got 0", 1, 1),
    ("show eliminate(P, I);", "takes at least 3 arguments, got 2", 1, 1),
    ("show topo(P, S, 1, 2, 3);", "takes 2..4 arguments, got 5", 1, 1),
    ("ring P = RR[x] / (0);", "unknown coefficient field", 1, 10),
    ("ring P = QQ[x, x] / (0);", "duplicate variable", 1, 1),
    ("seq S = [x]", "expected ';'", 1, 12),
    ("seq S = [x] # done", "expected ';'", 1, 19),
    ("show catalan-demo(\u00b2);", "unexpected character", 1, 19),
    ("ring P = QQ[x] / (x^\u00b2);", "unexpected character", 1, 21),
    ("ring P = QQ[x\u00b2] / (0);", "unexpected character", 1, 14),
    ("ring P = QQ[\u00e9, y] / (0);", "unexpected character", 1, 13),
    ("ring P = QQ[x] / (x\u00b2);", "unexpected character", 1, 20),
    ("ring P = QQ[x, y] / (0);\nseq S = [x, y\u0661];", "unexpected character",
     2, 14),
    ("map phi = B -> P [ s -> x, s -> y, t -> y ];", "duplicate image for 's'",
     1, 28),
])
def test_parse_errors_carry_line_and_column(text, fragment, line, col):
    with pytest.raises(SessionParseError) as exc:
        parse_session(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line
    assert exc.value.col == col


def test_parse_error_line_counts_comments_and_newlines():
    text = "# header\nring P = QQ[x] / (0);\nseq S = [x,];\n"
    with pytest.raises(SessionParseError) as exc:
        parse_session(text)
    assert exc.value.line == 3


def test_duplicate_binding_rejected():
    with pytest.raises(SessionParseError) as exc:
        parse_session("seq S = [x]; seq S = [y];")
    assert "duplicate binding 'S'" in str(exc.value)


def test_hyphenated_command_names_parse():
    s = parse_session("""
        ring P = QQ[x, y] / (0);
        seq S = [x, y];
        show monomial-check(P, S);
        show limclose-mixed(P, S, 2, S, 3);
    """)
    shows = [st.name for st in s.statements if st.kind == "show"]
    assert shows == ["monomial-check", "limclose-mixed"]


# -- runtime errors -----------------------------------------------------------

def test_unknown_variable_is_a_run_error_not_parse_error():
    text = "ring P = QQ[x] / (0); ideal I = (x + w); show gb(P, I);"
    session = parse_session(text)
    with pytest.raises(SessionRunError) as exc:
        run_session(session, Config())
    assert "unknown variable 'w'" in str(exc.value)


def test_finite_field_rings_are_parse_errors():
    with pytest.raises(SessionParseError) as exc:
        parse_session("ring P = Fp(7)[x] / (0);")
    assert "unknown coefficient field 'Fp'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 10)


def test_command_argument_type_errors():
    text = "ring P = QQ[x, y] / (0); seq S = [x, y]; show length(S, S);"
    with pytest.raises(SessionRunError) as exc:
        run_session(parse_session(text), Config())
    assert "expected a ring name" in str(exc.value)


# -- dispatch: every command runs ---------------------------------------------

SPLIT_SESSION = """
ring P = QQ[x, y] / (0);
ring A = QQ[x, y, z] / (x*y, x*z);
ring B = QQ[s, t] / (0);
seq SP = [x, y];
seq SA = [y, x + z];
seq YX = [x + y, y];
ideal I = (x^2, x*y);
ideal L = (x^2, y^3);
ideal K = (x^2);
map phi = B -> P [ s -> x, t -> y^2 ];
show gb(A, I);
show dim(A);
show dim(A, z);
show length(P, L);
show mult(P, SP);
show colon(P, I, x);
show intersect(A, x, y);
show saturate(P, I, x);
show eliminate(P, I, y);
show contract(phi, K);
show limclose(A, SA);
show limclose(A, SA, 2);
show limclose-mixed(A, SA, 1, SA, 2);
show monomial-check(P, SP);
show unmixed(A, SA);
show dimfilt(A, SA);
show goodsop(A, SA);
show ij(A, SA, 2);
show topo(A, SA, 2, 4);
show detmap(P, YX, SP);
show sopcheck(A, SA);
show catalan-demo(2);
"""


@pytest.fixture(scope="module")
def split_session_results():
    return run_text(SPLIT_SESSION)


def test_every_command_dispatches(split_session_results):
    ran = {r.command for _, r in split_session_results}
    assert ran == set(COMMANDS)


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Commands:([^.]*)\.", readme).group(1)
    assert {name.strip() for name in listed.split(",")} == set(COMMANDS)


def test_readme_documents_every_flag():
    # every option `limclose --help` lists, and no other, in the CLI section
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    flag = re.compile(r"--[a-z][a-z-]*")
    helped = run_cli(["--help"])
    assert helped.returncode == 0
    assert set(flag.findall(cli)) == set(flag.findall(helped.stdout))


def test_dispatch_values(split_session_results):
    by_line = {}
    for stmt, res in split_session_results:
        by_line.setdefault(res.command, []).append(res)
    assert by_line["dim"][0].value == 2          # dim(A)
    assert by_line["dim"][1].value == 1          # A/(z): the lines xy = z = 0
    assert by_line["length"][0].value == 6       # Q[x,y]/(x^2, y^3)
    assert by_line["mult"][0].value == 1
    assert by_line["monomial-check"][0].verdict is True
    assert by_line["sopcheck"][0].verdict is True
    assert by_line["goodsop"][0].verdict is False     # (y, x+z) as given
    assert by_line["unmixed"][0].generators == ["x"]
    assert by_line["unmixed"][0].stabilization_index == 2
    assert by_line["detmap"][0].verdict is True
    assert by_line["catalan-demo"][0].verdict is True
    assert by_line["contract"][0].generators == ["s^2"]  # preimage of (x^2)
    topo = by_line["topo"][0]
    assert topo.verdict is False and "failure at k=2" in topo.warnings[0]


def test_limclose_reports_stabilization(split_session_results):
    full = [r for _, r in split_session_results if r.command == "limclose"]
    assert full[0].stabilization_index == 1
    assert "x" in full[0].generators  # the small component enters the closure


# -- rendering ----------------------------------------------------------------

def test_json_output_is_deterministic_and_schema_stable():
    out1 = render_all(run_text(SPLIT_SESSION), "json")
    out2 = render_all(run_text(SPLIT_SESSION), "json")
    assert out1 == out2
    for line in out1:
        doc = json.loads(line)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc) == {"schema_version", "kind", "generators", "tables",
                            "verdict", "stabilization_index", "value",
                            "warnings"}
        # keys are sorted for byte-stable output
        assert line == json.dumps(doc, sort_keys=True)


def test_json_round_trips_fractions_exactly():
    results = run_text("""
        ring P = QQ[x, y] / (0);
        ideal I = (2*x - 3*y);
        show gb(P, I);
    """)
    doc = json.loads(render(results[0][1], "json"))
    assert doc["generators"] == ["x - 3/2*y"]


def test_text_rendering_kinds():
    results = run_text("""
        ring A = QQ[x, y, z] / (x*y, x*z);
        seq S = [y, x + z];
        show dim(A);
        show sopcheck(A, S);
        show limclose(A, S);
        show ij(A, S, 2);
    """)
    texts = render_all(results, "text")
    assert texts[0] == "3" or texts[0] == "2"
    assert texts[0] == "2"
    assert texts[1] == "true"
    assert texts[2].splitlines()[-1].startswith("stabilized at ")
    table = texts[3].splitlines()
    assert table[0].split() == ["n", "length", "e*n^d", "closure-length",
                                "I", "J"]
    assert len(table) >= 3


def test_goodsop_rejects_a_sequence_that_is_not_a_sop():
    # (y) is too short and (y, x) cuts out the z-axis, a line; the split
    # ring's good sop (x + z, y) stays good
    session = parse_session(
        "ring A = QQ[x, y, z] / (x*y, x*z);"
        " seq S1 = [y]; seq S2 = [y, x]; seq G = [x + z, y];"
        " show goodsop(A, S1); show goodsop(A, S2); show goodsop(A, G);")
    verdicts = [res.verdict for _, res in run_session(session)]
    assert verdicts == [False, False, True]


# -- CLI ----------------------------------------------------------------------

def run_cli(args, stdin_text=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "limclose.frontend", *args],
        input=stdin_text, capture_output=True, text=True, timeout=300,
        cwd=cwd or str(Path(__file__).resolve().parent.parent))


def test_cli_success_exit_zero(tmp_path):
    f = tmp_path / "s.lim"
    f.write_text("ring P = QQ[x, y] / (0); show dim(P);")
    proc = run_cli([str(f)])
    assert proc.returncode == 0
    assert "2" in proc.stdout


def test_cli_reads_stdin_and_emits_json():
    proc = run_cli(["-", "--json"],
                   stdin_text="ring P = QQ[x] / (0); show dim(P);")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout.strip())
    assert doc["kind"] == "integer" and doc["value"] == 1


def test_cli_json_output_is_byte_identical_between_runs():
    text = ("ring A = QQ[x, y, z] / (x*y, x*z); seq S = [y, x + z];"
            " show limclose(A, S); show dimfilt(A, S);")
    p1 = run_cli(["-", "--json"], stdin_text=text)
    p2 = run_cli(["-", "--json"], stdin_text=text)
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout


def test_cli_dimfilt_builds_a_good_sop():
    # no reordering of this sop, with or without squared entries, is good;
    # the filtration's sop is built good, so the verdict is true
    text = ("ring A = QQ[x, y, z] / (x*y, x*z);\n"
            "seq S = [-x - 2*y - z, -2*x + z];\n"
            "show dimfilt(A, S);\n")
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 0
    assert proc.stdout == ("# dimfilt (line 3)\ndim  generators\n"
                           "1    x         \n2    1         \n"
                           "verdict: true\n")
    doc = json.loads(run_cli(["-", "--json"], stdin_text=text).stdout)
    assert doc["tables"]["rows"] == [["1", "x"], ["2", "1"]]
    assert doc["verdict"] is True and doc["warnings"] == []
    # there is no --seed option
    assert run_cli(["-", "--seed", "0"], stdin_text=text).returncode == 2


def test_cli_module_error_exit_one():
    proc = run_cli(["-"], stdin_text="ring P = QQ[x] / (x + w);")
    assert proc.returncode == 1
    assert "unknown variable 'w'" in proc.stderr


def test_cli_ring_with_a_unit_relation_names_its_line():
    proc = run_cli(["-"], stdin_text="ring P = QQ[x] / (0);\n"
                                     "ring A = QQ[x] / (x - 1);")
    assert proc.returncode == 1
    assert "error: line 2: defining ideal has a unit at the origin" \
        in proc.stderr


def test_cli_ill_defined_map_names_its_line():
    text = ("ring A = QQ[x] / (x^2);\nring B = QQ[y] / (y^3);\n"
            "map f = A -> B [x -> y];")
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 1
    assert "error: line 3: map not well defined: image of x^2 not in " \
        "target ideal" in proc.stderr


def test_cli_map_with_a_missing_image_exit_one():
    text = ("ring A = QQ[x, y] / (0);\nring B = QQ[t] / (0);\n"
            "map f = A -> B [x -> t];")
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 1
    assert proc.stderr == ("error: line 3: no image for source variable "
                           "'y'\n")


def test_cli_renders_the_benchmark_session_byte_for_byte():
    """The text output of the benchmark's 40-show session (seed 1), against
    the bytes pinned in tests/golden/cli-session.txt."""
    workloads = _load_workloads()
    text = workloads.session_text(workloads.Presenter("cli-session", 1, 0))
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.joinpath("cli-session.txt").read_text()


def test_cli_renders_the_benchmark_session_from_a_file(tmp_path):
    """The same session, read from a file, gives the same bytes."""
    workloads = _load_workloads()
    path = tmp_path / "session.lim"
    path.write_text(
        workloads.session_text(workloads.Presenter("cli-session", 1, 0)))
    proc = run_cli([str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.joinpath("cli-session.txt").read_text()


def test_cli_reads_the_same_lines_from_a_file_and_from_stdin(tmp_path):
    """A lone \r ends a line, as \r\n and \n do, whether the session
    comes from a file or from stdin: stdout, stderr and the exit code
    agree."""
    sessions = {
        b"ring P = QQ[x] / (0);\rshow dim(P);\rshow dim(Q);": (
            1, b"# dim (line 2)\n1\n", b"error: line 3: "),
        b"ring P = QQ[x] / (0);\r\nshow dim(P);\r\nshow dim(Q);": (
            1, b"# dim (line 2)\n1\n", b"error: line 3: "),
    }
    for data, (code, out, err) in sessions.items():
        path = tmp_path / "s.lim"
        path.write_bytes(data)
        runs = [subprocess.run(
            [sys.executable, "-m", "limclose.frontend", arg], input=stdin,
            capture_output=True, timeout=300,
            cwd=str(Path(__file__).resolve().parent.parent))
            for arg, stdin in ((str(path), None), ("-", data))]
        got = [(p.returncode, p.stdout, p.stderr) for p in runs]
        assert got[0] == got[1], data
        assert got[0][:2] == (code, out) and got[0][2].startswith(err), data


def test_cli_finite_field_exit_two():
    proc = run_cli(["-"], stdin_text="ring P = Fp(5)[x] / (0);")
    assert proc.returncode == 2
    assert "unknown coefficient field 'Fp'" in proc.stderr


def test_cli_parse_error_exit_two():
    proc = run_cli(["-"], stdin_text="seq S = [x,];")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr
    assert "line 1, column 12" in proc.stderr


@pytest.mark.parametrize("text,col", [
    ("ring P = QQ[x] / (x\u00b2);\nshow dim(P);", 20),
    ("ring P = QQ[\u00e9] / (0);\nshow dim(P);", 13),
])
def test_cli_non_ascii_name_exit_two(text, col):
    """Names are ASCII: a superscript digit or an accented letter is a
    parse error, not part of a name."""
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 2
    assert "unexpected character" in proc.stderr
    assert f"line 1, column {col}" in proc.stderr


def test_cli_missing_file_exit_one(tmp_path):
    proc = run_cli([str(tmp_path / "nope.lim")])
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize("window", ["0", "-1", "1"])
def test_cli_stab_window_below_two_exit_one(window):
    text = "ring P = QQ[x, y] / (0); seq S = [x, y]; show limclose(P, S);"
    proc = run_cli(["-", "--stab-window", window], stdin_text=text)
    assert proc.returncode == 1
    assert f"stabilization window must be at least 2, got {window}" \
        in proc.stderr
    assert "index out of range" not in proc.stderr


def test_cli_stab_window_applies_to_limclose_mixed():
    # two chain terms cannot fill a window of three
    text = ("ring P = QQ[x, y] / (0); seq S = [x]; seq T = [y]; "
            "show limclose-mixed(P, S, 1, T, 1);")
    proc = run_cli(["-", "--stab-window", "3", "--n-max", "2"],
                   stdin_text=text)
    assert proc.returncode == 1
    assert "did not stabilize within n_max=2" in proc.stderr


@pytest.mark.parametrize("show,value", [
    ("topo(P, S, -1, 2)", -1), ("catalan-demo(-2)", -2), ("ij(P, S, 0)", 0),
    ("topo(P, S, 2, 0)", 0)])
def test_cli_non_positive_integer_argument_exit_one(show, value):
    text = f"ring P = QQ[x, y] / (0); seq S = [x, y]; show {show};"
    proc = run_cli(["-"], stdin_text=text)
    assert proc.returncode == 1
    command = show.split("(")[0]
    assert f"error: line 1: {command}: integer arguments must be at least " \
        f"1, got {value}" in proc.stderr
    assert proc.stdout == ""


def test_cli_negative_timeout_exit_two():
    proc = run_cli(["-", "--timeout-secs", "-1"],
                   stdin_text="ring P = QQ[x] / (0); show dim(P);")
    assert proc.returncode == 2
    assert "--timeout-secs must be >= 0, got -1" in proc.stderr


@pytest.mark.parametrize("secs,code", [("2147483647", 0), ("2147483648", 2)])
def test_cli_timeout_beyond_a_c_int_exit_two(secs, code):
    """signal.alarm takes a C int: a larger limit is a usage error, not an
    OverflowError."""
    proc = run_cli(["-", "--timeout-secs", secs],
                   stdin_text="ring P = QQ[x] / (0); show dim(P);")
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert f"--timeout-secs must be <= 2147483647, got {secs}" \
            in proc.stderr
    else:
        assert proc.stdout == "# dim (line 1)\n1\n"


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_cli_byte_that_is_not_utf8(tmp_path, via):
    """A byte that is not UTF-8 is ignored in a comment and an unexpected
    character anywhere else, read from a file or from stdin."""
    texts = {b"ring P = QQ[x] / (0); # \xff\nshow dim(P);": (0, ""),
             b"ring P = QQ[x] / (0);\nshow \xffdim(P);": (
                 2, "line 2, column 6: unexpected character")}
    for data, (code, err) in texts.items():
        path = tmp_path / "s.lim"
        path.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "limclose.frontend",
             str(path) if via == "file" else "-"],
            input=None if via == "file" else data, capture_output=True,
            timeout=300, cwd=str(Path(__file__).resolve().parent.parent))
        assert proc.returncode == code
        assert err.encode() in proc.stderr
        assert b"Traceback" not in proc.stderr
        if not code:
            assert proc.stdout == b"# dim (line 2)\n1\n"


def test_cli_gb_under_lex_order():
    """--order lex gives gb's reduced basis under lex, in text and JSON:
    here it differs from the grevlex basis."""
    V = ("x", "y", "z")
    x, y, z = (Polynomial.variable(v, V) for v in V)
    I = Ideal(V, [x ** 2 + y * z, y ** 2 - x * z])
    want = [str(g) for g in I.groebner(LEX).generators]
    assert want != [str(g) for g in I.groebner(GREVLEX).generators]
    text = ("ring P = QQ[x, y, z] / (0); ideal I = (x^2 + y*z, y^2 - x*z);"
            " show gb(P, I);")
    proc = run_cli(["-", "--order", "lex"], stdin_text=text)
    assert proc.returncode == 0
    assert proc.stdout == f"# gb (line 1)\n({', '.join(want)})\n"
    proc = run_cli(["-", "--order", "lex", "--json"], stdin_text=text)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == want


def test_cli_timeout_exit_three():
    # gb(C, I) with I = ((x+y+u)^4, u^4, v^4) takes well over the 1 s limit
    # (17.6 s on a 2-vCPU Xeon VM): Buchberger's coefficients swell on it
    text = ("ring C = QQ[x, y, u, v] / (x*y - u*x^2 - v*y^2);"
            " ideal I = ((x + y + u)^4, u^4, v^4); show gb(C, I);")
    proc = run_cli(["-", "--timeout-secs", "1"], stdin_text=text)
    assert proc.returncode == 3
    assert "timeout" in proc.stderr


def test_cli_failing_show_keeps_the_results_before_it():
    # show 2 of 3 raises (S is not a sop of the 3-dimensional ring): show 1
    # is printed, show 3 is never run, and the error goes to stderr
    text = ("ring P = QQ[x, y, z] / (0); seq S = [x, y];\n"
            "show dim(P);\nshow mult(P, S);\nshow dim(P);")
    for args in ([], ["--json"]):
        proc = run_cli(["-", *args], stdin_text=text)
        assert proc.returncode == 1
        assert proc.stderr == ("error: line 3: mult: sequence is not a "
                               "system of parameters\n")
        lines = proc.stdout.splitlines()
        if args:
            assert [json.loads(line)["value"] for line in lines] == [3]
        else:
            assert lines == ["# dim (line 2)", "3"]
