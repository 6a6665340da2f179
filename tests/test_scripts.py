"""The runnable experiments in `scripts/` import the library directly, so a
change of a signature they call breaks them without breaking any other
test.  Each runs here in a fresh interpreter (about 2 s in all) and must
exit 0 reporting the values its docstring promises; `catalan_table` is also
imported, to check that a mismatching row makes it exit 1."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_catalan_table_rows_match_the_closed_form():
    out = run_script("catalan_table.py", "3")
    assert out.count("matches") == 3
    assert "MISMATCH" not in out


def test_catalan_table_exits_1_on_a_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "catalan_table", ROOT / "scripts" / "catalan_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "local_equal", lambda *args: False)
    assert script.main(1) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_topology_scan_demo_verdicts():
    blocks = run_script("topology_scan_demo.py").strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks[:2]:   # regular plane, quadric
        assert block.endswith("topologies equivalent up to the scanned level")
    assert blocks[2].startswith("split ring")
    assert "INEQUIVALENT at k=2: closure element x never enters m^2" \
        in blocks[2]


def test_veronese_lengths_agree_with_the_semigroup_oracle():
    lines = run_script("veronese_lengths.py").splitlines()
    assert lines == [
        "semigroup oracle: l(R/(a,d)) = 5",
        "semigroup oracle: l(R/((a,d)S cap R)) = 3",
        "closure equals contraction: True",
        "l(R/(a,d))        = 5",
        "l(R/(a,d)^lim)    = 3",
        "l((a,d)^lim/(a,d)) = 2",
    ]
