"""The benchmark's tracer (`bench/tracer.py`) wraps the public functions of
every layer and reads some of their arguments by name.  This runs it over a
small computation in a fresh interpreter, so a kernel signature change that
breaks `bench/run.py --trace 1` fails here, and checks that every function
the tracer times still exists."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import Tracer, metric_units, src_lines
tracer = Tracer()
tracer.install()
from limclose import detmaps, limitclosure, structure
from limclose.idealops import Ideal
from limclose.localring import LocalRingContext, SequenceInR
from limclose.polycore import Polynomial
V = ("x", "y")
x, y = (Polynomial.variable(v, V) for v in V)
ctx = LocalRingContext(V, Ideal(V, []))
seq = SequenceInR([x, y], ctx)
limitclosure.limit_closure(seq)
detmaps.express_in_terms(SequenceInR([x + 2 * y, x - y], ctx), seq)
structure.hilbert_samuel(seq.ideal(), ctx, K=3)
out = tracer.summary()
out.update(src_lines({src!r}))
print(json.dumps({{"summary": out, "units": sorted(metric_units())}}))
"""


def test_tracer_runs_over_the_kernel():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout.splitlines()[-1])
    summary = data["summary"]
    assert set(summary) == set(data["units"]) - {"trace.overhead_s"}
    for name in ("limitclosure.limit_closure", "detmaps.express_in_terms",
                 "structure.hilbert_samuel"):
        assert summary[f"{name}.calls"] == 1
    assert summary["groebner.buchberger.calls"] > 0
    assert summary["groebner.normal_form.calls"] > 0
    assert summary["groebner.buchberger.distinct_inputs"] > 0


# Tracer names whose function is gone, to be dropped at the next change of
# the benchmark: until then their metrics read 0.
RETIRED = {"localring.truncated_quotient_dim", "groebner.reduce_basis",
           "idealops.standard_monomials"}


def test_every_timed_name_resolves():
    """A function deleted or renamed under a name the tracer times would
    silently read 0 calls; every such name must resolve in limclose."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracer import TIMED
    finally:
        sys.path.remove(str(ROOT / "bench"))
    missing = []
    for name in TIMED:
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"limclose.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert sorted(missing) == sorted(RETIRED)
