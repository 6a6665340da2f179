"""limclose benchmark: time to a checked verdict on fixed workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload catalan-colon --seed 1 --seconds 40 --trace 0

One client in a closed loop: one process, one thread of work (beside the
host gauge's sampling thread), each task starting after the previous
verdict.  A pass runs every task of the workload once in
a fresh interpreter (`worker.py`), so no state carries over between passes;
passes run one after another until `--seconds` would be exceeded (at least
one).  Every verdict is checked against its pinned value.

`--trace 0` reports the end-to-end metrics: means over the passes, and
for set-up the median of set-up-only launches.  Times are in reference
seconds (see `gauge.py`): each measured time is scaled by how fast a host
gauge ran while it was measured, which takes out most of the drift that
other tenants of a shared host cause.  The summary lines give the raw
seconds and the factors as well.  `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of `tracer.py`.  A summary
goes to stdout first; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gauge import REF_UNIT_S, burst
from tracer import COUNTERS, metric_units, src_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

WORKLOADS = ("catalan-colon", "length-tables", "cli-session")
END_TO_END = {"wall_s": "s", "task_p50_s": "s", "task_max_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB", "verified_frac": "ratio"}
SETUPS = 21             # set-up-only launches per run, after the passes
HARD_LIMIT_S = 140      # a pass still running then is killed
SETUP_LIMIT_S = 5       # each set-up-only launch, so a run ends within 180 s


@dataclass
class Pass:
    mode: str
    setup_s: float | None = None
    n_tasks: int | None = None
    tasks: list = field(default_factory=list)   # (name, ok, seconds, error)
    task_ref: list | None = None    # each task in reference seconds
    wall_s: float | None = None
    wall_f: float | None = None     # gauge factor of the whole pass
    wall_ref: float | None = None   # the pass in reference seconds
    rss_mb: float | None = None
    layers: dict | None = None
    elapsed_s: float = 0.0
    problem: str | None = None


def launch(workload, seed, variant, mode, deadline, spans_file=None):
    """Run worker.py once; a pass that crashes or outlives `deadline` keeps
    the tasks it finished and records what went wrong."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(SRC),
           workload, str(seed), str(variant), mode]
    if spans_file is not None:
        cmd.append(str(spans_file))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    p = Pass(mode)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        out, err = proc.stdout, proc.stderr
        if proc.returncode != 0:
            p.problem = f"exit {proc.returncode}: {err.strip()[-400:]}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) \
            else exc.stdout or ""
        p.problem = "killed at the benchmark's time limit"
    p.elapsed_s = time.monotonic() - t0
    for line in out.splitlines():
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            continue        # a line cut off by the kill
        if ev["event"] == "ready":
            p.setup_s = ev["t"] - t0
            p.n_tasks = ev["tasks"]
        elif ev["event"] == "task":
            p.tasks.append((ev["name"], ev["ok"], ev["s"], ev["error"]))
        elif ev["event"] == "done":
            p.wall_s, p.rss_mb, p.layers = ev["wall_s"], ev["rss_mb"], \
                ev["layers"]
        elif ev["event"] == "gauge":
            p.task_ref = [(t[2] - b) * f for t, b, f in
                          zip(p.tasks, ev["task_busy"], ev["task_f"])]
            p.wall_f = ev["wall_f"]
            p.wall_ref = (p.wall_s - ev["wall_busy"]) * p.wall_f
    return p


def setup_times(workload, seed):
    """Set-up of SETUPS set-up-only launches in reference seconds, each
    scaled by a gauge burst run just before and just after it."""
    times = []
    for variant in range(SETUPS):
        before = burst()
        s = launch(workload, seed, variant, "setup",
                   time.monotonic() + SETUP_LIMIT_S).setup_s
        after = burst()
        if s is not None:
            times.append(s * REF_UNIT_S / ((before + after) / 2))
    return times


def run_passes(workload, seed, seconds, trace):
    """Passes until the next would end after `seconds`, each on its own
    presentation of the inputs.  With `trace` they alternate untraced and
    traced, at least one of each, all on the first presentation so that
    the traced counts repeat and the overhead compares like with like."""
    start = time.monotonic()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S
    modes = ("run", "trace") if trace else ("run",)
    passes = []
    spans = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    while True:
        mode = modes[len(passes) % len(modes)]
        variant = 0 if trace else len(passes)
        passes.append(launch(workload, seed, variant, mode, hard,
                             spans if mode == "trace" else None))
        if len(passes) < len(modes):
            continue
        cost = statistics.median(p.elapsed_s for p in passes)
        if time.monotonic() + cost > min(deadline, hard):
            break
    return passes


def tally(passes):
    """(attempted, failed): tasks a pass never reached count as failed."""
    full = max((p.n_tasks or 0 for p in passes), default=0) or 1
    attempted = failed = 0
    for p in passes:
        n = p.n_tasks or full
        attempted += max(n, len(p.tasks))
        failed += sum(1 for t in p.tasks if not t[1])
        failed += max(0, n - len(p.tasks))
    return attempted, failed


def task_times(passes):
    """Each task's mean over the finished passes, in reference seconds."""
    per_task = {}
    for p in passes:
        if p.task_ref is None:
            continue        # a pass that did not finish has no gauge
        for (name, *_), seconds in zip(p.tasks, p.task_ref):
            per_task.setdefault(name, []).append(seconds)
    return {name: statistics.fmean(v) for name, v in per_task.items()}


def end_to_end(workload, seed, passes):
    """All times in reference seconds.  wall_s is the mean over the
    finished passes and a task's time is its mean over them, so that a run
    weighs the generator orders its passes cover alike (see workloads.py);
    task_p50_s and task_max_s are the median and the largest task time.
    Set-up, which is short, is the median of many launches."""
    setups = setup_times(workload, seed) or [0.0]
    task_s = list(task_times(passes).values()) or [0.0]
    walls = [p.wall_ref for p in passes if p.wall_ref is not None] \
        or [max(p.elapsed_s for p in passes)]
    rss = [p.rss_mb for p in passes if p.rss_mb is not None] or [0.0]
    attempted, failed = tally(passes)
    return {
        "wall_s": statistics.fmean(walls),
        "task_p50_s": statistics.median(task_s),
        "task_max_s": max(task_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "verified_frac": (attempted - failed) / attempted,
    }


def per_layer(passes):
    """Counts from the first traced pass; times are medians over the traced
    passes in reference seconds, each pass's scaled by its gauge factor
    (self times still hold the gauge's sampling, about 5% of a pass)."""
    traced = [p for p in passes if p.mode == "trace" and p.layers]
    plain = [p.wall_ref for p in passes if p.mode == "run" and p.wall_ref]
    out = {name: 0.0 for name in metric_units()}
    if traced:
        first = traced[0].layers
        for name in first:
            if name.endswith(".calls") or name in COUNTERS:
                out[name] = first[name]
                differ = {p.layers[name] for p in traced} - {first[name]}
                if differ:
                    print(f"warning: {name} differs between traced passes: "
                          f"{first[name]} vs {sorted(differ)}")
            elif name.endswith("_s"):
                out[name] = statistics.median(
                    p.layers[name] * (p.wall_f or 1.0) for p in traced)
            else:
                out[name] = statistics.median(p.layers[name] for p in traced)
        if plain:
            out["trace.overhead_s"] = (
                statistics.median(p.wall_ref for p in traced if p.wall_ref)
                - statistics.median(plain))
    out.update(src_lines(SRC))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "limclose" / "__init__.py").is_file():
        print(f"error: no limclose sources under {SRC}", file=sys.stderr)
        return 2

    passes = run_passes(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    if args.trace:
        metrics = per_layer(passes)
        units = metric_units()
    else:
        metrics = end_to_end(args.workload, args.seed, passes)
        units = END_TO_END
    attempted, failed = tally(passes)

    for i, p in enumerate(passes, 1):
        slow = max(p.tasks, key=lambda t: t[2], default=None)
        print(f"pass {i} ({p.mode}): set-up {p.setup_s or 0:.3f} s, "
              f"{sum(t[1] for t in p.tasks)}/{p.n_tasks} verified, "
              f"wall {p.wall_s or 0:.3f} s, gauge factor {p.wall_f or 0:.3f}"
              + (f", slowest {slow[0]} {slow[2]:.3f} s" if slow else ""))
        for name, ok, _, error in p.tasks:
            if not ok:
                print(f"  FAILED {name}: {error or 'wrong answer'}")
        if p.problem:
            print(f"  pass incomplete: {p.problem}")
    if not args.trace:
        print("task means in reference seconds: " + ", ".join(
            f"{name} {s:.4f}" for name, s in task_times(passes).items()))
    n_tasks = max((p.n_tasks or 0 for p in passes), default=0)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{n_tasks} tasks; task_max_s is the slowest of {n_tasks}; "
          f"failed {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
