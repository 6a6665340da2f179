"""One pass of one workload in a fresh interpreter; started by run.py.

Usage: python3 worker.py SRC_DIR WORKLOAD SEED VARIANT {run,setup,trace}
                         [SPANS_FILE]

SEED and VARIANT fix the presentation of the inputs (see workloads.py).

Prints one JSON object per line on stdout:
  {"event": "ready", "t", "tasks"}      set-up done at monotonic time t
  {"event": "task", "name", "ok", "s", "error"}   one per checked verdict
  {"event": "done", "wall_s", "rss_mb", "layers"}   after the last task
  {"event": "gauge", "task_busy", "task_f", "wall_busy", "wall_f"}
`setup` stops after "ready".  In the other modes `gauge.Gauge` samples the
host while the tasks run; "gauge", after "done", gives for each task (in
order) and for the pass the sampling seconds to take off its time and the
factor that then turns it into reference seconds.  `trace`
installs the tracer before set-up, adds its per-layer metrics to "done"
and writes the spans to SPANS_FILE.
"""

import json
import resource
import sys
import time

from gauge import Gauge


def emit(**fields):
    print(json.dumps(fields), flush=True)


def main(src_dir, workload, seed, variant, mode, spans_file=None):
    sys.path.insert(0, src_dir)
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    tasks = workloads.build(workload, seed, variant)
    ready = time.monotonic()
    emit(event="ready", t=ready, tasks=len(tasks))
    if mode == "setup":
        return 0
    host = Gauge().start()
    windows = []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        error = None
        try:
            ok = task.compute() == task.expected
        except Exception as exc:   # a failing task is recorded, not fatal
            ok, error = False, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        windows.append((t0, t1))
        emit(event="task", name=task.name, ok=ok, s=t1 - t0, error=error)
    end = time.perf_counter()
    host.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        tracer.write(spans_file)
    emit(event="done", wall_s=end - start, rss_mb=rss_mb, layers=layers)
    emit(event="gauge", task_busy=[host.busy(*w) for w in windows],
         task_f=[host.factor(*w) for w in windows],
         wall_busy=host.busy(start, end), wall_f=host.factor(start, end))
    return 0


if __name__ == "__main__":
    src, workload, seed, variant, mode, *rest = sys.argv[1:]
    sys.exit(main(src, workload, int(seed), int(variant), mode, *rest))
