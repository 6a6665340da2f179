"""The benchmark's `cli-session` workload pins the JSON answer of each of its
40 shows in `bench/expected/cli-session.json`.  This runs the workload once
(seed 1, variant 0) in-process and compares every answer, so a changed byte
fails the test suite and not only the benchmark's `verified_frac`.  The
benchmark's files are only read: no bytecode is written under `bench/`."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_cli_session_answers_match_the_pins():
    tasks = _load_workloads().build("cli-session", 1, 0)
    assert len(tasks) == 40
    wrong = []
    for task in tasks:
        got = task.compute()
        if got != task.expected:
            wrong.append((task.name, got, task.expected))
    assert not wrong
