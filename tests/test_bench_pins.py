"""The benchmark's workloads pin the answer of every task: the `cli-session`
workload the JSON answer of each of its 40 shows, in
`bench/expected/cli-session.json`, and `catalan-colon` and `length-tables`
their colon-table verdicts and length tables, in `bench/workloads.py`.
This builds each workload once (seed 1, variant 0) in-process and compares
every answer, so a changed answer fails the test suite and not only the
benchmark's `verified_frac`.  The benchmark's files are only read: no
bytecode is written under `bench/`."""

import importlib.util
import sys
from pathlib import Path

import pytest

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


def _assert_pinned(workload, count):
    tasks = _load_workloads().build(workload, 1, 0)
    assert len(tasks) == count
    wrong = []
    for task in tasks:
        got = task.compute()
        if got != task.expected:
            wrong.append((task.name, got, task.expected))
    assert not wrong


def test_cli_session_answers_match_the_pins():
    _assert_pinned("cli-session", 40)


@pytest.mark.parametrize("workload, count",
                         [("catalan-colon", 5), ("length-tables", 6)])
def test_table_workload_answers_match_the_pins(workload, count):
    _assert_pinned(workload, count)
