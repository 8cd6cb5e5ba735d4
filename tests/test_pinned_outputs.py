"""Every benchmark query at seed 0, and at the held-out seed 1, prints the bytes
pinned in perfbench/pins.json.

The pins are the (exit code, sha256 of stdout) of each query of each
workload; checking them here makes byte-identical output part of the test
suite, not only of a benchmark run.
"""

import hashlib
import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from finkit.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))


def check_pins(workload, seed, tmp_path, monkeypatch):
    files, queries = workloads.build(workload, seed)
    pin = PINS[workload][str(seed)]
    inputs = json.dumps([sorted(files.items()), queries])
    assert hashlib.sha256(inputs.encode("utf-8")).hexdigest() == pin["inputs"]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got = []
    for argv in queries:
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = run(argv)
        got.append([code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()])
    assert got == pin["outputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_outputs_match_pins(workload, tmp_path, monkeypatch):
    check_pins(workload, 0, tmp_path, monkeypatch)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed1_outputs_match_pins(workload, tmp_path, monkeypatch):
    check_pins(workload, 1, tmp_path, monkeypatch)
