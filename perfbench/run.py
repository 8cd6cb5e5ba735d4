"""The finkit benchmark: CLI workloads timed end to end, and a traced run
that times the layers underneath.

    python3 perfbench/run.py --workload search --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one table

Each workload is a fixed list of finkit command lines (workloads.py).  One
closed-loop client runs them in process through finkit.cli.run at the
default --threads 1: a query starts only when the previous one has
returned.  Every pass over the list runs in a fresh child interpreter
(child.py), one child at a time, so no in-process cache survives from one
pass to the next, as for a CLI user.  Passes repeat until --seconds have
elapsed (at least MIN_PASSES); every metric is the median over passes.

Every query's (exit code, sha256 of stdout) must equal the digest pinned in
pins.json for the seed's input variant.  stderr is not compared.

With --trace 1 the run adds TRACED_PASSES passes with every public finkit
function wrapped (tracer.py) and reports the per-layer metrics instead of
the end-to-end ones.  The traced stdout digests must equal the untraced
ones, and every count must repeat exactly across the traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table
and the stamp of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
TRACED_PASSES = 3
TIME_LIMIT_S = 170.0  # per workload: a run must end within 180 s
THREADS_NOTE = (
    "--threads is left at its default 1: the thread pool is deliberately not "
    "exercised, because --threads 2 measured slower on every workload"
)


class BenchError(Exception):
    pass


def monotonic() -> float:
    # The child stamps the end of its set-up on the same system-wide clock.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh child; returns the child's report plus setup_s."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    spans = WORK / f"spans-{workload}.bin"
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), workdir]
    argv += ["1" if trace else "0", str(spans)]
    t0 = monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"the {workload} child exited with code {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report.pop("ready") - t0
    return report


def inputs_digest(workload: str, seed: int) -> str:
    files, queries = workloads.build(workload, seed)
    blob = json.dumps([sorted(files.items()), queries])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def end_to_end(passes: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [p["setup_s"] for p in passes],
        "solve_s": [p["solve_s"] for p in passes],
        "query_s_max": [max(q[2] for q in p["queries"]) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_value(name: str, totals: dict, overhead_ratio: float) -> float:
    """A per-layer metric `<module>.<function>.<stat>` from the tracer totals."""
    if name == "trace.overhead_ratio":
        return overhead_ratio
    prefix, _, stat = name.rpartition(".")

    def get(key: str) -> float:
        return totals.get(f"{prefix}.{key}", 0)

    if stat == "repeat_ratio":  # calls per distinct (query, sequence, window)
        return _ratio(get("calls"), get("distinct_inputs"))
    if stat == "useful_ratio":  # items examined per item materialised
        return _ratio(get("examined"), get("items"))
    if stat == "hit_ratio":  # decompositions found per call
        return _ratio(get("hits"), get("calls"))
    return get(stat)


def check(workload: str, seed: int, pins: dict, passes: list[dict], traced: list[dict]):
    """Compare every query with its pin; returns (attempted, failed, problems)."""
    pinned = pins[workload][str(seed % workloads.VARIANTS)]
    problems = []
    if pinned["inputs"] != inputs_digest(workload, seed):
        problems.append("the generated inputs differ from the pinned inputs")
    expected = pinned["outputs"]
    attempted = failed = 0
    for p in passes + traced:
        for i, (code, digest, _) in enumerate(p["queries"]):
            attempted += 1
            if problems or [code, digest] != expected[i]:
                failed += 1
    if traced:
        plain = [q[:2] for q in passes[0]["queries"]]
        if any([q[:2] for q in t["queries"]] != plain for t in traced):
            problems.append("traced stdout digests differ from the untraced ones")
        counts = [
            {k: v for k, v in t["totals"].items() if not k.endswith(".self_s")}
            for t in traced
        ]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("count metrics differ between traced passes")
    return attempted, failed, problems


def stamp(seed: int, passes: int, traced: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False,
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "input_variant": seed % workloads.VARIANTS,
        "passes": passes,
        "traced_passes": traced,
        "threads": 1,
        "note": THREADS_NOTE,
    }


def measure(workload, seed, seconds, trace, spec, pins):
    """Run one workload; print its table; return (attempted, failed, ok, metrics)."""
    start = monotonic()
    deadline = start + TIME_LIMIT_S
    passes = []
    while len(passes) < MIN_PASSES or monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, False, deadline))
    traced = [run_pass(workload, seed, True, deadline) for _ in range(TRACED_PASSES if trace else 0)]
    attempted, failed, problems = check(workload, seed, pins, passes, traced)

    print(f"# {workload}: stamp {json.dumps(stamp(seed, len(passes), len(traced)))}")
    series = end_to_end(passes)
    metrics = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in series.items():
        q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
        print(f"{workload:8s} {name:13s} {med:12.6f} {units[name]:3s} (q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)})")
        metrics[name] = med
    print(f"{workload:8s} {'failed_frac':13s} {failed / attempted:12.6f} 1   ({failed} of {attempted} queries)")
    for text in problems:
        print(f"{workload:8s} FAILED: {text}")

    if trace:
        overhead = statistics.median(t["solve_s"] for t in traced) / metrics["solve_s"]
        totals = dict(traced[0]["totals"])
        for key in totals:
            if key.endswith(".self_s"):
                totals[key] = statistics.median(t["totals"][key] for t in traced)
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = layer_value(m["name"], totals, overhead)
            print(f"{workload:8s} {m['name']:46s} {metrics[m['name']]:16.6f} {m['unit']}")
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return attempted, failed, not problems and failed == 0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finkit" / "__init__.py").is_file():
        print(f"error: no finkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for name in names:
            a, f, ok, m = measure(name, args.seed, seconds, args.trace, spec, pins)
            attempted, failed, correct = attempted + a, failed + f, correct and ok
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
