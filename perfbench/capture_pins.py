"""Capture pins.json: the expected (exit code, sha256 of stdout) of every
query of every workload, for every input variant.

    python3 perfbench/capture_pins.py

Run it only when the workloads change, on a commit whose outputs are known
good: the pins are the benchmark's definition of a correct answer.  Each
variant is run twice and must give the same digests both times.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pins = {}
    deadline = run.monotonic() + 24 * 3600
    for workload in workloads.WORKLOADS:
        pins[workload] = {}
        for variant in range(workloads.VARIANTS):
            first, second = (
                [q[:2] for q in run.run_pass(workload, variant, False, deadline)["queries"]]
                for _ in range(2)
            )
            if first != second:
                print(f"{workload} variant {variant}: outputs differ between runs", file=sys.stderr)
                return 1
            pins[workload][str(variant)] = {
                "inputs": run.inputs_digest(workload, variant),
                "outputs": first,
            }
            print(f"{workload} variant {variant}: {len(first)} queries pinned", file=sys.stderr)
    text = json.dumps(pins, indent=1, sort_keys=True)
    (run.HERE / "pins.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
