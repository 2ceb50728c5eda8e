"""Run every workload, each in its own process, untraced and then traced.

    python3 perfbench/suite.py [--seed 1] [--seconds 20]

For each workload it passes through what run.py prints (every metric with its
unit and sample count, the item verdicts, the run metadata) and adds the
tracing overhead: the traced op median over the untraced one, both in
reference-loop units (see run.py). Exit status is 1 if any
workload reported wrong outputs or failed to run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(name: str, args: argparse.Namespace, trace: int) -> dict | None:
    """Runs one workload, prints its report, returns its result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    print(f"== {name} ({'per layer, traced' if trace else 'end to end'})")
    if proc.returncode != 0 or not lines:
        print(f"exit code {proc.returncode}\n{proc.stderr}")
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        plain, traced = run(name, args, 0), run(name, args, 1)
        if plain is None or traced is None:
            status = 1
            continue
        status |= not (plain["correct"] and traced["correct"])
        overhead = (traced["metrics"]["bench.op.traced_p50_ref"]["value"]
                    / plain["metrics"]["op_p50_ref"]["value"] - 1.0)
        print(f"== {name}: tracing overhead (traced / untraced op median - 1) {overhead:.1%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
