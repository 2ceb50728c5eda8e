"""Run one covertawgn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_detect --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs as a closed loop in this
one process: set-up, reference values (untimed), warm-up (untimed), then
operations back to back until --seconds have passed and at least MIN_OPS
have run, with the reference loop (see reference_loop_s) timed before the
first op and after each one. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run (see tracing.py). Earlier
lines give each metric with its sample count, the correctness verdicts and
the run metadata. --smoke shrinks every input for a quick check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# ops per run at the least, so op_p50_ref is a median even on a slow machine
MIN_OPS = 5
MAX_MESSAGES = 8
REF_VALUES = np.linspace(0.1, 2.0, 200_000)
REF_BUFFER = np.ones_like(REF_VALUES)  # written here, so no loop pays its page faults
REF_REPEATS = 40
# The reference loop's time on the machine this benchmark was written on (a
# 2-vCPU Intel Xeon VM). setup_s is set-up time at that speed; changing this
# constant would rescale every setup_s ever recorded.
REF_NOMINAL_S = 0.040

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "items_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up, one op")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "covertawgn", "__init__.py")):
        raise SystemExit(f"error: no covertawgn sources under {SRC}")
    sys.path.insert(0, SRC)
    import covertawgn

    if not os.path.abspath(covertawgn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported covertawgn from {covertawgn.__file__}")


def timed_setups(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Set-up of fresh processes that import covertawgn, build the
    workload's inputs, time the reference loop and exit. Returns each one's
    wall time without the loop, and the same scaled to the loop's nominal
    speed (REF_NOMINAL_S) by the loop time measured in that process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    walls, scaled = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
        wall = time.perf_counter() - t0
        ref = float(out.split()[-1])
        walls.append(wall - ref)
        scaled.append((wall - ref) * REF_NOMINAL_S / ref)
    return walls, scaled


def blas_threads() -> int | str:
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "src_lines": src_lines,
    }


def reference_loop_s() -> float:
    """Wall time of the benchmark's fixed reference loop: elementwise numpy
    work on a fixed array, no covertawgn code. It writes into a buffer made
    once, so its time does not depend on the state of the process's heap,
    which the program under test leaves behind.

    The shared 2-vCPU host this benchmark was written on runs the same code
    up to about 1.5 times slower for minutes at a time. An op's time divided
    by the time of this loop, measured beside it, is the op's cost in units
    of the machine's speed at that moment; it keeps a program change at full
    size.
    """
    t0 = time.perf_counter()
    v, buf = REF_VALUES, REF_BUFFER
    for _ in range(REF_REPEATS):
        np.negative(v, out=buf)
        np.exp(buf, out=buf)
        np.add(buf, v, out=buf)
        np.log(buf, out=buf)
        buf.sum()
    return time.perf_counter() - t0


def run_ops(wl, seconds: float, min_ops: int, tracer=None) -> tuple[dict, dict, list]:
    """Operations back to back until `seconds` have passed and `min_ops` have
    run; each op's spans carry its id when a tracer is given. Returns each
    op's wall time, the mean reference-loop time before and after it, and the
    ops' tallies."""
    times, refs, tallies = {}, {}, []
    i = 0
    ref_before = reference_loop_s()
    t_start = time.perf_counter()
    while True:
        if tracer:
            tracer.op_id = i
        t0 = time.perf_counter()
        tallies.append(wl.op(i))
        times[i] = time.perf_counter() - t0
        if tracer:
            tracer.op_id = -1
        ref_after = reference_loop_s()
        refs[i] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        i += 1
        if i >= min_ops and time.perf_counter() - t_start >= seconds:
            return times, refs, tallies


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    min_ops = 1 if args.smoke else MIN_OPS
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR, smoke=args.smoke)
    wl.setup()
    if args.setup_only:
        print(reference_loop_s())
        return 0
    setup_walls, setups = ([], []) if args.trace else timed_setups(args)
    wl.reference()
    wl.warmup()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# meta " + json.dumps(metadata(args.seed)))

    if args.trace:
        from tracing import Tracer, metric_units

        tracer = Tracer()
        tracer.install()
        try:
            times, refs, tallies = run_ops(wl, args.seconds, min_ops, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        values = tracer.per_op_metrics(times)
        values["bench.op.traced_p50_ref"] = statistics.median(times[i] / refs[i] for i in times)
        units = metric_units()
        samples = {name: len(times) for name in units}
    else:
        times, refs, tallies = run_ops(wl, args.seconds, min_ops)
        items = sum(t.items for t in tallies)
        passed = sum(t.ok for t in tallies)
        ratios = [times[i] / refs[i] for i in times]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ref": statistics.median(ratios),
            "items_per_ref": statistics.median(t.items / r for t, r in zip(tallies, ratios)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": passed / items,
        }
        units = END_TO_END_UNITS
        print(f"# wall clock: op_p50_s={statistics.median(times.values()):.6g} "
              f"items_per_s={items / sum(times.values()):.6g} "
              f"ref_p50_s={statistics.median(refs.values()):.6g} "
              f"setup_p50_s={statistics.median(setup_walls):.6g}")
        print("# op_s " + " ".join(f"{t:.4f}" for t in times.values()))
        print("# ref_s " + " ".join(f"{t:.4f}" for t in refs.values()))
        print("# setup_wall_s " + " ".join(f"{t:.4f}" for t in setup_walls))
        print("# setup_s " + " ".join(f"{t:.4f}" for t in setups))
        samples = {"setup_s": len(setups), "op_p50_ref": len(times), "items_per_ref": len(times),
                   "peak_rss_mb": 1, "pass_ratio": items}

    for name, unit in units.items():
        print(f"{name:44s} {values[name]:>14.6g} {unit:6s} n={samples[name]}")
    attempted = sum(t.items for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    defects = sum(t.defects for t in tallies)
    print(f"# items attempted={attempted} ok={attempted - wrong - defects} "
          f"known_defects={defects} wrong={wrong} "
          f"fail_ratio={(wrong + defects) / attempted:.6g}")
    messages = list(dict.fromkeys(m for t in tallies for m in t.messages))
    for m in messages[:MAX_MESSAGES]:
        print(f"#   {m}")
    if len(messages) > MAX_MESSAGES:
        print(f"#   ... and {len(messages) - MAX_MESSAGES} more")
    print(f"# verdict: {'correct' if wrong == 0 else 'WRONG OUTPUTS'}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
