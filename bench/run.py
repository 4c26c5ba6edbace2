#!/usr/bin/env python3
"""Benchmark of lattice_higgs: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-r1 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

Workloads (see workloads.py for the op of each):
  mc-r1     estimate_wilson at R1, 4 untilted chains
  mc-r2     Wilson-tilted ChainEnsemble at R2, 4 chains, periodic snapshot()
  exact-r3  a fixed mix of exact enumeration queries with twin cross-checks
  bounds-r1 gamma_stats, assumption_check, constants and appendix_sums per point

With ``--trace 0`` the last line reports the end-to-end metrics:
  setup_s        process start to the first timed op: the median time a
                 fresh interpreter takes to import the workload code, each
                 rescaled by a fresh interpreter importing numpy alone timed
                 around it, plus the median of the in-process set-up
                 repeats, each rescaled by a reference kernel timed around it
  ops_per_ref_s  median over rounds of ops per op-second, each round's rate
                 rescaled by a fixed reference kernel timed around it (see
                 workloads.ReferenceKernel), so that host speed drift cancels
  peak_rss_mb    peak resident memory of this process
The raw wall-clock ``setup_wall_s`` and ``ops_per_s``, and ``failed_ops_frac``
(failed / attempted of the last line), are printed above it.  With ``--trace 1`` the library's public functions are
wrapped (tracing.py) and the last line reports the per-layer metrics; the
spans are written to bench/out/.  BLAS and OpenMP pools are pinned to one
thread.  The program is imported from src/ of the checkout; without it the
benchmark exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NAMES = ["mc-r1", "mc-r2", "exact-r3", "bounds-r1"]
END_TO_END = [("setup_s", "s"), ("ops_per_ref_s", "1/s"), ("peak_rss_mb", "MB")]


def _load():
    """Import the workloads against the checkout's own src/, or exit 2."""
    os.environ.update(THREAD_PINS)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    try:
        import lattice_higgs
        import workloads
    except ImportError as exc:
        print(f"cannot import lattice_higgs from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(lattice_higgs.__file__).resolve().parent.parent != src.resolve():
        print(f"lattice_higgs imported from {lattice_higgs.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return workloads


IMPORT_REPEATS = 5
# A fresh interpreter that imports numpy alone: start-up and import work that
# the library cannot change, timed around each import of the workload code.
REFERENCE_IMPORT = "import numpy"
NOMINAL_IMPORT_S = 0.15  # its time on a reference host


def import_seconds(repeats):
    """(wall seconds, reference-import seconds around it) for each of ``repeats``
    fresh interpreters, from spawning one to its imports done."""

    def spawn(imports):
        code = f"import sys, time; sys.path[:0] = sys.argv[1:3]; {imports}; print(repr(time.time()))"
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
            capture_output=True, text=True, check=True, env=os.environ,
        )
        return float(proc.stdout) - start

    out = []
    before = spawn(REFERENCE_IMPORT)
    for _ in range(repeats):
        secs = spawn("import workloads")
        after = spawn(REFERENCE_IMPORT)
        out.append((secs, (before + after) / 2))
        before = after
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workload": workload.name,
        "op": workload.op,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args, workloads, workload):
    """Run one workload in this process and print its report; returns the result dict."""
    import tracing

    print("env " + json.dumps(environment(args, workload)))
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            out = workloads.measure(workload, args.seed, args.seconds, tracer)
    else:
        out = workloads.measure(workload, args.seed, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"rounds {len(out.rounds)}, set-up repeats {len(out.setup_s)}, "
        f"ops attempted {out.attempted}, failed {out.failed}"
    )
    if args.trace:
        units = {name: unit for name, unit, _ in workloads.LAYER_METRICS}
        values = workloads.layer_metrics(workload, out)
        metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
        table = workloads.self_time_table(out)
        for phase, rows in table.items():
            for name, row in rows.items():
                print(f"self-time {phase:5s} {name:32s} {row['self_s']:12.6f} s  {100 * row['share']:6.2f} %")
        tracer.dump(BENCH / "out" / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        imports = import_seconds(IMPORT_REPEATS)
        wall = lambda pairs: statistics.median(secs for secs, _ in pairs)
        values = {
            "setup_s": workloads.reference_time(imports, NOMINAL_IMPORT_S) + workloads.reference_time(out.setup_s),
            "ops_per_ref_s": workloads.ops_per_ref_s(out),
            "peak_rss_mb": rss_mb,
        }
        print(f"metric setup_wall_s = {wall(imports) + wall(out.setup_s)!r} s")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"metric ops_per_s = {workloads.ops_per_s(out)!r} 1/s")
    print(f"metric failed_ops_frac = {out.failed / out.attempted!r} 1")
    return {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so that peak memory stays per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workloads": results}


def main(argv=None, configs=None):
    """Parse arguments, run, and print the result JSON as the last line.

    ``configs`` maps workload names to replacement workload objects (used by
    the self-test to run tiny sizes).
    """
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        workloads = _load()
        workload = (configs or {}).get(args.workload) or workloads.WORKLOADS[args.workload]
        result = run_one(args, workloads, workload)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
