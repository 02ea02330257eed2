"""plprobe benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload recover-grid --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations, one after another, until
`--seconds` have passed (at least one round), checks every output against
references the benchmark computes itself, and prints each metric by name
with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` rounds alternate untraced and
traced, and the metrics are the per-layer ones plus the tracing overhead.
Full details (fingerprint, round times, spans) go to
.perfbench_out/<workload>/result.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "max_rel_error": "1"}


def _openblas_libraries() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for key, suffix, restype in (("config", "get_config", ctypes.c_char_p),
                                     ("threads", "get_num_threads", ctypes.c_int)):
            for prefix in ("openblas_", "scipy_openblas_"):
                for tail in ("", "64_"):
                    fn = getattr(lib, prefix + suffix + tail, None)
                    if fn is not None:
                        fn.restype = restype
                        value = fn()
                        info[key] = value.decode() if isinstance(value, bytes) else value
        found.append(info)
    return found


def fingerprint() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas_libraries(),
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", ""),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "")}


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import plprobe.cli, after one
    untimed import that fills the bytecode and file caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import plprobe.cli"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        if k:
            samples.append(time.perf_counter() - start)
    return samples


def _steal_seconds() -> float:
    """CPU time the hypervisor took from this machine, all CPUs summed."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_round(workload, tracer=None):
    """One round: every operation once.  Returns the round's wall seconds
    and (label, outcome, seconds) per operation."""
    outcomes = []
    start = time.perf_counter()
    for label, op in workload.operations():
        op_start = time.perf_counter()
        if tracer is None:
            outcome = op()
        else:
            with tracer.operation(label):
                outcome = op()
        outcomes.append((label, outcome, time.perf_counter() - op_start))
    return time.perf_counter() - start, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="recover-grid, probe-check or cold-solve")
    ap.add_argument("--seed", type=int, default=20261017)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "plprobe" / "cli.py").is_file():
        print(f"error: no plprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plprobe
    if Path(plprobe.__file__).resolve().parent != SRC / "plprobe":
        print(f"error: imported plprobe from {plprobe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True), flush=True)
    setup = [] if args.trace else measure_setup()

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    tracer = spans.Tracer() if args.trace else None
    rounds, layer_rounds = [], []
    attempted = failed = 0
    problems, errors = [], []

    def walls(traced):
        return [r["wall_s"] for r in rounds if r["traced"] == traced]

    started = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds
        traced = tracer is not None and len(walls(True)) < len(walls(False))
        cpu_start, steal_start = time.process_time(), _steal_seconds()
        if traced:
            first_span = len(tracer.spans)
            with tracer.installed():
                wall, outcomes = run_round(workload, tracer)
            layer_rounds.append(spans.layer_metrics(tracer.spans[first_span:]))
            for span in tracer.spans[first_span:]:
                span.solve = None  # release the round's grids and fields
        else:
            wall, outcomes = run_round(workload)
        rounds.append({"traced": traced, "wall_s": wall,
                       "cpu_s": time.process_time() - cpu_start,
                       "steal_s": _steal_seconds() - steal_start,
                       "op_s": {label: secs for label, _, secs in outcomes}})
        for label, outcome, _ in outcomes:
            attempted += 1
            failed += outcome.failed
            problems += [f"{label}: {msg}" for msg in outcome.problems]
            if outcome.error is not None:
                errors.append(outcome.error)
        if time.perf_counter() - started >= args.seconds and (
                tracer is None or layer_rounds):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        units = spans.PER_LAYER_UNITS
        values = {key: statistics.median_low(r[key] for r in layer_rounds)
                  for key in layer_rounds[0]}
        values["trace_overhead_s"] = (statistics.median(walls(True))
                                      - statistics.median(walls(False)))
    else:
        units = END_TO_END_UNITS
        values = {"wall_s": statistics.median(walls(False)),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mib": peak_rss_mib,
                  "max_rel_error": max(errors, default=float("nan"))}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = not problems and bool(errors)

    details = {"args": vars(args), "fingerprint": fp, "setup_s_samples": setup,
               "rounds": rounds, "layer_rounds": layer_rounds, "problems": problems,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    if tracer:
        details["spans"] = [s.as_dict(i) for i, s in enumerate(tracer.spans)]
    (out_dir / "result.json").write_text(json.dumps(details, indent=1) + "\n")

    for msg in problems:
        print(f"CHECK FAILED {msg}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
