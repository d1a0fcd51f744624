"""homsim benchmark: time a workload end to end, check its answers, and
optionally trace it layer by layer.

    python3 bench/run.py --workload preset_multimode --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs as a closed loop, one task after another in one
process: a warm-up task (reported, not timed), then tasks until
`--seconds` have passed.  `--trace 0` reports the end-to-end metrics;
`--trace 1` runs each repetition twice, untraced and with spans installed,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; a run record and, when traced, the spans are written
under bench/results/.  `--workload all` runs every workload, each in a
fresh process.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# One BLAS/OpenMP thread, on every machine: the thread count changes which
# layer dominates (multimode set-up 3.4 s at one thread, 2.2 s at two), so
# it is fixed, and one never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("preset_single_mode", "preset_multimode", "oracle_sweep")
END_TO_END = {"solve_s": "s", "setup_s": "s", "scan_s": "s", "peak_rss_mib": "MiB"}
MIN_TIMED_TASKS = 3
MAX_TASKS = 500
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pin_threads():
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)


def import_program():
    """Import homsim from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "homsim" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no homsim package under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import homsim

    if Path(homsim.__file__).resolve().parent != SRC / "homsim":
        sys.stderr.write(f"bench: imported homsim from {homsim.__file__}, not {SRC}\n")
        sys.exit(2)


def summary(values):
    """Median and the highest listed percentile with >= 10 samples beyond it."""
    import numpy as np

    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def describe_timing(name, unit, stats):
    tails = [f"{k} {v:.4f} {unit}" for k, v in stats.items() if k.startswith("p")]
    tail = tails[0] if tails else "no percentile has 10 samples beyond it"
    return f"  {name:<14} median {stats['median']:.4f} {unit}  (n={stats['n']}; {tail})"


def timed_loop(workload, tally, seconds):
    """Closed loop of tasks for `seconds`; returns per-metric samples and
    the answers by repetition.  A workload's separate set-up sample is
    taken inside the operation, so its failure is counted too."""
    samples, answers = {}, {}

    def task():
        setup = workload.setup_sample()
        timings, answer = workload.task(rep)
        return (timings if setup is None else dict(timings, setup_s=setup)), answer

    deadline = time.perf_counter() + seconds
    for rep in range(MAX_TASKS):
        if rep >= MIN_TIMED_TASKS and time.perf_counter() >= deadline:
            break
        done = tally.attempt(task, workload.check)
        if done is None:
            continue
        timings, answers[rep] = done
        for key, value in timings.items():
            samples.setdefault(key, []).append(value)
    return samples, answers


def traced_loop(workload, tally, seconds):
    """Closed loop of pairs for `seconds`: each repetition runs untraced and
    then with spans installed, or the other way round on odd repetitions.

    Both halves of a pair are one operation; it fails if either answer
    fails the gate or the traced answer differs from the untraced one.
    Returns the tracer, each pair's traced and untraced solve_s, and the
    answers by repetition.
    """
    import spans

    tracer = spans.Tracer()

    def untraced():
        timings, answer = workload.task(rep)
        return timings["solve_s"], answer

    def traced():
        tracer.rep = rep
        with spans.installed(tracer):
            timings, answer = workload.task(rep)
        return timings["solve_s"], answer

    def pair():
        if rep % 2 == 0:
            plain_s, plain = untraced()
            traced_s, answer = traced()
        else:
            traced_s, answer = traced()
            plain_s, plain = untraced()
        return {"rep": rep, "traced_s": traced_s, "untraced_s": plain_s}, (plain, answer)

    def check(answers):
        plain, answer = answers
        if answer != plain:
            return False, f"traced answer {answer!r} differs from untraced {plain!r}"
        return workload.check(plain)

    pairs, answers = [], {}
    deadline = time.perf_counter() + seconds
    for rep in range(MAX_TASKS):
        if rep >= MIN_TIMED_TASKS and time.perf_counter() >= deadline:
            break
        done = tally.attempt(pair, check)
        if done is not None:
            pairs.append(done[0])
            answers[rep] = done[1][0]
    return tracer, pairs, answers


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(name, seed, seconds, trace):
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed)
    tally = workloads.Tally()
    t0 = time.perf_counter()
    tally.attempt(lambda: workload.task(0), workload.check)
    warmup_s = time.perf_counter() - t0
    lines = [f"homsim benchmark: workload={name} seed={seed} seconds={seconds:g} "
             f"trace={trace} blas_threads={BLAS_THREADS}",
             f"  inputs {json.dumps(workload.describe())}",
             f"  warm-up task (not timed) {warmup_s:.4f} s"]
    record = {"workload": name, "seed": seed, "inputs": workload.describe(), "trace": trace,
              "machine": machine_info(), "src_lines": src_lines(), "warmup_s": warmup_s}
    if trace:
        metrics, answers = traced_metrics(workload, tally, seconds, lines, record)
    else:
        samples, answers = timed_loop(workload, tally, seconds)
        record["timings"] = {key: summary(values) for key, values in samples.items()}
        metrics = {}
        for key, stats in record["timings"].items():
            metrics[key] = {"value": stats["median"], "unit": END_TO_END[key]}
            lines.append(describe_timing(key, END_TO_END[key], stats))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
        lines.append(f"  {'peak_rss_mib':<14} {peak:.3f} MiB (this process, ru_maxrss)")
    lines.append(f"  {'error_rate':<14} {tally.failed / tally.attempted:.4f} "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    lines += [f"  error: {e}" for e in tally.errors[:5]]
    if workload.kind == "preset" and answers:
        v, p4 = answers[min(answers)]
        lines.append(f"  V = {v!r}  p4(tau=0) = {p4!r}")
        record.update(visibility=v, p4_tau0=p4)
    correct = tally.failed == 0 and bool(answers) and record.get("covered", True)
    record.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / tally.attempted, errors=tally.errors,
                  metrics=metrics)
    path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"  run record {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(workload, tally, seconds, lines, record):
    """Per-layer metrics from paired untraced and traced repetitions.

    trace.overhead_s is the median over pairs of traced minus untraced
    solve_s.  On a machine whose speed drifts from task to task, that
    difference is mostly noise, so the coverage gate uses the wrapper time
    measured inside the traced tasks instead: the run is not correct
    unless the module self times account for the traced solve_s within
    it, that is, unless trace.unattributed_s <= trace.wrapper_s.
    """
    import spans

    tracer, pairs, answers = traced_loop(workload, tally, seconds)
    if not pairs:
        record["covered"] = False
        return {}, answers
    layer = spans.layer_metrics(tracer.spans, {p["rep"]: p["traced_s"] for p in pairs})
    traced_solve = statistics.median(p["traced_s"] for p in pairs)
    untraced_solve = statistics.median(p["untraced_s"] for p in pairs)
    layer["trace.overhead_s"] = statistics.median(p["traced_s"] - p["untraced_s"]
                                                  for p in pairs)
    unattributed, wrapper = layer["trace.unattributed_s"], layer["trace.wrapper_s"]
    record["covered"] = unattributed <= wrapper
    span_file = RESULTS / f"spans-{record['workload']}-seed{record['seed']}.json"
    span_file.write_text(json.dumps(spans.as_records(tracer.spans)) + "\n")
    lines += [f"  {len(pairs)} pairs: traced solve_s median {traced_solve:.4f} s, "
              f"untraced {untraced_solve:.4f} s, paired difference "
              f"{layer['trace.overhead_s']:+.4f} s",
              f"  module self times cover {traced_solve - unattributed:.4f} s; "
              f"unattributed {unattributed:.6f} s <= wrapper time {wrapper:.6f} s: "
              f"{record['covered']}",
              f"  spans {span_file.relative_to(ROOT)} ({len(tracer.spans)} spans)"]
    if not record["covered"]:
        tally.errors.append(f"unattributed {unattributed:.6f} s exceeds the "
                            f"wrapper time {wrapper:.6f} s")
    metrics = {}
    for metric in sorted(layer):
        unit = spans.unit(metric)
        metrics[metric] = {"value": layer[metric], "unit": unit}
        lines.append(f"  {metric:<36} {layer[metric]:.6g} {unit}")
    record["traced"] = {"pairs": pairs, "solve_s": traced_solve,
                        "untraced_solve_s": untraced_solve}
    return metrics, answers


def run_all(args):
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        code = code or out.returncode
        last = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
        combined["correct"] &= bool(last.get("correct"))
        combined["attempted"] += last.get("attempted", 0)
        combined["failed"] += last.get("failed", 0)
        for metric, value in last.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
