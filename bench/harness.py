"""Runs one workload: set-up, timed repeats, gates, metrics and reporting.

Imported by ``run.py`` once the BLAS thread cap is in the environment and
the checkout's ``src`` is on the path.
"""

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

import numpy as np

import hostspeed
from tracing import Tracer, run_metrics
from workloads import WORKLOADS, digest, run_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_work" / "results"
# Each run sets its inputs up this many times and reports the median.
SETUPS = 9


def host_info(nproc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def setup(wl, inputs, seed):
    """Fresh-interpreter import of the CLI, then generating the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import cssnmf.cli"], env=env, cwd=ROOT, check=True)
    wl.setup(inputs, seed)


def traced_cli(tracer, label, argv):
    with tracer.span(f"cli.{label}"):
        return run_cli(argv)


def run_once(wl, inputs, out, tracer):
    """One whole workload run plus its gate; returns a record of it."""
    shutil.rmtree(out, ignore_errors=True)
    commands = wl.commands(inputs, out)
    stages, failure = [], None
    for label, argv in commands:
        if tracer is None:
            (code, log), secs, ref_secs = hostspeed.timed(run_cli, argv)
        else:
            (code, log), secs, ref_secs = hostspeed.timed(traced_cli, tracer, label, argv)
        stages.append((label, secs, ref_secs))
        if code != 0:
            failure = f"{label} exited with {code}: {log.strip()[-2000:]}"
            break
    wall = sum(secs for _, secs, _ in stages)

    attempted = len(commands) + wl.cells
    if failure is not None:
        return {"wall": wall, "stages": stages, "problems": [failure], "mse": float("nan"),
                "attempted": attempted, "failed": attempted - len(stages) + 1, "digest": {}}
    try:
        problems, mse, cells_failed = wl.gate(out)
    except Exception as err:  # a missing or malformed artifact fails the run
        return {"wall": wall, "stages": stages, "problems": [f"gate: {err!r}"],
                "mse": float("nan"), "attempted": attempted, "failed": attempted, "digest": {}}
    return {"wall": wall, "stages": stages, "problems": problems, "mse": mse,
            "attempted": attempted, "failed": attempted if problems else cells_failed,
            "digest": digest(out)}


def measure(wl, inputs, out, budget, min_runs, tracer=None):
    """Repeat whole runs until the next would overrun ``budget`` seconds."""
    runs = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = len(runs)
        runs.append(run_once(wl, inputs, out, tracer))
        median = statistics.median(r["wall"] for r in runs)
        if len(runs) >= min_runs and time.perf_counter() - start + median > budget:
            return runs


def check_identical(runs, reference):
    for r in runs:
        if r["digest"] and r["digest"] != reference:
            changed = sorted(k for k in set(r["digest"]) | set(reference)
                             if r["digest"].get(k) != reference.get(k))
            r["problems"].append(f"artifacts differ from the first run: {changed}")
            r["failed"] = r["attempted"]


def normalized_stages(runs):
    """Each command's median time across the repeats, at the reference
    host's speed, in command order.

    See ``hostspeed`` for why times are taken at the reference speed.
    """
    stages = []
    for i in range(max(len(r["stages"]) for r in runs)):
        done = [r for r in runs if len(r["stages"]) > i]
        stages.append((done[0]["stages"][i][0],
                       statistics.median(r["stages"][i][2] for r in done)))
    return stages


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def wall_of(stages):
    return sum(secs for _, secs in stages)


def stage_sums(stages):
    """Command times summed per command name."""
    sums = {}
    for label, secs in stages:
        sums[label] = sums.get(label, 0.0) + secs
    return sums


def run_workload(name, seed, seconds, trace, units):
    wl = WORKLOADS[name]()
    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    try:
        setups = [hostspeed.timed(setup, wl, inputs, seed)[2] for _ in range(SETUPS)]
        if trace:
            runs = measure(wl, inputs, out, seconds / 2, 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, inputs, out, seconds / 2, 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write(RESULTS / f"{name}-s{seed}-spans.csv")
        else:
            runs = measure(wl, inputs, out, seconds, 3)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = runs + traced
    check_identical(everything, runs[0]["digest"])
    problems = [p for r in everything for p in r["problems"]]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    stages = normalized_stages(runs)
    wall = wall_of(stages)

    if trace:
        per_run = [run_metrics(tracer, i) for i in range(len(traced))]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        for label, secs in stage_sums(stages).items():
            metrics[f"cli.{label}_s"] = secs
        for label in ("ingest", "fit", "sweep", "predict", "topics"):
            metrics.setdefault(f"cli.{label}_s", 0.0)
        traced_wall = wall_of(normalized_stages(traced))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heldout_mse": runs[0]["mse"],
        }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "setups_s": setups, "runs": runs, "traced_runs": traced,
              "stage_normalized_s": stages, "raw_wall_median_s": median_of(runs, "wall"),
              "problems": problems, "result": result}
    return result, detail


def print_table(results, host, units):
    print(f"# host {json.dumps(host)}")
    names = list(results)
    keys = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    print("# " + f"{'metric':32} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for k in keys:
        cells = []
        for n in names:
            m = results[n]["metrics"].get(k)
            cells.append(f"{m['value']:>14.6g}" if m else f"{'-':>14}")
        print("# " + f"{k:32} {units[k]:6} " + " ".join(cells))
    print("# " + f"{'correct / failed of attempted':39} " + " ".join(
        f"{str(r['correct']) + ' ' + str(r['failed']) + '/' + str(r['attempted']):>14}"
        for r in results.values()))


def run_all(args, units):
    """Every workload, each in its own fresh process."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print_table(results, host_info(len(os.sched_getaffinity(0))), units)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(args, units, nproc):
    if args.workload == "all":
        return run_all(args, units)
    host = host_info(nproc)
    RESULTS.mkdir(parents=True, exist_ok=True)
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace, units)
    detail["host"] = host
    with open(RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for p in detail["problems"]:
        print(f"# problem: {p}")
    print(f"# wall time as measured, median of {len(detail['runs'])} repeats: "
          f"{detail['raw_wall_median_s']:.3f} s")
    print_table({args.workload: result}, host, units)
    print(json.dumps(result))
    return 0
