"""Benchmark runner: one closed-loop client calling `coxrep.cli.main`.

    python3 bench/run.py --workload corpus-verify-form --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; coxrep is imported from `src/`.
Set-up generates the seeded inputs, written under `.bench_work/`.  The timed
part is whole passes over the seeded job list, run back to back, in
process, each job one `cli.main(argv)` call with its output captured and
checked against the verdict known by construction.  Before each pass every
functools cache in coxrep is cleared, so each pass pays for its field
contexts the way a fresh `coxrep` process does, and every pass does the
same work.  A job's time is the median of its times over the passes, each
scaled to a nominal host speed (hostspeed.py): on a shared host the speed of
a core moves by up to 1.6x within seconds.  Set-up and 3 s of untimed jobs
come first.

The last line of standard output is the result object.  With `--trace 0`
it holds the end-to-end metrics; with `--trace 1` the per-layer metrics of
a separate traced run, whose spans and per-job counters go to
`.bench_out/trace-<workload>-<seed>.json`.

Every timed job has a correct answer; one that fails counts in `failed` and
makes `correct` false.  The probes, inputs that meet a defect known when
the benchmark was written (KNOWN_DEFECTS in workloads.py), run once after
the timed passes and are reported on the `info` line by failure class; a
probe failure of any other class makes `correct` false.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Instances per pass: a pass takes about 4, 4.5 and 9 s on a 2-core x86-64
# VM, and a run makes at least MIN_PASSES passes.
INSTANCES = {"corpus-verify-form": 28, "corpus-equiv-dual": 140, "scale": 4}
MIN_PASSES = 3
# A fresh interpreter runs the first seconds of jobs up to 8% slower.
WARMUP_S = 3.0
SETUP_REPEATS = 9


def write_inputs(documents: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, document in documents.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(document, fh)


def set_up(workload: str, seed: int,
           speed: hostspeed.HostSpeed) -> tuple[tuple, float, float]:
    """Import coxrep afresh, as a `coxrep` process does, then generate the
    inputs; returns the documents, jobs and probes, the wall time taken and
    that time normalized by the host's speed.  The import runs in this
    process, so the host-speed samples cover it.  Interpreter start-up and
    writing the documents are left out: no change to coxrep moves them, and
    on a shared host the time to create 500 small files varied from 0.04 s
    to 0.4 s."""
    for name in [n for n in sys.modules if n == "coxrep" or n.startswith("coxrep.")]:
        del sys.modules[name]
    mark = speed.mark()
    start = time.perf_counter()
    importlib.import_module("coxrep.cli")
    generated = workloads.generate(workload, seed, INSTANCES[workload])
    wall = time.perf_counter() - start
    speed.sample()
    return generated, wall, speed.normalized(wall, mark)


def cache_clearers() -> list:
    """`cache_clear` of every functools cache bound in coxrep's modules and
    their classes, collected before tracing wraps any of them."""
    import coxrep.cli  # noqa: F401  (loads every module)

    found = {}
    for name, module in list(sys.modules.items()):
        if name != "coxrep" and not name.startswith("coxrep."):
            continue
        for value in vars(module).values():
            members = list(vars(value).values()) if isinstance(value, type) else []
            for candidate in [value] + members:
                clear = getattr(candidate, "cache_clear", None)
                if callable(clear):
                    found[id(candidate)] = clear
    return list(found.values())


def run_job(cli, job: dict, directory: str) -> tuple[object, str]:
    argv = [os.path.join(directory, a) if a.endswith(".json") else a
            for a in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed job, not a failed run
            code = traceback.format_exc()
    return code, out.getvalue()


def warm_up(cli, jobs: list[dict], directory: str, clearers: list) -> None:
    """Run jobs, untimed and unchecked, for WARMUP_S seconds."""
    end = time.perf_counter() + WARMUP_S
    while True:
        for clear in clearers:
            clear()
        for job in jobs:
            run_job(cli, job, directory)
            if time.perf_counter() >= end:
                return


def run_passes(cli, jobs: list[dict], directory: str, clearers: list, seconds: float,
               passes: int | None, tracer=None) -> dict:
    """Whole passes over `jobs` until the next one would end after `seconds`
    (at least MIN_PASSES, unless one pass alone outlasts 2 * `seconds`), or
    exactly `passes` passes."""
    speed = hostspeed.HostSpeed()
    wall: list[list[float]] = [[] for _ in jobs]
    normalized: list[list[float]] = [[] for _ in jobs]
    failures: dict[str, int] = {}
    attempted = done = 0
    speed.start()
    try:
        start = time.perf_counter()
        while True:
            for clear in clearers:
                clear()
            pass_start = time.perf_counter()
            for index, job in enumerate(jobs):
                if tracer is not None:
                    tracer.start_job(attempted)
                mark = speed.mark()
                t0 = time.perf_counter()
                code, output = run_job(cli, job, directory)
                job_s = time.perf_counter() - t0
                speed.sample()
                wall[index].append(job_s)
                normalized[index].append(speed.normalized(job_s, mark))
                if tracer is not None:
                    tracer.end_job()
                attempted += 1
                failure = workloads.check(job, code, output)
                if failure is not None:
                    failures[failure] = failures.get(failure, 0) + 1
                    print(f"job {job['id']} failed ({failure}): exit {code}: {job['argv']}",
                          file=sys.stderr)
            done += 1
            now = time.perf_counter()
            elapsed = now - start
            if passes is not None:
                if done >= passes:
                    break
            elif (done >= MIN_PASSES or elapsed >= 2 * seconds) and \
                    elapsed + (now - pass_start) > seconds:
                break
    finally:
        speed.stop()
    return {"attempted": attempted, "passes": done, "wall_s": elapsed,
            "wall": wall, "normalized": normalized, "failures": failures}


def run_probes(cli, probes: list[dict], directory: str) -> dict[str, int]:
    """Run each probe once; returns failures by class."""
    failures: dict[str, int] = {}
    for probe in probes:
        code, output = run_job(cli, probe, directory)
        failure = workloads.check(probe, code, output)
        if failure is not None:
            failures[failure] = failures.get(failure, 0) + 1
    return failures


def info_fields(workload: str, seed: int) -> dict:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "coxrep")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {"workload": workload, "seed": seed, "src_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def result_line(run: dict, probe_failures: dict, metrics: dict) -> str:
    failed = sum(run["failures"].values())
    return json.dumps({
        "correct": failed == 0 and "unexplained" not in probe_failures,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    })


def untraced_wall(args, passes: int) -> float:
    """Wall time of `passes` passes in a fresh untraced process."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--passes", str(passes)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    info = json.loads(child.stdout.split("info ", 1)[1].splitlines()[0])
    return info["wall_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, help="make this many passes instead of "
                        "running for --seconds, without probes (the traced run's "
                        "baseline)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coxrep", "cli.py")):
        print(f"error: no coxrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from coxrep import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: coxrep imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    directory = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    # set-up is measured by the timed runs only; probes run there too
    timed = not args.trace and args.passes is None
    try:
        speed = hostspeed.HostSpeed()
        speed.start()
        try:
            setups = [set_up(args.workload, args.seed, speed)
                      for _ in range(SETUP_REPEATS if timed else 1)]
        finally:
            speed.stop()
        cli = sys.modules["coxrep.cli"]
        documents, jobs, probes = setups[-1][0]
        write_inputs(documents, directory)
        info = info_fields(args.workload, args.seed)
        clearers = cache_clearers()
        warm_up(cli, jobs, directory, clearers)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        run = run_passes(cli, jobs, directory, clearers, args.seconds, args.passes, tracer)
        probe_failures = run_probes(cli, probes, directory) if timed else {}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(directory))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_s = [statistics.median(x) for x in run["wall"]]
    norm_job_s = [statistics.median(x) for x in run["normalized"]]
    # latency percentiles over every job run; p90 once ten runs lie beyond it
    job_ms = [x * 1000 for times in run["wall"] for x in times]
    norm_ms = [x * 1000 for times in run["normalized"] for x in times]
    info.update({"jobs": len(jobs), "passes": run["passes"], "attempted": run["attempted"],
                 "wall_s": run["wall_s"], "failures": run["failures"],
                 "fail_ratio": sum(run["failures"].values()) / run["attempted"],
                 "probes": len(probes) if timed else 0, "probe_failures": probe_failures,
                 "jobs_per_s": len(jobs) / sum(job_s),
                 "setup_wall_s": statistics.median(s for _, s, _ in setups),
                 "job_p50_ms": statistics.median(job_ms),
                 "norm_job_p50_ms": statistics.median(norm_ms)})
    if len(job_ms) >= 100:
        info["job_p90_ms"] = statistics.quantiles(job_ms, n=10)[-1]
        info["norm_job_p90_ms"] = statistics.quantiles(norm_ms, n=10)[-1]
    if not args.trace:
        metrics = {
            "norm_jobs_per_s": (len(jobs) / sum(norm_job_s), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        }
    else:
        overhead = run["wall_s"] / untraced_wall(args, run["passes"])
        summary = tracer.summary(run["attempted"], overhead)
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        metrics = {name: (value, units[name]) for name, value in summary.items()}
        layers = {k.split(".")[1]: v for k, v in summary.items() if k.startswith("layer.")}
        info["top_self_layer"] = max(layers, key=layers.get)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"info": info, "metrics": summary,
                       "job_counts": tracer.job_counts,
                       "spans": tracer.spans()}, fh)
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(result_line(run, probe_failures,
                      {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
