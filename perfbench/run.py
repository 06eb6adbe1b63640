"""anchorcalc benchmark: time to verdict on seeded, closed-loop CLI workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One client in one process sends one job at a time; each job is an
in-process ``anchorcalc.cli.main(argv)`` call on generated inputs.  The
jobs of a seed form one *pass*; passes repeat until ``--seconds`` have
elapsed (and, untraced, until at least MIN_JOBS jobs have run).  Every verdict is checked
against the known answer built into its input (workloads.py).  With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and it holds the
per-layer metrics of tracer.py.  README.md says what each workload and
metric is for.

Times are reported at a reference machine speed: right before each job
the benchmark times a fixed piece of reference work, and the job's wall
time is scaled by CAL_REF_S over that calibration time.  On the 2-core VM
the bounds were set on, speed swings by 20-50% over tens of seconds; the
calibration follows the swings job by job, so the scaled times repeat
where raw ones do not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_JOBS = 100  # so that job_ms_p90 has at least ten samples beyond it
SETUP_REPEATS = 7
HARD_STOP_S = 100  # stop after this even short of MIN_JOBS (a very slow build)
CHILD_TIMEOUT_S = 60
# Calibration time of the reference work on the machine the bounds were
# set on (2-core VM, CPython 3.11.7), in its fast state.
CAL_REF_S = 0.008

sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

_CAL_INPUTS = workloads.calibration_inputs()


def _calibration_s():
    start = time.perf_counter()
    workloads.calibration_work(*_CAL_INPUTS)
    return time.perf_counter() - start


def _arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--counts-only",
        action="store_true",
        help="run one traced pass and print its counts (the repeat check of --trace 1)",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one job and one pass


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as error:  # an escaped exception is a failed job
            code, exc = None, error
    return time.perf_counter() - start, code, out.getvalue(), exc


def _verdict_error(job, code, out, exc):
    """None when the job's output matches its known answer, else why not."""
    if exc is not None:
        return f"{type(exc).__name__} escaped main: {exc}"
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}"
    if not job.report:
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if job.solutions is not None:
        found = len(doc.get("solutions", []))
        return None if found == job.solutions else f"{found} solutions, expected {job.solutions}"
    checks = {c["name"]: c for c in doc.get("checks", [])}
    got = {name: c["status"] for name, c in checks.items()}
    if got != job.checks:
        return f"verdicts {got}, expected {job.checks}"
    for name, text in job.residuals.items():
        if checks[name]["residual"] != text:
            return f"{name} detail {checks[name]['residual']!r}, expected {text!r}"
    return None


class Pass:
    """Timings, failures and the report digest of one pass over the jobs.

    ``job_s`` holds raw wall times, ``scaled_s`` the same times at the
    reference speed.
    """

    def __init__(self, cli, jobs, tracer=None):
        outputs = []
        self.job_s, self.scaled_s = [], []
        for index, job in enumerate(jobs):
            calibration = _calibration_s()
            if tracer is not None:
                tracer.job = index
            seconds, code, out, exc = _call(cli, job.argv)
            self.job_s.append(seconds)
            self.scaled_s.append(seconds * CAL_REF_S / calibration)
            outputs.append((code, out, exc))
        # time from the first job sent to the last verdict, without the
        # calibrations in between
        self.wall_s = sum(self.job_s)
        self.scaled_wall_s = sum(self.scaled_s)
        digest = hashlib.sha256()
        self.failures = []
        for job, (code, out, exc) in zip(jobs, outputs):
            error = _verdict_error(job, code, out, exc)
            if error:
                self.failures.append(f"{job.family} {' '.join(job.argv)}: {error}")
            if job.report:
                digest.update(out.encode())
        self.digest = digest.hexdigest()


# ---------------------------------------------------------------------------
# set-up


def _setup_seconds(workload, seed, directory):
    """Set-up time: the median over repeats of the CPU time a fresh
    interpreter spends from its start until ``anchorcalc.cli`` is imported,
    plus the median time to generate the workload's inputs.

    The import is the child's own CPU time, not the wall time of the spawn
    and not scaled by the calibration of this process: over 5 groups of 7
    spawns, the medians of wall time differed by 21%, scaled ones by
    13-16%, and CPU times by 7%.  Generation runs in this process and is
    the same kind of work as the calibration, so it is scaled.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import anchorcalc.cli; "
        "print(time.process_time())"
    )
    imports, generation, jobs = [], [], None
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True, text=True
        )
        imports.append(float(child.stdout))
        scale = CAL_REF_S / _calibration_s()
        start = time.perf_counter()
        jobs = workloads.generate(workload, seed, directory)
        generation.append((time.perf_counter() - start) * scale)
    return statistics.median(imports) + statistics.median(generation), jobs


def _import_cli():
    sys.path.insert(0, str(SRC))
    from anchorcalc import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"anchorcalc imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# metrics


def _pass_quantile(run, decile):
    return statistics.quantiles(run.scaled_s, n=10, method="inclusive")[decile - 1] * 1000.0


def _end_to_end(passes, setup_s):
    """Percentiles are taken over the jobs of one pass and then the median
    over passes: pooled over a run they would sit at a rank that jumps with
    the number of passes, between job families of very different cost."""
    job_ms = [s * 1000.0 for p in passes for s in p.scaled_s]
    values = {
        "wall_s": (statistics.median(p.scaled_wall_s for p in passes), "s"),
        "job_ms_p50": (statistics.median(_pass_quantile(p, 5) for p in passes), "ms"),
        "job_ms_p90": (statistics.median(_pass_quantile(p, 9) for p in passes), "ms"),
        "job_ms_geomean": (math.exp(statistics.fmean(math.log(v) for v in job_ms)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


LAYERS = tuple(tr.TARGETS)
_FIELD_MODEL_COUNTS = {"anchor_ops", "shell"}


def _per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer, targets in tr.TARGETS.items():
        for cls_name, attr in targets:
            q = ".".join(filter(None, (layer, cls_name, attr)))
            if q == "linop.ShellRules.__init__":
                units["linop.ShellRules.builds"] = "count"
            elif q == "parser.tokenize":
                units["parser.tokenize.tokens"] = "count"
            elif layer == "field_models":
                units[f"{q}.calls"] = "count"
                if attr not in _FIELD_MODEL_COUNTS:
                    units[f"{q}.incl_ms"] = "ms"
            else:
                units[f"{q}.calls"] = "count"
                units[f"{q}.self_ms"] = "ms"
    units.update(
        {
            "expr.canonicalize.terms_out": "count",
            "ode.search.columns": "count",
            "numeric.rk4_steps": "count",
            "numeric.rk4_steps_per_s": "1/s",
            "cli.main.incl_ms": "ms",
        }
    )
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update(
        {
            "expr.self_share": "ratio",
            "ode.search_characteristics.self_share_of_search_jobs": "ratio",
            "numeric.integrate_drift.self_share": "ratio",
            "trace.spans": "count",
            "trace.overhead": "ratio",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()


def _layer_values(tracer, jobs):
    """Per-layer values of one traced pass (raw times, not scaled)."""
    calls, incl, self_ns, job_ns = tracer.summary()
    ms = 1e-6
    values = {}
    for name in PER_LAYER_UNITS:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            values[name] = calls[head]
        elif tail == "self_ms" and head in LAYERS:
            values[name] = ms * sum(v for q, v in self_ns.items() if q.split(".")[0] == head)
        elif tail == "self_ms":
            values[name] = ms * self_ns[head]
        elif tail == "incl_ms":
            values[name] = ms * incl[head]
    values["linop.ShellRules.builds"] = calls["linop.ShellRules.__init__"]
    for counter_name, _ in tr.COUNTERS.values():
        values[counter_name] = tracer.counts[counter_name]
    total_ns = sum(job_ns.values())
    search_ns = sum(ns for job, ns in job_ns.items() if jobs[job].argv[0] == "search")
    drift_ns = self_ns["numeric.integrate_drift"]
    values["numeric.rk4_steps_per_s"] = (
        values["numeric.rk4_steps"] / (drift_ns * 1e-9) if drift_ns else 0.0
    )
    values["expr.self_share"] = values["expr.self_ms"] / (total_ns * ms)
    values["ode.search_characteristics.self_share_of_search_jobs"] = (
        self_ns["ode.search_characteristics"] / search_ns if search_ns else 0.0
    )
    values["numeric.integrate_drift.self_share"] = drift_ns / total_ns
    values["trace.spans"] = len(tracer.spans)
    return values


def _counts(values):
    return {k: v for k, v in values.items() if PER_LAYER_UNITS[k] == "count"}


def _traced_pass(cli, jobs):
    tracer = tr.Tracer()
    tracer.install()
    try:
        run = Pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    return run, tracer


def _repeat_counts(workload, seed):
    """Counts of one traced pass of the same seed in a fresh process."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0", "--counts-only"]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _per_layer(args, traced, untraced):
    """Per-layer metrics, and whether the counts repeat in a second run."""
    counts = _counts(traced[0][1])
    repeat = _repeat_counts(args.workload, args.seed)
    differ = sorted(k for k in counts if counts[k] != repeat.get(k))
    if differ:
        print("counts differ between two traced runs of this seed: " + ", ".join(differ))
    else:
        print(f"all {len(counts)} per-layer counts repeat exactly in a second traced run")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead":
            value = statistics.median(r.scaled_wall_s for r, _ in traced) / statistics.median(
                p.scaled_wall_s for p in untraced
            )
        elif unit == "count":
            value = counts[name]
        else:
            value = statistics.median(v[name] for _, v in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, not differ


# ---------------------------------------------------------------------------
# entry point


def _run_probes(cli, directory):
    probes = workloads.probe_jobs(directory)
    lines, met = [], 0
    for job in probes:
        _, code, out, exc = _call(cli, job.argv)
        error = _verdict_error(job, code, out, exc)
        met += error is None
        lines.append(f"  {job.family}: {'ok' if error is None else error}")
    print(f"contract probes (exit 2 expected, run outside the passes): {met} of {len(probes)} met")
    print("\n".join(lines))


def main(argv=None):
    args = _arguments(argv)
    if not (SRC / "anchorcalc" / "cli.py").is_file():
        print(f"error: no anchorcalc sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Reports name their model file, so the path must not depend on the
    # process or the checkout: jobs get paths relative to the checkout root.
    os.chdir(ROOT)
    suffix = "-repeat" if args.counts_only else ""
    directory = WORK.relative_to(ROOT) / f"{args.workload}-seed{args.seed}{suffix}"
    try:
        return _measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _measure(args, directory):
    if args.counts_only:
        cli = _import_cli()
        jobs = workloads.generate(args.workload, args.seed, directory)
        _, tracer = _traced_pass(cli, jobs)
        print(json.dumps(_counts(_layer_values(tracer, jobs)), sort_keys=True))
        return 0

    setup_s, jobs = _setup_seconds(args.workload, args.seed, directory)
    cli = _import_cli()
    untraced, traced = [], []
    first_tracer = None
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) <= len(untraced):
            run, tracer = _traced_pass(cli, jobs)
            traced.append((run, _layer_values(tracer, jobs)))
            first_tracer = first_tracer or tracer
        else:
            untraced.append(Pass(cli, jobs))
        if args.trace:
            done = bool(untraced)
        else:
            done = len(untraced) * len(jobs) >= MIN_JOBS
        elapsed = time.perf_counter() - start
        if (done and elapsed >= args.seconds) or (untraced and elapsed >= HARD_STOP_S):
            break

    passes = untraced + [run for run, _ in traced]
    failures = [f for p in passes for f in p.failures]
    digests = {p.digest for p in passes}
    correct = not failures and len(digests) == 1
    calibration = statistics.median(
        s / c for p in passes for s, c in zip(p.job_s, p.scaled_s)
    ) * CAL_REF_S
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs")
    print(f"calibration median {calibration * 1000:.2f} ms (reference {CAL_REF_S * 1000:.2f} ms)")
    for label, runs in (("untraced", untraced), ("traced", [r for r, _ in traced])):
        if runs:
            walls = " ".join(f"{p.wall_s:.3f}/{p.scaled_wall_s:.3f}" for p in runs)
            print(f"{label} pass walls, raw/scaled (s): {walls}")
    same = "" if len(digests) == 1 else " (differs between passes)"
    print(f"report digest sha256 {passes[0].digest}{same}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if args.workload == "odecheck":
        _run_probes(cli, directory / "probes")

    if args.trace:
        metrics, repeated = _per_layer(args, traced, untraced)
        correct = correct and repeated
        WORK.mkdir(exist_ok=True)
        first_tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = _end_to_end(untraced, setup_s)

    result = {
        "correct": correct,
        "attempted": len(jobs) * len(passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
