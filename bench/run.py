#!/usr/bin/env python3
"""Closed-loop benchmark of proxkit: one caller, the next op starts when the last returned.

    python3 bench/run.py --workload fo-small --seed 0 --seconds 20 --trace 0
    python3 bench/run.py          # every workload, untraced then traced

Run from anywhere; proxkit is imported from the ``src/`` beside this
directory, never from an installed copy.  Workloads, their ops and the
certificate each op must pass are in ``workloads.py``; the metric names and
units come from ``BENCHMARK.json``.

--trace 0 reports the end-to-end metrics.  Set-up (importing proxkit and
generating every instance from the seed) is repeated and its median
reported.  An untimed warm-up runs one op of each kind; then whole passes
over the ops repeat until --seconds have passed and at least 100 ops ran.
Every op must repeat the iteration count and trace digest of its first pass.

--trace 1 reports the per-layer metrics.  It alternates three untraced passes
with three passes traced by ``tracer.py`` (a fixed amount of work, so
--seconds does not apply); the traced ÷ untraced wall time is the tracing
overhead.  It also times proxkit's FISTA against a bare numpy loop.  Counts
come from one traced pass and must repeat exactly in the others; times are
means over the traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record with the environment, iteration
counts, layer call counts and a digest of every trace (without its ms
column) goes to .bench_out/records/.  Two records of the same workload and
seed whose "digest" fields are equal ran bit-identical iterates.
"""

import os

# Pinned before numpy loads so BLAS runs on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fo-small", "fo-dense", "newton", "cli")
SETUP_REPS = 5
SETUP_SECONDS = 3.0
MIN_OPS = 100  # so that at least 10 samples lie beyond op_ms_p90
TRACE_PASSES = 3
FISTA_REPS = 7


@dataclass
class Row:
    name: str
    ms: float
    error: str | None
    iters: int = 0
    digest: str = ""
    bytes_written: int = 0


def load_proxkit():
    """Import proxkit afresh from src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "proxkit" or k.startswith("proxkit.")]:
        del sys.modules[name]
    pk = importlib.import_module("proxkit")
    importlib.import_module("proxkit.cli")
    return pk


def setup(workload, seed, workdir, reps):
    """Import proxkit and generate every instance; the median time of at least
    reps repetitions that together take at least SETUP_SECONDS."""
    times = []
    while len(times) < reps or (reps > 1 and sum(times) < SETUP_SECONDS):
        ops = probe = None  # free the last repetition's instances before making new ones
        gc.collect()  # so that no repetition pays for collecting an earlier one's garbage
        t0 = time.perf_counter()
        pk = load_proxkit()
        ops, probe = workloads.build(pk, workload, seed, str(workdir))
        times.append(time.perf_counter() - t0)
    return pk, ops, probe, statistics.median(times)


def warm_up(ops):
    """Run the first op of each kind (its name without the instance seed) once,
    untimed, so that lazy set-up in proxkit and numpy is done before timing."""
    kinds = set()
    for op in ops:
        kind = re.sub(r"-s\d+", "", op.name)
        if kind not in kinds:
            kinds.add(kind)
            run_pass([op])


def run_pass(ops, reference=None, trace=None):
    """Run every op once, timing each call and certifying it afterwards.

    With a reference pass, an op must reproduce its iteration count and
    trace digest.  With a tracer, each op runs inside an op span.
    """
    rows = []
    for i, op in enumerate(ops):
        error = outcome = None
        with trace.op_span(i + 1) if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op; keep measuring
                error = f"raised {type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1e3
        if error is None:
            try:
                outcome = op.check(result)
            except workloads.OpFailed as exc:
                error = str(exc)
            except Exception as exc:  # a certificate that cannot read the output fails the op
                error = f"certificate raised {type(exc).__name__}: {exc}"
        if op.reset is not None:
            op.reset()
        row = Row(op.name, ms, error)
        if outcome is not None:
            row.iters = outcome.iters
            row.digest = hashlib.sha256(outcome.text.encode()).hexdigest()
            row.bytes_written = outcome.bytes_written
            ref = reference[i] if reference else None
            if ref and ref.error is None and (ref.iters, ref.digest) != (row.iters, row.digest):
                row.error = "iterates differ from the first pass over the same instance"
        rows.append(row)
    return rows


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(args, workdir):
    _, ops, probe, setup_s = setup(args.workload, args.seed, workdir, SETUP_REPS)
    warm_up(ops)
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(passes) * len(ops) < MIN_OPS:
        passes.append(run_pass(ops, passes[0] if passes else None))
    loop_s = time.perf_counter() - start  # ops plus their certificates and resets
    rows = [r for p in passes for r in p]
    times = [r.ms for r in rows]
    ok = sum(1 for r in rows if r.error is None)
    metrics = {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(times),
        "op_ms_p90": statistics.quantiles(times, n=10)[8],
        "ops_per_s": ok / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes[0], rows, run_pass(probe), metrics, {}, []


def per_layer(args, workdir):
    pk, ops, probe, _ = setup(args.workload, args.seed, workdir, 1)
    warm_up(ops)
    reference = None
    tracers, traced_rows, ratios = [], [], []
    for _ in range(TRACE_PASSES):
        plain = run_pass(ops, reference)
        reference = reference or plain
        t = tracer.Tracer()
        with tracer.installed(pk, t):
            with t.op_span(tracer.SETUP_OP):
                workloads.build(pk, args.workload, args.seed, str(workdir))
            rows = run_pass(ops, reference, t)
        tracers.append(t)
        traced_rows.append(rows)
        ratios.append(sum(r.ms for r in rows) / sum(r.ms for r in plain))
    lib_us, bare_us, fista_error = workloads.fista_baseline(pk, args.seed, FISTA_REPS)
    probe_rows = run_pass(probe)

    summaries = [t.summary() for t in tracers]
    counts = [(dict(s[0]), dict(t.extra)) for s, t in zip(summaries, tracers)]
    problems = [] if fista_error is None else [fista_error]
    if any(c != counts[0] for c in counts):
        problems.append("layer call counts differ between traced passes of the same ops")
    calls, extra = counts[0]
    self_ms = {k: statistics.fmean(s[1].get(k, 0.0) for s in summaries) for k in calls}
    solve_ms = statistics.fmean(s[2].get("splitting.solve", 0.0) for s in summaries)
    bookkeeping_ms = statistics.fmean(s[3] for s in summaries)
    metrics = {
        "linalg.matvec.bytes": extra.get("linalg.matvec.bytes", 0.0),
        "linalg.solve_spd.dim_mean": _ratio(extra.get("linalg.solve_spd.dim", 0.0), calls.get("linalg.solve_spd", 0)),
        "splitting.iters": extra.get("splitting.iters", 0.0),
        "splitting.solves": calls.get("splitting.solve", 0),
        "splitting.us_per_iter": _ratio(solve_ms * 1e3, extra.get("splitting.iters", 0.0)),
        "splitting.bookkeeping_share": _ratio(bookkeeping_ms, solve_ms),
        "splitting.linesearch.accept_ratio": _ratio(
            extra.get("splitting.linesearch.accepted", 0.0), extra.get("splitting.linesearch.trials", 0.0)
        ),
        "splitting.fista.overhead_ratio": lib_us / bare_us,
        "baseline.numpy_fista.us_per_iter": bare_us,
        "newton.solves": calls.get("newton.solve", 0),
        "newton.steps": calls.get("newton.step", 0),
        "newton.residual_per_step": _ratio(calls.get("newton.residual", 0), calls.get("newton.step", 0)),
        "newton.active_mean": _ratio(extra.get("newton.active", 0.0), calls.get("newton.step", 0)),
        "cli.bytes_written": sum(r.bytes_written for r in traced_rows[0]),
        "trace.overhead_ratio": statistics.median(ratios),
    }
    for name in calls:
        metrics.setdefault(name + ".calls", calls[name])
        metrics.setdefault(name + ".self_ms", self_ms[name])
    record = {"calls": calls, "extra": extra}
    rows = [r for p in traced_rows for r in p]
    return reference, rows, probe_rows, metrics, record, problems


def run_workload(args, spec):
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"  # concurrent runs do not collide
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        reference, rows, probe_rows, metrics, counts, problems = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(
        f"proxkit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']} (1 thread), nproc {env['nproc']}"
    )
    failures = {}
    for r in rows + probe_rows:
        if r.error:
            failures.setdefault((r.name, r.error), 0)
            failures[(r.name, r.error)] += 1
    for (name, error), times in failures.items():
        print(f"FAILED {args.workload}/{name} ({times}x): {error}")
    for p in problems:
        print(f"INCORRECT: {p}")
    failed = sum(1 for r in rows if r.error)
    # fail_ratio counts one pass over the ops plus the untimed probe ops
    attempted_all = len(reference) + len(probe_rows)
    failed_all = sum(1 for r in reference + probe_rows if r.error)
    metrics["fail_ratio"] = failed_all / attempted_all
    print(f"fail_ratio {metrics['fail_ratio']:.4g} ({failed_all} failed of {attempted_all} attempted "
          f"in one pass, {len(probe_rows)} of them untimed probe ops)")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_metrics = {}
    for m in listed:
        value = metrics.get(m["name"])
        if value is None:
            if not m["name"].endswith((".calls", ".self_ms")):
                raise KeyError(f"BENCHMARK.json names an unknown metric {m['name']}")
            value = 0  # a layer the ops never reached
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:44} {value:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": out_metrics,
    }

    ops = [{"name": r.name, "iters": r.iters, "digest": r.digest} for r in reference]
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "predictions": workloads.PREDICTIONS,
        "environment": env,
        "seconds": args.seconds,
        "result": result,
        "ops": ops,
        "digest": hashlib.sha256("".join(o["digest"] for o in ops).encode()).hexdigest(),
        "probe": [{"name": r.name, "iters": r.iters, "error": r.error} for r in probe_rows],
        "failures": [{"name": n, "error": e, "times": k} for (n, e), k in failures.items()],
        "counts": counts,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record {path.relative_to(ROOT)}: trace digest {record['digest'][:16]}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                code = proc.returncode or 1
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "proxkit" / "__init__.py").is_file():
        print(f"error: no proxkit sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    pk = load_proxkit()
    if not Path(pk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported proxkit from {pk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
