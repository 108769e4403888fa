"""bdris benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a checkout.  Workloads (see ``workloads.py`` and
``README.md``): snr_sweep, direct_link, qstem, large_m.  The seed is the
experiment's ``master_seed``; the program sees only the generated config.

``--trace 0`` starts SETUP_SAMPLES - 1 fresh processes that only set up
(``import bdris``, config parse, one warm-up trial), then one that sets up
and measures end-to-end repeats for S seconds with tracing off.  It reports
the end-to-end metrics: ``trials_per_s`` (trials per repeat over the median
repeat time), ``setup_s`` (median set-up over all processes) and
``peak_rss_mb`` (peak resident memory of the measuring process).  Times are
scaled by the reference kernel run next to them in the same process
(``reference.py``), so that load from other work on the machine cancels;
the unscaled wall-clock figures are in the report.

``--trace 1`` starts one process that alternates untraced and traced repeats
for S seconds and reports the per-layer metrics: per-trial calls and self
time of every traced span, computed BLAS GFLOP, M-scaling rows and the
tracing overhead.

Every run checks correctness (``workloads.check_csv``, identical CSV bytes
across repeats, processes and the traced run) and fails with exit code 1,
without a result line, when a check fails.  The last line of standard output
is the result JSON.  Standard error lists each metric with its unit and
direction (from BENCHMARK.json, whose metric names the run must match).  A
fuller report with provenance, the tail percentile and per-shape BLAS counts
goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # a whole run, all worker processes included
M_SCALING = (16, 64, 256, 1024)
M_SCALING_SPANS = ("designs.solve_maxdet", "designs.from_theta", "designs.unitary_baseline")
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS pool of at most nproc threads, whichever BLAS numpy loads.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_worker(mode, workload, seed, seconds, deadline):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, workload, str(seed), str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker overran the {RUN_BUDGET_S} s run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples):
    """Slow-tail value of throughput samples: the highest percentile with at
    least TAIL_SAMPLES samples beyond it, or None when there are too few."""
    if len(samples) <= TAIL_SAMPLES:
        return None, None
    ordered = sorted(samples)
    percentile = 100.0 * TAIL_SAMPLES / len(samples)
    return ordered[TAIL_SAMPLES], percentile


def _check(results):
    problems = [p for r in results for p in r.get("problems", ())]
    if len({r["warm_digest"] for r in results}) != 1:
        problems.append("warm-up trial CSV differs between processes")
    if problems:
        raise BenchmarkError("correctness gate failed:\n  " + "\n  ".join(problems[:20]))


def end_to_end(workload, seed, seconds, deadline):
    results = [_run_worker("setup", workload.name, seed, 0, deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    main = _run_worker("measure", workload.name, seed, seconds, deadline)
    results.append(main)
    _check(results)

    nominal = workload.ref_nominal_s
    # each repeat is scaled by the mean of the reference runs just before and after it
    ref = main["ref_s"]
    scaled = [t * 2 * nominal / (a + b) for t, a, b in zip(main["repeat_s"], ref, ref[1:])]
    rates = [workload.trials / t for t in scaled]
    setups = [r["setup_s"] * nominal / r["setup_ref_s"] for r in results]
    tail, percentile = _tail(rates)
    metrics = {
        "trials_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    report = {
        "trials_per_s": {"median": metrics["trials_per_s"]["value"], "tail": tail,
                         "tail_percentile": percentile, "samples": len(rates)},
        "wall_clock": {
            "trials_per_s": workload.trials / statistics.median(main["repeat_s"]),
            "setup_s": statistics.median(r["setup_s"] for r in results),
        },
        "setup_s_samples": setups,
        "repeat_s": main["repeat_s"],
        "ref_s": ref,
        "ref_nominal_s": nominal,
        "failed_share": main["error_rows"] / main["rows"],
        "provenance": main["provenance"],
    }
    return metrics, main["rows"], main["error_rows"], report


def _span_metrics(result, trials_per_repeat):
    trials = trials_per_repeat * len(result["traced_repeat_s"])
    all_trials = trials_per_repeat * (len(result["repeat_s"]) + len(result["traced_repeat_s"]))
    metrics = {}
    for name, span in result["spans"].items():
        metrics[f"{name}.calls"] = {"value": span["calls"] / trials, "unit": "calls/trial"}
        metrics[f"{name}.self_ms"] = {"value": 1e3 * span["self_s"] / trials, "unit": "ms/trial"}
    for op, gflop in result["blas_gflop"].items():
        metrics[f"blas.{op}.gflop"] = {"value": gflop / trials, "unit": "GFLOP/trial"}
    metrics["blas.svd.mxm.calls"] = {"value": result["mxm_svd_calls"] / trials, "unit": "calls/trial"}
    metrics["qstem.cayley_fallback.rotated"] = {"value": result["cayley_rotated"] / trials,
                                                "unit": "calls/trial"}
    per_m = {(row["span"], row["m"]): row for row in result["per_m"]}
    for name in M_SCALING_SPANS:
        for m in M_SCALING:
            row = per_m.get((name, m))
            value = 1e3 * row["self_s"] / row["calls"] if row else 0.0
            metrics[f"{name}.self_ms.m{m}"] = {"value": value, "unit": "ms/call"}
    metrics["harness.rows"] = {"value": result["rows"] / all_trials, "unit": "rows/trial"}
    metrics["harness.error_rows"] = {"value": result["error_rows"] / all_trials, "unit": "rows/trial"}
    metrics["trace.overhead"] = {"value": result["trace_overhead"], "unit": "ratio"}
    return metrics


def per_layer(workload, seed, seconds, deadline):
    result = _run_worker("trace", workload.name, seed, seconds, deadline)
    _check([result])
    metrics = _span_metrics(result, workload.trials)
    traced_trials = workload.trials * len(result["traced_repeat_s"])
    report = {
        "blas_shapes_per_trial": {
            key: {"calls": v["calls"] / traced_trials, "gflop_computed": v["gflop"] / traced_trials}
            for key, v in result["blas_shapes"].items()
        },
        "gflop_note": "computed from operand shapes with Golub & Van Loan counts, not measured",
        "repeat_s": result["repeat_s"],
        "traced_repeat_s": result["traced_repeat_s"],
        "provenance": result["provenance"],
    }
    return metrics, result["rows"], result["error_rows"], report


def _declared_metrics(kind):
    """Metric name -> better direction for ``kind`` from BENCHMARK.json, or
    None when the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"]: m["better"] for m in json.loads(path.read_text())[kind]}


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bdris" / "__init__.py").is_file():
        print(f"bdris sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, report = run(workload, args.seed, args.seconds,
                                                 time.monotonic() + RUN_BUDGET_S)
    except BenchmarkError as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        return 1

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config_text(args.seed),
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": _worker_env()["OPENBLAS_NUM_THREADS"],
        "attempted_rows": attempted,
        "failed_rows": failed,
        **report,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and set(declared) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    for name, m in metrics.items():
        better = f" ({declared[name]} is better)" if declared else ""
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}{better}", file=sys.stderr)
    print(f"report: {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
