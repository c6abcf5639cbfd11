"""Steady-state stream benchmark of the TER-iDS operator.

    python3 perfbench/run.py --workload citations --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload citations --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload citations --seed 1 --seconds 2 --trace 0 --smoke

Load model: a closed loop. One driver process feeds back-to-back
micro-batches of a count-based sliding window to Spark ``local[nproc]``
through the public ``repro.ter.algorithm`` entry points (``prepare``,
``warmup``, ``run_stream``). The window is count-based and the micro-batch
size is fixed, so the work per batch does not depend on the arrival rate:
the sustainable rate is arrivals divided by busy seconds, and an arrival's
latency is the batch-fill wait, which the rate sets, plus the batch service
time measured here.

One run:
1. generates the workload's dataset from ``--seed`` (input creation, untimed);
2. sets up once (``prepare`` + ``warmup``: offline build plus window fill,
   in a fresh driver JVM) and reports it as ``setup_s``;
3. replays the first micro-batch after the window fill from the warm
   window, one ``run_stream(max_batches=1)`` call per pass, until
   ``--seconds`` have passed and at least ``MIN_TIMED`` batches are timed.
   Each batch is timed from outside; the first ``COLD_BATCHES``, whose
   Spark plans are still cold, are checked but not timed;
4. outside the timed region, runs the workload's reference method over the
   same batch and fails every batch whose result set differs, and scores
   the result against ``repro.ter.truth.truth_pairs``.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones record spans around each layer's public calls (see ``spans.py``),
and the difference between the two kinds is the tracing overhead. Per-layer
metrics are means over the traced batches. Each online ``.s`` is a self time,
so with ``unattributed.s`` they add up to ``batch.wall.s``; the ``setup.*``
times are whole calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the pinned environment. Traced runs also write their spans to
``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_build" / "perfbench"

COLD_BATCHES = 1
#: timed batches a run needs before it may stop (of each kind when traced)
MIN_TIMED = 2
DRIVER_MEMORY = "2g"
#: as ``repro.bench.harness.run_method`` sets it for micro-batches
SHUFFLE_PARTITIONS = 8
UNITS = {"arrivals_per_s": "1/s", "f1": "ratio", "driver_peak_rss_mb": "MB",
         "refine.yield": "ratio", "instances.per_tuple": "count",
         "pairs_eval_per_arrival": "1/arrival"}


def _pin_environment() -> dict:
    """Spark and temporary files stay inside the checkout; pinned before
    the driver JVM is launched, because it reads them only then."""
    nproc = os.cpu_count() or 1
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's own JVM
    warehouse = f"spark.sql.warehouse.dir={OUT_DIR / 'warehouse'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf spark.ui.retainedJobs=100000",
        f"--conf {shlex.quote(f'spark.local.dir={tmp}')}",
        f"--conf {shlex.quote(warehouse)}",
        "pyspark-shell",
    ])
    return {"master": f"local[{nproc}]", "nproc": nproc,
            "driver_memory": DRIVER_MEMORY, "driver_processes": 1,
            "shuffle_partitions": SHUFFLE_PARTITIONS}


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait for the driver JVM to exit."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on end of input
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _lap(phases: dict, name: str, t: float) -> float:
    """Record the seconds since ``t`` as phase ``name``; return now."""
    now = time.perf_counter()
    phases[name] = now - t
    return now


def _maybe_span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _setup(spark, ds, wl, tracer):
    """Offline build plus window fill; returns (seconds, prep, warm)."""
    from repro.ter.algorithm import prepare, warmup
    from spans import layer_spans

    with _maybe_span(tracer, "setup"), layer_spans(tracer):
        t0 = time.perf_counter()
        with _maybe_span(tracer, "setup.prepare"):
            prep = prepare(spark, ds, wl.cfg, wl.method)
        with _maybe_span(tracer, "setup.warmup"):
            warm = warmup(spark, ds, wl.cfg, prep)
        return time.perf_counter() - t0, prep, warm


def _measure(spark, ds, wl, prep, warm, seconds, tracer):
    """Replays the first measured batch from the warm window, one
    ``run_stream`` call per pass, until ``seconds`` have passed and enough
    batches are timed. In a traced run the odd passes are traced."""
    from repro.ter.algorithm import run_stream
    from spans import BatchRecord, batch_timer, layer_spans

    deadline = time.perf_counter() + seconds
    records = []

    def short() -> bool:
        timed = records[COLD_BATCHES:]
        n_traced = sum(r.traced for r in timed)
        if tracer is None:
            return len(timed) < MIN_TIMED
        return min(n_traced, len(timed) - n_traced) < MIN_TIMED

    while time.perf_counter() < deadline or short():
        p = len(records)
        traced = tracer is not None and p % 2 == 1
        rec = BatchRecord(p, traced)
        records.append(rec)
        try:
            with batch_timer(rec, tracer if traced else None), \
                    layer_spans(tracer if traced else None):
                res = run_stream(spark, ds, wl.cfg, prep, max_batches=1,
                                 warm=warm)
        except Exception:  # a failed batch is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            continue
        rec.take(res)
    return records


def _reference_pairs(spark, ds, wl, prep, warm) -> set:
    """The reference method's result over the same batch and warm window.

    The two methods share a rule flavor, so ``prepare`` and ``warmup`` do
    identical work for both and the workload's own set-up serves the
    reference too."""
    from repro.ter.algorithm import run_stream, warmup_flavor

    if warmup_flavor(wl.reference) != warmup_flavor(wl.method):
        raise ValueError(f"{wl.reference} cannot share the set-up of {wl.method}")
    ref = dataclasses.replace(prep, method=wl.reference)
    return set(run_stream(spark, ds, wl.cfg, ref, max_batches=1, warm=warm).pairs)


def _batch_layers(wl, rec, kids) -> dict[str, float]:
    """Per-layer figures of one traced batch: self times (they add up to
    the batch wall time with ``unattributed.s``), jobs and counts."""
    from spans import ER_STEP, self_times, subtree, total_jobs

    st = self_times(rec.root, kids)
    jobs = total_jobs(rec.root, kids)
    cnt: dict[str, dict] = {}
    for sp in subtree(rec.root, kids):
        for k, v in sp.counts.items():
            mine = cnt.setdefault(sp.name, {})
            mine[k] = v if k == "window" else mine.get(k, 0) + v
    grid = [cnt.get(n, {}) for n in ("er_grid.generate_candidates",
                                     "er_grid.newnew_candidates")]
    imp = cnt.get("imputation.impute_batch", {})
    window = (cnt.get("er_grid.generate_candidates", {}).get("window")
              or cnt.get("baselines.exact_er_spark", {}).get("window") or {})
    fused = wl.method == "ter"
    grid_out = sum(g.get("candidates_out", 0) for g in grid)
    return {
        "batch.wall.s": rec.wall,
        "unattributed.s": st.get("batch", 0.0),
        "imputation.impute_batch.s": st.get("imputation.impute_batch", 0.0),
        "imputation.impute_batch.jobs": jobs.get("imputation.impute_batch", 0),
        "imputation.retrieve_samples.s": st.get("imputation.retrieve_samples", 0.0),
        "imputation.candidate_frequencies.s": st.get("imputation.candidate_frequencies", 0.0),
        "imputation.assemble_instances.s": st.get("imputation.assemble_instances", 0.0),
        "imputation.samples": imp.get("samples", 0),
        "imputation.incomplete_tuples": imp.get("incomplete_tuples", 0),
        "instances.per_tuple": imp.get("instances", 0) / max(1, imp.get("tuples", 0)),
        "instances.aggregates_frame.s": st.get("instances.aggregates_frame", 0.0),
        "er_grid.generate_candidates.s": st.get("er_grid.generate_candidates", 0.0),
        "er_grid.generate_candidates.jobs": jobs.get("er_grid.generate_candidates", 0),
        "er_grid.newnew_candidates.s": st.get("er_grid.newnew_candidates", 0.0),
        "er_grid.pairs_in": sum(g.get("pairs_in", 0) for g in grid),
        "er_grid.candidates_out": grid_out,
        "er_grid.pruned_topic": sum(g.get("pruned_topic", 0) for g in grid),
        "er_grid.pruned_sim": sum(g.get("pruned_sim", 0) for g in grid),
        "er_grid.pruned_prob": sum(g.get("pruned_prob", 0) for g in grid),
        "refine.s": st.get(ER_STEP, 0.0) if fused else 0.0,
        "refine.pairs": grid_out,
        "refine.instance_pruned": rec.prune["pruned_instance"],
        "refine.yield": (len(rec.pairs) / rec.prune["refined"]
                         if fused and rec.prune["refined"] else 0.0),
        "baselines.exact_er_spark.s": st.get("baselines.exact_er_spark", 0.0),
        "baselines.exact_er_spark.jobs": jobs.get("baselines.exact_er_spark", 0),
        "baselines.driver.s": 0.0 if fused else st.get(ER_STEP, 0.0),
        "baselines.pairs_evaluated": 0 if fused else rec.prune["refined"],
        "window.tuples_max": sum(window.values()),
        "window.excess_tuples": sum(max(0, n - wl.cfg.w) for n in window.values()),
        "spark.jobs_per_batch": jobs.get("batch", 0),
        "pairs_eval_per_arrival": (rec.prune["refined"] + rec.prune["pruned_instance"])
        / max(1, rec.n_arrivals),
    }


def _setup_layers(root, kids) -> dict[str, float]:
    """Wall time and jobs of each offline-build layer and of the window fill."""
    from spans import subtree, total_jobs

    tot: dict[str, float] = {}
    for sp in subtree(root, kids):
        tot[sp.name] = tot.get(sp.name, 0.0) + sp.dur
    jobs = total_jobs(root, kids)
    return {
        "setup.sample_pair_profile.s": tot.get("setup.sample_pair_profile", 0.0),
        "setup.sample_pair_profile.jobs": jobs.get("setup.sample_pair_profile", 0),
        "setup.select_pivots.s": tot.get("setup.select_pivots", 0.0),
        "setup.build_dr_index.s": tot.get("setup.build_dr_index", 0.0),
        "setup.build_dr_index.jobs": jobs.get("setup.build_dr_index", 0),
        "setup.rules_and_cdd_index.s": tot.get("setup.detect_rules", 0.0)
        + tot.get("setup.build_cdd_index", 0.0),
        "setup.warmup.s": tot.get("setup.warmup", 0.0),
        "setup.warmup.jobs": jobs.get("setup.warmup", 0),
    }


def run(spark, wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    from repro.streams.stream_gen import generate
    from repro.ter.metrics import f_score
    from repro.ter.truth import truth_pairs
    from spans import Tracer, add_er_step

    cfg = wl.cfg
    phases = {}
    t = time.perf_counter()
    ds = generate(wl.dataset, scale=wl.scale, xi=cfg.xi, m=cfg.m, eta=cfg.eta,
                  w=cfg.w, n_keywords=cfg.n_topic_keywords, seed=seed)
    tracer = Tracer(spark.sparkContext) if trace else None
    t = _lap(phases, "generate", t)
    setup_s, prep, warm = _setup(spark, ds, wl, tracer)
    t = _lap(phases, "setup", t)
    records = _measure(spark, ds, wl, prep, warm, seconds, tracer)
    t = _lap(phases, "measure", t)
    peak_rss = _peak_rss_mb()

    ref = _reference_pairs(spark, ds, wl, prep, warm)
    for rec in records:
        rec.ok = rec.error is None and rec.pairs == ref
    truth = truth_pairs(spark, ds, cfg, max_batches=1)
    fs = f_score(next((r.pairs for r in records if r.ok), set()), truth)
    prep.unpersist()
    _lap(phases, "check", t)

    timed = [r for r in records[COLD_BATCHES:] if r.error is None]
    if not timed:
        raise RuntimeError("every measured batch raised; see the traceback above")
    failed = sum(not r.ok for r in records)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "method": wl.method, "reference": wl.reference,
        "dataset": wl.dataset, "scale": wl.scale, "w": cfg.w,
        "batch_size": cfg.batch_size, "xi": cfg.xi, "m": cfg.m,
        "git_commit": _git_commit(), "cold_batches_excluded": COLD_BATCHES,
        "batches_attempted": len(records), "batches_failed": failed,
        "failed_batch_frac": failed / len(records),
        "n_truth": fs.n_truth, "n_returned": fs.n_returned, "phases_s": phases,
        "batch_walls_s": [r.wall for r in records],
    }
    if trace:
        tracer.resolve_jobs()
        traced = [r for r in timed if r.traced]
        for rec in traced:
            add_er_step(tracer, rec)
        kids = tracer.children()
        rows = [_batch_layers(wl, r, kids) for r in traced]
        metrics = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
        for k in ("window.tuples_max", "window.excess_tuples"):
            metrics[k] = max(r[k] for r in rows)
        metrics.update(_setup_layers(
            next(s for s in tracer.spans if s.name == "setup"), kids))
        plain = [r.wall for r in timed if not r.traced]
        metrics["trace.overhead_s"] = (statistics.fmean(r.wall for r in traced)
                                       - statistics.fmean(plain))
        record.update(traced_batches=len(traced), untraced_batches=len(plain))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}-{seed}.json"
        path.write_text(json.dumps({"record": record, "spans": tracer.to_records()}))
        record["trace_file"] = str(path.relative_to(ROOT))
    else:
        walls = [r.wall for r in timed]
        metrics = {
            "arrivals_per_s": sum(r.n_arrivals for r in timed) / sum(walls),
            "batch_latency_p50_s": statistics.median(walls),
            "setup_s": setup_s,
            "f1": fs.f,
            "driver_peak_rss_mb": peak_rss,
        }
        record["latency_samples"] = len(walls)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    return record, result


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(".s") or name.endswith("_s") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload to the unit tests' tiny shape")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    # ``repro`` and the modules next to this file are imported inside the
    # functions that use them, after this check and this path entry.
    sys.path.insert(0, str(ROOT / "src"))
    env = _pin_environment()
    from workloads import WORKLOADS, smoke

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)

    t0 = time.perf_counter()
    spark = _start_spark()
    env["spark_start_s"] = time.perf_counter() - t0
    try:
        record, result = run(spark, wl, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_spark(spark)
    record.update(env, smoke=args.smoke, run_wall_s=time.perf_counter() - t0)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_batch_frac':40s} {record['failed_batch_frac']:.6g} ratio")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
