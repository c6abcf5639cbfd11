"""spark-submit entrypoint: run the TER-iDS operator on one dataset.

    spark-submit jobs/run_ter_ids.py --dataset citations --method ter \
        --batches 3 [--scale 1.0]

Prints the measured run summary (pairs, pruning power, timing break-up) and
the Spark jobs of the offline set-up and of each measured micro-batch,
counted per job group with ``statusTracker().getJobIdsForGroup``.
"""
import argparse
import math
import time

from pyspark.sql import SparkSession

from repro.bench.harness import get_dataset, run_method
from repro.config import TERConfig
from repro.ter.metrics import pruning_power


def _jobs_in(sc, group: str, fn):
    """Run ``fn()`` in Spark job group ``group``; return (result, jobs)."""
    sc.setJobGroup(group, group)
    try:
        out = fn()
        # The status store is updated asynchronously: once a later job is
        # visible, every earlier one is too.
        sc.setJobGroup(f"{group}-sentinel", f"{group}-sentinel")
        sc.parallelize([0], 1).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 60
    while not tracker.getJobIdsForGroup(f"{group}-sentinel"):
        if time.monotonic() > deadline:
            raise RuntimeError("Spark status store did not catch up")
        time.sleep(0.05)
    return out, len(tracker.getJobIdsForGroup(group))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="citations")
    ap.add_argument("--method", default="ter")
    ap.add_argument("--batches", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    spark = (
        SparkSession.builder.appName("ter-ids")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.shuffle.partitions", "8")
        .getOrCreate()
    )
    sc = spark.sparkContext
    cfg = TERConfig()
    # A zero-batch run builds (and caches) the offline context and the warm
    # window, so the second run's job group holds the measured batches only.
    _, setup_jobs = _jobs_in(sc, "ter-ids-setup", lambda: run_method(
        spark, args.dataset, cfg, args.method, scale=args.scale, max_batches=0,
    ))
    res, run_jobs = _jobs_in(sc, "ter-ids-measured", lambda: run_method(
        spark, args.dataset, cfg, args.method,
        scale=args.scale, max_batches=args.batches,
    ))
    n_streams = get_dataset(args.dataset, cfg, args.scale).stream["stream_id"].nunique()
    n_batches = max(1, math.ceil(res.n_arrivals / (cfg.batch_size * n_streams)))
    print(f"method={res.method} arrivals={res.n_arrivals}")
    print(f"pairs={len(res.pairs)} sec/arrival={res.per_arrival:.5f}")
    print(f"breakup: select={res.t_select:.3f}s impute={res.t_impute:.3f}s "
          f"er={res.t_er:.3f}s spark_jobs/batch={run_jobs / n_batches:.1f}")
    print(f"spark jobs: setup={setup_jobs} measured={run_jobs} "
          f"over {n_batches} batches")
    if res.prune.total:
        print(f"pruning: {pruning_power(res.prune)}")


if __name__ == "__main__":
    main()
