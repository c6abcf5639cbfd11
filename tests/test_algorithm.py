"""End-to-end TER-iDS runs: method equivalence, pruning stats, F-score.

The strongest invariant: TER-iDS, I_j+G_ER and CDD+ER share the identical
CDD imputation (indexed sample retrieval is exactly equivalent to the cross
join) and the pruning/grid stages are safe — so all three must emit the
*same result pair set*; they differ only in how much work they do.
"""
import pandas as pd
import pytest

from repro.config import TERConfig
from repro.ter.algorithm import METHODS, Prepared, prepare, run_stream
from repro.ter.metrics import f_score, pruning_power
from repro.ter.truth import truth_pairs
from repro.core.cdd_detect import sample_pair_profile

MAX_BATCHES = 2


@pytest.fixture(scope="module")
def runs(spark, small_ds, small_cfg):
    """Run every method once on the small dataset (shared offline work)."""
    profile = sample_pair_profile(spark, small_ds.repository, seed=small_cfg.seed)
    out = {}
    preps = {}
    pivots = None
    for m in METHODS:
        prep = prepare(
            spark, small_ds, small_cfg, m, profile=profile, pivots=pivots
        )
        pivots = prep.pivots
        preps[m] = prep
        out[m] = run_stream(spark, small_ds, small_cfg, prep, max_batches=MAX_BATCHES)
    yield out
    for p in preps.values():
        p.unpersist()


class TestRunBasics:
    def test_all_methods_run(self, runs):
        assert set(runs) == set(METHODS)
        for m, r in runs.items():
            assert r.n_arrivals > 0, m

    def test_ter_produces_results(self, runs):
        assert len(runs["ter"].pairs) > 0

    def test_results_are_cross_stream(self, runs, small_ds):
        sid = small_ds.stream.set_index("rid")["stream_id"]
        for pair in runs["ter"].pairs:
            a, b = sorted(pair)
            assert sid[a] != sid[b]

    def test_timing_recorded(self, runs):
        for m in ("ter", "cdd_er"):
            assert runs[m].t_total > 0
            assert runs[m].per_arrival > 0
        assert runs["ter"].t_select > 0       # CDD selection phase
        assert runs["ter"].t_er > 0


class TestMethodEquivalence:
    def test_ter_equals_cdd_er(self, runs):
        """Index join + pruning changes cost, not results."""
        assert set(runs["ter"].pairs) == set(runs["cdd_er"].pairs)

    def test_ter_equals_ij_ger(self, runs):
        assert set(runs["ter"].pairs) == set(runs["ij_ger"].pairs)

    def test_probabilities_agree(self, runs):
        """Fully-refined TER pairs carry the same Eq. (2) probability as the
        unpruned baseline (early-stopped accepts only report a lower bound
        that is already > alpha, so compare the baseline side)."""
        for pair, pr in runs["cdd_er"].pairs.items():
            assert runs["ter"].pairs[pair] <= pr + 1e-9


class TestPruning:
    def test_stats_accumulated(self, runs):
        st = runs["ter"].prune
        assert st.total > 0
        assert st.pruned_topic > 0

    def test_pruning_power_dominated_by_topic(self, runs):
        """Fig. 4 shape: topic-keyword pruning removes the large majority."""
        pp = pruning_power(runs["ter"].prune)
        assert pp["topic"] > 0.5
        assert pp["total"] > 0.8

    def test_stage_partition(self, runs):
        st = runs["ter"].prune
        assert st.survivors >= 0
        assert st.pruned_instance + st.refined <= st.survivors + 1


class TestFScore:
    def test_truth_nonempty(self, spark, small_ds, small_cfg):
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        assert len(truth) > 0

    def test_ter_fscore_high(self, spark, small_ds, small_cfg, runs):
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        fs = f_score(set(runs["ter"].pairs), truth)
        assert fs.f > 0.6, fs

    def test_accuracy_ordering_ter_vs_con(self, spark, small_ds, small_cfg, runs):
        """Fig. 5(a) shape: CDD-based TER-iDS beats the constraint-based
        imputation baseline."""
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        f_ter = f_score(set(runs["ter"].pairs), truth).f
        f_con = f_score(set(runs["con_er"].pairs), truth).f
        assert f_ter >= f_con


class TestWarmupReuse:
    def test_warm_equals_cold(self, spark, small_ds, small_cfg, prepared_ter):
        """Resuming from a warmup snapshot yields the same results as a cold
        run (the sweep-bench fast path is semantics-preserving)."""
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(spark, small_ds, small_cfg, prepared_ter)
        r_warm = rs(spark, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES, warm=warm)
        r_cold = rs(spark, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES)
        assert set(r_warm.pairs) == set(r_cold.pairs)

    def test_warm_state_not_mutated(self, spark, small_ds, small_cfg, prepared_ter):
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(spark, small_ds, small_cfg, prepared_ter)
        n_tuples = len(warm.tuples)
        n_aggs = len(warm.aggs)
        r1 = rs(spark, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        r2 = rs(spark, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        assert len(warm.tuples) == n_tuples and len(warm.aggs) == n_aggs
        assert set(r1.pairs) == set(r2.pairs)

    def test_warmup_flavor_sharing(self):
        from repro.ter.algorithm import warmup_flavor

        assert warmup_flavor("ter") == warmup_flavor("cdd_er") == "cdd"
        assert warmup_flavor("dd_er") == "dd"
        assert warmup_flavor("con_er") == "con"


class TestPrepare:
    def test_prepare_shares_pivots(self, spark, small_ds, small_cfg, prepared_ter):
        p2 = prepare(
            spark, small_ds, small_cfg, "con_er", pivots=prepared_ter.pivots
        )
        assert p2.pivots is prepared_ter.pivots
        assert p2.dr is None and p2.cddx is None

    def test_keywords_limited(self, prepared_ter, small_cfg, small_ds):
        assert prepared_ter.keywords == small_ds.keywords[: small_cfg.n_topic_keywords]

    def test_rules_beyond_dom_pairs_cutoff_refused(
        self, spark, small_ds, small_cfg, prepared_ter
    ):
        """A DR-index whose dom_pairs stop short of the rules' dependent
        intervals would drop candidates, so prepare refuses to pair them."""
        import dataclasses

        short = dataclasses.replace(prepared_ter.dr, max_dep_hi=0.0)
        with pytest.raises(ValueError):
            prepare(spark, small_ds, small_cfg, "ter", pivots=prepared_ter.pivots,
                    dr=short)


class TestWindowState:
    def test_window_fill_expires(self, spark, small_ds, small_cfg, prepared_ter):
        """The step-0 batch pushes tuples out of a stream's window; the
        warm state must hold exactly the window W_t that step 1 sees."""
        from repro.streams.window import sliding_batches
        from repro.ter.algorithm import warmup

        batches = sliding_batches(small_ds.stream, w=small_cfg.w,
                                  batch_size=small_cfg.batch_size, max_batches=1)
        step0, step1 = next(batches), next(batches)
        assert step0.expired_rids
        window = set(step1.window_before["rid"])
        warm = warmup(spark, small_ds, small_cfg, prepared_ter)
        assert set(warm.tuples) == window
        assert set(warm.aggs["rid"]) == window
        assert set(warm.values["rid"]) <= window

    def test_stale_window_raises(self, spark, small_ds, small_cfg, prepared_ter):
        from repro.ter.algorithm import warmup

        stale = warmup(spark, small_ds, small_cfg, prepared_ter)
        stale.tuples[-1] = next(iter(stale.tuples.values()))
        with pytest.raises(RuntimeError):
            run_stream(spark, small_ds, small_cfg, prepared_ter, max_batches=1,
                       warm=stale)


class TestNoSparkJobs:
    def test_indexed_imputation_and_ter_batch(self, spark, small_ds, small_cfg,
                                              prepared_ter):
        """Indexed imputation, the window fill and a measured TER batch run
        on the driver: no Spark job is started in their job group."""
        import time

        from repro.core.imputation import impute_batch
        from repro.ter.algorithm import warmup

        p = prepared_ter
        sc = spark.sparkContext
        sc.setJobGroup("ter-online", "ter-online")
        try:
            _, st = impute_batch(spark, small_ds.stream.head(40), p.dr, p.cddx,
                                 p.pivots, keywords=p.keywords, indexed=True)
            warm = warmup(spark, small_ds, small_cfg, p)
            res = run_stream(spark, small_ds, small_cfg, p, max_batches=1,
                             warm=warm)
            # The job status store is updated asynchronously; once a later
            # job is visible, every earlier one is too.
            sc.setJobGroup("ter-online-sentinel", "ter-online-sentinel")
            sc.parallelize([0], 1).count()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert st.n_samples > 0 and res.n_arrivals > 0
        tracker = sc.statusTracker()
        deadline = time.monotonic() + 60
        while not tracker.getJobIdsForGroup("ter-online-sentinel"):
            assert time.monotonic() < deadline, "status store did not catch up"
            time.sleep(0.05)
        assert tracker.getJobIdsForGroup("ter-online") == []
