"""Imputation pipeline tests (Section 3).

Key invariant: the driver-side DR-index probe must return exactly the same
samples and candidate rows as the straightforward Spark cross join and domain
scan (the index introduces no false negatives and no false positives), so
indexed and unindexed imputations are identical — this is the correctness
contract of the index.
"""
import pandas as pd
import pytest

from repro.core.imputation import (
    CAND_COLS,
    candidate_frequencies,
    impute_batch,
    impute_batch_con,
    missing_cells,
    probe_candidates,
    probe_samples,
    scan_candidates,
    scan_samples,
)
from repro.oracle import assert_equivalent
from repro.streams.stream_gen import ATTR_COLS
from repro.streams.window import sliding_batches


@pytest.fixture(scope="module")
def batch(small_ds):
    """A batch with both complete and incomplete tuples."""
    s = small_ds.stream
    inc = s[s[ATTR_COLS].isna().any(axis=1)].head(8)
    comp = s[~s[ATTR_COLS].isna().any(axis=1)].head(8)
    return pd.concat([inc, comp], ignore_index=True)


@pytest.fixture(scope="module")
def need(batch):
    return missing_cells(batch)


@pytest.fixture(scope="module")
def samples(batch, need, prepared_ter):
    p = prepared_ter
    return probe_samples(batch, need, p.dr, p.cddx)


def _sorted(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    return (df[cols].astype({c: "int64" for c in cols if c != "v"})
            .sort_values(cols).reset_index(drop=True))


class TestRetrieveSamples:
    def test_indexed_equals_unindexed(self, spark, batch, need, samples, prepared_ter):
        """DR-index probe samples == cross-join samples, exactly."""
        p = prepared_ter
        scanned = scan_samples(spark, batch, need, p.dr, p.cddx).toPandas()
        key = ["rid", "j", "rule_id", "sid"]
        assert len(samples) > 0
        pd.testing.assert_frame_equal(_sorted(samples, key), _sorted(scanned, key))

    def test_samples_satisfy_constraints(self, batch, samples, prepared_ter):
        """Every retrieved (tuple, rule, sample) satisfies the rule's
        determinant constraints (checked against driver-side rule objects)."""
        from repro.core.similarity import jaccard_dist, tokens

        p = prepared_ter
        rules_flat = p.cddx.rules_df.toPandas().set_index("rule_id")
        repo = p.dr.repo.select("sid", *ATTR_COLS).toPandas().set_index("sid")
        bt = batch.set_index("rid")
        for row in samples.head(200).itertuples(index=False):
            rule = rules_flat.loc[row.rule_id]
            s = repo.loc[row.sid]
            r = bt.loc[row.rid]
            for x, lo, hi in [(rule.x1, rule.lo1, rule.hi1), (rule.x2, rule.lo2, rule.hi2)]:
                if pd.isna(x):
                    continue
                x = int(x)
                d = jaccard_dist(tokens(r[ATTR_COLS[x]]), tokens(s[ATTR_COLS[x]]))
                assert lo - 1e-9 <= d <= hi + 1e-9


class TestCandidateFrequencies:
    def test_indexed_candidates_equal_scan(self, spark, batch, need, samples,
                                           prepared_ter):
        """dom_pairs range lookups == the domain scan's candidate rows."""
        p = prepared_ter
        scanned = scan_candidates(scan_samples(spark, batch, need, p.dr, p.cddx), p.dr)
        got = probe_candidates(samples, p.dr)
        assert len(got) > 0
        pd.testing.assert_frame_equal(_sorted(got, CAND_COLS), _sorted(scanned, CAND_COLS))

    def test_oracle_frequency_aggregation(self, samples, prepared_ter):
        """The vote-split aggregation is oracle-checked against DuckDB
        over the materialized (rid, j, rule_id, sid, v) candidate rows."""
        cand_rows = probe_candidates(samples, prepared_ter.dr)
        freqs = candidate_frequencies(cand_rows).rename(columns={"count": "f"})
        assert_equivalent(
            freqs,
            """
            SELECT rid, j, v, SUM(w) AS f FROM (
              SELECT rid, j, v,
                     1.0 / COUNT(*) OVER (PARTITION BY rid, j, rule_id, sid) AS w
              FROM cand
            ) GROUP BY rid, j, v
            """,
            cand=cand_rows,
        )

    def test_row_order_does_not_matter(self, samples, prepared_ter):
        """Frequencies are bit-identical whatever order the rows arrive in."""
        cand_rows = probe_candidates(samples, prepared_ter.dr)
        shuffled = cand_rows.sample(frac=1.0, random_state=3)
        pd.testing.assert_frame_equal(
            candidate_frequencies(cand_rows), candidate_frequencies(shuffled),
            check_exact=True,
        )

    def test_candidates_within_dep_interval(self, samples, prepared_ter):
        from repro.core.similarity import jaccard_dist, tokens

        rows = probe_candidates(samples, prepared_ter.dr).merge(
            samples, on=["rid", "j", "rule_id", "sid"]
        ).head(100)
        assert len(rows)
        for r in rows.itertuples(index=False):
            d = jaccard_dist(tokens(r.s_dep_val), tokens(r.v))
            assert r.dep_lo - 1e-9 <= d <= r.dep_hi + 1e-9


class TestImputeBatch:
    def test_instances_probabilities(self, spark, batch, prepared_ter, small_cfg):
        p = prepared_ter
        tuples, stats = impute_batch(
            spark, batch, p.dr, p.cddx, p.pivots,
            keywords=p.keywords, indexed=True,
            max_instances=small_cfg.max_instances,
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        assert stats.n_samples > 0
        for t in tuples:
            assert 1 <= len(t.instances) <= small_cfg.max_instances
            assert sum(i.p for i in t.instances) == pytest.approx(1.0)

    def test_complete_tuples_single_instance(self, spark, batch, prepared_ter):
        p = prepared_ter
        tuples, _ = impute_batch(
            spark, batch, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        comp_rids = set(
            batch[~batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int)
        )
        for t in tuples:
            if t.rid in comp_rids:
                assert len(t.instances) == 1
                assert t.instances[0].p == 1.0

    def test_imputation_recovers_truth_for_covered_entities(
        self, spark, small_ds, prepared_ter
    ):
        """For incomplete tuples whose entity is covered by R, some imputed
        instance should be close to the true (pre-corruption) value.
        Uncovered entities have no basis for imputation (the eta trend of
        Fig. 14: more coverage -> better accuracy)."""
        from repro.core.similarity import jaccard, tokens

        p = prepared_ter
        covered = set(small_ds.repository["entity_id"])
        s = small_ds.stream
        inc = s[s[ATTR_COLS].isna().any(axis=1) & s["entity_id"].isin(covered)].head(40)
        tuples, _ = impute_batch(
            spark, inc, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        comp = small_ds.complete.set_index("rid")
        hits = tried = 0
        for t in tuples:
            row = inc[inc["rid"] == t.rid].iloc[0]
            missing = [k for k, c in enumerate(ATTR_COLS) if pd.isna(row[c])]
            tried += 1
            true_val = comp.loc[t.rid]
            best = max(
                jaccard(tokens(inst.attrs[k]), tokens(true_val[ATTR_COLS[k]]))
                for inst in t.instances
                for k in missing
            )
            hits += best >= 0.5
        assert tried >= 5
        assert hits / tried > 0.5

    def test_indexed_equals_unindexed_instances(
        self, spark, batch, small_ds, small_cfg, prepared_ter
    ):
        """TER's indexed imputation and CDD+ER's Spark scan give exactly the
        same instance lists, probabilities compared with ==."""
        p = prepared_ter
        batches = [batch] + [
            wb.arrived for wb in sliding_batches(
                small_ds.stream, w=small_cfg.w, batch_size=small_cfg.batch_size,
                max_batches=2,
            )
        ]
        for b in batches:
            got = {}
            for indexed in (True, False):
                tuples, stats = impute_batch(
                    spark, b, p.dr, p.cddx, p.pivots, keywords=p.keywords,
                    indexed=indexed, max_instances=small_cfg.max_instances,
                )
                got[indexed] = (
                    [[(i.attrs, i.p) for i in t.instances] for t in tuples],
                    stats.n_samples,
                )
            assert got[True] == got[False]

    def test_no_missing_short_circuit(self, spark, batch, prepared_ter):
        p = prepared_ter
        comp = batch[~batch[ATTR_COLS].isna().any(axis=1)]
        tuples, stats = impute_batch(
            spark, comp, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        assert stats.n_incomplete == 0
        assert stats.t_select == 0.0
        assert len(tuples) == len(comp)


class TestConImputer:
    def test_fills_from_window(self, spark, batch, prepared_ter, small_ds):
        p = prepared_ter
        window_values = small_ds.complete.head(60)
        tuples, stats = impute_batch_con(
            spark, batch, window_values, p.pivots, keywords=p.keywords
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        for t in tuples:
            assert len(t.instances) == 1
            # con fills every missing attribute (window has complete tuples)
            assert all(a is not None for a in t.instances[0].attrs)

    def test_empty_window_leaves_missing(self, spark, batch, prepared_ter, small_ds):
        p = prepared_ter
        tuples, _ = impute_batch_con(
            spark, batch, small_ds.complete.iloc[0:0], p.pivots, keywords=p.keywords
        )
        inc_rids = set(batch[batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int))
        for t in tuples:
            if t.rid in inc_rids:
                assert any(a is None for a in t.instances[0].attrs)
