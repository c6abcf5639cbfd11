"""Online imputation of incomplete tuples (paper Section 3).

For each missing cell ``r[A_j]`` of a micro-batch:
1. the CDD-index rules with dependent ``A_j`` whose determinants are present
   on ``r`` are selected (the paper's "obtain suitable CDD rules");
2. the samples ``s in R`` satisfying a rule's determinant constraints are
   retrieved — the (rid, j, rule_id, sid) *samples*;
3. each sample's candidate set ``cand(s[A_j])`` — domain values within the
   rule's dependent interval ``A_j.I`` of ``s[A_j]`` — gives the
   (rid, j, rule_id, sid, v) *candidate rows*.

Steps 2-3 run one of two ways, and that is the TER-iDS vs CDD+ER distinction:
- indexed (TER-iDS, I_j+G_ER, every warm-up): driver-side lookups in the
  DR-index arrays — token postings give each determinant distance to every
  sample, and ``dom_pairs`` gives ``cand(s[A_j])`` by range lookup. No Spark
  job runs.
- straightforward (the no-index baselines): a Spark cross join of the probe
  rows with the repository frame, then a scan of every domain value per
  sample; the candidate rows are collected to the driver.

Both are exact, so they produce the same candidate rows, and both then go
through :func:`candidate_frequencies`, one driver-side vote-split
aggregation (Eq. 3/4) over a fixed row order: indexed and straightforward
imputations are bit-identical. Instances of multi-attribute-missing tuples
are the per-attribute candidate cross product (capped + renormalized,
DESIGN.md).

``impute_batch`` covers the cdd/dd/er flavors (they differ only in the rule
set and whether the DR-index is used); ``impute_batch_con`` implements the
constraint-based baseline [43], which imputes from the most similar complete
tuple in the current *window* (no repository access).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.instances import ImputedTuple, build_imputed_tuple, cap_instances
from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_col, tokens, tokens_col
from repro.index.cdd_index import CDDIndex, rules_to_rows
from repro.index.dr_index import DRIndex
from repro.streams.stream_gen import ATTR_COLS, D

SAMPLE_COLS = ["rid", "j", "rule_id", "sid", "dep_lo", "dep_hi", "s_dep_val"]
CAND_COLS = ["rid", "j", "rule_id", "sid", "v"]
FREQ_COLS = ["rid", "j", "v", "count"]


@dataclass
class ImputeStats:
    """Per-batch imputation accounting (break-up cost, Fig. 6)."""

    t_select: float = 0.0     # CDD selection + sample retrieval
    t_impute: float = 0.0     # candidate sets + frequency aggregation
    n_samples: int = 0        # matched (tuple, rule, sample) triples
    n_incomplete: int = 0


def missing_cells(batch: pd.DataFrame) -> pd.DataFrame:
    """(rid, j) of every missing attribute value in the batch."""
    rows = [
        (int(row.rid), k)
        for row in batch.itertuples(index=False)
        for k, c in enumerate(ATTR_COLS)
        if pd.isna(getattr(row, c))
    ]
    return pd.DataFrame(rows, columns=["rid", "j"], dtype=np.int64)


# --------------------------------------------------- indexed (driver) probe ---

def probe_samples(
    batch: pd.DataFrame, need: pd.DataFrame, dr: DRIndex, cddx: CDDIndex
) -> pd.DataFrame:
    """Samples of each missing cell via the DR-index postings (driver side).

    Per (tuple, determinant attribute), one postings lookup gives the exact
    Jaccard distance to every sample; each rule's interval constraints are
    then a mask over that vector. Columns as :data:`SAMPLE_COLS` plus
    ``u``, the domain id of ``s_dep_val`` (-1 when null)."""
    toks = {
        int(row.rid): [tokens(None if pd.isna(v) else v)
                       for v in (getattr(row, c) for c in ATTR_COLS)]
        for row in batch.itertuples(index=False)
    }
    by_dep: dict[int, list[tuple]] = {}
    for r in rules_to_rows(cddx.rules):
        by_dep.setdefault(r[1], []).append(r)
    dist: dict[tuple[int, int], np.ndarray] = {}

    def dist_to(rid: int, x: int) -> np.ndarray:
        if (rid, x) not in dist:
            dist[(rid, x)] = dr.attrs[x].distances(toks[rid][x])
        return dist[(rid, x)]

    out = []
    for rid, j in need.itertuples(index=False):
        t = toks[rid]
        a = dr.attrs[j]
        for rule_id, _, x1, lo1, hi1, x2, lo2, hi2, dep_lo, dep_hi in by_dep.get(j, ()):
            # Determinants must be present on the incomplete tuple (paper:
            # "attributes in X_i are non-missing").
            if not t[x1] or (x2 is not None and not t[x2]):
                continue
            d1 = dist_to(rid, x1)
            ok = (d1 >= lo1) & (d1 <= hi1)
            if x2 is not None:
                d2 = dist_to(rid, x2)
                ok &= (d2 >= lo2) & (d2 <= hi2)
            for i in np.flatnonzero(ok):
                u = a.val[i]
                out.append((rid, j, rule_id, dr.sids[i], dep_lo, dep_hi,
                            a.domain[u] if u >= 0 else None, u))
    return pd.DataFrame(out, columns=SAMPLE_COLS + ["u"])


def probe_candidates(samples: pd.DataFrame, dr: DRIndex) -> pd.DataFrame:
    """Candidate rows of :func:`probe_samples` output via ``dom_pairs``
    range lookups: ``cand(s[A_j])`` is a slice of ``s[A_j]``'s pair list."""
    out = [
        (s.rid, s.j, s.rule_id, s.sid, v)
        for s in samples.itertuples(index=False) if s.u >= 0
        for v in dr.attrs[s.j].domain[
            dr.attrs[s.j].candidates(s.u, s.dep_lo, s.dep_hi)]
    ]
    return pd.DataFrame(out, columns=CAND_COLS)


# -------------------------------------------- straightforward (Spark) scan ---

def _pick(attr_col: Column, cols: list[Column]) -> Column:
    """CASE chain selecting ``cols[attr]`` for a runtime attribute index."""
    expr = F.lit(None)
    for k in reversed(range(D)):
        expr = F.when(attr_col == F.lit(k), cols[k]).otherwise(expr)
    return expr


def scan_samples(
    spark: SparkSession,
    batch: pd.DataFrame,
    need: pd.DataFrame,
    dr: DRIndex,
    cddx: CDDIndex,
) -> DataFrame:
    """Samples of each missing cell by the straightforward cross join of
    (cell, rule) probe rows with the whole repository (Spark)."""
    feats = spark.createDataFrame(batch[["rid"] + ATTR_COLS]).select(
        "rid", *[tokens_col(F.col(c)).alias(f"bt{k}") for k, c in enumerate(ATTR_COLS)]
    )
    probe = spark.createDataFrame(need).join(feats, "rid").join(
        F.broadcast(cddx.rules_df), F.col("j") == F.col("dep")
    )
    bt = [F.col(f"bt{k}") for k in range(D)]
    # Determinants must be present on the incomplete tuple (paper:
    # "attributes in X_i are non-missing").
    probe = probe.where(F.size(_pick(F.col("x1"), bt)) > 0)
    probe = probe.where(
        F.col("x2").isNull() | (F.size(_pick(F.col("x2"), bt)) > 0)
    )
    cand = probe.crossJoin(dr.repo)

    st = [F.col(f"t{k}") for k in range(D)]
    d1 = F.lit(1.0) - jaccard_col(_pick(F.col("x1"), bt), _pick(F.col("x1"), st))
    cand = cand.where((d1 >= F.col("lo1")) & (d1 <= F.col("hi1")))
    d2 = F.lit(1.0) - jaccard_col(_pick(F.col("x2"), bt), _pick(F.col("x2"), st))
    cand = cand.where(
        F.col("x2").isNull() | ((d2 >= F.col("lo2")) & (d2 <= F.col("hi2")))
    )
    sval = [F.col(c) for c in ATTR_COLS]
    return cand.select(*SAMPLE_COLS[:-1], _pick(F.col("j"), sval).alias("s_dep_val"))


def scan_candidates(samples: DataFrame, dr: DRIndex) -> pd.DataFrame:
    """Candidate rows of :func:`scan_samples` output by scanning the whole
    attribute domain per retrieved sample and computing each Jaccard
    distance on the fly — the paper's straightforward method, whose cost is
    what the index lookups eliminate. Collected to the driver."""
    dv = dr.dom_values
    scan = dv.join(F.broadcast(samples), dv["attr"] == samples["j"])
    dist = F.lit(1.0) - jaccard_col(tokens_col(F.col("s_dep_val")), F.col("vtok"))
    return scan.where(
        (dist >= F.col("dep_lo")) & (dist <= F.col("dep_hi"))
    ).select(*CAND_COLS).toPandas()


def candidate_frequencies(cands: pd.DataFrame) -> pd.DataFrame:
    """Aggregate candidate-value frequencies F(v) (Section 3).

    Frequencies are *vote-split*: each retrieved (rule, sample) contributes a
    total weight of 1, divided over its candidate set ``cand(s[A_j])``. This
    calibrates Eq. (3)/(4): a contaminating sample with a broad candidate
    neighbourhood cannot dilute the concentrated evidence of samples whose
    dependent values pinpoint the missing one — matching the paper's premise
    that CDD imputation concentrates probability mass on the right value.

    Rows are put in one fixed order before summing, so equal candidate rows
    give bit-identical frequencies whichever path produced them.
    """
    if cands.empty:
        return pd.DataFrame(columns=FREQ_COLS)
    cands = cands.astype({"rid": np.int64, "j": np.int64, "rule_id": np.int64,
                          "sid": np.int64})
    cands = cands.sort_values(CAND_COLS, kind="stable", ignore_index=True)
    per_sample = cands.groupby(CAND_COLS[:4])["v"].transform("size")
    return (
        cands.assign(count=1.0 / per_sample)
        .groupby(["rid", "j", "v"], sort=True)["count"]
        .sum()
        .reset_index()
    )


def assemble_instances(
    batch: pd.DataFrame,
    freq_pdf: pd.DataFrame,
    *,
    keywords: list[str],
    pivots: dict[int, AttributePivots],
    max_instances: int = 8,
    top_per_attr: int = 8,
) -> list[ImputedTuple]:
    """Eq. (3)/(4) normalization + instance cross product + aggregates.

    ``keywords`` is the query keyword set K — instance keyword flags and
    tuple keyword masks are computed against it (topic-aware ER is
    query-scoped, problem statement §2.3).
    """
    piv_tokens = [pivots[k].main_tokens for k in range(D)]
    by_rid: dict[int, dict[int, dict[str, int]]] = {}
    if len(freq_pdf):
        for row in freq_pdf.itertuples(index=False):
            by_rid.setdefault(row.rid, {}).setdefault(row.j, {})[row.v] = row.count
    out: list[ImputedTuple] = []
    for row in batch.itertuples(index=False):
        vals = [getattr(row, c) for c in ATTR_COLS]
        missing = [k for k in range(D) if vals[k] is None or pd.isna(vals[k])]
        base = [None if k in missing else vals[k] for k in range(D)]
        if not missing:
            cands = [(tuple(base), 1.0)]
        else:
            per_attr: list[list[tuple[str | None, float]]] = []
            for j in missing:
                freqs = by_rid.get(row.rid, {}).get(j, {})
                if not freqs:
                    per_attr.append([(None, 1.0)])
                    continue
                top = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:top_per_attr]
                tot = sum(f for _, f in top)
                per_attr.append([(v, f / tot) for v, f in top])
            cands = [(tuple(base), 1.0)]
            for j, choices in zip(missing, per_attr):
                cands = [
                    (tuple(v if k != j else cv for k, v in enumerate(attrs)), p * cp)
                    for attrs, p in cands
                    for cv, cp in choices
                ]
            cands = cap_instances(cands, max_instances)
        out.append(
            build_imputed_tuple(
                int(row.rid), int(row.stream_id), cands,
                topics=keywords, pivot_tokens=piv_tokens,
            )
        )
    return out


def impute_batch(
    spark: SparkSession,
    batch: pd.DataFrame,
    dr: DRIndex,
    cddx: CDDIndex,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
    indexed: bool,
    max_instances: int = 8,
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Impute one micro-batch via CDD/DD/editing rules (flavor = cddx rules).

    ``indexed`` probes the DR-index on the driver (no Spark job); otherwise
    samples and candidate sets come from the straightforward Spark scan."""
    stats = ImputeStats()
    need = missing_cells(batch)
    stats.n_incomplete = need["rid"].nunique()
    freq_pdf = pd.DataFrame(columns=FREQ_COLS)
    if len(need):
        t0 = time.perf_counter()
        if indexed:
            samples = probe_samples(batch, need, dr, cddx)
            stats.n_samples = len(samples)
            stats.t_select = time.perf_counter() - t0
            t1 = time.perf_counter()
            cands = probe_candidates(samples, dr)
        else:
            samples = scan_samples(spark, batch, need, dr, cddx).persist()
            stats.n_samples = samples.count()
            stats.t_select = time.perf_counter() - t0
            t1 = time.perf_counter()
            cands = scan_candidates(samples, dr)
            samples.unpersist()
        freq_pdf = candidate_frequencies(cands)
        stats.t_impute = time.perf_counter() - t1

    tuples = assemble_instances(
        batch, freq_pdf, keywords=keywords, pivots=pivots,
        max_instances=max_instances,
    )
    return tuples, stats


def impute_batch_con(
    spark: SparkSession,
    batch: pd.DataFrame,
    window_values: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Constraint-based baseline [43]: statistical imputation from the
    stream itself — each missing attribute is filled with the most frequent
    (mode) value of that attribute over the current window; single instance
    with p = 1; no repository access.

    The paper: con+ER "does not adequately consider the semantic association
    among textual attribute values" (worst accuracy) and "imputes missing
    attributes only based on incomplete data streams" (almost constant,
    repository-independent cost). A per-attribute window mode is exactly
    such a semantics-blind statistical constraint fill.
    """
    stats = ImputeStats()
    has_missing = batch[ATTR_COLS].isna().any(axis=1)
    stats.n_incomplete = int(has_missing.sum())
    filled = batch.copy()
    if stats.n_incomplete and len(window_values):
        t0 = time.perf_counter()
        wv = window_values[ATTR_COLS]
        long = None
        for k, c in enumerate(ATTR_COLS):
            part = spark.createDataFrame(
                wv[[c]].dropna().rename(columns={c: "v"})
            ).select(F.lit(k).alias("attr"), "v")
            long = part if long is None else long.unionByName(part)
        mode = (
            long.groupBy("attr", "v")
            .count()
            .withColumn(
                "rk",
                F.row_number().over(
                    Window.partitionBy("attr").orderBy(F.desc("count"), F.asc("v"))
                ),
            )
            .where(F.col("rk") == 1)
            .select("attr", "v")
            .toPandas()
        )
        stats.t_impute = time.perf_counter() - t0
        modes = dict(zip(mode["attr"], mode["v"]))
        for idx, row in filled[has_missing].iterrows():
            for k, c in enumerate(ATTR_COLS):
                if row[c] is None or pd.isna(row[c]):
                    filled.loc[idx, c] = modes.get(k)
    tuples = assemble_instances(
        filled, pd.DataFrame(columns=["rid", "j", "v", "count"]),
        keywords=keywords, pivots=pivots,
    )
    return tuples, stats
