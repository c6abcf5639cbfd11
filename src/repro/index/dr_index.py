"""DR-index ``I_R`` over the data repository R (paper §5.1, Figure 3).

Spark builds the index offline; the online probe runs on the driver.

Offline, repository tuples are tokenized and pivot-converted per attribute
(Jaccard distance of ``s[A_x]`` to the main pivot ``piv_1[A_x]``, assigned to
equi-width buckets of [0, 1] — the two-level aR-tree of DESIGN.md). The index
also precomputes the per-attribute value **domains** and the ``dom_pairs``
table: every pair of domain values within ``max_dep_hi`` of each other, which
turns the Section-3 candidate-set lookup ``cand(s[A_j])`` into a range
lookup. ``dom_pairs`` is an inverted-token self-join: since
``max_dep_hi < 1``, any qualifying pair shares a token, so the join is
complete (every token is a join key; no document-frequency cap).

At the end of the build the index is materialised on the driver as compact
int/numpy arrays (:class:`AttrIndex`), one set per attribute:

- token → sample-row postings (CSR), plus each sample's token-set size, so
  the Jaccard distance of a probe value to *every* sample is one
  ``np.bincount`` over the postings of the probe's tokens;
- each sample's value as a domain id;
- ``dom_pairs`` as CSR keyed by the domain id of ``u``, distances ascending,
  so a dependent interval ``[lo, hi]`` is two ``searchsorted`` calls.

The repository frame ``repo`` and the ``dom_values`` frame stay in Spark for
the straightforward (no-index) baselines, which scan them per batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_dist_col, tokens_col
from repro.streams.stream_gen import ATTR_COLS, D


def _pivot_lit(tokens: frozenset) -> F.col:
    return F.array(*[F.lit(t) for t in sorted(tokens)])


def _offsets(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """CSR offsets of ``keys`` in ``range(n_keys)``, once sorted by key."""
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return offsets


@dataclass
class AttrIndex:
    """Driver-resident DR-index contents for one attribute ``A_k``."""

    tok_id: dict[str, int]   # token -> postings id
    post_ptr: np.ndarray     # (n_tok + 1,) CSR offsets into post_rows
    post_rows: np.ndarray    # sample rows, grouped by token
    size: np.ndarray         # (n_samples,) |tokens(s[A_k])|
    val: np.ndarray          # (n_samples,) domain id of s[A_k]; -1 if null
    domain: np.ndarray       # (n_dom,) domain id -> value
    pair_ptr: np.ndarray     # (n_dom + 1,) CSR offsets into pair_dist/pair_v
    pair_dist: np.ndarray    # dist(u, v), ascending within each u
    pair_v: np.ndarray       # domain id of v

    def distances(self, toks: frozenset) -> np.ndarray:
        """Jaccard distance of ``toks`` to every sample's ``s[A_k]``.

        The same arithmetic as ``jaccard_dist_col`` (similarity 0 when both
        sets are empty), so driver and Spark distances are bit-identical."""
        ids = [self.tok_id[t] for t in toks if t in self.tok_id]
        hits = [self.post_rows[self.post_ptr[i]:self.post_ptr[i + 1]] for i in ids]
        inter = np.bincount(
            np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64),
            minlength=len(self.size),
        )
        union = len(toks) + self.size - inter
        sim = np.divide(inter, union, out=np.zeros(len(union)), where=union > 0)
        return 1.0 - sim

    def candidates(self, u: int, lo: float, hi: float) -> np.ndarray:
        """Domain ids ``v`` with ``lo <= dist(u, v) <= hi`` (``hi`` at most
        the build's ``max_dep_hi``)."""
        a, b = self.pair_ptr[u], self.pair_ptr[u + 1]
        d = self.pair_dist[a:b]
        return self.pair_v[a + np.searchsorted(d, lo, "left"):
                           a + np.searchsorted(d, hi, "right")]


@dataclass
class DRIndex:
    """Prepared repository: Spark frames for the scan baselines, driver
    arrays for the indexed probe.

    ``dom_pairs`` (in ``attrs``) is part of the *index* infrastructure
    (§5.1); the straightforward baselines instead scan ``dom_values`` —
    every domain value per attribute — per retrieved sample, as the paper's
    straightforward method does ("it is rather time-consuming to retrieve
    all samples ... to fill the missing attribute").
    """

    repo: DataFrame          # sid, a0..a4, t0..t4, pd0..pd4, pb0..pb4
    dom_values: DataFrame    # attr, v, vtok    (unindexed candidate scan)
    sids: np.ndarray         # (n_samples,) sample id of each driver row
    attrs: list[AttrIndex]   # per attribute
    n_buckets: int
    max_dep_hi: float        # dom_pairs distance cutoff

    @property
    def n_samples(self) -> int:
        return len(self.sids)

    def unpersist(self) -> None:
        for df in (self.repo, self.dom_values):
            try:
                df.unpersist()
            except Exception:
                pass


def _attr_index(
    samples: list, k: int, domain: list[str], pairs: pd.DataFrame
) -> AttrIndex:
    """Driver arrays of attribute ``k`` from the collected index rows."""
    tok_id: dict[str, int] = {}
    tok_keys, tok_rows = [], []
    for i, row in enumerate(samples):
        for t in row[f"t{k}"]:
            tok_keys.append(tok_id.setdefault(t, len(tok_id)))
            tok_rows.append(i)
    tok_keys = np.asarray(tok_keys, dtype=np.int64)
    dom_id = {v: i for i, v in enumerate(domain)}
    u = pairs["u"].map(dom_id).to_numpy(dtype=np.int64)
    v = pairs["v"].map(dom_id).to_numpy(dtype=np.int64)
    dist = pairs["dist"].to_numpy(dtype=np.float64)
    by = np.lexsort((v, dist, u))
    return AttrIndex(
        tok_id=tok_id,
        post_ptr=_offsets(tok_keys, len(tok_id)),
        post_rows=np.asarray(tok_rows, dtype=np.int64)[
            np.argsort(tok_keys, kind="stable")],
        size=np.array([len(row[f"t{k}"]) for row in samples], dtype=np.int64),
        val=np.array([dom_id.get(row[ATTR_COLS[k]], -1) for row in samples],
                     dtype=np.int64),
        domain=np.array(domain, dtype=object),
        pair_ptr=_offsets(u, len(domain)),
        pair_dist=dist[by],
        pair_v=v[by],
    )


def build_dr_index(
    spark: SparkSession,
    repo_pdf: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    n_buckets: int = 10,
    max_dep_hi: float = 0.7,
) -> DRIndex:
    """Build the DR-index over the repository (one-time, offline phase)."""
    if not 0.0 <= max_dep_hi < 1.0:
        # At distance 1 a pair shares no token, so the token self-join that
        # builds dom_pairs would miss it.
        raise ValueError(f"max_dep_hi must lie in [0, 1), got {max_dep_hi}")
    sdf = spark.createDataFrame(repo_pdf[["sid"] + ATTR_COLS])
    cols = [F.col("sid")] + [F.col(c) for c in ATTR_COLS]
    for k, c in enumerate(ATTR_COLS):
        cols.append(tokens_col(F.col(c)).alias(f"t{k}"))
    sdf = sdf.select(*cols)
    for k in range(D):
        pd_col = jaccard_dist_col(F.col(f"t{k}"), _pivot_lit(pivots[k].main_tokens))
        sdf = sdf.withColumn(f"pd{k}", pd_col).withColumn(
            f"pb{k}",
            F.least(
                F.lit(n_buckets - 1),
                F.floor(F.col(f"pd{k}") * n_buckets).cast("int"),
            ),
        )
    repo = sdf.coalesce(4).persist()
    samples = sorted(
        repo.select("sid", *ATTR_COLS, *[f"t{k}" for k in range(D)]).collect(),
        key=lambda r: r["sid"],
    )

    # --- attribute domains + dom_pairs (inverted-index similarity self-join) ---
    vals = None
    for k, c in enumerate(ATTR_COLS):
        v = repo.select(F.lit(k).alias("attr"), F.col(c).alias("u")).where(
            F.col(c).isNotNull()
        ).distinct()
        vals = v if vals is None else vals.unionByName(v)
    vals = vals.persist()
    dom_values = (
        vals.select("attr", F.col("u").alias("v"), tokens_col(F.col("u")).alias("vtok"))
        .coalesce(8)
        .persist()
    )
    domains: dict[int, list[str]] = {k: [] for k in range(D)}
    for r in dom_values.select("attr", "v").collect():
        domains[r["attr"]].append(r["v"])

    # Identity pairs come out of the join too (dist exactly 0.0); a value
    # without tokens is at distance 1 from everything, itself included.
    tok = vals.select("attr", "u", F.explode(tokens_col(F.col("u"))).alias("tok"))
    pairs = (
        tok.alias("l")
        .join(tok.alias("r"), ["attr", "tok"])
        .select("attr", F.col("l.u").alias("u"), F.col("r.u").alias("v"))
        .distinct()
        .withColumn("dist", jaccard_dist_col(tokens_col(F.col("u")), tokens_col(F.col("v"))))
        .where(F.col("dist") <= max_dep_hi)
        .toPandas()
    )
    vals.unpersist()
    attrs = [
        _attr_index(samples, k, sorted(domains[k]), pairs[pairs["attr"] == k])
        for k in range(D)
    ]
    return DRIndex(
        repo=repo, dom_values=dom_values,
        sids=np.array([r["sid"] for r in samples], dtype=np.int64),
        attrs=attrs, n_buckets=n_buckets, max_dep_hi=max_dep_hi,
    )
