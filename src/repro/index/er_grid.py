"""ER-grid synopsis over sliding windows (paper §5.2) + candidate generation.

The grid assigns every (imputed) window tuple to a d-dimensional cell by its
per-attribute main-pivot distance lower bound. Cells carry the paper's
aggregates: keyword existence, minimally-bounding pivot-distance intervals,
token-set-size intervals, and per-stream member counts. Candidate generation
for a micro-batch is one vectorized numpy pass on the driver over the window
aggregates (a few hundred rows per stream, no Spark job):

  new-tuples x cells  -> cell-level pruning (Thm 4.1 / Thm 4.2 via
                          Lemmas 4.1-4.2 on cell aggregates)
  survivors x members -> tuple-level pruning (Thm 4.1, Lemmas 4.1-4.2,
                          Thm 4.3 via the Lemma-4.3 Paley-Zygmund bound)

A cell pruned at stage s attributes all its eligible member pairs to stage s
(index-level pruning credited to its theorem, as in the paper's Figure 4).
New-vs-new pairs (both sides arriving in the same batch) go through the same
tuple-stage kernel, with identical stage accounting.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.core import pruning as PR
from repro.streams.stream_gen import D

AGG_COLS = [f"{p}{k}" for k in range(D) for p in ("lb", "ub", "e", "tmin", "tmax")]


@dataclass
class PruneStats:
    """Stage-attributed pair accounting (Fig. 4 pruning power)."""

    total: int = 0
    pruned_topic: int = 0
    pruned_sim: int = 0
    pruned_prob: int = 0
    pruned_instance: int = 0   # filled by the refinement (Thm 4.4)
    refined: int = 0           # pairs that reached exact evaluation

    def add(self, other: "PruneStats") -> None:
        for f in ("total", "pruned_topic", "pruned_sim", "pruned_prob",
                  "pruned_instance", "refined"):
            setattr(self, f, getattr(self, f) + getattr(other, f))

    @property
    def survivors(self) -> int:
        return self.total - self.pruned_topic - self.pruned_sim - self.pruned_prob


def assign_cells(aggs: pd.DataFrame, cells_per_dim: int) -> pd.Series:
    """Cell id string from quantized per-attribute lb distances."""
    parts = []
    for k in range(D):
        b = np.clip(
            (aggs[f"lb{k}"].to_numpy() * cells_per_dim).astype(int),
            0,
            cells_per_dim - 1,
        )
        parts.append(b.astype(str))
    out = parts[0]
    for p in parts[1:]:
        out = np.char.add(np.char.add(out, "|"), p)
    return pd.Series(out, index=aggs.index)


def build_cells(members: pd.DataFrame) -> pd.DataFrame:
    """Cell aggregate table from a member frame that has ``cell`` assigned."""
    agg_spec = {"kw_any": ("kw_mask", lambda s: int((s != 0).any()))}
    for k in range(D):
        agg_spec[f"clb{k}"] = (f"lb{k}", "min")
        agg_spec[f"cub{k}"] = (f"ub{k}", "max")
        agg_spec[f"ctmin{k}"] = (f"tmin{k}", "min")
        agg_spec[f"ctmax{k}"] = (f"tmax{k}", "max")
    cells = members.groupby("cell").agg(**agg_spec).reset_index()
    counts = (
        members.groupby(["cell", "stream_id"]).size().unstack(fill_value=0)
    )
    for s in (0, 1):
        cells[f"n{s}"] = counts.get(s, pd.Series(0, index=counts.index)).reindex(
            cells["cell"]
        ).fillna(0).to_numpy(dtype=int)
    return cells


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame(columns=["rid_n", "rid_m"])


def _checked(pairs: pd.DataFrame, stats: PruneStats) -> tuple[pd.DataFrame, PruneStats]:
    """Return ``(pairs, stats)`` after checking that the stage counts
    partition the pairs considered."""
    if stats.survivors != len(pairs):
        raise RuntimeError(
            f"pruning stages do not partition the pairs: total={stats.total} "
            f"topic={stats.pruned_topic} sim={stats.pruned_sim} "
            f"prob={stats.pruned_prob} survivors={len(pairs)}"
        )
    return pairs, stats


def _sim_ok(x, y, *, d: int, gamma: float, use_pivot: bool) -> np.ndarray:
    """Thm 4.2 on per-attribute aggregates: Lemma 4.1 (token-set sizes) and,
    with ``use_pivot``, Lemma 4.2 (pivot distances). ``x(name)``/``y(name)``
    return the two sides' ``tmin{k}``/``tmax{k}``/``lb{k}``/``ub{k}`` arrays,
    aligned or broadcastable. True where the pair survives."""
    ts_ub = sum(
        PR.ub_sim_token_size(x(f"tmin{k}"), x(f"tmax{k}"), y(f"tmin{k}"), y(f"tmax{k}"))
        for k in range(D)
    )
    ok = ts_ub > gamma
    if use_pivot:
        piv_ub = float(d) - sum(
            PR.ub_sim_pivot(x(f"lb{k}"), x(f"ub{k}"), y(f"lb{k}"), y(f"ub{k}"))
            for k in range(D)
        )
        ok &= piv_ub > gamma
    return ok


def _tuple_stage(
    x: pd.DataFrame, ix: np.ndarray, y: pd.DataFrame, iy: np.ndarray,
    *, d: int, gamma: float, alpha: float, use_pivot: bool, use_prob: bool,
) -> tuple[np.ndarray, PruneStats]:
    """Tuple-level pruning of the pairs ``(x.iloc[ix], y.iloc[iy])``: Thm 4.1,
    then Lemmas 4.1/4.2, then Lemma 4.3. Returns (survivor mask, stats)."""

    def xcol(name):
        return x[name].to_numpy()[ix]

    def ycol(name):
        return y[name].to_numpy()[iy]

    def summed(col, name):
        return sum(col(f"{name}{k}") for k in range(D))

    kw_pruned = PR.topic_keyword_prune(xcol("kw_mask") != 0, ycol("kw_mask") != 0)
    sim_ok = _sim_ok(xcol, ycol, d=d, gamma=gamma, use_pivot=use_pivot)
    surv = ~kw_pruned
    stats = PruneStats(
        total=len(ix),
        pruned_topic=int(kw_pruned.sum()),
        pruned_sim=int((surv & ~sim_ok).sum()),
    )
    surv &= sim_ok
    if use_prob:
        prob_ub = PR.ub_prob_paley_zygmund(
            d, gamma,
            summed(xcol, "e"), summed(ycol, "e"),
            summed(xcol, "lb"), summed(xcol, "ub"),
            summed(ycol, "lb"), summed(ycol, "ub"),
        )
        prob_ok = prob_ub > alpha
        stats.pruned_prob = int((surv & ~prob_ok).sum())
        surv &= prob_ok
    return surv, stats


def generate_candidates(
    new_aggs: pd.DataFrame,
    window_aggs: pd.DataFrame,
    *,
    d: int,
    gamma: float,
    alpha: float,
    cells_per_dim: int,
    use_pivot: bool = True,
    use_prob: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Grid-based candidate pairs (new x window) with staged pruning.

    Returns (pairs frame with columns rid_n/rid_m, stats). ``use_pivot`` /
    ``use_prob`` gate the Lemma-4.2/4.3 stages (the I_j+G_ER baseline runs
    without the fused pivot-sharing prunes, DESIGN.md §2.4).
    """
    if new_aggs.empty or window_aggs.empty:
        return _empty_pairs(), PruneStats()

    members = window_aggs.reset_index(drop=True)
    members["cell"] = assign_cells(members, cells_per_dim)
    cells = build_cells(members)
    new = new_aggs.reset_index(drop=True)

    # Cell stage: every new tuple against every cell, as (new, cell) arrays.
    # A cell's interval aggregates are named "c" + the member column.
    def ncol(name):
        return new[name].to_numpy()[:, None]

    def ccol(name):
        return cells[name].to_numpy()[None, :]

    n_stream = new["stream_id"].to_numpy()
    elig = np.where(n_stream[:, None] == 0, ccol("n1"), ccol("n0"))
    kw_ok = (ncol("kw_mask") != 0) | (ccol("kw_any") != 0)
    sim_ok = _sim_ok(
        ncol, lambda name: ccol("c" + name), d=d, gamma=gamma, use_pivot=use_pivot
    )
    cell_ok = kw_ok & sim_ok
    stats = PruneStats(
        total=int(elig.sum()),
        pruned_topic=int(elig[~kw_ok].sum()),
        pruned_sim=int(elig[kw_ok & ~sim_ok].sum()),
    )

    # Tuple stage: expand surviving (new, cell) pairs to the cell's members
    # of the other stream, laid out contiguously by (cell, stream).
    cell_of = pd.Index(cells["cell"]).get_indexer(members["cell"])
    m_stream = members["stream_id"].to_numpy()
    order = np.lexsort((m_stream, cell_of))
    counts = np.stack([cells["n0"].to_numpy(), cells["n1"].to_numpy()], axis=1)
    starts = (np.cumsum(counts.ravel()) - counts.ravel()).reshape(counts.shape)
    n_idx, c_idx = np.nonzero(cell_ok)
    other = 1 - n_stream[n_idx]
    cnt = counts[c_idx, other]
    first = np.repeat(starts[c_idx, other] - (np.cumsum(cnt) - cnt), cnt)
    ix = np.repeat(n_idx, cnt)
    iy = order[first + np.arange(len(ix))]
    keep, tup = _tuple_stage(
        new, ix, members, iy, d=d, gamma=gamma, alpha=alpha,
        use_pivot=use_pivot, use_prob=use_prob,
    )
    stats.add(replace(tup, total=0))  # its pairs are in the cell-stage total
    out = pd.DataFrame(
        {
            "rid_n": new["rid"].to_numpy()[ix[keep]],
            "rid_m": members["rid"].to_numpy()[iy[keep]],
        }
    )
    return _checked(out, stats)


def newnew_candidates(
    new_aggs: pd.DataFrame,
    *,
    d: int,
    gamma: float,
    alpha: float,
    use_pivot: bool = True,
    use_prob: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Same-batch (new x new) cross-stream pairs through the tuple-stage
    kernel, with the same pruning order and stage accounting as
    :func:`generate_candidates`."""
    a = new_aggs.reset_index(drop=True)
    if len(a) < 2:
        return _empty_pairs(), PruneStats()
    idx_i, idx_j = np.triu_indices(len(a), k=1)
    sid = a["stream_id"].to_numpy()
    cross = sid[idx_i] != sid[idx_j]
    idx_i, idx_j = idx_i[cross], idx_j[cross]
    surv, stats = _tuple_stage(
        a, idx_i, a, idx_j, d=d, gamma=gamma, alpha=alpha,
        use_pivot=use_pivot, use_prob=use_prob,
    )
    rid = a["rid"].to_numpy()
    out = pd.DataFrame({"rid_n": rid[idx_j[surv]], "rid_m": rid[idx_i[surv]]})
    return _checked(out, stats)
