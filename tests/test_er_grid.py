"""ER-grid tests: cell assignment, aggregates, pruning safety, parity of the
grid pipeline with the pruning kernels applied to every pair.

The crucial property is *safety*: no pair that the exact Eq. (2) refinement
would accept may be pruned by the grid pipeline (index pruning admits false
positives, never false negatives).
"""
import numpy as np
import pandas as pd
import pytest

from repro.config import TERConfig
from repro.core.instances import aggregates_frame, build_imputed_tuple
from repro.core.probability import pr_ter_ids
from repro.index.er_grid import (
    PruneStats,
    _checked,
    assign_cells,
    build_cells,
    generate_candidates,
    newnew_candidates,
)
from repro.core import pruning as PR
from repro.streams.stream_gen import ATTR_COLS, D

KW = ["topic00", "topic01"]
PIV = [frozenset({"p", "q"})] * D


def _tup(rid, sid, cands):
    return build_imputed_tuple(rid, sid, cands, topics=KW, pivot_tokens=PIV)


@pytest.fixture(scope="module")
def population():
    """A small mixed population: matches, non-matches, keyword-free pairs,
    probabilistic tuples."""
    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(30)]
    tuples = []
    rid = 0
    for i in range(24):
        base = [
            " ".join(rng.choice(vocab, size=4, replace=False)) for _ in range(D)
        ]
        has_kw = i % 3 == 0
        if has_kw:
            base[0] += " topic00"
        for sid in (0, 1):
            if sid == 1 and i % 2 == 0:
                # stream-1 twin: slight perturbation -> a planted match
                attrs = [v + " zz" if k == 2 else v for k, v in enumerate(base)]
            else:
                attrs = [
                    " ".join(rng.choice(vocab, size=4, replace=False))
                    for _ in range(D)
                ]
                if has_kw and sid == 1:
                    attrs[0] += " topic00"
            if i % 5 == 0:
                # probabilistic: two instances
                alt = list(attrs)
                alt[1] = " ".join(rng.choice(vocab, size=3, replace=False))
                cands = [(tuple(attrs), 0.6), (tuple(alt), 0.4)]
            else:
                cands = [(tuple(attrs), 1.0)]
            tuples.append(_tup(rid, sid, cands))
            rid += 1
    return tuples


def brute_force_accepts(tuples_new, tuples_win, gamma, alpha):
    out = set()
    for a in tuples_new:
        for b in tuples_win:
            if a.stream_id == b.stream_id:
                continue
            if pr_ter_ids(a.instances, b.instances, gamma) > alpha:
                out.add(frozenset((a.rid, b.rid)))
    return out


class TestAssignCells:
    def test_deterministic_and_in_range(self, population):
        aggs = aggregates_frame(population)
        cells = assign_cells(aggs, 5)
        assert len(cells) == len(aggs)
        for cid in cells:
            parts = cid.split("|")
            assert len(parts) == D
            assert all(0 <= int(p) < 5 for p in parts)

    def test_cell_from_lb(self, population):
        aggs = aggregates_frame(population)
        cells = assign_cells(aggs, 5)
        b0 = int(np.clip(int(aggs.loc[0, "lb0"] * 5), 0, 4))
        assert cells.iloc[0].split("|")[0] == str(b0)


class TestBuildCells:
    def test_aggregates_bound_members(self, population):
        aggs = aggregates_frame(population)
        aggs["cell"] = assign_cells(aggs, 4)
        cells = build_cells(aggs).set_index("cell")
        for cid, grp in aggs.groupby("cell"):
            c = cells.loc[cid]
            for k in range(D):
                assert c[f"clb{k}"] <= grp[f"lb{k}"].min() + 1e-9
                assert c[f"cub{k}"] >= grp[f"ub{k}"].max() - 1e-9
                assert c[f"ctmin{k}"] <= grp[f"tmin{k}"].min()
                assert c[f"ctmax{k}"] >= grp[f"tmax{k}"].max()
            assert bool(c["kw_any"]) == bool((grp["kw_mask"] != 0).any())
            assert c["n0"] == (grp["stream_id"] == 0).sum()
            assert c["n1"] == (grp["stream_id"] == 1).sum()


@pytest.fixture(scope="module")
def spread_aggs():
    """Synthetic (new, window) aggregate frames whose pivot-distance and
    token-size intervals spread over many cells, so that every pruning stage
    fires at gamma=4, alpha=0.5."""

    def frame(n, seed, rid0):
        rng = np.random.default_rng(seed)
        cols = {
            "rid": np.arange(rid0, rid0 + n),
            "stream_id": rng.integers(0, 2, n),
            "kw_mask": np.where(rng.random(n) < 0.5, 1, 0),
        }
        lo = rng.uniform(0, 0.4, n)
        width = rng.uniform(0.05, 0.6, n)
        skew = rng.choice([0.05, 0.5, 0.95], n)
        for k in range(D):
            lb = np.clip(lo + rng.uniform(0, 0.1, n), 0, 1)
            ub = np.minimum(1.0, lb + width)
            tmin = rng.integers(2, 8, n)
            cols.update({
                f"lb{k}": lb, f"ub{k}": ub, f"e{k}": lb + (ub - lb) * skew,
                f"tmin{k}": tmin, f"tmax{k}": tmin + rng.integers(0, 2, n),
            })
        return pd.DataFrame(cols)

    return frame(40, 1, 0), frame(80, 2, 1000)


def kernel_survivors(new_aggs, win_aggs, *, gamma, alpha, fused):
    """Pairs that survive the core/pruning.py kernels applied directly, one
    cross-stream (new, window) pair at a time, with no grid."""

    def g(t, name, k):
        return getattr(t, f"{name}{k}")

    def summed(t, name):
        return sum(g(t, name, k) for k in range(D))

    out = []
    for a in new_aggs.itertuples(index=False):
        for b in win_aggs.itertuples(index=False):
            if a.stream_id == b.stream_id:
                continue
            if PR.topic_keyword_prune(a.kw_mask != 0, b.kw_mask != 0):
                continue
            ts_ub = sum(
                PR.ub_sim_token_size(
                    g(a, "tmin", k), g(a, "tmax", k), g(b, "tmin", k), g(b, "tmax", k)
                )
                for k in range(D)
            )
            if not ts_ub > gamma:
                continue
            if fused:
                piv_ub = float(D) - sum(
                    PR.ub_sim_pivot(g(a, "lb", k), g(a, "ub", k), g(b, "lb", k), g(b, "ub", k))
                    for k in range(D)
                )
                if not piv_ub > gamma:
                    continue
                prob_ub = PR.ub_prob_paley_zygmund(
                    D, gamma, summed(a, "e"), summed(b, "e"),
                    summed(a, "lb"), summed(a, "ub"), summed(b, "lb"), summed(b, "ub"),
                )
                if not prob_ub > alpha:
                    continue
            out.append((a.rid, b.rid))
    return sorted(out)


class TestCandidateGeneration:
    CFG = TERConfig(rho=0.5, alpha=0.3)

    def _split(self, population):
        new = population[:16]
        win = population[16:]
        return new, win

    def test_pruning_is_safe(self, population):
        """Every exact accept survives the grid pruning stages."""
        new, win = self._split(population)
        pairs, _ = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
        )
        surv = {frozenset((r.rid_n, r.rid_m)) for r in pairs.itertuples(index=False)}
        accepts = brute_force_accepts(new, win, self.CFG.gamma, self.CFG.alpha)
        assert accepts <= surv

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("cells_per_dim", [1, 4, 5])
    def test_matches_kernels_on_every_pair(self, population, cells_per_dim, fused):
        """The cell prefilter drops nothing the tuple-level bounds keep: cell
        intervals enclose their members' intervals."""
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
            cells_per_dim=cells_per_dim, use_pivot=fused, use_prob=fused,
        )
        got = sorted(zip(pairs["rid_n"].tolist(), pairs["rid_m"].tolist()))
        want = kernel_survivors(
            aggregates_frame(new), aggregates_frame(win),
            gamma=self.CFG.gamma, alpha=self.CFG.alpha, fused=fused,
        )
        assert want and got == want
        assert st.survivors == len(pairs)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("cells_per_dim", [1, 4, 5])
    def test_matches_kernels_when_every_stage_fires(
        self, spread_aggs, cells_per_dim, fused
    ):
        new, win = spread_aggs
        pairs, st = generate_candidates(
            new, win, d=D, gamma=4.0, alpha=0.5,
            cells_per_dim=cells_per_dim, use_pivot=fused, use_prob=fused,
        )
        assert st.pruned_topic > 0 and st.pruned_sim > 0
        assert (st.pruned_prob > 0) == fused
        got = sorted(zip(pairs["rid_n"].tolist(), pairs["rid_m"].tolist()))
        assert got == kernel_survivors(new, win, gamma=4.0, alpha=0.5, fused=fused)

    def test_stage_counts_partition_total(self, population):
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
        )
        assert st.total == sum(
            1
            for a in new
            for b in win
            if a.stream_id != b.stream_id
        )
        assert st.total == st.pruned_topic + st.pruned_sim + st.pruned_prob + len(pairs)

    def test_pruning_removes_keyword_free_pairs(self, population):
        """In this toy population token sizes are uniform and tokens are
        pivot-disjoint, so only Theorem 4.1 can fire — and it must remove
        every pair where neither side carries a keyword (~4/9 of pairs here).
        Dataset-level pruning power (~98%, Fig. 4) is asserted in the
        end-to-end tests / measured by the P1 bench."""
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
        )
        no_kw_pairs = sum(
            1
            for a in new
            for b in win
            if a.stream_id != b.stream_id and a.kw_mask == 0 and b.kw_mask == 0
        )
        assert st.pruned_topic >= no_kw_pairs
        assert len(pairs) <= st.total - no_kw_pairs

    def test_disabled_stages_gate(self, population):
        new, win = self._split(population)
        _, st_full = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
        )
        _, st_base = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
            use_pivot=False, use_prob=False,
        )
        assert st_base.pruned_prob == 0
        assert st_base.survivors >= st_full.survivors

    def test_empty_inputs(self, population):
        empty = aggregates_frame([])
        aggs = aggregates_frame(population[:4])
        p1, s1 = generate_candidates(
            empty, aggs, d=D, gamma=2.5, alpha=0.3, cells_per_dim=4
        )
        p2, s2 = generate_candidates(
            aggs, empty, d=D, gamma=2.5, alpha=0.3, cells_per_dim=4
        )
        assert p1.empty and p2.empty and s1.total == 0 and s2.total == 0


class TestNewNewCandidates:
    CFG = TERConfig(rho=0.5, alpha=0.3)

    def test_safe_and_counted(self, population):
        new = population[:16]
        pairs, st = newnew_candidates(
            aggregates_frame(new), d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha
        )
        surv = {frozenset((r.rid_n, r.rid_m)) for r in pairs.itertuples(index=False)}
        accepts = brute_force_accepts(new, new, self.CFG.gamma, self.CFG.alpha)
        assert accepts <= surv
        n_cross = sum(
            1
            for i, a in enumerate(new)
            for b in new[i + 1 :]
            if a.stream_id != b.stream_id
        )
        assert st.total == n_cross
        assert st.total == st.pruned_topic + st.pruned_sim + st.pruned_prob + len(pairs)

    def test_single_tuple(self, population):
        pairs, st = newnew_candidates(
            aggregates_frame(population[:1]), d=D, gamma=2.5, alpha=0.3
        )
        assert pairs.empty and st.total == 0


class TestPruneStats:
    def test_add(self):
        a = PruneStats(total=10, pruned_topic=5)
        b = PruneStats(total=3, pruned_sim=2, refined=1)
        a.add(b)
        assert a.total == 13 and a.pruned_topic == 5 and a.pruned_sim == 2
        assert a.refined == 1

    def test_survivors(self):
        s = PruneStats(total=10, pruned_topic=4, pruned_sim=3, pruned_prob=1)
        assert s.survivors == 2

    def test_partition_mismatch_raises(self):
        pairs = pd.DataFrame({"rid_n": [1], "rid_m": [2]})
        assert _checked(pairs, PruneStats(total=2, pruned_sim=1))[0] is pairs
        with pytest.raises(RuntimeError, match="partition"):
            _checked(pairs, PruneStats(total=2))
