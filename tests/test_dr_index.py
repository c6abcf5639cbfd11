"""DR-index tests: bucketing, driver postings, and dom_pairs vs brute force."""
import itertools

import pandas as pd
import pytest

from repro.core.pivot import select_all_pivots
from repro.core.similarity import jaccard_dist, tokens
from repro.index.dr_index import build_dr_index
from repro.streams.stream_gen import ATTR_COLS, D


@pytest.fixture(scope="module")
def tiny_repo():
    rows = [
        ["alpha beta", "x y", "k l", "m n", "p q r"],
        ["alpha beta gamma", "x z", "k l", "m o", "p q"],
        ["delta eps", "w v", "a b", "c d", "e f g"],
        ["delta eps zeta", "w u", "a b", "c e", "e f"],
    ]
    return pd.DataFrame(
        {"sid": range(len(rows)), **{c: [r[k] for r in rows] for k, c in enumerate(ATTR_COLS)}}
    )


@pytest.fixture(scope="module")
def tiny_index(spark, tiny_repo):
    pivots = select_all_pivots(
        {k: tiny_repo[c].tolist() for k, c in enumerate(ATTR_COLS)}, emin=0.0
    )
    dr = build_dr_index(spark, tiny_repo, pivots, n_buckets=5, max_dep_hi=0.8)
    yield dr, pivots
    dr.unpersist()


class TestBuild:
    def test_counts(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        assert dr.n_samples == len(tiny_repo)
        assert dr.repo.count() == len(tiny_repo)

    def test_pivot_distances_match_python(self, tiny_index, tiny_repo):
        dr, pivots = tiny_index
        rows = {r["sid"]: r for r in dr.repo.collect()}
        for t in tiny_repo.itertuples(index=False):
            for k, c in enumerate(ATTR_COLS):
                expect = jaccard_dist(tokens(getattr(t, c)), pivots[k].main_tokens)
                assert rows[t.sid][f"pd{k}"] == pytest.approx(expect)

    def test_buckets_consistent(self, tiny_index):
        dr, _ = tiny_index
        for r in dr.repo.collect():
            for k in range(D):
                b = min(dr.n_buckets - 1, int(r[f"pd{k}"] * dr.n_buckets))
                assert r[f"pb{k}"] == b

    def test_postings_give_exact_distances(self, tiny_index, tiny_repo):
        """Driver postings: distance of a probe value to every sample equals
        the Python Jaccard distance, for values in and out of the repo."""
        dr, _ = tiny_index
        by_sid = tiny_repo.set_index("sid")
        for k, c in enumerate(ATTR_COLS):
            for probe in tiny_repo[c].tolist() + ["alpha x k", "unseen"]:
                got = dr.attrs[k].distances(tokens(probe))
                for row, sid in enumerate(dr.sids):
                    expect = jaccard_dist(tokens(probe), tokens(by_sid.loc[sid, c]))
                    assert got[row] == expect

    def test_sample_values_map_to_domain(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        by_sid = tiny_repo.set_index("sid")
        for k, c in enumerate(ATTR_COLS):
            a = dr.attrs[k]
            assert [a.domain[u] for u in a.val] == [by_sid.loc[s, c] for s in dr.sids]

    def test_domains(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        for k, c in enumerate(ATTR_COLS):
            assert sorted(dr.attrs[k].domain) == sorted(tiny_repo[c].unique())


def _dom_pairs(dr) -> dict:
    """{(attr, u, v): dist} from the driver-side dom_pairs arrays."""
    out = {}
    for k, a in enumerate(dr.attrs):
        for u in range(len(a.domain)):
            for i in range(a.pair_ptr[u], a.pair_ptr[u + 1]):
                out[(k, a.domain[u], a.domain[a.pair_v[i]])] = a.pair_dist[i]
    return out


class TestDomPairs:
    def test_matches_bruteforce(self, tiny_index, tiny_repo):
        """dom_pairs == exhaustive pairs within cutoff."""
        dr, _ = tiny_index
        got = _dom_pairs(dr)
        for k, c in enumerate(ATTR_COLS):
            dom = tiny_repo[c].unique().tolist()
            for u, v in itertools.product(dom, dom):
                d = jaccard_dist(tokens(u), tokens(v))
                if d <= 0.8:
                    assert (k, u, v) in got
                    assert got[(k, u, v)] == pytest.approx(d)
                else:
                    assert (k, u, v) not in got

    def test_identity_pairs_present(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        ident = sum(
            u == v and d == 0.0 for (_, u, v), d in _dom_pairs(dr).items()
        )
        n_dom = sum(len(tiny_repo[c].unique()) for c in ATTR_COLS)
        assert ident == n_dom

    def test_range_lookup(self, tiny_index):
        """candidates(u, lo, hi) is exactly {v : lo <= dist(u, v) <= hi}."""
        dr, _ = tiny_index
        got = _dom_pairs(dr)
        for k, a in enumerate(dr.attrs):
            for u, uval in enumerate(a.domain):
                for lo, hi in ((0.0, 0.0), (0.0, 0.5), (0.2, 0.8), (0.5, 0.6)):
                    expect = {v for (kk, uu, v), d in got.items()
                              if kk == k and uu == uval and lo <= d <= hi}
                    assert set(a.domain[a.candidates(u, lo, hi)]) == expect

    def test_frequent_tokens_kept(self, spark):
        """Pairs that share only a token held by many values are within the
        cutoff here (dist 2/3), so the self-join must keep them."""
        n = 40
        repo = pd.DataFrame({
            "sid": range(n),
            **{c: [f"hot{k} u{k}x{i}" for i in range(n)]
               for k, c in enumerate(ATTR_COLS)},
        })
        pivots = select_all_pivots(
            {k: repo[c].tolist() for k, c in enumerate(ATTR_COLS)}, emin=0.0
        )
        dr = build_dr_index(spark, repo, pivots, n_buckets=5, max_dep_hi=0.7)
        try:
            got = _dom_pairs(dr)
            assert len(got) == D * n * n
            assert got[(0, "hot0 u0x1", "hot0 u0x2")] == pytest.approx(2 / 3)
        finally:
            dr.unpersist()

    def test_cutoff_must_be_below_one(self, spark, tiny_repo):
        """At distance 1 a pair shares no token: the self-join cannot find
        it, so such a cutoff is refused."""
        with pytest.raises(ValueError):
            build_dr_index(spark, tiny_repo, {}, max_dep_hi=1.0)
