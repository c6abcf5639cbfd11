"""Workload table of the stream benchmark.

Each workload is one generated dataset plus one method of
``repro.ter.algorithm``; why each exists is written next to its name in
``BENCHMARK.json``. The dataset seed is not part of a workload: it comes
from the command line, so a claim can be re-checked on an unseen seed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import TERConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what is generated and which method runs."""

    name: str
    dataset: str
    scale: float            # generation scale (1.0 = the paper's Table 4)
    method: str             # a repro.ter.algorithm.METHODS entry
    reference: str          # method whose result set every batch must equal
    cfg: TERConfig


# Citations at a quarter of Table 4 (1,226 tuples, |R| = 366, w = 250 per
# stream). A run pays a cold driver JVM, one set-up and a reference batch
# whatever the scale (about 45 s on a 4-core container); at full scale the
# set-up alone takes 42-62 s, and every run must fit with 47 others into the
# benchmark's time budget. The micro-batch shrinks only to half of
# ``TERConfig.batch_size`` (100 arrivals per stream, not a quarter's 50), so
# it replaces two fifths of the window instead of one fifth: a 50-arrival
# batch holds about 3 truth pairs and leaves f1 at 0 on some seeds; a
# 100-arrival batch holds about 6.
_CITATIONS = TERConfig(w=250, batch_size=100)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("citations", "citations", 0.25, "ter", "cdd_er", _CITATIONS),
        Workload("citations_cdd_er", "citations", 0.25, "cdd_er", "ter",
                 _CITATIONS),
    )
}

#: The unit tests' tiny shape (tests/conftest.py), for the benchmark's own
#: test: every workload keeps its method and rates but shrinks to this.
SMOKE_SCALE = 0.05
SMOKE_W = 60
SMOKE_BATCH = 20


def smoke(w: Workload) -> Workload:
    """The same workload at the unit tests' tiny shape."""
    return replace(w, scale=SMOKE_SCALE,
                   cfg=w.cfg.with_(w=SMOKE_W, batch_size=SMOKE_BATCH))
