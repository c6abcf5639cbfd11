"""Batch timing and per-layer spans, recorded from outside the program.

Nothing in ``repro`` is modified. For the duration of a measured batch the
benchmark replaces a few module attributes that ``repro.ter.algorithm`` looks
up at call time, and restores them afterwards:

- ``sliding_batches`` (always): a batch is timed from the moment
  ``run_stream`` asks for it to the moment it asks for the next one, so the
  time includes window maintenance and everything ``RunResult``'s timers
  leave out.
- the public functions of each layer (traced runs only): a span around each
  call, with the Spark jobs it ran and the counts it returned.

A span's self time is its duration minus the durations of its children;
spans never overlap their siblings because the driver is single-threaded.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.imputation as imputation_mod
import repro.ter.algorithm as algorithm_mod

#: Span name of the ER step (``RunResult.t_er``); its self time is the
#: refinement on TER and the driver-side framing on CDD+ER.
ER_STEP = "er_step"
_GROUP = "perfbench"
_PRUNE_FIELDS = ("total", "pruned_topic", "pruned_sim", "pruned_prob",
                 "pruned_instance", "refined")


@dataclass
class Span:
    """One timed call. ``derived`` spans take their duration from a timer
    the program itself returns (``ImputeStats``, ``RunResult.t_er``)."""

    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    batch: int | None = None
    group: str | None = None
    counts: dict = field(default_factory=dict)
    derived: bool = False
    jobs: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; Spark jobs are attributed through job groups.

    Each span runs its calls under a job group of its own, so after the run
    ``resolve_jobs`` counts a span's jobs exactly with
    ``statusTracker().getJobIdsForGroup``. Spans are recorded only inside an
    open root span (a batch or a set-up), so the reference and truth
    computations are never traced.
    """

    def __init__(self, sc):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sc = sc
        self.batch: int | None = None

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def _set_group(self, group: str | None) -> None:
        if group is None:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self._sc.setJobGroup(group, group)

    def open(self, name: str, start: float | None = None) -> Span:
        sp = Span(
            sid=len(self.spans), name=name,
            start=time.perf_counter() if start is None else start,
            parent=self._stack[-1].sid if self._stack else None,
            batch=self.batch,
        )
        sp.group = f"{_GROUP}-{sp.sid}"
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group(sp.group)
        return sp

    def close(self, sp: Span, end: float | None = None) -> None:
        sp.end = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        assert popped is sp, "spans must close in the order they opened"
        self._set_group(self._stack[-1].group if self._stack else None)

    def close_all(self, end: float) -> None:
        """Close every open span, after the traced call raised."""
        while self._stack:
            self.close(self._stack[-1], end)
        self.batch = None

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def derived(self, parent: Span, name: str, dur: float, start: float) -> Span:
        """A child whose duration the program measured itself."""
        sp = Span(sid=len(self.spans), name=name, start=start, end=start + dur,
                  parent=parent.sid, batch=parent.batch, derived=True)
        self.spans.append(sp)
        return sp

    def resolve_jobs(self, timeout_s: float = 60.0) -> None:
        """Fill ``Span.jobs`` once the status store has seen every job.

        Job starts reach the status store asynchronously; a sentinel job run
        last, and seen, means every earlier job has been recorded too."""
        st = self._sc.statusTracker()
        sentinel = f"{_GROUP}-sentinel"
        self._sc.setJobGroup(sentinel, sentinel)
        self._sc.parallelize([0], 1).count()
        self._set_group(None)
        deadline = time.monotonic() + timeout_s
        while not st.getJobIdsForGroup(sentinel):
            if time.monotonic() > deadline:
                raise RuntimeError("Spark status store did not catch up")
            time.sleep(0.05)
        for sp in self.spans:
            if not sp.derived:
                sp.jobs = len(st.getJobIdsForGroup(sp.group))

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    def to_records(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "batch": s.batch, "jobs": s.jobs,
             "derived": s.derived, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


def subtree(root: Span, kids: dict[int, list[Span]]):
    """``root`` and every span below it."""
    stack = [root]
    while stack:
        sp = stack.pop()
        stack.extend(kids.get(sp.sid, []))
        yield sp


def self_times(root: Span, kids: dict[int, list[Span]]) -> dict[str, float]:
    """Self time per span name over the subtree of ``root`` (root included).

    The values add up to ``root.dur`` exactly."""
    out: dict[str, float] = {}
    for sp in subtree(root, kids):
        own = sp.dur - sum(c.dur for c in kids.get(sp.sid, []))
        out[sp.name] = out.get(sp.name, 0.0) + own
    return out


def total_jobs(root: Span, kids: dict[int, list[Span]]) -> dict[str, int]:
    """Spark jobs per span name over the subtree, each child's jobs also
    counted in its ancestors (a job belongs to the innermost span)."""
    own: dict[str, int] = {}

    def walk(sp: Span) -> int:
        n = sp.jobs + sum(walk(c) for c in kids.get(sp.sid, []))
        own[sp.name] = own.get(sp.name, 0) + n
        return n

    walk(root)
    return own


@dataclass
class BatchRecord:
    """One measured micro-batch, timed from outside the program."""

    pass_no: int
    traced: bool
    start: float = 0.0
    end: float = 0.0
    n_arrivals: int = 0
    pairs: set = field(default_factory=set)
    prune: dict = field(default_factory=dict)
    t_er: float = 0.0
    error: str | None = None
    root: Span | None = None
    ok: bool = False          # result set equals the reference's

    @property
    def wall(self) -> float:
        return self.end - self.start

    def take(self, res) -> None:
        """Copy the outcome of a one-batch ``run_stream`` call."""
        self.n_arrivals = res.n_arrivals
        self.pairs = set(res.pairs)
        self.prune = {f: getattr(res.prune, f) for f in _PRUNE_FIELDS}
        self.t_er = res.t_er


@contextmanager
def batch_timer(rec: BatchRecord, tracer: Tracer | None = None):
    """Times the one measured batch of a ``run_stream(max_batches=1)`` call.

    ``sliding_batches`` is replaced while the block runs: the batch starts
    when ``run_stream`` asks for it and ends when ``run_stream`` asks for the
    next one, so window maintenance is inside and the step-0 window-fill
    replay is outside. A traced batch is the root span of its layer spans."""
    real = algorithm_mod.sliding_batches

    def timed(*args, **kwargs):
        batches = real(*args, **kwargs)
        yield next(batches)  # step 0, the window fill: replayed, untimed
        rec.start = time.perf_counter()
        wb = next(batches)
        if tracer is not None:
            tracer.batch = rec.pass_no
            rec.root = tracer.open("batch", rec.start)
        yield wb
        rec.end = time.perf_counter()
        if rec.root is not None:
            tracer.close(rec.root, rec.end)
            tracer.batch = None

    algorithm_mod.sliding_batches = timed
    try:
        yield rec
    except Exception as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
        rec.end = rec.end or time.perf_counter()
        if tracer is not None:
            tracer.close_all(rec.end)
        raise
    finally:
        algorithm_mod.sliding_batches = real


# ------------------------------------------------------------ layer hooks ---

def _window_sizes(frame, exclude=frozenset()) -> dict[int, int]:
    """Window tuples per stream in a frame with ``rid`` and ``stream_id``."""
    rows = frame[["rid", "stream_id"]].drop_duplicates()
    if exclude:
        rows = rows[~rows["rid"].isin(exclude)]
    return {int(k): int(v) for k, v in rows["stream_id"].value_counts().items()}


def _on_impute(tr: Tracer, sp: Span, args, kwargs, out) -> None:
    tuples, st = out
    start = sp.start
    for name, dur in (("imputation.retrieve_samples", st.t_select),
                      ("imputation.candidate_frequencies", st.t_impute)):
        tr.derived(sp, name, dur, start)
        start += dur
    n_inst = sum(len(t.instances) for t in tuples)
    sp.counts.update(samples=st.n_samples, incomplete_tuples=st.n_incomplete,
                     tuples=len(tuples), instances=n_inst)


def _on_candidates(tr: Tracer, sp: Span, args, kwargs, out) -> None:
    cand, st = out
    sp.counts.update(candidates_out=len(cand), pairs_in=st.total,
                     pruned_topic=st.pruned_topic, pruned_sim=st.pruned_sim,
                     pruned_prob=st.pruned_prob)
    if sp.name == "er_grid.generate_candidates":
        window_aggs = args[2] if len(args) > 2 else kwargs["window_aggs"]
        sp.counts["window"] = _window_sizes(window_aggs)


def _on_exact_er(tr: Tracer, sp: Span, args, kwargs, out) -> None:
    new_inst, pool_inst = args[1], args[2]
    sp.counts["window"] = _window_sizes(pool_inst, frozenset(new_inst["rid"]))


#: (module, attribute, span name, result hook)
LAYER_HOOKS = [
    (algorithm_mod, "sample_pair_profile", "setup.sample_pair_profile", None),
    (algorithm_mod, "select_pivots_for", "setup.select_pivots", None),
    (algorithm_mod, "build_dr_index", "setup.build_dr_index", None),
    (algorithm_mod, "detect_rules", "setup.detect_rules", None),
    (algorithm_mod, "build_cdd_index", "setup.build_cdd_index", None),
    (algorithm_mod, "impute_batch", "imputation.impute_batch", _on_impute),
    (imputation_mod, "assemble_instances", "imputation.assemble_instances", None),
    (algorithm_mod, "aggregates_frame", "instances.aggregates_frame", None),
    (algorithm_mod, "generate_candidates", "er_grid.generate_candidates", _on_candidates),
    (algorithm_mod, "newnew_candidates", "er_grid.newnew_candidates", _on_candidates),
    (algorithm_mod, "exact_er_spark", "baselines.exact_er_spark", _on_exact_er),
]


def _spanned(tr: Tracer, name: str, fn, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.recording:
            return fn(*args, **kwargs)
        with tr.span(name) as sp:
            out = fn(*args, **kwargs)
        if on_result is not None:  # outside the span: it is tracing overhead
            on_result(tr, sp, args, kwargs, out)
        return out
    return wrapper


@contextmanager
def layer_spans(tr: Tracer | None):
    """Spans around every public layer call while the block runs."""
    if tr is None:
        yield
        return
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in LAYER_HOOKS]
    for (mod, attr, name, hook), (_, _, fn) in zip(LAYER_HOOKS, saved):
        setattr(mod, attr, _spanned(tr, name, fn, hook))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def add_er_step(tr: Tracer, rec: BatchRecord) -> None:
    """Insert the ER step (``RunResult.t_er``) as a derived span.

    ``run_stream`` starts its ER timer right after ``aggregates_frame``
    returns, so the step spans [end of that call, + t_er] and the er_grid and
    baseline spans of the batch become its children."""
    kids = tr.children()
    top = kids.get(rec.root.sid, [])
    agg = [s for s in top if s.name == "instances.aggregates_frame"]
    if not agg:
        return
    start = agg[-1].end
    step = tr.derived(rec.root, ER_STEP, rec.t_er, start)
    for sp in top:
        if sp.start >= start and sp is not step:
            sp.parent = step.sid
