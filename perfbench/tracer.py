"""Spans around each layer's public entry points, installed from outside.

The tracer patches the entry points of each layer for the length of a
traced run and restores them afterwards; the program's own telemetry
(``repro.obs``) is neither used nor needed, so a change to ``obs`` cannot
change how ``obs`` is measured.  Spans — (name, start, end, parent,
request id, phase) on the benchmark's own ``perf_counter`` clock — are
kept in memory and written out when the run ends.  An entry point that no
longer exists is reported as absent and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextvars import ContextVar
from pathlib import Path

import numpy as np

from serving import REQUEST_ID

_PARENT: ContextVar = ContextVar("perfbench_parent", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[tuple]" = []  # (name, start, end, parent, rid, phase)
        self.rows: "dict[int, list]" = {}  # span index -> request ids in its batch
        self._phase = "setup"
        self.absent: "list[str]" = []
        self._patches: "list[tuple]" = []
        self._request_of: "dict[int, int]" = {}  # id(ServeRequest) -> request id
        self._batch_rows: "list | None" = None
        self.submitted: "dict[int, float]" = {}  # request id -> submit end
        self.released: "dict[int, float]" = {}  # request id -> batch release

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, name: str) -> None:
        # Request ids are event indices within one schedule: start the
        # serve phase's queue-wait record afresh, or indices it shares with
        # the warm phase would report the warm phase's waits.
        if name == "serve":
            self._request_of.clear()
            self.submitted.clear()
            self.released.clear()
        self._phase = name

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        # An inherited attribute is deleted again on restore, not copied down.
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(original))
        return True

    def restore(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def span(self, owner, attr: str, name: str, on_result=None, rows_from=None) -> bool:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(tracer.spans)
                tracer.spans.append(None)
                token = _PARENT.set(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _PARENT.reset(token)
                    tracer.spans[index] = (
                        name, start, end, _PARENT.get(), REQUEST_ID.get(), tracer.phase
                    )
                if rows_from is not None:
                    tracer._batch_rows = rows_from(args)
                if tracer._batch_rows is not None and name in ("serve.build", "resilience.rerank"):
                    tracer.rows[index] = tracer._batch_rows
                if on_result is not None:
                    on_result(args, result, end)
                return result

            return wrapper

        return self._patch(owner, attr, make)

    def generator(self, owner, attr: str, name: str) -> bool:
        """Time each ``next()`` of a generator function as one span."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    tracer.spans.append(
                        (name, start, time.perf_counter(), _PARENT.get(), None, tracer.phase)
                    )
                    yield item

            return wrapper

        return self._patch(owner, attr, make)

    # -- request identity ------------------------------------------------
    def on_send(self, index: int, request) -> None:
        self._request_of[id(request)] = index

    def _rids(self, requests) -> list:
        return [self._request_of.get(id(r)) for r in requests]

    def _on_submit(self, args, result, end) -> None:
        rid = REQUEST_ID.get()
        if rid is not None:
            self.submitted[rid] = end

    def _on_release(self, args, batches, end) -> None:
        for batch in batches:
            for pending in batch.payloads:
                rid = self._request_of.get(id(pending.request))
                if rid is not None:
                    self.released[rid] = end
        for batch in batches:
            self.batch_log.append((self.phase, batch.size, batch.reason))

    # -- installation ----------------------------------------------------
    def _owner(self, path: str):
        """``module`` or ``module:Class`` under ``repro``, or None if gone."""
        module_name, _, class_name = path.partition(":")
        try:
            owner = importlib.import_module(f"repro.{module_name}")
        except ImportError:
            return None
        return getattr(owner, class_name, None) if class_name else owner

    def install(self) -> None:
        self.batch_log: "list[tuple]" = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidated = 0
        spans = [
            ("serve.service:ServingTenant", "build", "serve.build",
             {"rows_from": lambda args: self._rids(args[1])}),
            ("serve.cache:SlateCache", "get", "cache.get", {"on_result": self._count_get}),
            ("serve.cache:SlateCache", "put", "cache.put", {}),
            ("serve.cache:SlateCache", "invalidate_user", "cache.invalidate",
             {"on_result": self._count_invalidate}),
            ("serve.batcher:BatcherCore", "submit", "batcher.submit",
             {"on_result": self._on_submit}),
            ("serve.batcher:BatcherCore", "due", "batcher.due", {"on_result": self._on_release}),
            ("serve.batcher:BatcherCore", "flush", "batcher.flush",
             {"on_result": self._on_release}),
            ("resilience.degrade:ResilientReranker", "rerank", "resilience.rerank", {}),
            ("core.trainer:RapidReranker", "rerank", "model.rerank", {}),
            ("core.trainer:RapidReranker", "score_batch", "model.score", {}),
            ("core.relevance:ListwiseRelevanceEstimator", "infer", "model.relevance", {}),
            ("core.diversity:PersonalizedDiversityEstimator", "infer", "model.diversity", {}),
            ("core.heads:ProbabilisticHead", "infer_scores", "model.head", {}),
            ("obs.slo:SLOMonitor", "evaluate", "obs.slo_evaluate", {}),
            ("core.trainer", "backward_batch", "train.backward", {}),
            ("core.trainer", "apply_step", "train.step", {}),
            ("eval.experiment", "build_batch", "eval.assembly", {}),
            ("data.synthetic:SyntheticWorld", "__init__", "setup.world", {}),
            ("data.taobao", "gmm_coverage", "setup.world", {}),
            ("data.synthetic:SyntheticWorld", "sample_histories", "setup.world", {}),
            ("rankers.din:DINRanker", "fit", "setup.ranker_fit", {}),
        ]
        for path, attr, name, options in spans:
            owner = self._owner(path)
            if owner is None:
                self.absent.append(f"{path}.{attr}")
                continue
            self.span(owner, attr, name, **options)
        trainer = self._owner("core.trainer")
        if trainer is None:
            self.absent.append("core.trainer.iterate_batches")
        else:
            self.generator(trainer, "iterate_batches", "train.assembly")

    def _count_get(self, args, result, end) -> None:
        if self.phase != "serve":
            return
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def _count_invalidate(self, args, result, end) -> None:
        if self.phase == "serve":
            self.cache_invalidated += int(result or 0)

    # -- output ------------------------------------------------------------
    def write(self, path: Path, served=()) -> None:
        """Spans, batch membership and the traced requests, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "request", "phase")
        records = [dict(zip(fields, span)) for span in self.spans if span is not None]
        requests = [
            {"request": s.index, "due": s.due, "sent": s.sent, "done": s.done,
             "source": s.source}
            for s in served
        ]
        path.write_text(json.dumps({
            "absent": self.absent,
            "spans": records,
            "batches": {str(index): rows for index, rows in self.rows.items()},
            "requests": requests,
        }))


# ----------------------------------------------------------------------
# Per-layer figures
# ----------------------------------------------------------------------
def _by_name(spans, phase):
    out: "dict[str, list]" = {}
    for span in spans:
        if span is not None and span[5] == phase:
            out.setdefault(span[0], []).append(span)
    return out


def _mean_ms(spans) -> float:
    return 1000.0 * float(np.mean([s[2] - s[1] for s in spans])) if spans else 0.0


def _total_s(spans) -> float:
    return float(sum(s[2] - s[1] for s in spans))


def serve_layers(tracer: Tracer, result, registry_fallbacks: float, observe_us: float) -> dict:
    """Per-layer serving figures from the traced serve phase."""
    spans = tracer.spans
    named = _by_name(spans, "serve")
    batches = [b for b in tracer.batch_log if b[0] == "serve"]
    rerank = named.get("resilience.rerank", [])
    primary = named.get("model.rerank", [])
    lookups = tracer.cache_hits + tracer.cache_misses
    passes = len(batches)
    rows = sum(b[1] for b in batches)
    queue_waits = [
        1000.0 * (tracer.released[rid] - tracer.submitted[rid])
        for rid in tracer.released
        if rid in tracer.submitted
    ]
    wrapper = _total_s(rerank) - _total_s(primary)
    score = _total_s(named.get("model.score", []))
    figures = {
        "cache.hits": float(tracer.cache_hits),
        "cache.misses": float(tracer.cache_misses),
        "cache.hit_ratio": tracer.cache_hits / lookups if lookups else 0.0,
        "cache.get_us": 1000.0 * _mean_ms(named.get("cache.get", [])),
        "cache.put_us": 1000.0 * _mean_ms(named.get("cache.put", [])),
        "cache.invalidations": float(tracer.cache_invalidated),
        "batcher.passes": float(passes),
        "batcher.rows_per_pass": rows / passes if passes else 0.0,
        "batcher.closed_full": float(sum(1 for b in batches if b[2] == "full")),
        "batcher.queue_wait_ms_p50": float(np.median(queue_waits)) if queue_waits else 0.0,
        "build.ms_per_pass": _mean_ms(named.get("serve.build", [])),
        "build.us_per_row": 1e6 * _total_s(named.get("serve.build", [])) / rows if rows else 0.0,
        "resilience.wrapper_us_per_pass": 1e6 * wrapper / len(rerank) if rerank else 0.0,
        "resilience.fallbacks": float(registry_fallbacks),
        "model.ms_per_pass": _mean_ms(primary),
        "model.relevance_ms": _mean_ms(named.get("model.relevance", [])),
        "model.diversity_ms": _mean_ms(named.get("model.diversity", [])),
        "model.head_ms": _mean_ms(named.get("model.head", [])),
        "model.sort_ms": 1000.0 * (_total_s(primary) - score) / len(primary) if primary else 0.0,
        "obs.slo_eval_us": 1000.0 * _mean_ms(named.get("obs.slo_evaluate", [])),
        "obs.observe_us": observe_us,
    }
    figures.update(_blocking_path(tracer, result, named))
    return figures


def _blocking_path(tracer: Tracer, result, named) -> dict:
    """Tile each request's latency into stages; the rest is unattributed.

    Stages: generator lateness, cache lookup, submit, queue wait (submit
    to its batch's build), build, resilient rerank (model inside), the
    hand-off until the request stores its slate, the store, and the SLO
    evaluation when the request finishes.
    """
    per_request: "dict[int, dict]" = {}
    for name in ("cache.get", "cache.put", "batcher.submit", "obs.slo_evaluate"):
        for span in named.get(name, []):
            if span[4] is not None:
                per_request.setdefault(span[4], {})[name] = span
    batch_spans: "dict[int, dict]" = {}
    spans = tracer.spans
    for index, rids in tracer.rows.items():
        span = spans[index]
        if span is None or span[5] != "serve":
            continue
        for rid in rids:
            if rid is not None:
                batch_spans.setdefault(rid, {})[span[0]] = span
    stages: "dict[str, list]" = {}
    others, sums, e2e = [], [], []
    for served in result.served:
        if served.source not in ("cache", "batched"):
            continue
        own = per_request.get(served.index, {})
        parts = {"late": served.sent - served.due}
        for name in ("cache.get", "batcher.submit", "cache.put", "obs.slo_evaluate"):
            if name in own:
                parts[name] = own[name][2] - own[name][1]
        batch = batch_spans.get(served.index, {})
        submitted = own.get("batcher.submit")
        if (served.source == "batched" and submitted is not None
                and "serve.build" in batch and "resilience.rerank" in batch):
            build, rerank = batch["serve.build"], batch["resilience.rerank"]
            parts["queue"] = build[1] - submitted[2]
            parts["serve.build"] = build[2] - build[1]
            parts["build_to_rerank"] = rerank[1] - build[2]
            parts["resilience.rerank"] = rerank[2] - rerank[1]
            if "cache.put" in own:
                parts["handoff"] = own["cache.put"][1] - rerank[2]
        for name, seconds in parts.items():
            stages.setdefault(name, []).append(seconds)
        latency = served.done - served.due
        total = sum(parts.values())
        e2e.append(latency)
        sums.append(total)
        others.append(latency - total)
    tracer.stage_means_ms = {
        name: round(1000.0 * float(np.sum(values)) / max(1, len(e2e)), 4)
        for name, values in stages.items()
    }
    if not e2e:
        return {"serve.other_ms_per_request": 0.0, "trace.stage_sum_share": 0.0}
    return {
        "serve.other_ms_per_request": 1000.0 * float(np.mean(others)),
        "trace.stage_sum_share": float(np.sum(sums) / np.sum(e2e)),
    }


def train_layers(tracer: Tracer) -> dict:
    named = _by_name(tracer.spans, "train")
    return {
        "train.assembly_ms_per_batch": _mean_ms(named.get("train.assembly", [])),
        "train.backward_ms_per_batch": _mean_ms(named.get("train.backward", [])),
        "train.step_ms_per_batch": _mean_ms(named.get("train.step", [])),
    }


def eval_layers(tracer: Tracer, eval_seconds: float) -> dict:
    named = _by_name(tracer.spans, "eval")
    assembly = named.get("eval.assembly", [])
    rerank = named.get("model.rerank", [])
    return {
        "eval.assembly_ms_per_batch": _mean_ms(assembly),
        "eval.rerank_ms_per_batch": _mean_ms(rerank),
        "eval.metrics_s": max(0.0, eval_seconds - _total_s(assembly) - _total_s(rerank)),
    }


def setup_layers(tracer: Tracer, setup_seconds: float) -> dict:
    named = _by_name(tracer.spans, "setup")
    world = _total_s(named.get("setup.world", []))
    ranker = _total_s(named.get("setup.ranker_fit", []))
    return {
        "setup.world_s": world,
        "setup.ranker_fit_s": ranker,
        "setup.requests_s": max(0.0, setup_seconds - world - ranker),
    }


def observe_cost_us(histogram, calls: int = 300) -> float:
    """Median cost of one ``observe`` at ``histogram``'s sample count.

    Taken at the end of the run on a fresh histogram of the same type
    filled to the count the run left behind: the cost of the registry
    histogram grows with that count.
    """
    rng = np.random.default_rng(0)
    probe = type(histogram)("perfbench.observe_probe")
    for value in rng.uniform(0.5, 20.0, size=histogram.count):
        probe.observe(float(value))
    values = rng.uniform(0.5, 20.0, size=calls)
    costs = []
    for value in values:
        start = time.perf_counter()
        probe.observe(float(value))
        costs.append(time.perf_counter() - start)
    return 1e6 * float(np.median(costs))
