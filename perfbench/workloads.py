"""The workloads: serve_hot and train_cell.

Each workload runs one deployment cycle through the program's public
entry points — set up, train RAPID-pro (``train_rapid``), evaluate it
(``evaluate_reranker``), then serve it open-loop through the production
serving stack — so every end-to-end metric is measured on every
workload.  The workloads differ in which part dominates:

- ``serve_hot``: Zipf traffic over 3000 real users, fixed 50-item lists,
  re-scored requests and history writes; the slate cache answers most
  requests, and the few misses reach the model in batches of one or two.
- ``train_cell``: one Table-II cell (taobao world, DIN initial ranker,
  DCM lambda = 0.5) through ``prepare_bundle``; training and evaluation
  dominate, and its test lists are then served with every request a new
  identity, so no cache hit is possible and every request runs the model.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import inputs
import serving
import tracer as tracing
from repro.click.dcm import DependentClickModel
from repro.core import RapidConfig, RapidReranker
from repro.core.trainer import TrainConfig, train_rapid
from repro.data import build_batch
from repro.eval import ExperimentConfig, evaluate_reranker, make_reranker, prepare_bundle
from repro.eval.experiment import ExperimentBundle
from repro.obs import get_registry
from repro.serve import ServeRequest

SETUP_REPEATS = 3
TAIL_SAMPLES = 1100  # per window: >= 10 samples beyond the p99
WINDOWS_FIRST = 2  # windows before the max_rps search, the rest spread over it
TRACED_WINDOWS = 3  # length of the traced serve phase, in windows
PROBE_SAMPLES = 1000  # requests per max_rps probe, when --seconds allows
TAPE_SAMPLE = 24  # served slates re-checked against float64 tape scores
HIDDEN = 16
EVAL_BATCH = 256  # evaluate_reranker's default chunking

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rps": "1/s",
    "peak_rss_mb": "MB",
    "train_lists_per_s": "1/s",
    "eval_lists_per_s": "1/s",
    "click5": "clicks",
}

PER_LAYER = {
    "gen.late_ms_p50": "ms",
    "gen.late_ms_max": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.invalidations": "count",
    "batcher.passes": "count",
    "batcher.rows_per_pass": "rows",
    "batcher.closed_full": "count",
    "batcher.queue_wait_ms_p50": "ms",
    "build.ms_per_pass": "ms",
    "build.us_per_row": "us",
    "resilience.wrapper_us_per_pass": "us",
    "resilience.fallbacks": "count",
    "model.ms_per_pass": "ms",
    "model.relevance_ms": "ms",
    "model.diversity_ms": "ms",
    "model.head_ms": "ms",
    "model.sort_ms": "ms",
    "obs.slo_eval_us": "us",
    "obs.observe_us": "us",
    "serve.other_ms_per_request": "ms",
    "trace.stage_sum_share": "ratio",
    "trace.overhead_pct": "%",
    "setup.world_s": "s",
    "setup.ranker_fit_s": "s",
    "setup.requests_s": "s",
    "train.assembly_ms_per_batch": "ms",
    "train.backward_ms_per_batch": "ms",
    "train.step_ms_per_batch": "ms",
    "eval.assembly_ms_per_batch": "ms",
    "eval.rerank_ms_per_batch": "ms",
    "eval.metrics_s": "s",
}


@dataclass(frozen=True)
class Plan:
    fixed_rps: float  # offered rate of the p50/p99 phase
    windows: int  # fixed-rate windows, each followed by a sample round
    warm_rps: float  # untimed traffic before it, to fill the cache
    warm_s: float
    rps_start: float  # first rate the max_rps search offers
    probes: int  # probes in the max_rps search
    train_lists: int
    epochs: int
    eval_lists: int


PLANS = {
    "serve_hot": Plan(600.0, 12, 2000.0, 1.5, 3000.0, 24, 384, 6, 1024),
    "train_cell": Plan(1000.0, 12, 1000.0, 1.0, 1500.0, 24, 1200, 5, 2000),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State and results of one workload run."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name = name
        self.plan = PLANS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.notes: "list[str]" = []
        self.failures: "list[str]" = []
        self.attempted = 0
        self.failed = 0
        self.metrics: "dict[str, float]" = {}
        self.layers: "dict[str, float]" = {}

    # -- phases ----------------------------------------------------------
    def setup(self) -> None:
        repeats = 1 if self.trace else SETUP_REPEATS
        times = []
        for _ in range(repeats):
            self.__dict__.pop("state", None)
            gc.collect()
            start = time.perf_counter()
            self.state = self._build()
            times.append(time.perf_counter() - start)
        self.metrics["setup_s"] = statistics.median(times)
        if self.trace:
            self.layers.update(self._setup_layers(times[0]))
        self._make_inputs()
        # The world, inputs and model live for the whole run: move them out
        # of the collector's generations so full collections during the
        # timed phases do not rescan them.
        gc.collect()
        gc.freeze()

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def train(self) -> None:
        """``train_rapid`` on the model that is evaluated and served.

        Untraced runs also train a spare model one epoch at a time after
        each fixed-rate window (see ``serve``); ``train_lists_per_s`` comes
        from the median of all epoch times.
        """
        self._phase("train")
        self.epoch_times: "list[float]" = []
        losses = self._timed_train(self.model, self.model.train_config)
        self.model.training_losses = losses
        self.attempted += 1
        if not (len(losses) >= 2 and losses[-1] < losses[0]):
            self._fail(f"mean epoch loss did not fall: {losses}")
        if not self.trace:
            self.spare = self._new_model()
            self.spare_config = replace(self.spare.train_config, epochs=1)

    def _timed_train(self, model, config) -> "list[float]":
        gc.collect()
        marks = [time.perf_counter()]

        def on_epoch_end(epoch: int, loss: float) -> None:
            marks.append(time.perf_counter())

        losses = train_rapid(
            model.model, self.train_requests, self.world.catalog,
            self.world.population, self.histories,
            config=config, on_epoch_end=on_epoch_end,
        )
        self.epoch_times += np.diff(marks).tolist()
        return losses

    def evaluate(self) -> None:
        """``evaluate_reranker`` once, with Init and the click@5 checks.

        Untraced runs evaluate again after each fixed-rate window (see
        ``serve``); ``finish_samples`` takes the throughput from the median.
        """
        self._phase("eval")
        self.eval_times: "list[float]" = []
        self.eval_clicks: "list[float]" = []
        self._timed_eval()
        self.metrics["click5"] = self.eval_clicks[0]
        self._phase("eval_init")
        init = evaluate_reranker(None, self.bundle, ks=(5,))
        self._phase("check")
        self._check_click5(self.eval_clicks[0], init.metrics["click@5"])

    def _timed_eval(self) -> None:
        gc.collect()
        start = time.perf_counter()
        result = evaluate_reranker(self.model, self.bundle, ks=(5,))
        self.eval_times.append(time.perf_counter() - start)
        self.eval_clicks.append(result.metrics["click@5"])

    def sample_round(self) -> None:
        """One more timed evaluation and one more training epoch."""
        self._timed_eval()
        self._timed_train(self.spare, self.spare_config)

    def finish_samples(self) -> None:
        # Medians over samples spread across the whole run: on a shared
        # virtual machine the host's load shifts the process between
        # speeds for stretches of seconds, and the fastest sample depends
        # on whether a run happens to catch a quiet stretch, while the
        # median follows the load the run as a whole saw.
        lists = len(self.bundle.test_requests)
        self.eval_seconds = statistics.median(self.eval_times)
        self.metrics["eval_lists_per_s"] = lists / self.eval_seconds
        self.metrics["train_lists_per_s"] = (
            len(self.train_requests) / statistics.median(self.epoch_times))
        self.notes.append(
            f"{len(self.eval_times)} evaluations of {lists} lists, seconds "
            f"{[round(t, 4) for t in self.eval_times]}; {len(self.epoch_times)} training "
            f"epochs of {len(self.train_requests)} lists, seconds "
            f"{[round(t, 4) for t in self.epoch_times]}")
        self.attempted += lists
        if len(set(self.eval_clicks)) != 1:
            self._fail(f"repeated evaluations disagree: click@5 {self.eval_clicks}")

    def _check_click5(self, reported: float, init_reported: float) -> None:
        bundle = self.bundle
        world, model = bundle.world, bundle.click_model
        train = bundle.config.train
        slates, users, init_slates = [], [], []
        for start in range(0, len(bundle.test_requests), EVAL_BATCH):
            chunk = bundle.test_requests[start : start + EVAL_BATCH]
            batch = build_batch(chunk, world.catalog, world.population, bundle.histories,
                                topic_history_length=train.topic_history_length,
                                flat_history_length=train.flat_history_length)
            perms = self.model.rerank(batch)
            for row, request in enumerate(chunk):
                order = perms[row][: request.list_length]
                if not checks.is_permutation(order, request.list_length):
                    self._fail("evaluation slate is not a permutation")
                slates.append(request.items[order])
                init_slates.append(request.items)
                users.append(request.user_id)
        for slate_list, value in ((slates, reported), (init_slates, init_reported)):
            why = checks.click_at_k_mismatch(value, slate_list, users, world, model)
            if why is not None:
                self._fail(why)
        if self.name == "train_cell" and not reported > init_reported:
            self._fail(f"RAPID-pro click@5 {reported:.4f} does not beat Init {init_reported:.4f}")

    def serve(self) -> None:
        service = self._service()
        self.service = service
        self.resilient = service.tenants["default"].reranker
        self.book = serving.HistoryBook(self.histories)
        self.phases: "list[serving.PhaseResult]" = []
        plan = self.plan
        # Each window long enough for ten samples beyond its p99.
        window_s = max(self.seconds / plan.windows, TAIL_SAMPLES / plan.fixed_rps)
        schedule_rng = _rng(self.seed, 40)
        warm = self.traffic.schedule(plan.warm_rps, plan.warm_s, schedule_rng)
        windows = [self.traffic.schedule(plan.fixed_rps, window_s, schedule_rng)
                   for _ in range(plan.windows)]
        self._phase("serve_warm")
        self.phases.append(serving.run_phase(service, self.book, warm))
        self._phase("serve_untraced")
        fixed: "list[serving.PhaseResult]" = []

        def run_window() -> None:
            if len(fixed) < plan.windows:
                gc.collect()
                fixed.append(serving.run_phase(service, self.book, windows[len(fixed)]))
                self.phases.append(fixed[-1])
                if not self.trace:
                    self.sample_round()

        # The windows, and an evaluation and a training epoch after each,
        # are spread over the max_rps search: on a shared virtual machine the
        # host slows the process by up to half for stretches of seconds, and
        # samples spread over the run see the load the run as a whole saw.
        for _ in range(WINDOWS_FIRST):
            run_window()
        if not self.trace:
            probes_done = [0]

            def probe(rate: float) -> bool:
                # Enough samples for a p99, within bounds set by --seconds.
                probe_s = min(max(PROBE_SAMPLES / rate, 0.02 * self.seconds),
                              0.2 * self.seconds)
                events = self.traffic.schedule(rate, probe_s, schedule_rng)
                gc.collect()
                outcome = serving.run_phase(service, self.book, events)
                self.phases.append(outcome)
                return outcome.meets_limit()

            def after_probe() -> None:
                probes_done[0] += 1
                if probes_done[0] % (plan.probes // (plan.windows - WINDOWS_FIRST)) == 0:
                    run_window()

            self.metrics["max_rps"], history = serving.find_max_rps(
                probe, plan.rps_start, plan.probes, after_probe)
            self.notes.append("max_rps probes (rate/s, + passed): " + ", ".join(
                f"{rate:.0f}{'+' if ok else '-'}" for rate, ok in history))
        while len(fixed) < plan.windows:
            run_window()
        self.finish_samples()
        result = serving.PhaseResult.merge(fixed)
        self.fixed = result
        # On a shared virtual machine the host moves the process between
        # speeds for stretches of seconds, which moves every request of a
        # window alike: p50_ms is the median window, like the throughputs.
        # A neighbour can also stall the process for tens of milliseconds,
        # often enough in a stretch of seconds to set that stretch's p99:
        # p99_ms is the lowest window, the one no stall reached.
        window_p50 = [window.quantile(0.50) for window in fixed]
        window_p99 = [window.quantile(0.99) for window in fixed]
        self.metrics["p50_ms"] = statistics.median(window_p50)
        self.metrics["p99_ms"] = min(window_p99)
        self.notes.append(
            f"fixed {plan.fixed_rps:g}/s in {plan.windows} windows of {window_s:.1f} s: "
            f"{len(result.served)} requests, window p50s "
            f"{[round(p, 3) for p in window_p50]} ms, p99s "
            f"{[round(p, 2) for p in window_p99]} ms, sources {self._sources(result)}, "
            f"writes {result.writes}"
        )
        # A request that raised is failed by the checker ("error" record).
        self.attempted += result.shed
        self.failed += result.shed
        if self.trace:
            self._traced_serve(TRACED_WINDOWS * window_s, result)

    def _traced_serve(self, seconds: float, untraced) -> None:
        """Run the fixed rate again with spans on, then once more without.

        The overhead compares the traced phase with the mean of the
        untraced phases before and after it, which cancels the steady
        growth in per-request cost of the service's registry histograms.
        """
        tracer = self.tracer
        self.service.cache.clear()
        tracer.install()
        try:
            self._phase("serve_warm")
            warm = self.traffic.schedule(self.plan.warm_rps, self.plan.warm_s,
                                         _rng(self.seed, 41))
            self.phases.append(serving.run_phase(self.service, self.book, warm, tracer.on_send))
            gc.collect()
            fixed = self.traffic.schedule(self.plan.fixed_rps, seconds, _rng(self.seed, 42))
            self._phase("serve")
            traced = serving.run_phase(self.service, self.book, fixed, tracer.on_send)
            self.phases.append(traced)
            self.traced = traced
        finally:
            tracer.restore()
        self._phase("serve_after")
        after = serving.run_phase(self.service, self.book, self.traffic.schedule(
            self.plan.fixed_rps, seconds, _rng(self.seed, 43)))
        self.phases.append(after)
        fallbacks = sum(
            series["value"] for series in get_registry().collect()
            if series["name"] == "resilience.fallbacks"
        )
        observe_us = tracing.observe_cost_us(
            get_registry().histogram("serve.request_ms", tenant="default"))
        self.layers.update(tracing.serve_layers(tracer, traced, fallbacks, observe_us))
        untraced_ms = 0.5 * (untraced.latencies().mean() + after.latencies().mean())
        self.notes.append(f"traced blocking path, ms per request by stage: "
                          f"{tracer.stage_means_ms}; e2e mean "
                          f"{traced.latencies().mean():.3f} ms traced, "
                          f"{untraced_ms:.3f} ms untraced (before and after)")
        late = np.array(untraced.late_ms)
        self.layers["gen.late_ms_p50"] = float(np.median(late))
        self.layers["gen.late_ms_max"] = float(late.max())
        self.layers["trace.overhead_pct"] = 100.0 * (
            traced.latencies().mean() / untraced_ms - 1.0)
        self.layers.update(tracing.train_layers(tracer))
        self.layers.update(tracing.eval_layers(tracer, self.eval_seconds))

    def check_serving(self) -> None:
        checker = checks.SlateChecker(self.resilient, self.world, self.book,
                                      self.traffic.listing)
        served = [s for phase in self.phases for s in phase.served if s.source != "shed"]
        for record in served:
            checker.check(record)
        self.attempted += checker.checked + sum(p.writes for p in self.phases)
        self.failed += checker.failed
        self.failures += checker.failures
        rng = _rng(self.seed, 50)
        batched = [s for s in self.fixed.served if s.permutation is not None]
        for index in rng.choice(len(batched), size=min(TAPE_SAMPLE, len(batched)), replace=False):
            self.attempted += 1
            if not checker.check_tape_order(batched[index]):
                self._fail(f"request {batched[index].index}: slate not sorted by tape scores")
        hits = sum(s.source == "cache" for s in served)
        self.notes.append(
            f"checked {checker.checked} slates ({hits} cache hits, "
            f"{checker.fallback_served} from a fallback, {checker.stale} stale), "
            f"{len(checker._memo)} direct reranks")
        self.hit_share = hits / max(1, len(served))

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    @staticmethod
    def _sources(result) -> dict:
        counts: "dict[str, int]" = {}
        for s in result.served:
            counts[s.source] = counts.get(s.source, 0) + 1
        return counts

    def execute(self) -> None:
        clock = [time.perf_counter()]

        def lap(what: str) -> None:
            now = time.perf_counter()
            self.wall[what] = round(now - clock[0], 2)
            clock[0] = now

        self.wall: "dict[str, float]" = {}
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.setup()
            lap("setup")
            self.train()
            lap("train")
            self.evaluate()
            lap("eval")
        finally:
            if self.tracer is not None:
                self.tracer.restore()
        self.serve()
        lap("serve")
        self.metrics["peak_rss_mb"] = _peak_rss_mb()
        self._phase("check")
        self.check_serving()
        lap("check")
        self.notes.append(f"wall seconds per part: {self.wall}")
        if self.tracer is not None:
            out = Path(__file__).resolve().parent / "spans" / f"{self.name}-{self.seed}.json"
            self.tracer.write(out, self.traced.served)
            self.notes.append(f"spans written to {out}; absent entry points: "
                              f"{self.tracer.absent or 'none'}")


class ServeRun(Run):
    def _build(self):
        start = time.perf_counter()
        world, histories = inputs.serving_world()
        world_s = time.perf_counter() - start
        model = self._new_model(world)
        service = serving.build_service(model, world, histories)
        resilient = service.tenants["default"].reranker
        tenant = service.tenants["default"]
        rng = _rng(self.seed, 5)
        items = rng.choice(world.config.num_items, size=inputs.HOT_LIST_LENGTH, replace=False)
        request = ServeRequest(0, items, rng.normal(size=items.size))
        resilient.warmup(tenant.build([request]))
        return {"world": world, "histories": histories, "model": model,
                "service": service, "world_s": world_s}

    def _new_model(self, world=None) -> RapidReranker:
        world = world or self.world
        return RapidReranker(
            RapidConfig(user_dim=world.population.feature_dim,
                        item_dim=world.catalog.feature_dim,
                        num_topics=world.catalog.num_topics, hidden=HIDDEN, seed=self.seed),
            variant="rapid-pro",
            train_config=TrainConfig(epochs=self.plan.epochs, seed=self.seed),
        )

    def _setup_layers(self, setup_s: float) -> dict:
        return {"setup.world_s": self.state["world_s"], "setup.ranker_fit_s": 0.0,
                "setup.requests_s": 0.0}

    def _make_inputs(self) -> None:
        state = self.state
        self.world, self.histories, self.model = state["world"], state["histories"], state["model"]
        length = inputs.HOT_LIST_LENGTH
        self.train_requests = inputs.labelled_lists(
            self.world, length, self.plan.train_lists, _rng(self.seed, 2))
        test = inputs.labelled_lists(self.world, length, self.plan.eval_lists, _rng(self.seed, 3))
        config = ExperimentConfig(dataset="taobao", tradeoff=inputs.CLICK_TRADEOFF,
                                  list_length=length, eval_ks=(5,),
                                  train=self.model.train_config, seed=self.seed)
        self.bundle = ExperimentBundle(
            config=config, world=self.world, histories=self.histories, initial_ranker=None,
            click_model=DependentClickModel(self.world, tradeoff=inputs.CLICK_TRADEOFF),
            train_requests=self.train_requests, test_requests=test)
        self.traffic = inputs.HotTraffic(self.world, _rng(self.seed, 1))

    def _service(self):
        # The service set up before training gets the trained model the
        # way a rollout does: swap_model drops cached slates and casts.
        service = self.state["service"]
        service.swap_model(self.model)
        return service


class CellRun(Run):
    def config(self) -> ExperimentConfig:
        plan = self.plan
        return ExperimentConfig(
            dataset="taobao", scale="small", tradeoff=inputs.CLICK_TRADEOFF,
            initial_ranker="din", list_length=20, eval_ks=(5,),
            num_train_requests=plan.train_lists, num_test_requests=plan.eval_lists,
            hidden=HIDDEN, train=TrainConfig(epochs=plan.epochs, seed=self.seed),
            seed=self.seed)

    def _build(self):
        return {"bundle": prepare_bundle(self.config())}

    def _setup_layers(self, setup_s: float) -> dict:
        return tracing.setup_layers(self.tracer, setup_s)

    def _make_inputs(self) -> None:
        self.bundle = self.state["bundle"]
        self.world, self.histories = self.bundle.world, self.bundle.histories
        self.train_requests = self.bundle.train_requests
        self.model = self._new_model()
        pool = [inputs.Listing(r.user_id, r.items, r.initial_scores)
                for r in self.bundle.test_requests[: inputs.POOL_LISTS]]
        self.traffic = inputs.PoolTraffic(pool, first_identity=10**9)

    def _new_model(self):
        return make_reranker("rapid-pro", self.bundle)

    def _service(self):
        service = serving.build_service(self.model, self.world, self.histories)
        tenant = service.tenants["default"]
        first = self.traffic.pool[0]
        tenant.reranker.warmup(tenant.build([ServeRequest(first.user, first.items, first.scores)]))
        return service


def make_run(name: str, seed: int, seconds: float, trace: bool) -> Run:
    if name not in PLANS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(PLANS)}")
    cls = CellRun if name == "train_cell" else ServeRun
    return cls(name, seed, seconds, trace)
