"""Seeded inputs: worlds, labelled lists and open-loop schedules.

Everything a workload feeds the program is made here from the run's
``--seed`` before any timed phase starts, with the benchmark's own
generators (not ``repro.serve.loadgen``), so a change to the program
cannot change what it is asked to do or when.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.click.dcm import DependentClickModel
from repro.data import RankingRequest, SyntheticWorld, WorldConfig, gmm_coverage
from repro.serve import ServeRequest

# Serving world: a Taobao-shaped world (5 GMM topics over item latents,
# soft coverage) with a population large enough that every cache identity
# is a real user with its own history row.
SERVE_USERS = 3000
SERVE_ITEMS = 1000
SERVE_TOPICS = 5
SERVE_HISTORY = 30
SERVE_WORLD_SEED = 0

ZIPF_EXPONENT = 1.1
HOT_LIST_LENGTH = 50
HOT_WRITE_SHARE = 0.05  # share of events drawn as update_history appends
HOT_RESCORE_SHARE = 0.05  # share of requests with re-drawn initial scores
HOT_WRITE_ITEMS = 2  # items appended per history write
# A drawn write is kept only if the user's previous request in the same
# schedule is at least this much earlier, as feedback follows a finished
# session.  A write that lands while one of the user's requests is between
# its batch's forward pass and storing its slate makes the cache keep a
# stale slate (fault (a) in README.md); with writes at any time that
# happened in four of five runs, in numbers that changed from run to run.
WRITE_GAP_S = 1.0

POOL_LISTS = 1200  # train_cell serves this many of its test lists

CLICK_TRADEOFF = 0.5  # DCM lambda of the balanced Table-II column


def serving_world() -> "tuple[SyntheticWorld, list[np.ndarray]]":
    """The serving world and its sampled behaviour histories.

    The world is the same for every seed (the seed draws the traffic, the
    lists and the model's weights), so click5 on the serving workloads
    does not swing with world-to-world variation.
    """
    config = WorldConfig(
        num_users=SERVE_USERS,
        num_items=SERVE_ITEMS,
        num_topics=SERVE_TOPICS,
        history_length=SERVE_HISTORY,
        seed=SERVE_WORLD_SEED,
    )
    base = SyntheticWorld(config)
    coverage = gmm_coverage(
        base.item_latent, num_topics=SERVE_TOPICS, sharpen=1.0, seed=SERVE_WORLD_SEED + 1
    )
    world = SyntheticWorld(config, coverage=coverage)
    return world, world.sample_histories()


def initial_scores(
    world: SyntheticWorld, user: int, items: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """An upstream ranker's scores: true attraction logit plus noise."""
    alpha = world.relevance_matrix()[user, items]
    logit = np.log(alpha) - np.log1p(-alpha)
    return logit + rng.normal(scale=1.0, size=items.size)


@dataclass
class Listing:
    """One candidate list a user can ask for (a pool entry)."""

    user: int
    items: np.ndarray
    scores: np.ndarray


def random_listing(
    world: SyntheticWorld, user: int, length: int, rng: np.random.Generator
) -> Listing:
    items = rng.choice(world.config.num_items, size=length, replace=False)
    return Listing(int(user), items, initial_scores(world, user, items, rng))


def labelled_lists(
    world: SyntheticWorld, length: int, count: int, rng: np.random.Generator
) -> "list[RankingRequest]":
    """DCM-labelled lists (full-information attraction outcomes)."""
    click_model = DependentClickModel(world, tradeoff=CLICK_TRADEOFF)
    users = rng.integers(0, world.config.num_users, size=count)
    out = []
    for user in users:
        listing = random_listing(world, int(user), length, rng)
        clicks = click_model.simulate(
            listing.user, listing.items, rng, full_information=True
        )
        out.append(
            RankingRequest(
                user_id=listing.user,
                items=listing.items,
                initial_scores=listing.scores,
                clicks=clicks,
                fully_observed=True,
            )
        )
    return out


# ----------------------------------------------------------------------
# Open-loop schedules
# ----------------------------------------------------------------------
@dataclass
class Event:
    """One scheduled event: a request (``request`` set) or a history write."""

    t: float  # seconds after the phase start
    user: int
    request: ServeRequest | None = None
    ref: object = None  # key of the candidate list (for reference slates)
    write_items: np.ndarray | None = None


def poisson_times(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    count = int(rate * seconds * 1.3) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return times[times < seconds]


class HotTraffic:
    """Zipf(s=1.1) users, a stable 50-item list each, re-scores and writes.

    Writes are drawn like requests, by Zipf rank, and dropped when they
    would come within ``WRITE_GAP_S`` of the user's previous request.
    """

    def __init__(self, world: SyntheticWorld, rng: np.random.Generator) -> None:
        self.world = world
        num_users = world.config.num_users
        ranks = np.arange(1, num_users + 1, dtype=np.float64)
        weights = ranks**-ZIPF_EXPONENT
        self._cumulative = np.cumsum(weights / weights.sum())
        self._user_of_rank = rng.permutation(num_users)
        self.pool = [
            random_listing(world, user, HOT_LIST_LENGTH, rng)
            for user in range(num_users)
        ]
        self.rescored: "dict[int, Listing]" = {}

    def listing(self, ref) -> Listing:
        return self.pool[ref] if ref < len(self.pool) else self.rescored[ref]

    def schedule(self, rate: float, seconds: float, rng) -> "list[Event]":
        times = poisson_times(rate, seconds, rng)
        ranks = np.searchsorted(self._cumulative, rng.random(times.size), side="right")
        users = self._user_of_rank[np.minimum(ranks, len(self._user_of_rank) - 1)]
        kinds = rng.random(times.size)
        events = []
        last_request: "dict[int, float]" = {}
        for t, user, kind in zip(times, users, kinds):
            user = int(user)
            if kind < HOT_WRITE_SHARE:
                if t - last_request.get(user, -np.inf) < WRITE_GAP_S:
                    continue
                items = rng.choice(self.world.config.num_items, HOT_WRITE_ITEMS)
                events.append(Event(float(t), user, write_items=items))
                continue
            last_request[user] = t
            ref = user
            base = self.pool[user]
            if kind < HOT_WRITE_SHARE + HOT_RESCORE_SHARE:
                ref = len(self.pool) + len(self.rescored)
                self.rescored[ref] = Listing(
                    user, base.items, initial_scores(self.world, user, base.items, rng)
                )
            listing = self.listing(ref)
            events.append(
                Event(
                    float(t),
                    user,
                    ServeRequest(user_id=user, items=listing.items,
                                 initial_scores=listing.scores),
                    ref,
                )
            )
        return events


class PoolTraffic:
    """Uniform draws from a fixed pool of lists; every send a new identity.

    No cache hit is possible: the cache keys on the identity, and each
    request carries one that was never used before.
    """

    def __init__(self, pool: "list[Listing]", first_identity: int) -> None:
        self.pool = pool
        self._next_identity = first_identity

    def listing(self, ref) -> Listing:
        return self.pool[ref]

    def schedule(self, rate: float, seconds: float, rng) -> "list[Event]":
        times = poisson_times(rate, seconds, rng)
        refs = rng.integers(0, len(self.pool), size=times.size)
        events = []
        for t, ref in zip(times, refs):
            listing = self.pool[int(ref)]
            identity = self._next_identity
            self._next_identity += 1
            events.append(
                Event(
                    float(t),
                    listing.user,
                    ServeRequest(user_id=listing.user, items=listing.items,
                                 initial_scores=listing.scores,
                                 cache_user=identity),
                    int(ref),
                )
            )
        return events
