"""Each output check rejects a wrong output.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio

import numpy as np
import pytest

import checks
import inputs
import serving
from repro.core import RapidConfig, RapidReranker
from repro.data import make_taobao_world
from repro.eval import ExperimentConfig, evaluate_reranker, prepare_bundle
from repro.serve import ServeRequest


def test_non_permutation_is_rejected():
    assert checks.is_permutation(np.array([2, 0, 1]), 3)
    assert not checks.is_permutation(np.array([0, 0, 2]), 3)
    assert not checks.is_permutation(np.array([0, 1]), 3)
    reference = np.array([0, 1, 2])
    scores = np.array([0.9, 0.5, 0.1])
    assert not checks.same_slate(np.array([0, 0, 2]), reference, scores)


def test_only_near_tied_reorderings_are_accepted():
    reference = np.array([0, 1, 2, 3])
    scores = np.array([0.9, 0.5, 0.5 - 0.5 * checks.SCORE_TIE_TOL, 0.1])
    assert checks.same_slate(reference, reference, scores)
    # Items 1 and 2 are tied within the tolerance: either order is right.
    assert checks.same_slate(np.array([0, 2, 1, 3]), reference, scores)
    # Items 0 and 1 are not.
    assert not checks.same_slate(np.array([1, 0, 2, 3]), reference, scores)
    assert checks.max_inversion(np.array([3, 0, 1, 2]), scores) == pytest.approx(0.8)


@pytest.fixture(scope="module")
def tiny_service():
    world = make_taobao_world("tiny", seed=0)
    histories = world.sample_histories()
    model = RapidReranker(
        RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=8,
            seed=0,
        )
    )
    return world, histories, model


def _changing_write(checker, listing, book, world):
    """Items whose append changes the user's direct slate."""
    before = checker.reference(0, 0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        items = rng.choice(world.config.num_items, size=5, replace=False)
        book.append(listing.user, items)
        after = checker.primary.rerank(checker.batch(0, 1))[0]
        book._appended[listing.user].pop()
        if not np.array_equal(before, after):
            return items
    raise AssertionError("no history write changed the slate")


def _stale_hit_scenario(tiny_service, racy: bool):
    """Serve one request, write the user's history, then ask again.

    With ``racy`` the write lands after the forward pass but before the
    waiting ``rerank()`` resumes and stores its slate in the cache.
    """
    world, histories, model = tiny_service
    service = serving.build_service(model, world, histories)
    book = serving.HistoryBook(histories)
    rng = np.random.default_rng(1)
    listing = inputs.random_listing(world, 3, 12, rng)
    checker = checks.SlateChecker(
        service.tenants["default"].reranker, world, book, lambda ref: listing
    )
    new_items = _changing_write(checker, listing, book, world)

    def request():
        return ServeRequest(listing.user, listing.items, listing.scores)

    async def scenario():
        first = asyncio.ensure_future(service.rerank(request()))
        await service.drain()  # forward pass done; `first` has not resumed
        if racy:
            service.update_history(listing.user, new_items)
            book.append(listing.user, new_items)
        await first
        if not racy:
            service.update_history(listing.user, new_items)
            book.append(listing.user, new_items)
        second = asyncio.ensure_future(service.rerank(request()))
        await service.drain()
        return await second

    result = asyncio.run(scenario())
    version = book.version(listing.user)
    record = serving.Served(
        index=1, ref=0, user=listing.user, due=0.0, sent=0.0, done=0.0,
        source=result.source, permutation=result.permutation,
        version_at_send=version, version_at_done=version,
    )
    return checker, record


def test_stale_cache_hit_is_rejected(tiny_service):
    world, histories, model = tiny_service
    service = serving.build_service(model, world, histories)
    book = serving.HistoryBook(histories)
    listing = inputs.random_listing(world, 3, 12, np.random.default_rng(1))
    checker = checks.SlateChecker(
        service.tenants["default"].reranker, world, book, lambda ref: listing
    )
    before = checker.reference(0, 0)
    book.append(listing.user, _changing_write(checker, listing, book, world))
    # A cache hit sent after the write that returns the pre-write slate.
    record = serving.Served(
        index=1, ref=0, user=listing.user, due=0.0, sent=0.0, done=0.0,
        source="cache", permutation=before, version_at_send=1, version_at_done=1,
    )
    assert not checker.check(record)
    assert checker.stale == 1


def test_fault_a_interleaving_is_judged_by_its_slate(tiny_service):
    # Fault (a): with the write between the forward pass and the resume,
    # the next request is a cache hit serving the pre-write slate, and the
    # checker must reject it.  Once the fault is mended the next request
    # gets the post-write slate, and the checker must accept it.
    checker, record = _stale_hit_scenario(tiny_service, racy=True)
    fresh = np.array_equal(
        record.permutation, checker.reference(0, record.version_at_send)
    )
    assert checker.check(record) == fresh
    assert checker.stale == int(not fresh)


def test_fresh_slate_after_write_is_accepted(tiny_service):
    checker, record = _stale_hit_scenario(tiny_service, racy=False)
    assert record.source == "batched"
    assert checker.check(record)
    assert checker.failed == 0


def test_click_at_5_off_the_closed_form_is_rejected():
    config = ExperimentConfig(
        dataset="taobao", scale="tiny", num_train_requests=8,
        num_test_requests=40, ranker_interactions=200, seed=0,
    )
    bundle = prepare_bundle(config)
    reported = evaluate_reranker(None, bundle, ks=(5,)).metrics["click@5"]
    slates = [r.items for r in bundle.test_requests]
    users = [r.user_id for r in bundle.test_requests]
    args = (slates, users, bundle.world, bundle.click_model)
    assert checks.click_at_k_mismatch(reported, *args) is None
    assert checks.click_at_k_mismatch(reported + 1e-7, *args) is not None
    reversed_slates = [s[::-1] for s in slates]
    assert checks.click_at_k_mismatch(
        reported, reversed_slates, users, bundle.world, bundle.click_model
    ) is not None


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import workloads

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.PLANS)
