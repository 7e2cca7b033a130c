"""Output checks, each computed apart from the program under test.

- :func:`is_permutation` — a slate orders every candidate exactly once.
- :func:`max_inversion` / :func:`same_slate` — a served slate equals the
  reference slate up to reorderings among items whose reference scores
  are tied within a stated tolerance.
- :class:`SlateChecker` — every served slate, batched or cached, equals
  the unbatched, uncached direct ``rerank`` for a history state the user
  had between the request's send and its response; a slate served by a
  fallback stage must equal that stage's direct output, and is counted.
- :func:`dcm_click_at_k` — Table II's click@k recomputed from the DCM
  closed form (world attraction alpha, topic coverage, per-user
  diversity weights rho and the termination schedule).
"""

from __future__ import annotations

import numpy as np

from repro.data import RankingRequest, build_batch
from repro.nn.inference import use_infer

# Served and reference slates both come from the float32 inference path,
# but a batch of 16 and a batch of 1 may round differently in BLAS; items
# whose scores differ by less than this may swap places.
SCORE_TIE_TOL = 1e-5
# The float64 tape path against the float32 serving path.
TAPE_TIE_TOL = 1e-4


def is_permutation(permutation, length: int) -> bool:
    permutation = np.asarray(permutation)
    return permutation.shape == (length,) and bool(
        (np.sort(permutation) == np.arange(length)).all()
    )


def max_inversion(permutation, scores) -> float:
    """Largest score by which a later slate item beats an earlier one."""
    ordered = np.asarray(scores, dtype=np.float64)[np.asarray(permutation)]
    if ordered.size < 2:
        return 0.0
    best_after = np.maximum.accumulate(ordered[::-1])[::-1]
    return float(max(0.0, (best_after[1:] - ordered[:-1]).max()))


def same_slate(permutation, reference, scores, tol: float = SCORE_TIE_TOL) -> bool:
    """``permutation`` equals ``reference`` up to near-tied reorderings."""
    permutation = np.asarray(permutation)
    if not is_permutation(permutation, len(reference)):
        return False
    if np.array_equal(permutation, reference):
        return True
    return max_inversion(permutation, scores) <= tol


def dcm_click_at_k(slates, users, alpha, coverage, rho, tradeoff, termination, k):
    """Mean expected clicks in the top ``k`` of each slate under the DCM.

    ``slates`` are item-id arrays in served order; ``alpha`` is the
    (users, items) attraction matrix, ``coverage`` (items, topics), ``rho``
    (users, topics) and ``termination`` the per-position exit
    probabilities after a click.
    """
    totals = []
    for items, user in zip(slates, users):
        items = np.asarray(items)[:k]
        tau = coverage[items]
        # zeta: probability that the item is the first to cover each topic.
        uncovered_before = np.vstack(
            [np.ones(tau.shape[1]), np.cumprod(1.0 - tau, axis=0)[:-1]]
        )
        zeta = tau * uncovered_before
        phi = np.clip(
            tradeoff * alpha[user, items] + (1.0 - tradeoff) * zeta @ rho[user],
            0.0,
            1.0,
        )
        eps = termination[: items.size]
        examined = np.concatenate([[1.0], np.cumprod(1.0 - phi * eps)[:-1]])
        totals.append(float((examined * phi).sum()))
    return float(np.mean(totals))


def click_at_k_mismatch(reported, slates, users, world, click_model, k=5, tol=1e-9):
    """Why ``reported`` is not the closed-form click@k of ``slates``, or None.

    The termination schedule is the click model's
    ``base_termination * termination_decay ** position``.
    """
    length = max(len(slate) for slate in slates)
    termination = click_model.base_termination * click_model.termination_decay ** np.arange(
        length
    )
    expected = dcm_click_at_k(
        slates, users, world.relevance_matrix(), world.catalog.coverage,
        world.population.diversity_weight, click_model.tradeoff, termination, k,
    )
    if abs(expected - reported) > tol:
        return f"click@{k} {reported!r} differs from the DCM closed form {expected!r}"
    return None


class SlateChecker:
    """Checks served slates against direct, unbatched reranks.

    ``listing(ref)`` returns the candidate list behind a request's ``ref``
    and ``book`` the users' history versions.  References are memoized
    per (list, history version).
    """

    def __init__(self, resilient, world, book, listing) -> None:
        self.primary = resilient.primary
        self.fallbacks = list(resilient.fallbacks)
        self.catalog = world.catalog
        self.population = world.population
        self.book = book
        self.listing = listing
        self._memo: "dict[tuple, tuple]" = {}
        self.checked = 0
        self.failed = 0
        self.fallback_served = 0
        self.stale = 0
        self.failures: "list[str]" = []

    def batch(self, ref, version):
        listing = self.listing(ref)
        history = {listing.user: self.book.history(listing.user, version)}
        request = RankingRequest(listing.user, listing.items, listing.scores)
        return build_batch([request], self.catalog, self.population, history)

    def reference(self, ref, version) -> np.ndarray:
        """The direct slate for a list at a history version."""
        key = (ref, version)
        if key not in self._memo:
            self._memo[key] = self.primary.rerank(self.batch(ref, version))[0]
        return self._memo[key]

    def matches(self, permutation, ref, version) -> bool:
        reference = self.reference(ref, version)
        if np.array_equal(permutation, reference):
            return True
        scores = self.primary.score_batch(self.batch(ref, version))[0]
        return same_slate(permutation, reference, scores)

    def _fallback_match(self, served) -> bool:
        batch = self.batch(served.ref, served.version_at_send)
        outputs = [stage.rerank(batch)[0] for stage in self.fallbacks]
        outputs.append(np.arange(batch.list_length))  # initial-order passthrough
        return any(np.array_equal(served.permutation, out) for out in outputs)

    def check(self, served) -> bool:
        self.checked += 1
        length = self.listing(served.ref).items.size
        if served.source == "error":
            return self._fail(served, "rerank raised")
        if served.permutation is None or not is_permutation(served.permutation, length):
            return self._fail(served, f"not a permutation ({served.source})")
        versions = range(served.version_at_send, served.version_at_done + 1)
        if any(self.matches(served.permutation, served.ref, v) for v in versions):
            return True
        if self._fallback_match(served):
            self.fallback_served += 1
            return True
        if served.source == "cache" and any(
            self.matches(served.permutation, served.ref, v)
            for v in range(served.version_at_send)
        ):
            self.stale += 1
            return self._fail(served, "stale cache hit")
        return self._fail(served, f"differs from the direct rerank ({served.source})")

    def _fail(self, served, why: str) -> bool:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"request {served.index} user {served.user}: {why}")
        return False

    def check_tape_order(self, served) -> bool:
        """The slate is sorted by float64 tape-path scores, up to near-ties."""
        batch = self.batch(served.ref, served.version_at_send)
        with use_infer(False):
            scores = self.primary.score_batch(batch)[0]
        return max_inversion(served.permutation, scores) <= TAPE_TIE_TOL
