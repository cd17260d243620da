"""Validation-set tuning of the candidate budget and threshold.

Paper Section 4.2: "the threshold value can be tuned on validation
sets."  In practice the deployment question is inverted: given a
quality target (candidate recall@k — the quantity that bounds end-task
degradation), what is the smallest candidate budget that achieves it?
:func:`tune_budget_for_recall` answers with a binary search over ``m``,
and :func:`tune_threshold_for_recall` converts the result into the
hardware's comparator threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateSelector
from repro.core.classifier import FullClassifier
from repro.core.metrics import candidate_recall
from repro.core.pipeline import ApproximateScreeningClassifier
from repro.core.screener import ScreeningModule
from repro.linalg.topk import calibrate_threshold
from repro.utils.validation import check_batch_features, check_positive, check_probability


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a budget search."""

    num_candidates: int
    achieved_recall: float
    target_recall: float
    k: int
    threshold: float
    num_categories: int

    @property
    def met(self) -> bool:
        return self.achieved_recall >= self.target_recall

    @property
    def candidate_fraction(self) -> float:
        """The tuned budget as a fraction of the category space."""
        return self.num_candidates / self.num_categories


def _recall_at_budget(
    classifier: FullClassifier,
    screener: ScreeningModule,
    features: np.ndarray,
    exact_logits: np.ndarray,
    budget: int,
    k: int,
) -> float:
    model = ApproximateScreeningClassifier(
        classifier, screener,
        selector=CandidateSelector(mode="top_m", num_candidates=budget),
    )
    # The recall reads the candidate record only: no probe builds a
    # ``batch × l`` plane.
    return candidate_recall(exact_logits, model.forward_streaming(features), k=k)


def tune_budget_for_recall(
    classifier: FullClassifier,
    screener: ScreeningModule,
    validation_features: np.ndarray,
    target_recall: float = 0.99,
    k: int = 1,
    max_fraction: float = 0.5,
) -> TuningResult:
    """Smallest top-m budget whose candidate recall@k ≥ target.

    Recall@k is monotone non-decreasing in the budget (a superset of
    candidates can only contain more of the true top-k), so binary
    search applies.  If even ``max_fraction`` of the category space
    misses the target, the largest probed budget is returned with
    ``met=False``.
    """
    check_probability("target_recall", target_recall)
    check_positive("k", k)
    features = check_batch_features(validation_features, classifier.hidden_dim)
    exact = classifier.logits(features)

    low = k  # can't catch top-k with fewer than k candidates
    high = max(low, int(classifier.num_categories * max_fraction))

    # Every budget is probed at most once: a full screening pass per
    # probe is the search's entire cost, and both the feasibility cap
    # and the final budget are frequently revisited by the bisection
    # (e.g. low == high on entry, or the search converging onto an
    # already-probed midpoint).
    probed = {}

    def probe(budget: int) -> float:
        if budget not in probed:
            probed[budget] = _recall_at_budget(
                classifier, screener, features, exact, budget, k
            )
        return probed[budget]

    # One probe at the cap decides feasibility; reuse it for the report
    # rather than paying a second full screening pass at the most
    # expensive budget in the search.
    recall_at_cap = probe(high)
    if recall_at_cap < target_recall:
        return _result(screener, features, high, recall_at_cap, target_recall, k,
                       classifier.num_categories)

    while low < high:
        mid = (low + high) // 2
        if probe(mid) >= target_recall:
            high = mid
        else:
            low = mid + 1

    return _result(screener, features, low, probe(low), target_recall, k,
                   classifier.num_categories)


def _result(screener, features, budget, achieved, target, k, num_categories):
    threshold = calibrate_threshold(
        screener.approximate_logits(features), budget
    )
    return TuningResult(
        num_candidates=budget,
        achieved_recall=achieved,
        target_recall=target,
        k=k,
        threshold=threshold,
        num_categories=num_categories,
    )


def tune_threshold_for_recall(
    classifier: FullClassifier,
    screener: ScreeningModule,
    validation_features: np.ndarray,
    target_recall: float = 0.99,
    k: int = 1,
    **kwargs,
) -> float:
    """The comparator threshold achieving the recall target (the value
    the host loads into the ENMC THRESHOLD register).

    Extra keyword arguments (``max_fraction``, and whatever the budget
    search grows next) forward to :func:`tune_budget_for_recall`, so
    the threshold search can be bounded exactly like the budget search.
    """
    result = tune_budget_for_recall(
        classifier, screener, validation_features, target_recall, k, **kwargs
    )
    return result.threshold
