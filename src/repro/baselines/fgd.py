"""FGD: graph-based decoding (Zhang et al., NeurIPS 2018).

FGD ("Fast Graph Decoder") reduces softmax top-k inference to maximum
inner-product search over the classifier's weight vectors, answered with
a small-world graph: greedy best-first search walks a k-NN graph from an
entry point toward the query's nearest neighbors, evaluating only the
visited vertices.

We implement the inner-product-to-cosine transform of the original
paper (append ``sqrt(M² − ‖x‖²)`` so that cosine NN order equals
inner-product order), a degree-bounded k-NN graph built offline, and
beam search at inference.  The returned candidates get exact logits;
non-visited categories fall back to a low constant (FGD provides no
estimate for them — unlike screening, it cannot populate the tail,
which is why the paper's comparison runs at matched candidate budgets).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.classifier import FullClassifier
from repro.core.metrics import ClassificationCost
from repro.core.pipeline import ScreenedOutput
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_batch_features, check_positive


def _build_knn_graph(
    vectors: np.ndarray, degree: int, rng: np.random.Generator, sample: int = 512
) -> np.ndarray:
    """Approximate k-NN graph by cosine similarity, degree-bounded.

    Exact all-pairs is O(l²); for large l we rank each vertex against a
    random sample plus its own block, which preserves the navigable
    small-world property FGD relies on while keeping construction
    tractable.  Returns an ``(l, degree)`` neighbor-index array.
    """
    count = vectors.shape[0]
    normalized = vectors / np.maximum(
        np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12
    )
    neighbors = np.empty((count, degree), dtype=np.intp)
    exact_threshold = 4096
    if count <= exact_threshold:
        sims = normalized @ normalized.T
        np.fill_diagonal(sims, -np.inf)
        neighbors[:] = np.argpartition(sims, -degree, axis=1)[:, -degree:]
        return neighbors

    for start in range(0, count, 1024):
        block = normalized[start : start + 1024]
        candidates = rng.choice(count, size=min(sample, count), replace=False)
        sims = block @ normalized[candidates].T
        # Mask self-similarity where the sample contains the vertex itself.
        for local, vertex in enumerate(range(start, start + block.shape[0])):
            hits = np.flatnonzero(candidates == vertex)
            if hits.size:
                sims[local, hits] = -np.inf
        top = np.argpartition(sims, -degree, axis=1)[:, -degree:]
        neighbors[start : start + block.shape[0]] = candidates[top]
    return neighbors


class FGDClassifier:
    """Graph-based top-k decoding over classifier weights."""

    def __init__(
        self,
        classifier: FullClassifier,
        degree: int = 16,
        beam_width: int = 8,
        num_candidates: int = 32,
        max_hops: Optional[int] = None,
        rng: RngLike = None,
    ):
        check_positive("degree", degree)
        check_positive("beam_width", beam_width)
        check_positive("num_candidates", num_candidates)
        self.classifier = classifier
        self.degree = min(degree, classifier.num_categories - 1)
        self.beam_width = beam_width
        self.num_candidates = num_candidates
        self.max_hops = max_hops or max(
            8, int(2 * np.log2(classifier.num_categories + 1))
        )

        generator = ensure_rng(rng)
        # Inner-product → cosine transform: augment each weight row with
        # sqrt(M² − ‖w‖²); queries get a 0 in that coordinate, making
        # cosine order match inner-product order (bias folded in too).
        weight = classifier.weight
        augmented = np.hstack([weight, classifier.bias[:, None]])
        norms = np.linalg.norm(augmented, axis=1)
        max_norm = norms.max() if norms.size else 1.0
        pad = np.sqrt(np.maximum(max_norm**2 - norms**2, 0.0))
        self._points = np.hstack([augmented, pad[:, None]])
        self._graph = _build_knn_graph(self._points, self.degree, generator)
        # A well-connected entry point: the vertex with the largest norm
        # (head categories tend to be hubs).
        self._entry = int(np.argmax(norms))
        self._visited_counts: List[int] = []

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return self.classifier.num_categories

    @property
    def hidden_dim(self) -> int:
        return self.classifier.hidden_dim

    # ------------------------------------------------------------------
    def _augment_query(self, feature: np.ndarray) -> np.ndarray:
        return np.concatenate([feature, [1.0], [0.0]])

    def _search(self, feature: np.ndarray) -> np.ndarray:
        """Greedy beam search; returns candidate indices (unsorted)."""
        query = self._augment_query(feature)
        scores = {}

        def score(vertex: int) -> float:
            if vertex not in scores:
                scores[vertex] = float(self._points[vertex] @ query)
            return scores[vertex]

        frontier = [self._entry]
        visited = {self._entry}
        best_score = score(self._entry)
        stale_rounds = 0
        for _ in range(self.max_hops):
            neighbors = set()
            for vertex in frontier:
                neighbors.update(self._graph[vertex].tolist())
            neighbors -= visited
            if not neighbors:
                break
            for vertex in neighbors:
                score(vertex)
            visited.update(neighbors)
            frontier = sorted(neighbors, key=score, reverse=True)[: self.beam_width]
            round_best = scores[frontier[0]]
            # Termination slack: stop after two rounds without improvement.
            if round_best <= best_score:
                stale_rounds += 1
                if stale_rounds >= 2:
                    break
            else:
                best_score = round_best
                stale_rounds = 0
        best = visited
        self._visited_counts.append(len(scores))
        ranked = sorted(best, key=score, reverse=True)
        return np.array(ranked[: self.num_candidates], dtype=np.intp)

    def forward(self, features: np.ndarray) -> ScreenedOutput:
        """Search per row; exact logits on candidates, floor elsewhere."""
        batch = check_batch_features(features, self.hidden_dim)
        indices = [self._search(row) for row in batch]
        candidates = CandidateSet(indices=indices)

        # FGD gives no tail estimate; fill with a floor well below any
        # candidate so softmax mass concentrates on the candidates.
        floor = -1e3
        mixed = np.full((batch.shape[0], self.num_categories), floor)
        for row, picked in enumerate(candidates):
            if picked.size == 0:
                continue
            mixed[row, picked] = self.classifier.logits_for(picked, batch[row])[0]
        return ScreenedOutput.from_planes(
            mixed, np.full_like(mixed, floor), candidates
        )

    __call__ = forward

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(features).logits, axis=-1)

    # ------------------------------------------------------------------
    @property
    def mean_visited(self) -> float:
        """Average vertices scored per query so far (the search cost)."""
        if not self._visited_counts:
            return 0.0
        return float(np.mean(self._visited_counts))

    def cost(self, batch_size: int = 1) -> ClassificationCost:
        """Measured per-batch cost from observed visit counts.

        Each visited vertex costs one (d+2)-dim inner product and one
        gathered weight row; graph adjacency reads are charged at 4
        bytes per edge.  Random-access gathers are the reason FGD maps
        poorly to streaming NMP hardware (paper Section 8).
        """
        visited = self.mean_visited if self._visited_counts else float(
            self.num_candidates * self.degree
        )
        dim = self.hidden_dim + 2
        flops = 2.0 * batch_size * visited * dim
        traffic = batch_size * visited * (4.0 * dim + 4.0 * self.degree)
        return ClassificationCost(
            fp_flops=flops, int_flops=0.0, fp_bytes=traffic, int_bytes=0.0
        )

    def __repr__(self) -> str:
        return (
            f"FGDClassifier(l={self.num_categories}, degree={self.degree}, "
            f"beam={self.beam_width}, m={self.num_candidates})"
        )
