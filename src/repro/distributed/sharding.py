"""Category-space sharding for multi-node screened classification.

This module owns the *shard plan* (how the category space splits) and
the *reduce* step (how per-shard outputs merge back to global order).
Both serving backends route through the same functions —
:class:`ShardedClassifier` runs shards sequentially in-process, while
:class:`repro.distributed.parallel.ParallelShardedEngine` scatters the
batch to one process per shard — so their outputs are identical by
construction, and the differential matrix in ``tests/test_matrix.py``
holds them to it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.classifier import FullClassifier
from repro.core.pipeline import (
    ApproximateScreeningClassifier,
    ScreenedOutput,
    StreamedOutput,
)
from repro.core.screener import ScreeningConfig
from repro.core.training import train_screener
from repro.linalg.topk import stable_top_m_indices
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_batch_features, check_positive


def shard_ranges(num_categories: int, num_shards: int) -> List[range]:
    """Contiguous, balanced category ranges (sizes differ by ≤1).

    Every shard is guaranteed non-empty: ``num_shards > num_categories``
    raises ``ValueError`` rather than silently emitting empty ranges,
    because an empty shard would train no screener, answer no request,
    and make the merge's "contiguous cover of [0, l)" invariant
    vacuously easy to break.  The contract is pinned end-to-end (plan
    construction, ``ShardedClassifier``) in ``tests/test_distributed.py``
    and ``tests/test_skew_sharding.py``.
    """
    check_positive("num_categories", num_categories)
    check_positive("num_shards", num_shards)
    if num_shards > num_categories:
        raise ValueError(
            f"{num_shards} shards exceed {num_categories} categories"
        )
    base, remainder = divmod(num_categories, num_shards)
    ranges = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < remainder else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


# ----------------------------------------------------------------------
# shard planning: who owns which categories
# ----------------------------------------------------------------------
class ShardPlan:
    """A contiguous partition of the category space with load estimates.

    The plan is the single authority on "which shard owns which
    categories".  Its invariants are exactly what the ``merge_*``
    reducers need to keep global column indexing bit-exact:

    * ranges are contiguous, ascending, step-1 and non-empty;
    * they cover ``[0, num_categories)`` with no gap or overlap.

    ``loads`` carries the *estimated* fraction of serving work each
    shard absorbs (normalized to sum to 1).  For a uniform plan that is
    just the size fraction; a frequency-balanced plan equalizes it
    under an observed Zipfian mix.  ``source`` records how the plan was
    built (``"uniform"`` / ``"balanced"`` / ``"explicit"``) for stats
    and benchmark reports.

    Plans are immutable value objects: build with :meth:`uniform`,
    :meth:`balanced` or :meth:`from_ranges`.
    """

    __slots__ = ("ranges", "loads", "source")

    def __init__(
        self,
        ranges: Sequence[range],
        loads: Optional[Sequence[float]] = None,
        source: str = "explicit",
    ):
        ranges = tuple(ranges)
        if not ranges:
            raise ValueError("a ShardPlan needs at least one shard range")
        expected_start = 0
        for shard_id, shard_range in enumerate(ranges):
            if shard_range.step != 1:
                raise ValueError(
                    f"shard {shard_id} has step {shard_range.step}; ranges "
                    "must be step-1"
                )
            if len(shard_range) == 0:
                raise ValueError(f"shard {shard_id} is empty")
            if shard_range.start != expected_start:
                raise ValueError(
                    f"shard {shard_id} starts at {shard_range.start}, "
                    f"expected {expected_start}: ranges must tile "
                    "[0, num_categories) contiguously in ascending order"
                )
            expected_start = shard_range.stop
        if loads is None:
            total = float(expected_start)
            loads = tuple(len(shard_range) / total for shard_range in ranges)
        else:
            if len(loads) != len(ranges):
                raise ValueError(
                    f"{len(loads)} loads for {len(ranges)} shards"
                )
            loads = normalize_loads(loads)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "source", str(source))

    def __setattr__(self, name, value):
        raise AttributeError("ShardPlan is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_categories: int, num_shards: int) -> "ShardPlan":
        """The classic size-balanced plan (wraps :func:`shard_ranges`)."""
        return cls(shard_ranges(num_categories, num_shards), source="uniform")

    @classmethod
    def balanced(
        cls,
        frequencies: Optional[Sequence[float]],
        num_shards: int,
        *,
        num_categories: Optional[int] = None,
        screening_weight: float = 0.0,
    ) -> "ShardPlan":
        """Frequency-balanced plan: equalize estimated per-shard load.

        ``frequencies[c]`` is category ``c``'s observed (or supplied)
        serving weight — e.g. how often it lands in a candidate set
        under the production mix (:func:`observed_category_frequencies`).
        The partition minimizes the maximum per-shard load over all
        contiguous partitions (minimax, via binary search + greedy),
        with per-category cost

            ``cost_c = screening_weight + frequencies_c / mean(frequencies)``

        ``screening_weight`` models the per-category work every request
        pays regardless of popularity (the screening GEMM touches every
        column): ``0`` balances pure exact-phase frequency mass, large
        values push the plan back toward uniform.  It is expressed in
        units of the mean per-category frequency cost, so ``1.0`` means
        "screening a category costs as much as serving a category of
        average popularity".

        Fallback: ``frequencies`` that are ``None``, empty or all-zero
        carry no signal, so the plan degrades to :meth:`uniform`
        (``num_categories`` is then required).
        """
        check_positive("num_shards", num_shards)
        if screening_weight < 0:
            raise ValueError(
                f"screening_weight must be >= 0, got {screening_weight}"
            )
        if frequencies is not None:
            frequencies = np.asarray(frequencies, dtype=np.float64)
            if frequencies.ndim != 1:
                raise ValueError(
                    f"frequencies must be 1-D, got shape {frequencies.shape}"
                )
            if num_categories is not None and frequencies.size not in (
                0,
                num_categories,
            ):
                raise ValueError(
                    f"{frequencies.size} frequencies for "
                    f"{num_categories} categories"
                )
        if frequencies is None or frequencies.size == 0:
            if num_categories is None:
                raise ValueError(
                    "empty frequencies need num_categories for the "
                    "uniform fallback"
                )
            return cls.uniform(num_categories, num_shards)
        if not np.all(np.isfinite(frequencies)) or np.any(frequencies < 0):
            raise ValueError("frequencies must be finite and non-negative")
        mean = float(frequencies.mean())
        if mean <= 0:
            return cls.uniform(frequencies.size, num_shards)
        costs = screening_weight + frequencies / mean
        ranges = _minimax_contiguous_partition(costs, num_shards)
        loads = [float(costs[r.start : r.stop].sum()) for r in ranges]
        return cls(ranges, loads=loads, source="balanced")

    @classmethod
    def from_ranges(
        cls, ranges: Sequence[range], loads: Optional[Sequence[float]] = None
    ) -> "ShardPlan":
        """An explicit hand-built plan (validated like any other)."""
        return cls(ranges, loads=loads, source="explicit")

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def num_categories(self) -> int:
        return self.ranges[-1].stop

    @property
    def imbalance(self) -> float:
        """Max-over-mean estimated shard load; ``1.0`` is perfect."""
        return max(self.loads) * self.num_shards

    def suggest_replicas(self, extra_workers: int) -> dict:
        """Spread ``extra_workers`` replica processes over the hot shards.

        Greedy: each extra worker goes to the shard with the highest
        *effective* load (estimated load divided by its current replica
        count).  Returns ``{shard_id: replica_count}`` with every shard
        present (count ≥ 1) — the shape
        :class:`~repro.distributed.parallel.ParallelShardedEngine`'s
        ``replicas`` parameter accepts directly.
        """
        if extra_workers < 0:
            raise ValueError(
                f"extra_workers must be >= 0, got {extra_workers}"
            )
        counts = {shard_id: 1 for shard_id in range(self.num_shards)}
        for _ in range(extra_workers):
            hottest = max(
                range(self.num_shards),
                key=lambda sid: (self.loads[sid] / counts[sid], -sid),
            )
            counts[hottest] += 1
        return counts

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShardPlan)
            and self.ranges == other.ranges
            and self.loads == other.loads
        )

    def __hash__(self) -> int:
        return hash((self.ranges, self.loads))

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(r)) for r in self.ranges)
        return (
            f"ShardPlan({self.source}, l={self.num_categories}, "
            f"sizes=[{sizes}], imbalance={self.imbalance:.2f})"
        )


def _minimax_contiguous_partition(
    costs: np.ndarray, num_shards: int
) -> List[range]:
    """Split ``costs`` into ``num_shards`` contiguous non-empty runs
    minimizing the maximum run sum (the "split array largest sum"
    problem, binary search on the cap + greedy packing).

    The greedy reserves one category per remaining shard so every shard
    is non-empty even when one category dominates the mass.
    """
    n = costs.size
    if num_shards > n:
        raise ValueError(f"{num_shards} shards exceed {n} categories")
    prefix = np.concatenate(([0.0], np.cumsum(costs)))
    total = float(prefix[-1])

    def pack(cap: float) -> Optional[List[range]]:
        ranges: List[range] = []
        start = 0
        for shard in range(num_shards):
            if shard == num_shards - 1:
                end = n
            else:
                # Largest end with sum(start:end) <= cap ...
                end = int(
                    np.searchsorted(prefix, prefix[start] + cap, side="right")
                ) - 1
                # ... but leave one category for each remaining shard,
                # and take at least one ourselves.
                end = min(end, n - (num_shards - shard - 1))
                end = max(end, start + 1)
            if float(prefix[end] - prefix[start]) > cap * (1 + 1e-12):
                return None
            ranges.append(range(start, end))
            start = end
        return ranges

    lo = max(float(costs.max(initial=0.0)), total / num_shards)
    hi = total
    if pack(lo) is not None:
        hi = lo
    else:
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if pack(mid) is not None:
                hi = mid
            else:
                lo = mid
    ranges = pack(hi)
    assert ranges is not None  # hi = total is always feasible
    return ranges


def normalize_loads(loads: Sequence[float]) -> Tuple[float, ...]:
    """Non-negative load weights → fractions summing to 1.

    Zero total mass carries no signal and degrades to uniform.
    """
    loads = [float(load) for load in loads]
    if not loads:
        raise ValueError("normalize_loads needs at least one load")
    if any(load < 0 or not np.isfinite(load) for load in loads):
        raise ValueError(f"loads must be finite and non-negative: {loads}")
    mass = sum(loads)
    if mass <= 0:
        return tuple(1.0 / len(loads) for _ in loads)
    return tuple(load / mass for load in loads)


def observed_category_frequencies(
    outputs: Sequence,
    num_categories: int,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Estimate per-category serving frequency from observed outputs.

    Each output (a :class:`~repro.core.pipeline.ScreenedOutput`,
    :class:`~repro.core.pipeline.StreamedOutput` or a
    :class:`~repro.core.pipeline.DegradedOutput` wrapping either)
    contributes one occurrence count per candidate hit — the candidates
    are where the exact phase spends its work, so their histogram *is*
    the load signal :meth:`ShardPlan.balanced` wants.  ``weights``
    optionally scales each output's contribution (e.g. by how often its
    query occurs in the production mix).
    """
    check_positive("num_categories", num_categories)
    counts = np.zeros(num_categories, dtype=np.float64)
    if weights is None:
        weights = [1.0] * len(outputs)
    if len(weights) != len(outputs):
        raise ValueError(f"{len(weights)} weights for {len(outputs)} outputs")
    for output, weight in zip(outputs, weights):
        result = getattr(output, "result", output)
        _, cols = result.candidates.flat()
        if cols.size:
            counts += weight * np.bincount(cols, minlength=num_categories)
    return counts


# ----------------------------------------------------------------------
# reduce: per-shard outputs -> global order
# ----------------------------------------------------------------------
def merge_streamed_outputs(
    outputs: Sequence[Optional[StreamedOutput]],
    ranges: Sequence[range],
    batch_size: Optional[int] = None,
) -> StreamedOutput:
    """Merge per-shard candidate records to global order.

    ``outputs[i]`` is shard ``i``'s record, or ``None`` for a failed
    shard, which contributes no candidates: the record is sparse, so
    absence needs no NaN plane.  Within a merged row, shard order comes
    first (hence ascending columns), then each shard's own order.
    ``batch_size=None`` takes the first survivor's; it is only needed
    when every entry is ``None``.

    Each shard's record is already in row order, so nothing is sorted:
    an entry's place is its row's merged start, plus the earlier shards'
    entries in that row, plus its offset in its own shard's row.  The
    merged arrays are allocated once and each shard's entries written
    into their places, columns offset to global ids on the way; a
    shard's destinations and shifted columns are the merge's only
    transients.
    """
    live = [
        (output, shard_range.start)
        for output, shard_range in zip(outputs, ranges)
        if output is not None
    ]
    if batch_size is None:
        if not live:
            raise ValueError("no surviving shard output: the merge needs batch_size")
        batch_size = live[0][0].batch_size
    shard_counts = np.array(
        [output.candidates.counts for output, _ in live], dtype=np.intp
    ).reshape(len(live), batch_size)
    counts = shard_counts.sum(axis=0)
    # Entry j of shard s, in row r, goes to j + offsets[s, r]: the row's
    # merged start, plus shards 0..s's entries in row r, less shard s's
    # own entries in rows 0..r.
    offsets = (
        np.cumsum(shard_counts, axis=0)
        - np.cumsum(shard_counts, axis=1)
        + (np.cumsum(counts) - counts)
    )
    total = int(counts.sum())
    cols = np.empty(total, dtype=np.intp)
    exact = np.empty(total, dtype=np.float64)
    approximate = np.empty(total, dtype=np.float64)
    for (output, start), shard_row_counts, shard_offsets in zip(
        live, shard_counts, offsets
    ):
        shard_cols = output.candidates.columns()
        destination = np.arange(shard_cols.size, dtype=np.intp)
        destination += np.repeat(shard_offsets, shard_row_counts)
        cols[destination] = shard_cols + start if start else shard_cols
        exact[destination] = output.exact_values
        approximate[destination] = output.approximate_values
    return StreamedOutput(
        candidates=CandidateSet.from_flat(counts, cols),
        exact_values=exact,
        approximate_values=approximate,
        num_categories=sum(len(shard_range) for shard_range in ranges),
    )


def merge_shard_outputs(
    outputs: Sequence[ScreenedOutput], ranges: Sequence[range]
) -> ScreenedOutput:
    """Merge per-shard dense outputs to global order: the records
    through :func:`merge_streamed_outputs`, the logits planes
    concatenated along the category axis — so the merged output's
    ``approximate_logits`` stays lazy exactly like a single-node
    output's.  Every entry is a shard's output: a failed shard
    (``None``) is the record merge's case only, because the
    process-parallel engine, whose shards fail, serves no plane."""
    record = merge_streamed_outputs(outputs, ranges)
    logits = np.concatenate([output.logits for output in outputs], axis=1)
    return ScreenedOutput(
        record.candidates, record.exact_values, record.approximate_values, logits
    )


def shard_top_k(
    output: ScreenedOutput, shard_range: range, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One node's contribution to a global top-k: ``min(k, |shard|)``
    (global index, score) pairs per row — the scale-out wire format —
    ranked from a dense plane under ``(score desc, index asc)``.

    The dense reference for
    :meth:`~repro.core.pipeline.ApproximateScreeningClassifier.top_k`,
    which serves the same pairs without the plane (differentially
    tested, and replayed by the benchmark's traced run).
    """
    picked = stable_top_m_indices(output.logits, min(k, output.num_categories))
    scores = np.take_along_axis(output.logits, picked, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    return (
        np.take_along_axis(picked, order, axis=1) + shard_range.start,
        np.take_along_axis(scores, order, axis=1),
    )


def reduce_top_k(
    indices_parts: Sequence[np.ndarray],
    scores_parts: Sequence[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Host-side reduce of per-shard top-k pairs to the global top-k.

    Parts arrive in ascending shard order, each ranked ``(score desc,
    index asc)``, so a stable sort by score keeps that total order
    across shards.
    """
    all_indices = np.concatenate(indices_parts, axis=1)
    all_scores = np.concatenate(scores_parts, axis=1)
    order = np.argsort(-all_scores, axis=1, kind="stable")[:, :k]
    rows = np.arange(all_scores.shape[0])[:, None]
    return all_indices[rows, order], all_scores[rows, order]


# ----------------------------------------------------------------------
# the sequential (in-process) backend
# ----------------------------------------------------------------------
class ShardedClassifier:
    """A full classifier split across nodes, each with its own screener.

    Functionally equivalent to the single-node pipeline: per-node mixed
    outputs concatenate back into the global category order (tested).
    The difference is deployment — each node trains a screener for its
    shard only, so no node materializes global state.

    This class runs shards sequentially in one process; call
    :meth:`parallel` for the process-parallel engine over the same
    shards (same shard plan, same reduce path, bit-identical outputs).

    The shard plan comes from exactly one of three places, checked in
    this order: an explicit ``plan`` (any valid :class:`ShardPlan`),
    observed ``frequencies`` (builds a :meth:`ShardPlan.balanced` plan
    over ``num_shards``), or plain ``num_shards`` (the classic uniform
    split).  Non-uniform plans flow through the same merge/reduce path,
    so global column indexing stays bit-exact regardless of where the
    shard boundaries fall (``tests/test_skew_sharding.py`` slices and
    merges over every plan; ``tests/test_matrix.py`` serves each).
    """

    def __init__(
        self,
        classifier: FullClassifier,
        num_shards: Optional[int] = None,
        config: Optional[ScreeningConfig] = None,
        plan: Optional[ShardPlan] = None,
        frequencies: Optional[Sequence[float]] = None,
    ):
        self.classifier = classifier
        if plan is not None:
            if frequencies is not None:
                raise ValueError("pass plan or frequencies, not both")
            if num_shards is not None and num_shards != plan.num_shards:
                raise ValueError(
                    f"num_shards={num_shards} conflicts with a "
                    f"{plan.num_shards}-shard plan"
                )
            if plan.num_categories != classifier.num_categories:
                raise ValueError(
                    f"plan covers {plan.num_categories} categories, "
                    f"classifier has {classifier.num_categories}"
                )
            self.plan = plan
        elif frequencies is not None:
            if num_shards is None:
                raise ValueError("frequencies require num_shards")
            self.plan = ShardPlan.balanced(
                frequencies,
                num_shards,
                num_categories=classifier.num_categories,
            )
        else:
            if num_shards is None:
                raise ValueError("pass num_shards, frequencies or plan")
            self.plan = ShardPlan.uniform(
                classifier.num_categories, num_shards
            )
        self.ranges = list(self.plan.ranges)
        self.config = config or ScreeningConfig.from_scale(
            classifier.hidden_dim, scale=0.25
        )
        self.shards: List[ApproximateScreeningClassifier] = []

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def num_categories(self) -> int:
        """Global category count (EngineBackend surface)."""
        return self.classifier.num_categories

    @property
    def hidden_dim(self) -> int:
        """Feature dimensionality (EngineBackend surface)."""
        return self.classifier.hidden_dim

    @property
    def trained(self) -> bool:
        return bool(self.shards)

    # ------------------------------------------------------------------
    def train(
        self,
        features: np.ndarray,
        candidates_per_shard: int = 16,
        solver: str = "lstsq",
        rng: RngLike = None,
    ) -> None:
        """Distill one screener per shard (independently, as separate
        nodes would).

        The fleet is replaced only once every shard has trained: a
        failure part-way leaves ``trained`` and the previous shards as
        they were, never a partial fleet that answers for some ranges.
        """
        check_positive("candidates_per_shard", candidates_per_shard)
        rngs = spawn_rngs(rng, self.num_shards)
        shards = []
        for shard_range, shard_rng in zip(self.ranges, rngs):
            shard_classifier = FullClassifier(
                self.classifier.weight[shard_range.start : shard_range.stop],
                self.classifier.bias[shard_range.start : shard_range.stop],
                normalization=self.classifier.normalization,
            )
            screener = train_screener(
                shard_classifier, features, config=self.config,
                solver=solver, rng=shard_rng,
            )
            shards.append(
                ApproximateScreeningClassifier(
                    shard_classifier, screener,
                    num_candidates=candidates_per_shard,
                )
            )
        self.shards = shards

    def quantize_exact_weights(self, kind: str = "int8") -> "ShardedClassifier":
        """Convert every shard's exact weights to a block-quantized store.

        Each trained shard pipeline swaps its FP64 weight slice for a
        :class:`~repro.core.weightstore.QuantizedExactStore` (INT8 codes
        + per-tile scales, or FP16), so :meth:`parallel` subsequently
        ships ~4-8x smaller shared parameter segments and worker
        respawn re-attaches the same quantized bytes.  The global
        reference ``self.classifier`` keeps its FP64 weights (it is the
        training-side source of truth); only the serving shards
        quantize.  Returns ``self`` for chaining.
        """
        if not self.trained:
            raise RuntimeError("call train() before quantize_exact_weights()")
        for shard in self.shards:
            shard.quantize_exact_weights(kind=kind)
        return self

    # ------------------------------------------------------------------
    def forward(self, features: np.ndarray) -> ScreenedOutput:
        """All-shard screened inference, merged to global order."""
        if not self.trained:
            raise RuntimeError("call train() before forward()")
        batch = check_batch_features(features, self.classifier.hidden_dim)
        outputs = [shard.forward(batch) for shard in self.shards]
        return merge_shard_outputs(outputs, self.ranges)

    __call__ = forward

    def forward_streaming(
        self,
        features: np.ndarray,
        block_categories: Optional[int] = None,
    ) -> StreamedOutput:
        """All-shard blocked streaming inference, merged to global order.

        Each shard is a category stripe: it streams its stripe block by
        block through its own workspace and ships back only its
        candidate record.  Candidate sets and exact values match
        :meth:`forward` bit for bit (the selection and exact kernels
        are shared with the dense path).
        """
        if not self.trained:
            raise RuntimeError("call train() before forward_streaming()")
        batch = check_batch_features(features, self.classifier.hidden_dim)
        outputs = [
            shard.forward_streaming(batch, block_categories=block_categories)
            for shard in self.shards
        ]
        return merge_streamed_outputs(outputs, self.ranges)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Argmax category per row: the first entry of :meth:`top_k`."""
        return self.top_k(features, 1)[0][:, 0]

    def top_k(self, features: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Global top-k via per-shard top-k + reduce (the scale-out
        communication pattern): each node ranks inside its tile loop and
        ships only ``k`` (index, score) pairs, not its whole shard."""
        if not self.trained:
            raise RuntimeError("call train() before top_k()")
        check_positive("k", k)
        if k > self.num_categories:
            raise ValueError(
                f"k={k} exceeds score dimension {self.num_categories}"
            )
        batch = check_batch_features(features, self.classifier.hidden_dim)
        shard_indices = []
        shard_scores = []
        for shard, shard_range in zip(self.shards, self.ranges):
            indices, scores = shard.top_k(batch, min(k, len(shard_range)))
            shard_indices.append(indices + shard_range.start)
            shard_scores.append(scores)
        return reduce_top_k(shard_indices, shard_scores, k)

    # ------------------------------------------------------------------
    # EngineBackend conformance (repro.serving.backend)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release per-shard serving resources (workspace arenas).

        The sequential backend holds no processes or shared segments,
        so this only drops scratch memory; the model stays trained and
        usable.  Idempotent, part of the
        :class:`~repro.serving.backend.EngineBackend` contract.
        """
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def parallel(self, **kwargs):
        """A process-parallel serving engine over these trained shards.

        Returns a :class:`repro.distributed.parallel.ParallelShardedEngine`
        (one worker process per shard, parameters shared zero-copy).
        Use as a context manager or call ``close()`` when done.
        """
        from repro.distributed.parallel import ParallelShardedEngine

        return ParallelShardedEngine(self, **kwargs)
