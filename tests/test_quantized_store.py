"""Differential suite for the block-quantized exact-weight store.

Contracts under test:

* **the store** — shapes, resident bytes, the per-tile half-step error
  bound, gathers in bounded chunks;
* **quality is bounded** — end-task P@1 / perplexity deltas vs. the FP64
  exact phase stay small (that selection is untouched and values stay
  inside the half-step, and that a memory-mapped store serves the
  resident one's bits, ``tests/test_matrix.py`` asserts on every
  backend; the stores, selectors and shard counts this suite is named
  for are named configurations of it);
* **zero-copy export** — ``export_arrays``/``from_arrays`` (the
  shared-memory wire format) rebuilds a bit-identical quantized pipeline;
* **the arena** — quantized pipelines allocate nothing after warm-up;
* **shared segments** — the parallel engine serves from the quantized
  segments through kill/respawn.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import HIDDEN_DIM, make_selector
from contracts import check_configuration
from repro.core import ApproximateScreeningClassifier, QuantizedExactStore
from repro.core.weightstore import STORE_KINDS
from repro.metrics import perplexity_from_proba, precision_at_k
from repro.utils.memory import Workspace

TILE_ROWS = 128  # several tiles at this scale; production uses 8192
SELECTORS = ("top_m", "threshold")
SHARD_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def task(zoo):
    return zoo.tasks["single"]


@pytest.fixture(scope="module")
def features(zoo):
    return zoo.features[:16]


def build_pipeline(zoo, selector_mode):
    return zoo[("single", "trained", selector_mode, "fp64")]


def quantized_twin(zoo, selector_mode, kind):
    screener = zoo.trained("single")
    model = ApproximateScreeningClassifier(
        zoo.tasks["single"].classifier,
        screener,
        make_selector(selector_mode, screener, zoo.features),
    )
    return model.quantize_exact_weights(kind, tile_rows=TILE_ROWS)


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
class TestStoreSurface:
    def test_from_classifier_int8_shapes(self, task):
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        assert store.num_categories == task.classifier.num_categories
        assert store.hidden_dim == HIDDEN_DIM
        assert store.codes.dtype == np.int8
        assert store.scales.shape == (-(-store.num_categories // TILE_ROWS),)

    def test_resident_bytes_reduction(self, task):
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        fp64_bytes = task.classifier.weight.nbytes + task.classifier.bias.nbytes
        assert fp64_bytes / store.nbytes > 3.0

    def test_error_bounded_by_tile_half_step(self, task):
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        recon = store._tiles.dequantize()
        for tile, (start, stop) in enumerate(store.tile_bounds()):
            err = np.max(
                np.abs(recon[start:stop] - task.classifier.weight[start:stop])
            )
            assert err <= store.scales[tile] / 2 * (1 + 1e-9)

    def test_logits_match_dequantized_reference(self, task, features):
        # Streamed per-tile logits == one dense matmul over the full
        # dequantized matrix (same values through a different walk).
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        reference = features @ store._tiles.dequantize().T + store.bias
        assert np.allclose(store.logits(features), reference, atol=1e-10)

    def test_gather_paths_consistent(self, task, features):
        # logits_for and candidate_scores agree with the full streamed
        # logits on their selected entries.
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        full = store.logits(features)
        cols = np.array([0, 5, TILE_ROWS, store.num_categories - 1])
        gathered = store.logits_for(cols, features)
        assert np.allclose(gathered, full[:, cols], atol=1e-10)
        rows = np.arange(4)
        flat = store.candidate_scores(rows, cols, features)
        assert np.allclose(flat, full[rows, cols], atol=1e-10)

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_candidate_scores_gathers_in_bounded_chunks(self, task, kind):
        """20,000 candidates: the bits of the whole-gather einsum, with
        the dequantized operands a chunk long — from a workspace or not —
        under the FP64 classifier's bound
        (``tests/test_core_classifier.py``) plus what dequantizing a
        chunk stages: int8's scale multiply broadcasts through NumPy's
        64 KB buffer, float16 gathers a chunk of its codes to cast."""
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind=kind, tile_rows=TILE_ROWS
        )
        features = task.sample_features(8, rng=3)
        rng = np.random.default_rng(5)
        rows = np.sort(rng.integers(0, 8, 20_000))
        cols = rng.integers(0, store.num_categories, 20_000)
        want = (
            np.einsum("nd,nd->n", store.gather_rows(cols), features[rows])
            + store.bias[cols]
        )
        staged = {"int8": 64 * 1024, "float16": 1024 * HIDDEN_DIM * 2}[kind]
        workspace = Workspace()
        for arena in (None, workspace, workspace):
            tracemalloc.start()
            try:
                got = store.candidate_scores(rows, cols, features, workspace=arena)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, want)
            bound = 2 * 1024 * HIDDEN_DIM * 8 + got.nbytes + 64 * 1024
            assert peak < bound + staged
        assert workspace.nbytes == 2 * 1024 * HIDDEN_DIM * 8

    def test_float16_kind(self, task, features):
        store = QuantizedExactStore.from_classifier(task.classifier, kind="float16")
        assert store.codes.dtype == np.float16
        assert store.scales is None
        delta = np.max(np.abs(store.logits(features) - task.classifier.logits(features)))
        assert delta < 0.05

    def test_bad_kind_rejected(self, task):
        with pytest.raises(ValueError, match="kind"):
            QuantizedExactStore.from_classifier(task.classifier, kind="int4")

    def test_scale_shape_mismatch_rejected(self, task):
        store = QuantizedExactStore.from_classifier(
            task.classifier, kind="int8", tile_rows=TILE_ROWS
        )
        with pytest.raises(ValueError, match="tile scales"):
            QuantizedExactStore(
                store.codes, store.scales[:-1], store.bias, tile_rows=TILE_ROWS
            )


# ----------------------------------------------------------------------
# pipeline differential: quantized vs FP64 exact phase
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestQuantizedPipelineDifferential:
    def test_candidates_identical_values_bounded(self, zoo, engines, selector_mode, kind):
        """Screening and selection never touch the exact weights; exact
        values shift by at most the worst-tile half-step times the
        feature l1 mass (|Δz| = |Δw · h| ≤ ||Δw||∞ ||h||1)."""
        check_configuration(zoo, engines, ("single", "trained", selector_mode, kind), rows=16)

    def test_streaming_matches_dense_bitwise(self, zoo, engines, selector_mode, kind):
        check_configuration(
            zoo, engines, ("multi", "trained", selector_mode, kind), rows=16, block=5_000
        )

    def test_p_at_1_delta_bounded(self, zoo, task, selector_mode, kind):
        batch = task.sample_features(64, rng=26)
        labels = task.classifier.predict(batch)
        reference = build_pipeline(zoo, selector_mode)
        quantized = quantized_twin(zoo, selector_mode, kind)
        p_ref = precision_at_k(
            reference.forward(batch).logits, labels[:, None], k=1
        )
        p_q = precision_at_k(
            quantized.forward(batch).logits, labels[:, None], k=1
        )
        assert abs(p_ref - p_q) <= 0.05

    def test_perplexity_delta_bounded(self, zoo, task, selector_mode, kind):
        batch = task.sample_features(64, rng=27)
        labels = task.classifier.predict(batch)
        reference = build_pipeline(zoo, selector_mode)
        quantized = quantized_twin(zoo, selector_mode, kind)
        ppl_ref = perplexity_from_proba(reference.predict_proba(batch), labels)
        ppl_q = perplexity_from_proba(quantized.predict_proba(batch), labels)
        assert abs(ppl_q - ppl_ref) / ppl_ref <= 0.05

    def test_export_rebuild_bit_identical(self, zoo, features, selector_mode, kind):
        quantized = quantized_twin(zoo, selector_mode, kind)
        arrays, meta = quantized.export_arrays()
        assert meta["exact_store"] == kind
        assert "weight" not in arrays
        rebuilt = ApproximateScreeningClassifier.from_arrays(arrays, meta)
        assert isinstance(rebuilt.classifier, QuantizedExactStore)
        ref = quantized.forward_streaming(features)
        out = rebuilt.forward_streaming(features)
        assert np.array_equal(ref.candidates.flat()[1], out.candidates.flat()[1])
        assert np.array_equal(ref.exact_values, out.exact_values)


# ----------------------------------------------------------------------
# mmap vs resident bit-identity, across shard counts and selectors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestMmapBitIdentity:
    def test_mmap_equals_resident(self, zoo, engines, num_shards, selector_mode):
        """Every shard's store round-tripped through disk and mapped back
        serves the resident store's bits, in process and by its workers."""
        check_configuration(
            zoo, engines, (f"u{num_shards}", "trained", selector_mode, "int8_mmap"), rows=16
        )


class TestWorkspaceDiscipline:
    def test_streaming_allocation_flat_after_warmup(self, zoo, features):
        quantized = quantized_twin(zoo, "top_m", "int8")
        quantized.forward_streaming(features)
        quantized.forward_streaming(features)  # growable slabs settle
        allocations = quantized.workspace.allocations
        for _ in range(5):
            quantized.forward_streaming(features)
        assert quantized.workspace.allocations == allocations

    def test_dense_exact_phase_uses_workspace(self, zoo, features):
        """Dense ``forward`` dequantizes into the arena it screens into:
        the call's arena, which a call alone is given the kept one."""
        quantized = quantized_twin(zoo, "top_m", "int8")
        arenas = []
        exact_phase = quantized._exact_candidate_values

        def recording(batch, candidates, workspace):
            arenas.append(workspace)
            return exact_phase(batch, candidates, workspace)

        quantized._exact_candidate_values = recording
        quantized.forward(features)
        assert arenas == [quantized._arena]
        assert arenas[0].requests > 0

    def test_requantization_rejected(self, zoo):
        quantized = quantized_twin(zoo, "top_m", "int8")
        with pytest.raises(ValueError, match="already quantized"):
            quantized.quantize_exact_weights("float16")
        # Same kind is an idempotent no-op.
        assert quantized.quantize_exact_weights("int8") is quantized


# ----------------------------------------------------------------------
# quantized shared segments through the parallel engine
# ----------------------------------------------------------------------
@pytest.mark.timeout(300)
class TestQuantizedParallelServing:
    def test_parallel_serves_quantized_segments_through_respawn(self, zoo):
        sharded = zoo[("u2", "trained", "top_m", "int8")]
        batch = zoo.features[31:43]
        sequential = sharded.forward_streaming(batch)

        fp64_bytes = zoo.stacked.weight.nbytes + zoo.stacked.bias.nbytes
        with sharded.parallel(
            max_restarts=2, restart_backoff=0.01, restart_backoff_cap=0.05
        ) as engine:
            # The shared segments carry codes, not FP64 weights.
            exact_bytes = sum(
                pack.arrays["weight_codes"].nbytes
                + pack.arrays["weight_scales"].nbytes
                + pack.arrays["bias"].nbytes
                for pack in engine._param_packs
            )
            assert fp64_bytes / exact_bytes > 3.0

            parallel = engine.forward_streaming(batch)
            assert np.array_equal(
                sequential.exact_values, parallel.exact_values
            )
            # Kill a worker; the respawn re-attaches the same quantized
            # bytes and keeps serving bit-identically.
            engine.workers[0].process.kill()
            engine.workers[0].process.join()
            after = engine.forward_streaming(batch)
            assert engine.restarts[0] >= 1
            assert np.array_equal(sequential.exact_values, after.exact_values)
            assert np.array_equal(
                sequential.candidates.flat()[1], after.candidates.flat()[1]
            )
