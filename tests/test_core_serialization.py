import numpy as np
import pytest

from repro.core import (
    QuantizedExactStore,
    load_classifier,
    load_quantized_store,
    load_screener,
    save_classifier,
    save_quantized_store,
    save_screener,
)
from repro.core.serialization import _FORMAT_VERSION


class TestScreenerRoundTrip:
    def test_exact_forward_equivalence(self, small_screener, small_task, tmp_path):
        path = tmp_path / "screener.npz"
        save_screener(path, small_screener)
        loaded = load_screener(path)
        features = small_task.sample_features(8)
        assert np.array_equal(
            small_screener.approximate_logits(features),
            loaded.approximate_logits(features),
        )

    def test_loaded_projection_state_matches(self, small_screener, tmp_path):
        # load_screener rebuilds the projection via from_ternary; the
        # cached dense matrix and scale must match the original so the
        # INT4 grid (derived from stored weights) reproduces exactly.
        path = tmp_path / "screener.npz"
        save_screener(path, small_screener)
        loaded = load_screener(path)
        assert loaded.projection.scale == small_screener.projection.scale
        assert np.array_equal(
            loaded.projection.matrix, small_screener.projection.matrix
        )

    def test_fields_preserved(self, small_screener, tmp_path):
        path = tmp_path / "screener.npz"
        save_screener(path, small_screener)
        loaded = load_screener(path)
        assert loaded.quantization_bits == small_screener.quantization_bits
        assert loaded.projection_dim == small_screener.projection_dim
        assert np.array_equal(
            loaded.projection.ternary, small_screener.projection.ternary
        )

    def test_fp32_screener(self, small_task, tmp_path):
        from repro.core import ScreeningConfig, train_screener

        screener = train_screener(
            small_task.classifier, small_task.sample_features(128),
            config=ScreeningConfig(projection_dim=8, quantization_bits=None),
            solver="lstsq", rng=0,
        )
        path = tmp_path / "fp32.npz"
        save_screener(path, screener)
        assert load_screener(path).quantization_bits is None

    def test_compute_dtype_round_trips(self, small_screener, small_task, tmp_path):
        """float64 is the screener's one width, so nothing is written for
        it, and a version-2 file of an earlier build that says
        ``"float32"`` loads as float64, scoring bit-identically to the
        module built from the same arrays."""
        path = tmp_path / "screener.npz"
        save_screener(path, small_screener)
        legacy = tmp_path / "v2-float32.npz"
        with np.load(path) as data:
            assert "compute_dtype" not in data
            np.savez(legacy, **data, **{"compute_dtype": np.str_("float32")})
        loaded = load_screener(legacy)
        assert loaded.compute_dtype == np.float64
        features = small_task.sample_features(8)
        assert np.array_equal(
            loaded.approximate_logits(features),
            small_screener.approximate_logits(features),
        )

    def test_version1_artifact_defaults_to_float64(
        self, small_screener, small_task, tmp_path
    ):
        # A hand-crafted version-1 file (no compute_dtype key) must load
        # with the historical float64 behavior, not crash or guess.
        path = tmp_path / "v1.npz"
        save_screener(tmp_path / "v2.npz", small_screener)
        with np.load(tmp_path / "v2.npz") as data:
            np.savez(path, **dict(data, format_version=np.int64(1)))
        loaded = load_screener(path)
        assert loaded.compute_dtype == np.float64
        features = small_task.sample_features(8)
        assert np.array_equal(
            loaded.approximate_logits(features),
            small_screener.approximate_logits(features),
        )


class TestClassifierRoundTrip:
    def test_exact_equivalence(self, small_task, tmp_path):
        path = tmp_path / "classifier.npz"
        save_classifier(path, small_task.classifier)
        loaded = load_classifier(path)
        features = small_task.sample_features(4)
        assert np.array_equal(
            small_task.classifier.logits(features), loaded.logits(features)
        )
        assert loaded.normalization == small_task.classifier.normalization


class TestQuantizedStoreRoundTrip:
    @pytest.fixture(scope="class")
    def store(self, small_task):
        return QuantizedExactStore.from_classifier(
            small_task.classifier, kind="int8", tile_rows=256
        )

    def test_resident_round_trip_bit_identical(
        self, store, small_task, tmp_path
    ):
        path = tmp_path / "store"
        save_quantized_store(path, store)
        loaded = load_quantized_store(path)
        assert loaded.kind == store.kind
        assert loaded.tile_rows == store.tile_rows
        assert loaded.normalization == store.normalization
        assert np.array_equal(loaded.codes, store.codes)
        assert np.array_equal(loaded.scales, store.scales)
        assert np.array_equal(loaded.bias, store.bias)
        features = small_task.sample_features(4)
        assert np.array_equal(loaded.logits(features), store.logits(features))

    def test_mmap_round_trip_bit_identical(self, store, small_task, tmp_path):
        path = tmp_path / "store-mmap.npz"
        save_quantized_store(path, store)
        mapped = load_quantized_store(path, mmap=True)
        features = small_task.sample_features(4)
        assert np.array_equal(mapped.logits(features), store.logits(features))
        cols = np.array([0, 255, 256, store.num_categories - 1])
        assert np.array_equal(
            mapped.logits_for(cols, features), store.logits_for(cols, features)
        )

    def test_float16_round_trip(self, small_task, tmp_path):
        store = QuantizedExactStore.from_classifier(
            small_task.classifier, kind="float16"
        )
        path = tmp_path / "fp16-store"
        save_quantized_store(path, store)
        loaded = load_quantized_store(path)
        assert loaded.kind == "float16"
        assert loaded.scales is None
        assert np.array_equal(loaded.codes, store.codes)

    def test_kind_mismatch_rejected(self, store, small_task, tmp_path):
        path = tmp_path / "not-a-store.npz"
        save_classifier(path, small_task.classifier)
        with pytest.raises(ValueError, match="quantized_classifier"):
            load_quantized_store(path)

    def test_corrupt_sidecar_rejected(self, store, tmp_path):
        path = tmp_path / "torn"
        save_quantized_store(path, store)
        np.save(tmp_path / "torn.codes.npy", np.zeros((3, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="sidecar"):
            load_quantized_store(path)

    def test_missing_sidecar_raises(self, store, tmp_path):
        path = tmp_path / "orphan"
        save_quantized_store(path, store)
        (tmp_path / "orphan.codes.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_quantized_store(path)


class TestFormatChecks:
    def test_kind_mismatch(self, small_task, small_screener, tmp_path):
        path = tmp_path / "artifact.npz"
        save_classifier(path, small_task.classifier)
        with pytest.raises(ValueError, match="classifier"):
            load_screener(path)

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro-enmc artifact"):
            load_classifier(path)

    def test_future_version_rejected(self, small_task, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            format_version=np.int64(_FORMAT_VERSION + 1),
            kind=np.str_("classifier"),
            weight=small_task.classifier.weight,
            bias=small_task.classifier.bias,
            normalization=np.str_("softmax"),
        )
        with pytest.raises(ValueError, match="format version"):
            load_classifier(path)
