import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FullClassifier,
    QuantizedExactStore,
    load_classifier,
    load_quantized_store,
    load_screener,
    save_classifier,
    save_quantized_store,
    save_screener,
)
from repro.core import serialization
from repro.core.serialization import _FORMAT_VERSION

SRC = Path(__file__).resolve().parent.parent / "src"


def sidecar(path) -> Path:
    """The codes sidecar the quantized-store ``.npz`` at ``path`` names."""
    with np.load(path, allow_pickle=False) as data:
        name = str(data["codes_file"])
    assert re.fullmatch(re.escape(Path(path).stem) + r"\.[0-9a-f]{32}\.codes\.npy", name)
    return Path(path).parent / name


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
        np.save(sidecar(tmp_path / "torn.npz"), np.zeros((3, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="sidecar"):
            load_quantized_store(path)

    def test_resave_keeps_a_live_mapped_store_on_its_bytes(self, tmp_path):
        """Saving over the files a mapped store reads — that store itself,
        then another — replaces them instead of truncating them under
        the map, which killed the process with SIGBUS.  Run in a child
        process, so a regression fails this test, not the session."""
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from repro.core import (
                FullClassifier, QuantizedExactStore, load_quantized_store,
                save_quantized_store,
            )
            path = sys.argv[1]
            rng = np.random.default_rng(0)
            weight, bias = rng.standard_normal((600, 8)), rng.standard_normal(600)
            def store(sign):
                return QuantizedExactStore.from_classifier(
                    FullClassifier(sign * weight, bias), kind="int8", tile_rows=256
                )
            save_quantized_store(path, store(1.0))
            mapped = load_quantized_store(path, mmap=True)
            features = rng.standard_normal((4, 8))
            before = mapped.logits(features)
            save_quantized_store(path, mapped)
            save_quantized_store(path, store(-1.0))
            assert np.array_equal(mapped.logits(features), before)
            fresh = load_quantized_store(path, mmap=True).logits(features)
            assert np.array_equal(fresh, store(-1.0).logits(features))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "live")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        live = tmp_path / "live.npz"
        assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar(live).name, live.name]

    def test_a_failed_save_leaves_the_previous_pair(
        self, store, small_task, tmp_path, monkeypatch
    ):
        path = tmp_path / "kept"
        save_quantized_store(path, store)
        features = small_task.sample_features(4)
        classifier = small_task.classifier
        other = QuantizedExactStore.from_classifier(
            FullClassifier(2.0 * classifier.weight, classifier.bias + 1.0),
            kind="int8",
            tile_rows=256,
        )
        writes = []

        def second_write_fails(write):
            def patched(*args, **kwargs):
                writes.append(write)
                if len(writes) == 2:
                    raise OSError("disk full")
                return write(*args, **kwargs)

            return patched

        # Whichever of the two files is written second, its write raises.
        for name in ("save", "savez_compressed"):
            monkeypatch.setattr(
                serialization.np, name, second_write_fails(getattr(np, name))
            )
        with pytest.raises(OSError, match="disk full"):
            save_quantized_store(path, other)
        monkeypatch.undo()
        loaded = load_quantized_store(path)
        assert np.array_equal(loaded.codes, store.codes)
        assert np.array_equal(loaded.logits(features), store.logits(features))
        kept = tmp_path / "kept.npz"
        assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar(kept).name, kept.name]

    def test_a_save_cut_before_its_npz_moves_leaves_the_previous_pair(
        self, store, small_task, tmp_path, monkeypatch
    ):
        """The ``.npz`` move is the commit point: a save that dies before
        it (here its ``os.replace`` raises) leaves a pair that loads and
        scores the previous store's bytes — not its codes beside the
        previous scales, which load whenever shape and dtype agree."""
        path = tmp_path / "cut"
        save_quantized_store(path, store)
        classifier = small_task.classifier
        other = QuantizedExactStore.from_classifier(
            FullClassifier(-classifier.weight, classifier.bias), kind="int8", tile_rows=256
        )
        assert other.codes.shape == store.codes.shape and other.codes.dtype == store.codes.dtype
        replace = os.replace

        def cut_at_the_npz(source, target):
            if os.fspath(target).endswith(".npz"):
                raise OSError("process killed")
            return replace(source, target)

        monkeypatch.setattr(serialization.os, "replace", cut_at_the_npz)
        with pytest.raises(OSError, match="process killed"):
            save_quantized_store(path, other)
        monkeypatch.undo()
        loaded = load_quantized_store(path)
        features = small_task.sample_features(4)
        assert np.array_equal(loaded.codes, store.codes)
        assert np.array_equal(loaded.logits(features), store.logits(features))
        cut = tmp_path / "cut.npz"
        assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar(cut).name, cut.name]

    def test_a_version_2_pair_loads_and_is_replaced_whole(self, store, small_task, tmp_path):
        """``<stem>.codes.npy`` beside an ``.npz`` without ``codes_file``
        (format 2) loads; a save over it removes that sidecar."""
        path = tmp_path / "old.npz"
        save_quantized_store(path, store)
        with np.load(path, allow_pickle=False) as data:
            fields = {key: data[key] for key in data.files if key != "codes_file"}
        sidecar(path).rename(tmp_path / "old.codes.npy")
        np.savez_compressed(path, **dict(fields, format_version=np.int64(2)))
        features = small_task.sample_features(4)
        for mmap in (False, True):
            loaded = load_quantized_store(path, mmap=mmap)
            assert np.array_equal(loaded.logits(features), store.logits(features))
        save_quantized_store(path, store)
        assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar(path).name, path.name]

    def test_a_sidecar_outside_the_directory_is_refused(self, store, tmp_path):
        path = tmp_path / "inside" / "store.npz"
        path.parent.mkdir()
        save_quantized_store(path, store)
        with np.load(path, allow_pickle=False) as data:
            fields = {key: data[key] for key in data.files}
        np.savez_compressed(path, **dict(fields, codes_file=np.str_("../elsewhere.codes.npy")))
        with pytest.raises(ValueError, match="not a file beside it"):
            load_quantized_store(path)

    def test_missing_sidecar_raises(self, store, tmp_path):
        path = tmp_path / "orphan"
        save_quantized_store(path, store)
        sidecar(tmp_path / "orphan.npz").unlink()
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
