import threading
import time
import tracemalloc

import numpy as np
import pytest
from blas_kernels import openblas_config

from repro.core import ApproximateScreeningClassifier
from repro.core import screener as screener_module
from repro.core.classifier import FullClassifier
from repro.core.screener import (
    TILE_CATEGORIES,
    ScreeningConfig,
    ScreeningModule,
    initialize_screener,
    run_in_lanes,
)
from repro.linalg.projection import SparseRandomProjection
from repro.linalg.quantize import Quantizer


class TestScreeningConfig:
    def test_from_scale_quarter(self):
        config = ScreeningConfig.from_scale(512, 0.25)
        assert config.projection_dim == 128

    def test_from_scale_minimum_one(self):
        config = ScreeningConfig.from_scale(8, 0.01)
        assert config.projection_dim == 1

    def test_from_scale_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ScreeningConfig.from_scale(512, 0.0)
        with pytest.raises(ValueError):
            ScreeningConfig.from_scale(512, 1.5)

    def test_rejects_non_positive_dim(self):
        with pytest.raises(ValueError):
            ScreeningConfig(projection_dim=0)


class TestScreeningModule:
    def _module(self, l=50, d=32, k=8, bits=4):
        projection = SparseRandomProjection(d, k, rng=0)
        rng = np.random.default_rng(1)
        return ScreeningModule(
            projection,
            rng.standard_normal((l, k)),
            rng.standard_normal(l),
            quantization_bits=bits,
        )

    def test_shapes(self):
        module = self._module()
        assert module.num_categories == 50
        assert module.hidden_dim == 32
        assert module.projection_dim == 8

    def test_rejects_weight_projection_mismatch(self):
        projection = SparseRandomProjection(32, 8, rng=0)
        with pytest.raises(ValueError):
            ScreeningModule(projection, np.zeros((10, 9)), np.zeros(10))

    def test_rejects_bias_mismatch(self):
        projection = SparseRandomProjection(32, 8, rng=0)
        with pytest.raises(ValueError):
            ScreeningModule(projection, np.zeros((10, 8)), np.zeros(9))

    def test_forward_shape(self):
        module = self._module()
        out = module.approximate_logits(np.zeros((4, 32)))
        assert out.shape == (4, 50)

    def test_fp32_mode_matches_manual(self):
        module = self._module(bits=None)
        feature = np.random.default_rng(2).standard_normal(32)
        expected = module.weight @ module.projection(feature[None, :])[0] + module.bias
        assert np.allclose(module.approximate_logits(feature)[0], expected)

    def test_quantized_differs_from_fp32_but_close(self):
        fp = self._module(bits=None)
        q = ScreeningModule(fp.projection, fp.weight, fp.bias, quantization_bits=4)
        feature = np.random.default_rng(3).standard_normal(32)
        a = fp.approximate_logits(feature)
        b = q.approximate_logits(feature)
        assert not np.allclose(a, b)
        # INT4 stays within ~20% relative error on well-scaled data.
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.5

    def test_nbytes_counts_quantized_weight(self):
        module = self._module(l=100, d=32, k=8, bits=4)
        expected = 100 * 8 * 0.5 + 100 * 4 + module.projection.nbytes
        assert module.nbytes == expected

    def test_parameter_scale(self):
        module = self._module(l=100, d=32, k=8)
        assert module.parameter_scale() == pytest.approx(8 / 32)

    def test_batch_rows_quantized_independently(self):
        # A huge row must not destroy a small row's resolution.
        module = self._module(bits=4)
        rng = np.random.default_rng(4)
        small = rng.standard_normal(32) * 0.01
        large = rng.standard_normal(32) * 100.0
        batch_out = module.approximate_logits(np.stack([small, large]))
        single_out = module.approximate_logits(small)
        assert np.allclose(batch_out[0], single_out[0])

    @pytest.mark.parametrize("bits", [4, None])
    def test_holds_two_planes_not_three(self, bits):
        """Master weights plus the fused GEMM plane; the fake-quantized
        ``(l, k)`` view is derived on demand, and it is exactly what the
        fused plane was built from."""
        module = self._module(l=1000, bits=bits)
        plane_bytes = module.weight.nbytes
        held = {
            id(value) for value in vars(module).values()
            if isinstance(value, np.ndarray) and value.nbytes >= plane_bytes
        }
        assert len(held) == 2
        assert np.array_equal(module._fused_weight_t[:-1], module._weight_deq.T)
        assert np.array_equal(module._fused_weight_t[-1], module.bias)


def force_lanes(monkeypatch, lanes):
    """Fix the screener's lane rule, which set-up and the plane pass
    read: never more lanes than tiles after the first."""
    monkeypatch.setattr(
        screener_module, "lane_count", lambda rows, tiles: max(1, min(lanes, tiles - 1))
    )


LANES = (1, 2, 3)


class Abort(BaseException):
    """Not an ``Exception``: what ``KeyboardInterrupt`` looks like."""


class TestPlaneBuiltTileByTile:
    """The fused plane is placed one canonical tile at a time, in 1, 2
    or 3 lanes; its bits are those of quantizing the whole ``(l, k)``
    weight at once — float64 bits, whatever width the master weight
    arrives in."""

    @pytest.mark.parametrize(
        "l",
        [1, TILE_CATEGORIES - 1, TILE_CATEGORIES, TILE_CATEGORIES + 1,
         3 * TILE_CATEGORIES + 5],
    )
    @pytest.mark.parametrize("weight_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8, None])
    def test_equals_whole_plane_quantization(self, monkeypatch, bits, weight_dtype, l):
        k = 3
        rng = np.random.default_rng(l)
        weight = rng.standard_normal((l, k)) * rng.uniform(1e-3, 1e3, (l, 1))
        weight[0] = 0.0  # neutral scale
        weight[-1] = 5e-324  # subnormal: max_abs / qmax underflows
        weight = weight.astype(weight_dtype).astype(np.float64)
        bias = rng.standard_normal(l)
        projection = SparseRandomProjection(input_dim=8, output_dim=k, rng=1)
        want = weight if bits is None else Quantizer(bits, axis=0).fake_quantize(weight)
        for lanes in LANES:
            force_lanes(monkeypatch, lanes)
            # The caller's error state holds in every lane.
            with np.errstate(divide="raise", invalid="raise"):
                module = ScreeningModule(
                    projection, weight.astype(weight_dtype), bias, quantization_bits=bits
                )
            plane = module._fused_weight_t
            assert plane.dtype == np.float64 and plane.flags.c_contiguous
            assert np.array_equal(plane[:-1], want.T), f"{lanes} lanes"
            assert np.array_equal(plane[-1], bias)

    def test_set_up_holds_the_plane_and_a_few_tiles(self, monkeypatch):
        """No second plane-sized temporary while the plane is built: each
        lane holds its scratch tile and the one tile-sized ``|x|`` the
        quantizer's abs-max takes (2.1 tiles measured), nothing more
        beside the fused plane and the boxes.  And those are what the
        module keeps beside its master weights: four arrays, and per tile
        a few scalars."""
        l, k = 200_000, 16
        rng = np.random.default_rng(0)
        weight, bias = rng.standard_normal((l, k)), rng.standard_normal(l)
        projection = SparseRandomProjection(input_dim=64, output_dim=k, rng=1)
        tile = k * TILE_CATEGORIES * 8
        for lanes in LANES:
            force_lanes(monkeypatch, lanes)
            tracemalloc.start()
            try:
                module = ScreeningModule(projection, weight, bias, quantization_bits=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            planes = (
                module._fused_weight_t.nbytes
                + module._tile_box.nbytes
                + module._tile_coarse.nbytes
            )
            assert peak < planes + lanes * 2.5 * tile, f"{lanes} lanes"
            resident = sum(
                value.nbytes for value in vars(module).values() if isinstance(value, np.ndarray)
            )
            tiles = len(module.tile_bounds())
            extra = resident - weight.nbytes - bias.nbytes - planes
            assert 0 <= extra < 64 * tiles + 8 * k * k, f"{lanes} lanes"


class TestScoresInLanes:
    """The plane pass — ``approximate_logits`` (the dense scores
    threshold calibration takes) and dense ``forward``'s plane — and the
    helper every laned loop runs its lanes through."""

    L = 3 * TILE_CATEGORIES + 5  # four tiles: runs [0], [1], [2, 3] at 3 lanes

    @pytest.fixture(scope="class")
    def module(self):
        rng = np.random.default_rng(5)
        return ScreeningModule(
            SparseRandomProjection(input_dim=32, output_dim=8, rng=2),
            rng.standard_normal((self.L, 8)),
            rng.standard_normal(self.L),
        )

    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("feature_dtype", [np.float32, np.float64])
    def test_every_lane_count_scores_the_single_lane_bits(self, monkeypatch, module, rows, feature_dtype):
        features = np.random.default_rng(rows).standard_normal((rows, 32)).astype(feature_dtype)
        rng = np.random.default_rng(6)
        pipeline = ApproximateScreeningClassifier(
            FullClassifier(rng.standard_normal((self.L, 32)), rng.standard_normal(self.L)),
            module,
        )
        force_lanes(monkeypatch, 1)
        expected = module.approximate_logits(features)
        assert expected.dtype == np.float64
        for lanes in LANES:
            force_lanes(monkeypatch, lanes)
            for scores in (
                module.approximate_logits(features),
                pipeline.forward(features).approximate_logits,
            ):
                assert scores.dtype == np.float64 and np.array_equal(scores, expected)

    def test_runs_are_contiguous_and_cover_every_tile_once(self):
        tiles = list(range(11))
        for lanes in range(1, 12):
            runs = []
            run_in_lanes(runs.append, tiles, lanes)
            runs.sort()
            assert [tile for run in runs for tile in run] == tiles
            assert all(runs) and len(runs) == lanes

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("failing_lane", [0, 1, 2])
    def test_a_failing_lane_is_raised_after_every_join(self, monkeypatch, module, failing_lane):
        """The lane that fails waits until every other lane is running,
        then raises; the caller sees the error only once the others have
        scored every tile of their runs, and no thread is left."""
        features = np.random.default_rng(0).standard_normal((16, 32))
        lane_of = {0: 0, 1: 1, 2: 2, 3: 2}
        started = [threading.Event() for _ in range(3)]
        finished = []
        score_tile = module.score_tile

        def flaky(augmented, start, stop, out):
            tile = start // TILE_CATEGORIES
            started[lane_of[tile]].set()
            if lane_of[tile] == failing_lane:
                assert all(event.wait(30) for event in started)
                raise Abort(f"tile {tile}")
            time.sleep(0.05)
            result = score_tile(augmented, start, stop, out)
            finished.append(tile)
            return result

        force_lanes(monkeypatch, 3)
        threads_before = threading.active_count()
        monkeypatch.setattr(module, "score_tile", flaky)
        with pytest.raises(Abort, match=f"tile {failing_lane}"):
            module.approximate_logits(features)
        assert sorted(finished) == [t for t, lane in lane_of.items() if lane != failing_lane]
        assert threading.active_count() == threads_before


class TestScoresOnGatheredRows:
    """The streaming loop scores a partly proven tile on only the rows
    its prescreen left, gathered, and a lone row beside a second one:
    each row must get the batch GEMM's bits.  That holds for OpenBLAS's
    GEMM kernels, not for its 1-row gemv path, so it is a property of
    the kernels picked at run time, named when it fails."""

    def test_every_subset_of_two_rows_or_more_scores_the_batch_bits(self):
        rows, k = 24, 16
        l = 2 * TILE_CATEGORIES + 300  # the short last tile too
        rng = np.random.default_rng(4)
        module = ScreeningModule(
            SparseRandomProjection(64, k, rng=0),
            rng.standard_normal((l, k)),
            rng.standard_normal(l),
        )
        augmented = module.prepare_augmented(rng.standard_normal((rows, 64)))
        for start, stop in module.tile_bounds():
            batch = module.score_tile(augmented, start, stop, out=np.empty((rows, stop - start)))
            for size in range(2, rows):
                subset = np.sort(rng.choice(rows, size, replace=False))
                out = np.empty((size, stop - start))
                gathered = module.score_tile(augmented[subset], start, stop, out=out)
                assert np.array_equal(gathered, batch[subset]), (
                    f"rows {subset} of tile [{start}, {stop}) differ from the batch "
                    f"GEMM's under {openblas_config()}"
                )


class TestComputeDtype:
    """Every screening GEMM computes in float64: ``compute_dtype`` only
    reports it, and the width of the caller's features changes nothing
    but the cast at the door."""

    def _module(self):
        projection = SparseRandomProjection(32, 8, rng=0)
        rng = np.random.default_rng(1)
        return ScreeningModule(
            projection,
            rng.standard_normal((50, 8)),
            rng.standard_normal(50),
            quantization_bits=4,
        )

    def test_default_is_float64(self):
        module = self._module()
        features = np.random.default_rng(2).standard_normal((3, 32))
        assert module.compute_dtype == np.float64
        assert module.approximate_logits(features).dtype == np.float64

    def test_float32_output_dtype(self):
        """float32 features still score in float64."""
        module = self._module()
        features = np.random.default_rng(2).standard_normal((3, 32))
        assert module.approximate_logits(features.astype(np.float32)).dtype == np.float64

    def test_float32_close_to_float64(self):
        """float32 features score exactly as their float64 widening."""
        module = self._module()
        features = np.random.default_rng(2).standard_normal((4, 32)).astype(np.float32)
        assert np.array_equal(
            module.approximate_logits(features),
            module.approximate_logits(features.astype(np.float64)),
        )

    def test_rejects_unsupported_dtype(self):
        """The width is not a setting: the module reports it read-only,
        and a config or constructor that still names one fails loudly
        rather than being ignored."""
        module = self._module()
        with pytest.raises(AttributeError):
            module.compute_dtype = np.float32
        legacy = {"compute_dtype": "float32"}
        with pytest.raises(TypeError):
            ScreeningConfig(projection_dim=8, **legacy)
        with pytest.raises(TypeError):
            ScreeningModule(module.projection, module.weight, module.bias, **legacy)

    def test_dequantized_weight_stays_float64(self):
        # The compiler's tile lowering consumes _weight_deq directly and
        # must keep bit-level agreement with the DIMM simulator.
        assert self._module()._weight_deq.dtype == np.float64


class TestInitializeScreener:
    def test_shapes_from_config(self):
        module = initialize_screener(
            100, 64, ScreeningConfig(projection_dim=16), rng=0
        )
        assert module.weight.shape == (100, 16)
        assert module.bias.shape == (100,)
        assert np.all(module.bias == 0)

    def test_reproducible(self):
        a = initialize_screener(50, 32, ScreeningConfig(projection_dim=8), rng=3)
        b = initialize_screener(50, 32, ScreeningConfig(projection_dim=8), rng=3)
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.projection.ternary, b.projection.ternary)
