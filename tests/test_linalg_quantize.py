import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.quantize import (
    QuantizedTensor,
    Quantizer,
    TileQuantized,
    quantization_error,
    quantize_symmetric,
    quantize_tiles,
)

finite_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestQuantizeSymmetric:
    def test_int4_range(self):
        q = quantize_symmetric(np.linspace(-1, 1, 100), bits=4)
        assert q.values.min() >= -8
        assert q.values.max() <= 7

    def test_scale_maps_max_to_qmax(self):
        q = quantize_symmetric(np.array([-2.0, 1.0, 2.0]), bits=4)
        assert q.values.max() == 7 or q.values.min() == -7  # |max|=2 → ±7

    def test_zero_tensor(self):
        q = quantize_symmetric(np.zeros(10), bits=4)
        assert np.all(q.values == 0)
        assert np.all(q.dequantize() == 0)

    def test_roundtrip_error_bounded_by_half_step(self):
        data = np.random.default_rng(0).standard_normal(100)
        q = quantize_symmetric(data, bits=8)
        step = float(np.asarray(q.scale))
        assert np.max(np.abs(q.dequantize() - data)) <= step / 2 + 1e-12

    def test_per_axis_scales(self):
        data = np.array([[1.0, 1.0], [100.0, 100.0]])
        q = quantize_symmetric(data, bits=4, axis=0)
        # Per-row scaling keeps both rows at full resolution.
        assert np.allclose(q.dequantize(), data, rtol=0.2)

    def test_per_tensor_crushes_small_rows(self):
        data = np.array([[0.01, 0.01], [100.0, 100.0]])
        q = quantize_symmetric(data, bits=4, axis=None)
        assert np.all(q.dequantize()[0] == 0.0)  # small row lost

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(4), bits=5)

    def test_nbytes_int4(self):
        q = quantize_symmetric(np.ones(16), bits=4)
        assert q.nbytes == 8.0  # 16 values * 0.5 B

    def test_int16_dtype(self):
        q = quantize_symmetric(np.ones(4), bits=16)
        assert q.values.dtype == np.int16

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_dequantized_never_exceeds_max_abs(self, data):
        q = quantize_symmetric(data, bits=4)
        limit = np.max(np.abs(data)) if data.size else 0.0
        assert np.all(np.abs(q.dequantize()) <= limit * (1 + 1e-9) + 1e-12)

    @given(finite_arrays, st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, data, bits):
        once = quantize_symmetric(data, bits=bits).dequantize()
        twice = quantize_symmetric(once, bits=bits).dequantize()
        assert np.allclose(once, twice)

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_error_within_half_step_and_bound_tightens_with_bits(self, data):
        # The sound monotonicity statement.  Pointwise "more bits never
        # worse" is FALSE (see the pinned regression below): a value can
        # land closer to the coarse grid than to the fine one.  What
        # symmetric max-abs quantization does guarantee is that every
        # element's error — hence the RMSE — is at most half the grid
        # step scale_b = max|x| / qmax_b, and that bound shrinks as bits
        # grow.
        magnitude = float(np.max(np.abs(data)))
        for bits, qmax in ((4, 7), (8, 127)):
            scale = magnitude / qmax if magnitude > 0 else 1.0
            err = quantization_error(data, bits=bits)
            assert err <= scale / 2 * (1 + 1e-9) + 1e-12 * max(magnitude, 1.0)

    def test_more_bits_can_be_pointwise_worse_regression(self):
        # Falsifying example for the retired "more bits never worse"
        # property: with data [[11, 76]], INT4's grid (step 76/7)
        # reconstructs 11 -> 10.857 (error 0.143) while INT8's finer
        # grid (step 76/127) reconstructs 11 -> 10.772 (error 0.228).
        # Both errors respect their own half-step bound; the comparison
        # between them is simply not monotone in bits.
        data = np.array([[11.0, 76.0]])
        err4 = quantization_error(data, bits=4)
        err8 = quantization_error(data, bits=8)
        assert err8 > err4  # the counterexample is real
        assert err4 <= (76.0 / 7) / 2 * (1 + 1e-9)
        assert err8 <= (76.0 / 127) / 2 * (1 + 1e-9)

    def test_half_step_bound_large_magnitude_regression(self):
        # A single value near the grid: both errors are pure round-off;
        # the half-step bound holds with room to spare even at 1e4+
        # magnitudes where absolute tolerances fail.
        data = np.array([[16277.0]])
        assert quantization_error(data, bits=4) <= (16277.0 / 7) / 2 * (1 + 1e-9)
        assert quantization_error(data, bits=8) <= (16277.0 / 127) / 2 * (1 + 1e-9)


tile_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestQuantizeTiles:
    @given(tile_arrays, st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_scale_shape_is_tile_count(self, data, tile_rows):
        q = quantize_tiles(data, bits=8, tile_rows=tile_rows)
        expected_tiles = -(-data.shape[0] // tile_rows)
        assert q.scales.shape == (expected_tiles,)
        assert q.num_tiles == expected_tiles
        assert q.values.shape == data.shape
        assert q.tile_rows == tile_rows

    @given(tile_arrays, st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_codes_within_symmetric_range(self, data, tile_rows):
        # Max-abs scaling maps onto [-qmax, qmax]; the asymmetric qmin
        # endpoint is unreachable (clipping is only a safety net).
        q = quantize_tiles(data, bits=8, tile_rows=tile_rows)
        assert q.values.dtype == np.int8
        assert q.values.min(initial=0) >= -127
        assert q.values.max(initial=0) <= 127

    def test_all_zero_tile_gets_neutral_scale(self):
        data = np.zeros((6, 3))
        data[4:] = 5.0  # tiles of 2: [zero, zero, nonzero]
        q = quantize_tiles(data, bits=8, tile_rows=2)
        assert q.scales[0] == 1.0 and q.scales[1] == 1.0
        assert np.all(q.values[:4] == 0)
        assert np.array_equal(q.dequantize()[:4], np.zeros((4, 3)))

    def test_int16_boundary_values_never_reach_qmin(self):
        # INT16 qmin is -32768, but symmetric max-abs scaling maps the
        # most negative representable value to -qmax = -32767.
        data = np.array([[-1.0, 1.0], [-0.5, 0.25]])
        q = quantize_tiles(data, bits=16, tile_rows=1)
        assert q.values.dtype == np.int16
        assert q.values.min() == -32767
        assert q.bits == 16

    def test_subnormal_tile_regression(self):
        # max_abs / qmax underflows to 0.0 for subnormal tiles; a zero
        # scale used to propagate divide-by-zero into the codes.
        data = np.array([[5e-324], [1.0]])
        with np.errstate(divide="raise", invalid="raise"):
            q = quantize_tiles(data, bits=8, tile_rows=1)
        assert q.scales[0] == 1.0
        assert q.values[0, 0] == 0
        assert np.all(np.isfinite(q.dequantize()))

    def test_subnormal_per_tensor_regression(self):
        # The same underflow hit quantize_symmetric / fake_quantize.
        with np.errstate(divide="raise", invalid="raise"):
            q = quantize_symmetric(np.array([[5e-324]]), bits=8)
            faked = Quantizer(bits=8).fake_quantize(np.array([[5e-324]]))
        assert np.all(np.isfinite(q.dequantize()))
        assert np.all(np.isfinite(faked))

    @given(tile_arrays)
    @settings(max_examples=30, deadline=None)
    def test_dequantize_rows_matches_full_dequantize(self, data):
        q = quantize_tiles(data, bits=8, tile_rows=3)
        rng = np.random.default_rng(data.shape[0] * 31 + data.shape[1])
        indices = rng.integers(0, data.shape[0], size=10)
        assert np.array_equal(
            q.dequantize_rows(indices), q.dequantize()[indices]
        )

    def test_dequantize_rows_into_out_buffer(self):
        data = np.random.default_rng(3).standard_normal((10, 4))
        q = quantize_tiles(data, bits=8, tile_rows=4)
        out = np.empty((3, 4), dtype=np.float64)
        result = q.dequantize_rows(np.array([9, 0, 5]), out=out)
        assert result is out
        assert np.array_equal(out, q.dequantize()[[9, 0, 5]])

    def test_target_dtype_dequantize(self):
        """Every reconstruction lands in float64, the one arithmetic
        width; there is no other target to ask for."""
        data = np.random.default_rng(4).standard_normal((6, 3))
        q = quantize_tiles(data, bits=8, tile_rows=2)
        assert q.dequantize().dtype == np.float64
        assert q.dequantize_rows([1, 5]).dtype == np.float64
        assert q.dequantize_tile(2, 4).dtype == np.float64
        with pytest.raises(TypeError):
            q.dequantize(np.float32)

    def test_tile_boundary_crossing_rejected(self):
        q = quantize_tiles(np.ones((8, 2)), bits=8, tile_rows=4)
        with pytest.raises(ValueError, match="tile boundary"):
            q.dequantize_tile(2, 6)

    def test_per_tile_scales_isolate_magnitude(self):
        # A huge tile must not crush a small tile's resolution — the
        # point of per-tile over per-tensor scaling.
        data = np.vstack([np.full((2, 2), 0.01), np.full((2, 2), 1e4)])
        q = quantize_tiles(data, bits=8, tile_rows=2)
        assert np.allclose(q.dequantize(), data, rtol=0.01)

    def test_row_scales_maps_indices_to_tiles(self):
        q = quantize_tiles(np.ones((5, 2)), bits=8, tile_rows=2)
        assert np.array_equal(
            q.row_scales(np.array([0, 1, 2, 4])),
            q.scales[[0, 0, 1, 2]],
        )

    def test_nbytes_counts_codes_and_scales(self):
        q = quantize_tiles(np.ones((10, 4)), bits=8, tile_rows=4)
        assert q.nbytes == 10 * 4 * 1 + 3 * 8

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_tiles(np.ones(5))

    def test_bad_tile_rows_rejected(self):
        with pytest.raises(ValueError):
            quantize_tiles(np.ones((4, 2)), tile_rows=0)


class TestQuantizer:
    def test_callable_returns_quantized_tensor(self):
        q = Quantizer(bits=4)
        out = q(np.ones(4))
        assert isinstance(out, QuantizedTensor)
        assert out.bits == 4

    def test_fake_quantize_shape_preserved(self):
        q = Quantizer(bits=4, axis=0)
        data = np.random.default_rng(1).standard_normal((5, 3))
        assert q.fake_quantize(data).shape == (5, 3)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_fake_quantize_out_forms_match_the_formula(self, bits, axis):
        """In place and into a strided float64 view: the bits of
        ``clip(round(x / s)) * s`` written out."""
        q = Quantizer(bits=bits, axis=axis)
        data = np.random.default_rng(bits).standard_normal((6, 5))
        data[2] = 0.0  # an all-zero slice takes the neutral scale
        max_abs = np.max(np.abs(data)) if axis is None else np.max(
            np.abs(data), axis=1 - axis, keepdims=True
        )
        scale = np.where(max_abs > 0, max_abs / q.qmax, 1.0)
        want = np.clip(np.round(data / scale), q.qmin, q.qmax) * scale

        assert np.array_equal(q.fake_quantize(data), want)
        wide = np.full((6, 7), np.nan)
        assert q.fake_quantize(data, out=wide[:, 1:-1]).base is wide
        assert np.array_equal(wide[:, 1:-1], want)
        in_place = data.copy()
        assert q.fake_quantize(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, want)

    def test_repr(self):
        assert "bits=4" in repr(Quantizer(bits=4))


def test_quantization_error_zero_for_representable():
    # Values already on the INT4 grid: max|x| = 7 gives scale exactly 1.
    data = np.array([-7.0, -1.0, 0.0, 3.0, 7.0])
    assert quantization_error(data, bits=4) == pytest.approx(0.0, abs=1e-12)


def test_quantization_error_empty():
    assert quantization_error(np.array([]), bits=4) == 0.0
