"""The prescreen of the streaming tile loop: coarse boxes, boxes, entries,
run one pass over the remaining tiles at a time.

The contract under test: in ``forward_streaming`` and ``top_k``, a row
of a tile whose scores a pass proves at most the reducer's bound (its
threshold, or with runner-ups each row's floor, as the pass's first tile
saw it) is neither scored in float64 nor folded, and a tile with no row
left is skipped.  Such
rows would have recorded nothing, so every output is the bits of dense
``forward``, which keeps its plane and never skips, and of the per-row
oracle.  Every proof rests on one bound, ``E_box``: on how far a box
bound may sit under a float64 score, and on |gathered score − float64
tile-GEMM score| for the columns of the boxes a row fails.  The
adversarial models put an entry one float64 ulp from the
bound in a late tile — in a box every row fails, in a coarse box, in a
box only one row fails — and the property tests draw magnitudes from
1e-30 to 1e30.  The ``lanes`` axis is the lane count of dense
``forward``'s plane pass, the reference the streaming calls are held to;
the streaming loop is one lane.
"""

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import forward_per_row, rank_dense

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core.candidates import CandidateSelector
from repro.core.classifier import FullClassifier
from repro.core import screener as screener_module
from repro.core.screener import (
    BOX_CATEGORIES,
    COARSE_CATEGORIES,
    TILE_CATEGORIES,
    ScreeningModule,
    TilePrescreen,
)
from repro.linalg.topk import BlockwiseThreshold
from repro.data import make_task
from repro.linalg.projection import SparseRandomProjection
from repro.obs import NULL_RECORDER, Recorder
from repro.utils.memory import Workspace

pytestmark = pytest.mark.timeout(300)

TILES = 6
L = (TILES - 1) * TILE_CATEGORIES + 37
M = 12
K = 5
SELECTORS = ("top_m", "threshold")
LANES = (1, 2, 3)
#: Selection blocks narrower than a tile: several updates per tile.
BLOCKS = (None, 5_000)


def force_lanes(monkeypatch, lanes):
    monkeypatch.setattr(
        screener_module, "lane_count", lambda rows, tiles: max(1, min(lanes, tiles - 1))
    )


@pytest.fixture(scope="module")
def zipf():
    """A frequency-ordered label space (``make_task``'s Zipf log-prior by
    index): after tile 0 almost no tile holds an entry above the bound."""
    task = make_task(num_categories=L, hidden_dim=16, rng=3)
    screener = train_screener(
        task.classifier,
        task.sample_features(64, rng=1),
        config=ScreeningConfig(projection_dim=4),
        solver="lstsq",
        rng=2,
    )
    return task, screener, task.sample_features(8, rng=7)


def build(zipf, mode):
    task, screener, features = zipf
    selector = CandidateSelector(mode, num_candidates=M)
    if mode == "threshold":
        selector.calibrate(screener.approximate_logits(features))
    return ApproximateScreeningClassifier(task.classifier, screener, selector)


def tiles_skipped(model, call) -> tuple:
    """``(result, tiles prescreened, tiles skipped)`` of one call."""
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        result = call()
    finally:
        model.set_recorder(NULL_RECORDER)
    counters = recorder.snapshot()["counters"]
    return (
        result,
        counters.get("pipeline.tiles_prescreened", 0),
        counters.get("pipeline.tiles_skipped", 0),
    )


def spied_passes(call) -> tuple:
    """``(result, passes)``: ``call()``'s result, and per pass its first
    tile, the bound it took (a copy) and what it left."""
    passes = []
    pass_left = TilePrescreen.pass_left

    def spy(screen, ws, first, bound):
        taken = None if bound is None else np.array(bound, dtype=float)
        result = pass_left(screen, ws, first, bound)
        passes.append((first, taken, result))
        return result

    with mock.patch.object(TilePrescreen, "pass_left", spy):
        result = call()
    return result, passes


def last_tile_pass(model, features, bound, scratch=None) -> tuple:
    """A pass from the model's last tile under ``bound``, in an arena of
    its own (with ``scratch``, the prescreen's ``(pairs, share)`` set to
    it first), and the ``(row, box of the tile)`` pairs its entry step
    scored, sorted.  It covers that tile alone."""
    screener = model.screener
    ws = Workspace()
    screen = TilePrescreen(screener, screener.prepare_augmented(features), ws)
    if scratch is not None:
        screen.pairs, screen.share = scratch
    screen.reserve(ws)
    scored = []
    score_entries = screen._score_entries

    def spy(count, entries):
        held = entries[2]  # per held box its cell (here its row) and box
        rows = held[0, :count] % len(features)
        boxes = held[1, :count] % (TILE_CATEGORIES // BOX_CATEGORIES)
        scored.extend(zip(rows.tolist(), boxes.tolist()))
        score_entries(count, entries)

    screen._score_entries = spy
    last = len(screener.tile_bounds()) - 1
    result = screen.pass_left(ws, last, bound)
    assert (result.first, result.stop) == (last, last + 1)
    return result, sorted(scored)


def assert_dense_is_the_oracle(model, features, dense):
    """Whole-plane screening and per-row exact gathers: the same
    candidates and screener bits (exact values up to the gather's GEMM
    shape)."""
    oracle = forward_per_row(model, features)
    assert np.array_equal(dense.candidates.flat()[1], oracle.candidates.flat()[1])
    assert np.array_equal(dense.approximate_logits, oracle.approximate_logits)
    assert np.allclose(dense.logits, oracle.logits, rtol=0, atol=1e-12)


def assert_streamed_is_dense(streamed, dense):
    rows, cols = dense.candidates.flat()
    assert np.array_equal(streamed.candidates.counts, dense.candidates.counts)
    assert np.array_equal(streamed.candidates.flat()[1], cols)
    assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])
    assert np.array_equal(streamed.approximate_values, dense.approximate_logits[rows, cols])


# ----------------------------------------------------------------------
# a Zipf-ordered model: skipping happens, outputs do not move
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", SELECTORS)
def test_late_tiles_are_skipped_and_dense_forward_skips_none(zipf, mode):
    model = build(zipf, mode)
    features = zipf[2]
    _, prescreened, skipped = tiles_skipped(model, lambda: model.forward_streaming(features))
    assert 0 < skipped <= prescreened <= TILES
    _, prescreened, skipped = tiles_skipped(model, lambda: model.top_k(features, K))
    assert 0 < skipped <= prescreened <= TILES
    _, prescreened, skipped = tiles_skipped(model, lambda: model.forward(features))
    assert prescreened == skipped == 0


@pytest.mark.parametrize("mode", SELECTORS)
def test_tile_0_is_never_prescreened_and_tile_1_always_is(monkeypatch, zipf, mode):
    """The prescreen rule's start: tile 0, where the head sits, is scored
    without a prescreen stage, and the call's first pass starts at tile 1
    though tile 0 recorded."""
    model = build(zipf, mode)
    features = zipf[2]
    for call in (lambda: model.forward_streaming(features), lambda: model.top_k(features, K)):
        _, passes = spied_passes(call)
        covered = [
            tile
            for _, _, result in passes
            if result is not None
            for tile in range(result.first, result.stop)
        ]
        assert passes[0][0] == 1 and covered[0] == 1 and 0 not in covered


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_streaming_is_dense_and_the_oracle(monkeypatch, zipf, mode, lanes, block):
    model = build(zipf, mode)
    features = zipf[2]
    force_lanes(monkeypatch, lanes)
    streamed, _, skipped = tiles_skipped(
        model, lambda: model.forward_streaming(features, block_categories=block)
    )
    assert skipped > 0
    dense = model.forward(features)
    assert_streamed_is_dense(streamed, dense)
    assert_dense_is_the_oracle(model, features, dense)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_top_k_is_the_dense_ranking(monkeypatch, zipf, mode, lanes):
    model = build(zipf, mode)
    features = zipf[2]
    force_lanes(monkeypatch, lanes)
    (indices, scores), _, skipped = tiles_skipped(model, lambda: model.top_k(features, K))
    assert skipped > 0
    dense = model.forward(features)
    assert_dense_is_the_oracle(model, features, dense)
    want = rank_dense(dense.logits, K)
    assert np.array_equal(indices, want[0])
    assert np.array_equal(scores, want[1])


# ----------------------------------------------------------------------
# adversarial: an entry one ulp from the bound in the last tile
# ----------------------------------------------------------------------
ADVERSARIAL_L = 4 * TILE_CATEGORIES + 100
#: Columns of tile 0 whose scores are their biases exactly (zero weight):
#: 100, 99, ..., 81, each raised by ``NUDGE`` — far more than a float64
#: ulp there (2**-46) — so the bound tile 0 leaves is no round number.
HEAD = 20
NUDGE = 2.0**-30
THRESHOLD = 90.0 + NUDGE


def adversarial_parts(rows=4):
    rng = np.random.default_rng(5)
    k, d = 4, 16
    weight = 0.01 * rng.standard_normal((ADVERSARIAL_L, k))
    bias = np.full(ADVERSARIAL_L, -50.0)
    weight[:HEAD] = 0.0
    bias[:HEAD] = 100.0 - np.arange(HEAD) + NUDGE
    projection = SparseRandomProjection(input_dim=d, output_dim=k, rng=6)
    classifier = FullClassifier(
        rng.standard_normal((ADVERSARIAL_L, d)), rng.standard_normal(ADVERSARIAL_L)
    )
    return projection, weight, bias, classifier, rng.standard_normal((rows, d))


def adversarial_selector(mode):
    if mode == "threshold":
        return CandidateSelector(mode, num_candidates=M, threshold=THRESHOLD)
    return CandidateSelector(mode, num_candidates=M)


def tile_0_bound(selector, call) -> float:
    """The bound tile 0 of the adversarial parts leaves, in the reducer
    the call itself builds: one value for every row."""
    projection, weight, bias, _, features = adversarial_parts()
    screener = ScreeningModule(projection, weight, bias)
    augmented = screener.prepare_augmented(features)
    reducer = selector.make_block_reducer(
        len(features), ADVERSARIAL_L, runner_ups=K if call == "top_k" else 0
    )
    scores = np.empty((len(features), TILE_CATEGORIES))
    reducer.update(0, screener.score_tile(augmented, 0, TILE_CATEGORIES, out=scores))
    bound = np.unique(reducer.bound)
    assert bound.size == 1
    return float(bound[0])


def adversarial_model(mode, call, side):
    """The model, its features, the late column and the bound the late
    tile is tested against: one float64 ulp above it (``side = +1``,
    a candidate or runner-up dense forward keeps) or below (``-1``)."""
    selector = adversarial_selector(mode)
    bound = tile_0_bound(selector, call)
    projection, weight, bias, classifier, features = adversarial_parts()
    column = ADVERSARIAL_L - 7
    weight[column] = 0.0
    bias[column] = np.nextafter(bound, side * np.inf)
    model = ApproximateScreeningClassifier(
        classifier, ScreeningModule(projection, weight, bias), selector
    )
    return model, features, column, bound


@pytest.mark.parametrize("side", (1, -1), ids=("ulp_above", "ulp_below"))
@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_an_entry_one_ulp_from_the_bound(monkeypatch, mode, lanes, call, side):
    model, features, column, bound = adversarial_model(mode, call, side)
    screener = model.screener
    # Every row fails the entry's box, and its column is scored: within
    # E_entry of the bound, on either side, no row is proven.
    result, scored = last_tile_pass(model, features, bound)
    last, every = len(screener.tile_bounds()) - 1, list(range(len(features)))
    assert result.box_tested == result.entry_tested == len(every)
    box = (column - last * TILE_CATEGORIES) // BOX_CATEGORIES
    assert {row for row, failing in scored if failing == box} == set(every)
    assert list(result.rows(last)) == every

    force_lanes(monkeypatch, lanes)
    dense = model.forward(features)
    assert np.all(dense.approximate_logits[:, column] - bound == side * np.spacing(bound))
    if call == "forward_streaming":
        streamed, _, skipped = tiles_skipped(model, lambda: model.forward_streaming(features))
        assert_streamed_is_dense(streamed, dense)
        kept = [column in row for row in streamed.candidates.indices]
        assert kept == [side > 0] * len(features)
    else:
        (indices, scores), _, skipped = tiles_skipped(model, lambda: model.top_k(features, K))
        want = rank_dense(dense.logits, K)
        assert np.array_equal(indices, want[0])
        assert np.array_equal(scores, want[1])
    assert_dense_is_the_oracle(model, features, dense)
    # The middle tiles hold nothing above the bound and are skipped.
    assert skipped > 0


# ----------------------------------------------------------------------
# property: E_box covers any-order float64 against the tile GEMM
# ----------------------------------------------------------------------
def tile_reach(screener, augmented, start, stop):
    """Per row ``A·W + B``: its ``Σ|a_j|`` times the tile's largest weight
    magnitude, plus its largest bias magnitude — what the error bounds
    scale with."""
    weights = np.abs(screener._fused_weight_t[:, start:stop])
    return np.abs(augmented[:, :-1]).sum(axis=1) * weights[:-1].max() + weights[-1].max()


def box_error(screener, screen, start):
    """Per row of the call, ``E_box`` for the tile starting at ``start``:
    the one error every prescreen stage proves under, the entry step's
    included."""
    slope, offset = screener._box_error[:, start // TILE_CATEGORIES]
    return slope * screen.row_sums + offset


def any_order_scores(augmented, plane):
    """Each row's scores of ``plane``'s columns summed in three orders a
    gathered score may take: a 1-row GEMM, first to last, last to first."""
    products = augmented[:, :, None] * plane[None]
    forward, backward = products[:, 0].copy(), products[:, -1].copy()
    for j in range(1, plane.shape[0]):
        forward += products[:, j]
        backward += products[:, -1 - j]
    one_row = np.concatenate([row[None] @ plane for row in augmented])
    return one_row, forward, backward


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4),
    k=st.integers(1, 6),
    l=st.integers(1, 300),
    magnitudes=st.tuples(*(st.integers(-30, 30) for _ in range(3))),
    bits=st.sampled_from([None, 4]),
    zero_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    row=st.integers(0, 3),
)
def test_no_tile_with_an_entry_above_its_bound_is_skipped(
    rows, k, l, magnitudes, bits, zero_bias, seed, row
):
    rng = np.random.default_rng(seed)
    weight_scale, bias_scale, input_scale = (10.0**power for power in magnitudes)
    # Per-category scales over six decades, so tiles mix magnitudes.
    weight = rng.standard_normal((l, k)) * weight_scale * 10.0 ** rng.uniform(-3, 3, (l, 1))
    # A zero bias leaves tiny products nothing to hide behind: at
    # 1e-30 × 1e-30 every product is subnormal or underflows.
    bias = np.zeros(l) if zero_bias else rng.standard_normal(l) * bias_scale
    augmented = np.ones((rows, k + 1))
    augmented[:, :-1] = rng.standard_normal((rows, k)) * input_scale
    projection = SparseRandomProjection(input_dim=8, output_dim=k, rng=0)
    screener = ScreeningModule(projection, weight, bias, quantization_bits=bits)
    assert screener._tile_box is not None
    ws = Workspace()
    screen = TilePrescreen(screener, augmented, ws)
    screen.reserve(ws)
    tiles = screener.tile_bounds()
    row = row % rows
    for index, (start, stop) in enumerate(tiles):
        exact = screener.score_tile(augmented, start, stop, out=np.empty((rows, stop - start)))
        best = exact.max(axis=1)
        # One row with an entry just above its bound, the rest unbounded:
        # no stage proves that row, so the pass leaves it.
        bound = np.full(rows, np.inf)
        bound[row] = np.nextafter(best[row], -np.inf)
        result = screen.pass_left(ws, index, bound)
        if result is None:
            continue
        assert row in result.rows(index)
        # Every gathered score, in any order, sits within E_box of the
        # tile GEMM's.
        error = box_error(screener, screen, start)[:, None]
        for gathered in any_order_scores(augmented, screener._fused_weight_t[:, start:stop]):
            assert np.all(np.abs(gathered - exact) <= error)


def entry_error_terms(k):
    """The entry step's own error terms before it proved under ``E_box``:
    ``(relative, absolute)`` with ``E_entry = relative · (A·W + B) +
    absolute`` — two any-order float64 sums of ``k + 1`` products are
    within ``2γ_{k+1}`` of their magnitudes plus ``4(k + 1)`` underflows
    of each other, raised by ``2**-20`` of itself.  The oracle ``E_box``
    must cover."""
    n = k + 1
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    slack = 1.0 + 2.0**-20
    return 2.0 * gamma * slack, 4.0 * n * 2.0**-1074 * slack


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 32),
    off=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_error_covers_the_entry_error(k, off, seed):
    """For any axes ``_box_error_terms`` accepts — random orthogonal ones
    moved off orthogonal toward :data:`_BOX_DELTA` — each term of
    ``E_box`` is at least the matching term of ``E_entry``: its slope and
    offset the relative term, its absolute term the absolute one."""
    rng = np.random.default_rng(seed)
    axes = np.linalg.qr(rng.standard_normal((k, k)))[0]
    noise = rng.standard_normal((k, k))
    noise *= 2.0**-30 / np.linalg.norm(noise)
    # δ is k times the largest entry of I − QQᵀ, which moves linearly in a
    # small perturbation: scaled to up to 0.9 of _BOX_DELTA.
    departure = k * np.abs(np.eye(k) - (axes + noise) @ (axes + noise).T).max()
    axes += off * 0.9 * screener_module._BOX_DELTA / departure * noise
    terms = screener_module._box_error_terms(axes)
    assert terms is not None
    slope, offset, absolute = terms
    relative, underflow = entry_error_terms(k)
    assert slope >= relative and offset >= relative and absolute >= underflow


# ----------------------------------------------------------------------
# the box stage: a tile proven empty from its boxes is not prescreened
# ----------------------------------------------------------------------
def box_counts(model, call) -> tuple:
    """``(result, tiles skipped, tiles the box stage skipped, tiles it
    tested)``."""
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        result = call()
    finally:
        model.set_recorder(NULL_RECORDER)
    snapshot = recorder.snapshot()
    counters = snapshot["counters"]
    return (
        result,
        counters.get("pipeline.tiles_skipped", 0),
        counters.get("pipeline.tiles_box_skipped", 0),
        snapshot["histograms"].get("span.streaming.box_tile", {}).get("count", 0),
    )


@pytest.mark.parametrize("mode", SELECTORS)
def test_boxes_skip_after_a_lanes_first_skip(monkeypatch, zipf, mode):
    """The box query is built at tile 1, where the first pass starts, not
    after the call's first skip, as the id's rule had it: the boxes skip
    tiles from tile 1 on, and one ``streaming.box_tile`` span covers a
    pass of one or more tiles."""
    model = build(zipf, mode)
    features = zipf[2]
    _, skipped, box_skipped, passes = box_counts(
        model, lambda: model.forward_streaming(features)
    )
    _, prescreened, _ = tiles_skipped(model, lambda: model.forward_streaming(features))
    # Tiles 1–5, each prescreened from its coarse bounds on.
    assert 0 < box_skipped <= skipped <= prescreened <= TILES - 1
    assert 0 < passes <= prescreened
    _, skipped, box_skipped, tested = box_counts(model, lambda: model.forward(features))
    assert skipped == box_skipped == tested == 0


principal_axes = screener_module._principal_axes


def perturbed_axes(head):
    """Principal axes shrunk off orthogonal by ``2**-30``: then ``I − QQᵀ``
    is ``2**-29 I`` to first order, and each box bound sits ``2**-29 a·w``
    under the score it covers (``aᵀ(I − QQᵀ)w`` with ``a·w`` the bound)
    — far more than every rounding term of ``E_box``, and for every row."""
    return principal_axes(head) * (1.0 - 2.0**-30)


#: Chunks of the last tile, one per row, holding the adversarial entries.
BOX_CHUNKS = (2, 4, 6, 8)


def box_adversarial_model(monkeypatch, mode, call, side, axes):
    """A model whose late boxes are single points: in the last tile, the
    :data:`BOX_CATEGORIES` columns of chunk ``BOX_CHUNKS[r]`` are equal,
    and row ``r`` scores them one float64 ulp above (``side = +1``) or
    below (``-1``) the bound tile 0 leaves — through its weights, so the
    rotation's rounding (and with ``axes = "perturbed"`` its departure
    from orthogonality) moves each box bound by more than that ulp.
    The other rows score those columns near 0, far under the bound."""
    if axes == "perturbed":
        monkeypatch.setattr(screener_module, "_principal_axes", perturbed_axes)
    selector = adversarial_selector(mode)
    bound = tile_0_bound(selector, call)
    projection, weight, bias, classifier, features = adversarial_parts()
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    augmented = screener.prepare_augmented(features)
    # Row r's weights lie along the dual of its input, scaled to score
    # the bound: the other rows' inputs are orthogonal to them.
    duals = np.linalg.inv(augmented[:, :-1]).T * bound
    last = ADVERSARIAL_L - ADVERSARIAL_L % TILE_CATEGORIES
    columns = [last + BOX_CATEGORIES * chunk for chunk in BOX_CHUNKS]
    for dual, column in zip(duals, columns):
        weight[column : column + BOX_CATEGORIES] = dual
        bias[column : column + BOX_CATEGORIES] = 0.0
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    for row, column in enumerate(columns):
        # The float64 score rises with the bias: bisect for the bias
        # whose score is the target, in the fused plane the GEMM reads.
        target = np.nextafter(bound, side * np.inf)
        plane = screener._fused_weight_t
        low, high = -1.0, 1.0
        for _ in range(200):
            middle = (low + high) / 2
            plane[-1, column] = middle
            score = screener.score_tile(augmented, last, ADVERSARIAL_L, out=np.empty((4, 100)))
            value = score[row, column - last]
            if value == target:
                break
            low, high = (middle, high) if value < target else (low, middle)
        assert value == target
        bias[column : column + BOX_CATEGORIES] = middle
    model = ApproximateScreeningClassifier(
        classifier, ScreeningModule(projection, weight, bias, quantization_bits=None), selector
    )
    return model, features, columns, bound


@pytest.mark.parametrize("axes", ("principal", "perturbed"))
@pytest.mark.parametrize("side", (1, -1), ids=("ulp_above", "ulp_below"))
@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_a_box_one_ulp_from_the_bound(monkeypatch, mode, lanes, call, side, axes):
    model, features, columns, bound = box_adversarial_model(
        monkeypatch, mode, call, side, axes
    )
    assert model.screener._tile_box is not None
    force_lanes(monkeypatch, lanes)
    dense = model.forward(features)
    entries = dense.approximate_logits[np.arange(len(features)), columns]
    assert np.all(entries - bound == side * np.spacing(bound))
    if call == "forward_streaming":
        streamed, _, _, tested = box_counts(model, lambda: model.forward_streaming(features))
        assert_streamed_is_dense(streamed, dense)
        kept = [column in row for row, column in zip(streamed.candidates.indices, columns)]
        assert kept == [side > 0] * len(features)
    else:
        (indices, scores), _, _, tested = box_counts(model, lambda: model.top_k(features, K))
        want = rank_dense(dense.logits, K)
        assert np.array_equal(indices, want[0])
        assert np.array_equal(scores, want[1])
    assert_dense_is_the_oracle(model, features, dense)
    # The last tile follows a skipped one: its boxes are tested.
    assert tested > 0


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    k=st.integers(1, 6),
    l=st.integers(1, 300),
    head=st.booleans(),
    magnitudes=st.tuples(*(st.integers(-30, 30) for _ in range(3))),
    bits=st.sampled_from([None, 4]),
    zero_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    row=st.integers(0, 3),
)
def test_no_tile_with_an_entry_above_its_bound_is_box_skipped(
    rows, k, l, head, magnitudes, bits, zero_bias, seed, row
):
    rng = np.random.default_rng(seed)
    weight_scale, bias_scale, input_scale = (10.0**power for power in magnitudes)

    def weights(count):
        # Low-rank-ish rows in axes of their own, scales over six decades.
        axes = np.linalg.qr(rng.standard_normal((k, k)))[0]
        spread = 10.0 ** -np.arange(k)
        scales = weight_scale * 10.0 ** rng.uniform(-3, 3, (count, 1))
        return (rng.standard_normal((count, k)) * spread) @ axes.T * scales

    # With ``head``, tile 0 (whose Gram gives the axes) and the columns
    # after it lie along different axes.
    weight = np.vstack([weights(TILE_CATEGORIES), weights(l)]) if head else weights(l)
    bias = (
        np.zeros(len(weight)) if zero_bias else rng.standard_normal(len(weight)) * bias_scale
    )
    augmented = np.ones((rows, k + 1))
    augmented[:, :-1] = rng.standard_normal((rows, k)) * input_scale
    projection = SparseRandomProjection(input_dim=8, output_dim=k, rng=0)
    screener = ScreeningModule(projection, weight, bias, quantization_bits=bits)
    assert screener._tile_box is not None
    ws = Workspace()
    screen = TilePrescreen(screener, augmented, ws)
    screen.reserve(ws)
    row = row % rows
    for index, (start, stop) in enumerate(screener.tile_bounds()):
        exact = screener.score_tile(augmented, start, stop, out=np.empty((rows, stop - start)))
        best = exact.max(axis=1)
        bound = np.full(rows, np.inf)
        bound[row] = np.nextafter(best[row], -np.inf)
        result = screen.pass_left(ws, index, bound)
        if result is None:
            continue
        assert row in result.rows(index)
        top = np.nextafter(best.max(), -np.inf)
        assert len(screen.pass_left(ws, index, top).rows(index)) > 0
        query, error = screen._query, screen._errors
        # Boxed: each column's box bound, plus E_box, is at least its
        # float64 score, and E_box is a rounding error, not a vacuous bound.
        chunks = screener._tile_box[:, start // BOX_CATEGORIES : -(-stop // BOX_CATEGORIES)]
        per_chunk = query @ chunks
        per_column = np.repeat(per_chunk, BOX_CATEGORIES, axis=1)[:, : stop - start]
        assert np.all(exact <= per_column + error[index][:, None])
        reach = tile_reach(screener, augmented, start, stop)
        assert np.all(error[index] <= 1e-5 * reach + 1e-40)


def test_axes_that_cannot_bound_leave_the_float32_stage(zipf):
    """A screener whose axes cannot bound has no boxes and prescreens
    nothing — the entry step names its columns from the boxes — and its
    outputs are dense ``forward``'s.  (The id keeps the name of the stage
    such a screener once fell back to.)"""
    k = 4
    assert screener_module._box_error_terms(np.eye(k)) is not None
    assert screener_module._box_error_terms(np.eye(k) * (1 + 2.0**-10)) is None
    assert screener_module._box_error_terms(np.full((k, k), np.nan)) is None
    task, fit, features = zipf
    weight = fit.weight.copy()
    weight[0, 0] = 1e200  # the head tile's Gram overflows
    screener = ScreeningModule(fit.projection, weight, fit.bias, quantization_bits=None)
    assert screener._tile_box is None
    model = ApproximateScreeningClassifier(
        task.classifier, screener, CandidateSelector("top_m", num_candidates=M)
    )
    streamed, skipped, _, tested = box_counts(model, lambda: model.forward_streaming(features))
    assert skipped == tested == 0
    assert_streamed_is_dense(streamed, model.forward(features))


# ----------------------------------------------------------------------
# rows, not tiles: each stage runs on the rows the one before it left
# ----------------------------------------------------------------------
#: The adversarial row: not row 0, so a stage that took its operands from
#: rows ``0…n−1`` instead of the rows it was given tests the wrong row.
ROW = 2
#: The box of the last tile that holds the entry step's adversary.
ENTRY_CHUNK = 5


def row_counts(model, call) -> tuple:
    """``(result, rows compared against coarse bounds, rows box-tested,
    rows tested on their failing boxes' columns)`` of one call."""
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        result = call()
    finally:
        model.set_recorder(NULL_RECORDER)
    counters = recorder.snapshot()["counters"]
    return (result,) + tuple(
        counters.get(f"pipeline.{name}", 0)
        for name in ("rows_coarse_tested", "rows_box_tested", "rows_entry_tested")
    )


def row_adversarial_model(monkeypatch, mode, call, side, axes, stage):
    """A model whose last tile holds entries only row :data:`ROW` scores
    near the bound tile 0 leaves: one float64 ulp above it (``side =
    +1``) or below (``-1``), through weights along the dual of that row's
    input, so every other row scores them 1 under the bound.

    ``stage = "coarse"``: every column of the last tile is that entry, so
    its coarse box is a single point — the other rows are proven by their
    coarse bounds, and row ``ROW``'s sits within ``E_box`` of its score
    (with ``axes = "perturbed"``, ``2**-29`` under it).  ``stage =
    "entry"``: only box :data:`ENTRY_CHUNK` is, beside the random
    columns — the coarse box is loose, the boxes prove every row but
    ``ROW``, which fails that box alone, and the entry step scores its
    columns one float64 ulp from the bound."""
    if axes == "perturbed":
        monkeypatch.setattr(screener_module, "_principal_axes", perturbed_axes)
    selector = adversarial_selector(mode)
    bound = tile_0_bound(selector, call)
    projection, weight, bias, classifier, features = adversarial_parts()
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    augmented = screener.prepare_augmented(features)
    last = ADVERSARIAL_L - ADVERSARIAL_L % TILE_CATEGORIES
    if stage == "coarse":
        columns = np.arange(last, ADVERSARIAL_L)
    else:
        columns = last + BOX_CATEGORIES * ENTRY_CHUNK + np.arange(BOX_CATEGORIES)
    weight[columns] = np.linalg.inv(augmented[:, :-1]).T[ROW]
    bias[columns] = bound - 1.0
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    # The float64 score rises with the bias: bisect for the bias whose
    # score is the target, in the fused plane the GEMM reads.
    target = np.nextafter(bound, side * np.inf)
    plane = screener._fused_weight_t
    low, high = bound - 2.0, bound
    for _ in range(200):
        middle = (low + high) / 2
        plane[-1, columns] = middle
        scores = screener.score_tile(augmented, last, ADVERSARIAL_L, out=np.empty((4, 100)))
        value = scores[ROW, columns[0] - last]
        if value == target:
            break
        low, high = (middle, high) if value < target else (low, middle)
    assert value == target
    bias[columns] = middle
    model = ApproximateScreeningClassifier(
        classifier, ScreeningModule(projection, weight, bias, quantization_bits=None), selector
    )
    return model, features, columns, bound


def assert_only_the_row_keeps_its_entries(model, features, columns, bound, side, call):
    """The outputs are dense ``forward``'s and the oracle's; returns the
    rows each stage tested."""
    dense = model.forward(features)
    entries = dense.approximate_logits[:, columns]
    assert np.all(entries[ROW] - bound == side * np.spacing(bound))
    assert np.all(np.delete(entries, ROW, axis=0) < bound - 0.5)
    if call == "forward_streaming":
        streamed, coarse, box, entry = row_counts(
            model, lambda: model.forward_streaming(features)
        )
        assert_streamed_is_dense(streamed, dense)
        kept = [bool(np.isin(columns, row).any()) for row in streamed.candidates.indices]
        assert kept == [side > 0 and row == ROW for row in range(len(features))]
    else:
        (indices, scores), coarse, box, entry = row_counts(
            model, lambda: model.top_k(features, K)
        )
        want = rank_dense(dense.logits, K)
        assert np.array_equal(indices, want[0])
        assert np.array_equal(scores, want[1])
    assert_dense_is_the_oracle(model, features, dense)
    # The last tile follows a skipped one: its coarse bounds are compared.
    assert coarse > 0
    return coarse, box, entry


@pytest.mark.parametrize("axes", ("principal", "perturbed"))
@pytest.mark.parametrize("side", (1, -1), ids=("ulp_above", "ulp_below"))
@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_one_row_one_ulp_from_the_bound_the_rest_proven_coarse(
    monkeypatch, mode, lanes, call, side, axes
):
    model, features, columns, bound = row_adversarial_model(
        monkeypatch, mode, call, side, axes, "coarse"
    )
    # The other rows are proven by their coarse bounds alone, and the row
    # is left by every stage, each run on it alone.
    result, scored = last_tile_pass(model, features, bound)
    assert result.box_tested == result.entry_tested == 1
    assert {row for row, _ in scored} == {ROW}
    assert list(result.rows(result.first)) == [ROW]

    force_lanes(monkeypatch, lanes)
    _, box, _ = assert_only_the_row_keeps_its_entries(
        model, features, columns, bound, side, call
    )
    # Past the first skip every middle tile is proven coarse for every
    # row: the row is the only one any box is tested on.
    assert box == 1


@pytest.mark.parametrize("side", (1, -1), ids=("ulp_above", "ulp_below"))
@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_one_row_left_to_the_float32_stage_one_ulp_from_the_bound(
    monkeypatch, mode, lanes, call, side
):
    """The entry step's adversary: an entry one float64 ulp from the
    bound, inside the one box its row fails.  The step scores exactly
    that box's columns, and within ``E_entry`` of the bound, on either
    side, leaves the row to the float64 GEMM — outputs are dense
    ``forward``'s, and the entry above the bound is kept.  (The id names
    the float32 stage this step replaced.)"""
    model, features, columns, bound = row_adversarial_model(
        monkeypatch, mode, call, side, "principal", "entry"
    )
    result, scored = last_tile_pass(model, features, bound)
    assert result.box_tested >= 1 and result.entry_tested == 1
    assert scored == [(ROW, ENTRY_CHUNK)]
    assert list(result.rows(result.first)) == [ROW]

    force_lanes(monkeypatch, lanes)
    _, box, entry = assert_only_the_row_keeps_its_entries(
        model, features, columns, bound, side, call
    )
    assert box >= result.box_tested
    assert entry >= 1


def narrow_box_model(mode, call):
    """A model whose last tile's last box — 4 columns, the tile being 100
    wide — fails for every row, though each of its columns scores 0.5
    under the bound tile 0 leaves: the first takes a weight every row
    scores 1 and a bias 1.5 under the bound, the other three no weight
    and a bias 0.5 under it, and a box bound adds the largest weight
    term to the largest bias.  The entry step proves every row on those
    4 columns, and so the tile is skipped."""
    selector = adversarial_selector(mode)
    bound = tile_0_bound(selector, call)
    projection, weight, bias, classifier, features = adversarial_parts()
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    duals = np.linalg.inv(screener.prepare_augmented(features)[:, :-1]).T
    first = ADVERSARIAL_L - ADVERSARIAL_L % BOX_CATEGORIES
    weight[first] = duals.sum(axis=0)
    bias[first] = bound - 1.5
    weight[first + 1 :] = 0.0
    bias[first + 1 :] = bound - 0.5
    model = ApproximateScreeningClassifier(
        classifier, ScreeningModule(projection, weight, bias, quantization_bits=None), selector
    )
    return model, features, bound


def narrow_box_pass(model, features, bound, scratch=None):
    """A pass over the model's last tile, box-tested on every row, each
    row failing the tile's last box (and, with ``scratch``, the prescreen's
    ``(pairs, share)`` set to it first); returns what it left."""
    result, scored = last_tile_pass(model, features, bound, scratch)
    every = list(range(len(features)))
    assert result.box_tested == result.entry_tested == len(every)
    last_box = (model.num_categories - 1) % TILE_CATEGORIES // BOX_CATEGORIES
    assert set(scored) <= {(row, last_box) for row in every}
    return result, scored


@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("mode", SELECTORS)
def test_a_narrow_last_box_is_proven_on_its_own_columns(mode, call):
    model, features, bound = narrow_box_model(mode, call)
    result, scored = narrow_box_pass(model, features, bound)
    assert len(scored) == len(features)
    assert len(result.rows(result.first)) == 0
    dense = model.forward(features)
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        if call == "forward_streaming":
            assert_streamed_is_dense(model.forward_streaming(features), dense)
        else:
            indices, scores = model.top_k(features, K)
            want = rank_dense(dense.logits, K)
            assert np.array_equal(indices, want[0])
            assert np.array_equal(scores, want[1])
    finally:
        model.set_recorder(NULL_RECORDER)
    # Tile 0 on every row, and every later tile skipped.
    counters = recorder.snapshot()["counters"]
    assert counters["pipeline.rows_float64_scored"] == len(features)
    assert counters["pipeline.tiles_skipped"] == len(model.screener.tile_bounds()) - 1
    assert counters["pipeline.rows_entry_tested"] == len(features)


@pytest.mark.parametrize("mode", SELECTORS)
def test_failing_boxes_past_the_scratch_leave_their_rows(mode):
    """The entry step scores every row's failing boxes — one per row
    here — when they fit its scratch (``pairs``), and else only those of
    the rows whose own fit a row of it (``share``): the rest are left
    unproven."""
    model, features, bound = narrow_box_model(mode, "forward_streaming")
    every = list(range(len(features)))
    for pairs, share, left in ((4, 0, []), (3, 1, []), (3, 0, every), (0, 0, every)):
        result, _ = narrow_box_pass(model, features, bound, scratch=(pairs, share))
        assert list(result.rows(result.first)) == left, (pairs, share)


#: Columns per late tile holding row :data:`ROW`'s entries above the bound.
LONE_COLUMNS = 50


def lone_row_model(mode, call):
    """A model whose last two tiles each hold :data:`LONE_COLUMNS`
    columns that row :data:`ROW` scores 0.1 to 0.9 above the bound tile
    0 leaves, through multiples of the dual of its input and no bias, and
    every other row about 0.  Both tiles are prescreened — the first
    after a skipped tile, the second after a tile whose prescreen proved
    rows — and each leaves
    :data:`ROW` alone, though the first records.  No bias dominates the
    sum, so a 1-row GEMM's summation order shows in the scores' bits."""
    selector = adversarial_selector(mode)
    bound = tile_0_bound(selector, call)
    projection, weight, bias, classifier, features = adversarial_parts()
    screener = ScreeningModule(projection, weight, bias, quantization_bits=None)
    dual = np.linalg.inv(screener.prepare_augmented(features)[:, :-1]).T[ROW]
    rng = np.random.default_rng(8)
    last = ADVERSARIAL_L - ADVERSARIAL_L % TILE_CATEGORIES
    # The last tile's entries top the first's: a cut after the first
    # raises a floor to at most the best of them.
    for tile, rise in ((last - TILE_CATEGORIES, (0.1, 0.3)), (last, (0.6, 0.9))):
        columns = tile + 2 * np.arange(LONE_COLUMNS)
        weight[columns] = (bound + rng.uniform(*rise, LONE_COLUMNS))[:, None] * dual
        bias[columns] = 0.0
    model = ApproximateScreeningClassifier(
        classifier, ScreeningModule(projection, weight, bias, quantization_bits=None), selector
    )
    return model, features


@pytest.mark.parametrize("call", ("forward_streaming", "top_k"))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_a_lone_row_left_after_a_recording_tile(monkeypatch, mode, lanes, call):
    model, features = lone_row_model(mode, call)
    force_lanes(monkeypatch, lanes)
    dense = model.forward(features)
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        if call == "forward_streaming":
            assert_streamed_is_dense(model.forward_streaming(features), dense)
        else:
            indices, scores = model.top_k(features, K)
            want = rank_dense(dense.logits, K)
            assert np.array_equal(indices, want[0])
            assert np.array_equal(scores, want[1])
    finally:
        model.set_recorder(NULL_RECORDER)
    assert_dense_is_the_oracle(model, features, dense)
    # Tile 0 on every row, the two late tiles on the row alone, and the
    # middle tiles skipped.
    counters = recorder.snapshot()["counters"]
    assert counters["pipeline.rows_float64_scored"] == len(features) + 2
    assert counters["pipeline.tiles_skipped"] == len(model.screener.tile_bounds()) - 3


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 4),
    k=st.integers(1, 6),
    l=st.integers(1, 3 * COARSE_CATEGORIES),
    head=st.booleans(),
    magnitudes=st.tuples(*(st.integers(-30, 30) for _ in range(3))),
    bits=st.sampled_from([None, 4]),
    zero_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarse_bounds_cover_their_boxes_and_columns(
    rows, k, l, head, magnitudes, bits, zero_bias, seed
):
    rng = np.random.default_rng(seed)
    weight_scale, bias_scale, input_scale = (10.0**power for power in magnitudes)
    count = TILE_CATEGORIES + l if head else l
    spread = 10.0 ** -np.arange(k)
    weight = (
        rng.standard_normal((count, k)) * spread * weight_scale
        * 10.0 ** rng.uniform(-3, 3, (count, 1))
    )
    bias = np.zeros(count) if zero_bias else rng.standard_normal(count) * bias_scale
    augmented = np.ones((rows, k + 1))
    augmented[:, :-1] = rng.standard_normal((rows, k)) * input_scale
    projection = SparseRandomProjection(input_dim=8, output_dim=k, rng=0)
    screener = ScreeningModule(projection, weight, bias, quantization_bits=bits)
    assert screener._tile_box is not None
    ws = Workspace()
    screen = TilePrescreen(screener, augmented, ws)
    screen.reserve(ws)
    tiles = screener.tile_bounds()
    screen._build_query(ws, 0)
    query, error, coarse_top = screen._query, screen._errors, screen._coarse
    boxes, coarse = screener._tile_box, screener._tile_coarse
    per_coarse = COARSE_CATEGORIES // BOX_CATEGORIES
    per_tile = TILE_CATEGORIES // COARSE_CATEGORIES
    for index, (start, stop) in enumerate(tiles):
        first, end = start // BOX_CATEGORIES, -(-stop // BOX_CATEGORIES)
        used = -(-(stop - start) // COARSE_CATEGORIES)
        for j in range(per_tile):
            # Each coarse box is its boxes' extremes, exactly; a last
            # tile's spare coarse boxes repeat its last one.
            low = first + min(j, used - 1) * per_coarse
            chunk = boxes[:, low : min(low + per_coarse, end)]
            box = coarse[index * per_tile + j]
            assert np.array_equal(box[:k], chunk[:k].max(axis=1))
            assert np.array_equal(box[k:-1], chunk[k:-1].min(axis=1))
            assert box[-1] == chunk[-1].max()
            # So every coarse bound is at least each box bound inside it,
            # summed term by term in the same order.
            spread_out = np.repeat(box[:, None], chunk.shape[1], axis=1)
            coarse_bound = (query[:, :, None] * spread_out[None]).sum(axis=1)
            box_bound = (query[:, :, None] * chunk[None]).sum(axis=1)
            assert np.all(coarse_bound >= box_bound)
        if not (screen.in_range and screener._tile_in_range[index]):
            continue
        # Every column sits under its tile's coarse bound plus E_box, and
        # just under each row's best, a pass proves no row of the tile.
        exact = screener.score_tile(augmented, start, stop, out=np.empty((rows, stop - start)))
        assert np.all(exact.max(axis=1) <= coarse_top[index] + error[index])
        bound = np.nextafter(exact.max(axis=1), -np.inf)
        result = screen.pass_left(ws, index, bound)
        assert (result.box_tested, list(result.rows(index))) == (rows, list(range(rows)))


@pytest.mark.parametrize("lanes", (1, 2))
def test_warm_calls_allocate_nothing_whichever_rows_a_stage_leaves(monkeypatch, lanes):
    """One arena, two batches: on one the coarse stage (then, on a second
    model, the box stage) leaves a single row — which the next stage
    tests, the entry step on its failing box's columns — on the other
    every row.  Warmed on the second, which gathers nothing, the first
    allocates nothing either: the call's scratch is sized at its full
    row count."""
    force_lanes(monkeypatch, lanes)
    for stage, counted in (("coarse", 2), ("entry", 3)):
        model, features, _, _ = row_adversarial_model(
            monkeypatch, "top_m", "forward_streaming", -1, "principal", stage
        )
        every = features[[ROW] * len(features)]
        model.forward_streaming(every)
        settled = model.workspace.allocations
        tested = {}
        for batch, name in (
            (features, "one"), (every, "every"), (features, "one"), (every, "every")
        ):
            rows = row_counts(model, lambda: model.forward_streaming(batch))
            tested[name] = rows[counted]
        assert tested == {"one": 1, "every": len(features)}, stage
        assert model.workspace.allocations == settled, stage
    # Passes of any length: on the lone-row model the row's batch is left
    # whole by the first late tile, where its pass ends, and the next tile
    # is scored unscreened; the batch beside it is covered by one pass
    # from tile 1 to the last.  Warmed on the first, the second allocates
    # nothing either: a pass's scratch is sized for every tile.
    model, features = lone_row_model("top_m", "forward_streaming")
    every = features[[ROW] * len(features)]
    model.forward_streaming(every)
    settled = model.workspace.allocations
    lengths = {}
    for batch, name in ((every, "every"), (features, "one"), (every, "every"), (features, "one")):
        _, passes = spied_passes(lambda: model.forward_streaming(batch))
        lengths[name] = [result.stop - result.first for _, _, result in passes]
    tiles = len(model.screener.tile_bounds())
    assert lengths == {"one": [tiles - 1], "every": [tiles - 2]}
    assert model.workspace.allocations == settled


# ----------------------------------------------------------------------
# passes: one bound, many tiles, and a stop
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def priors():
    """Per prior, a task, its screener and scores to calibrate on:
    ``make_task``'s Zipf log-prior by index, and a flat one, under which a
    tile's coarse bounds and boxes seldom prove a row."""
    fitted = {}
    for prior, exponent in (("zipf", 1.0), ("flat", 0.0)):
        task = make_task(num_categories=L, hidden_dim=16, rng=3, zipf_exponent=exponent)
        screener = train_screener(
            task.classifier,
            task.sample_features(64, rng=1),
            config=ScreeningConfig(projection_dim=4),
            solver="lstsq",
            rng=2,
        )
        fitted[prior] = task, screener, screener.approximate_logits(task.sample_features(8, rng=7))
    return fitted


def prior_model(priors, prior, mode, candidates=M):
    task, screener, calibration = priors[prior]
    selector = CandidateSelector(mode, num_candidates=candidates)
    if mode == "threshold":
        selector.calibrate(calibration)
    return ApproximateScreeningClassifier(task.classifier, screener, selector), task


@settings(max_examples=40, deadline=None)
@given(
    prior=st.sampled_from(("zipf", "flat")),
    mode=st.sampled_from(SELECTORS),
    call=st.sampled_from(("forward_streaming", "top_k")),
    rows=st.sampled_from((1, 2, 64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_pass_leaves_every_row_above_its_bound(priors, prior, mode, call, rows, seed):
    """In every tile a pass covers, each row with a float64 score above the
    bound the pass took is among the rows it leaves — and the call's
    outputs are dense ``forward``'s."""
    model, task = prior_model(priors, prior, mode)
    features = task.sample_features(rows, rng=seed)
    if call == "forward_streaming":
        streamed, passes = spied_passes(lambda: model.forward_streaming(features))
    else:
        (indices, values), passes = spied_passes(lambda: model.top_k(features, K))
    dense = model.forward(features)
    scores = dense.approximate_logits
    tiles = model.screener.tile_bounds()
    assert any(result is not None for _, _, result in passes)
    for first, bound, result in passes:
        if result is None:
            continue
        assert result.first == first < result.stop
        for index in range(first, result.stop):
            start, stop = tiles[index]
            above = np.flatnonzero(~(scores[:, start:stop].max(axis=1) <= bound))
            assert set(above.tolist()) <= set(result.rows(index).tolist()), index
    if call == "forward_streaming":
        assert_streamed_is_dense(streamed, dense)
    else:
        want = rank_dense(dense.logits, K)
        assert np.array_equal(indices, want[0])
        assert np.array_equal(values, want[1])


@pytest.mark.parametrize("rows", (1, 2))
def test_a_pass_stops_after_the_first_tile_its_boxes_prove_nothing_on(priors, rows):
    """On the flat prior with room for thousands of candidates, every tile
    holds entries above the threshold for every row, so neither the
    coarse bounds nor the boxes prove a row of any: the call's one pass
    covers tile 1 alone, box-tested on every row, and — each tile
    recording, and none proven — no later tile is prescreened."""
    model, task = prior_model(priors, "flat", "threshold", candidates=2000)
    features = task.sample_features(rows, rng=11)
    recorder = Recorder()
    model.set_recorder(recorder)
    try:
        streamed, passes = spied_passes(lambda: model.forward_streaming(features))
    finally:
        model.set_recorder(NULL_RECORDER)
    assert [(result.first, result.stop) for _, _, result in passes] == [(1, 2)]
    counters = recorder.snapshot()["counters"]
    assert counters["pipeline.rows_box_tested"] == counters["pipeline.rows_coarse_tested"] == rows
    assert counters["pipeline.tiles_skipped"] == 0
    assert_streamed_is_dense(streamed, model.forward(features))


def test_a_pass_under_an_older_floor_stays_sound():
    """On the top-m lone-row model, ``top_k``'s one pass covers every tile
    past tile 0 under tile 0's floor.  Folding the first late tile raises
    the row's floor above the pass's; the last tile is then folded under
    the higher floor, on the rows the pass left under the lower one —
    which hold every row above either — and the ranking is the dense
    one."""
    model, features = lone_row_model("top_m", "top_k")
    floors = {}
    update = BlockwiseThreshold.update

    def spy(reducer, start, block, rows=None):
        floors[start // TILE_CATEGORIES] = np.array(reducer.bound, dtype=float)
        return update(reducer, start, block, rows)

    with mock.patch.object(BlockwiseThreshold, "update", spy):
        (indices, values), passes = spied_passes(lambda: model.top_k(features, K))
    last = len(model.screener.tile_bounds()) - 1
    [(first, bound, result)] = passes
    assert (first, result.stop) == (1, last + 1)
    assert floors[last][ROW] > bound[ROW]
    dense = model.forward(features)
    best = dense.approximate_logits[:, last * TILE_CATEGORIES :].max(axis=1)
    assert list(np.flatnonzero(best > floors[last])) == [ROW]
    assert list(result.rows(last)) == [ROW]
    want = rank_dense(dense.logits, K)
    assert np.array_equal(indices, want[0])
    assert np.array_equal(values, want[1])
