"""The differential matrix: every bit-identity contract on one drawn
configuration.

One Hypothesis test draws a configuration — a model of the shared zoo
(``conftest.py``), the batch's row count, feature dtype and content, the
selection block and ``k`` — and ``contracts.check_configuration`` runs
every op (``forward``, ``forward_streaming``, ``top_k``, ``predict``) on
every backend of that model and asserts every contract: dense ≡
streaming ≡ the per-row oracle, ``top_k`` / ``predict`` ≡ ranking the
dense plane, process-parallel ≡ sequential, n lanes ≡ one lane,
recorder on ≡ off, quantized ≡ FP64 candidates, memory-mapped ≡
resident, and front-door replies ≡ the backend on the replayed
micro-batches with the result cache off and on.

Every corner the per-suite grids used to enumerate is an ``@example``
here, and a named test in the suite of its contract.  Each sharded
key's worker fleet starts once per module, when first drawn.
"""

import pytest
from conftest import SHARDED_KEYS, SINGLE_KEYS
from contracts import check_configuration
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.timeout(900)

ROWS = (1, 2, 9, 64)
#: The pool's first rows, one pool row repeated, or Gaussian noise.
CONTENTS = ("pool", "repeat", "noise")
#: Selection widths: a ragged prime, an absolute-aligned width that
#: straddles the tile boundary (a multiple of 8,192), wider than any model.
BLOCKS = (None, 7, 5_000, 50_000)
KS = ("1", "m", "m+5", "width")


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(SINGLE_KEYS + SHARDED_KEYS),
    rows=st.sampled_from(ROWS),
    dtype=st.sampled_from(("float64", "float32")),
    content=st.sampled_from(CONTENTS),
    seed=st.integers(0, 2**16),
    block=st.sampled_from(BLOCKS),
    k=st.sampled_from(KS),
)
# Ties on both sides of the tile boundary, runner-ups included.
@example(("multi", "tied", "top_m", "fp64"), 9, "float64", "pool", 0, 5_000, "m+5")
@example(("multi", "tied", "threshold", "int8"), 9, "float32", "pool", 0, 7, "width")
# Fewer than k rejected: the fullest row keeps four entries at or under
# the threshold, the others fewer, while k asks for one or eleven.
@example(("multi", "tied", "few_rejected", "fp64"), 9, "float64", "pool", 0, None, "1")
@example(("single", "tied", "few_rejected", "int8_mmap"), 9, "float64", "pool", 0, 7, "m+5")
# A threshold that selects nothing: the mixed plane is the approximate one.
@example(("multi", "tied", "nothing", "fp64"), 9, "float64", "pool", 0, 5_000, "1")
@example(("single", "tied", "nothing", "int8"), 2, "float32", "repeat", 3, None, "width")
# Zeroed scores: every entry ties.
@example(("multi", "zeroed", "top_m", "fp64"), 9, "float64", "noise", 1, 5_000, "width")
@example(("single", "zeroed", "all_rejected", "fp64"), 9, "float64", "pool", 0, 7, "m")
@example(("multi", "zeroed", "none_rejected", "int8_mmap"), 2, "float64", "pool", 0, None, "m+5")
# A one-wide selection block (every column its own block).
@example(("single", "trained", "threshold", "int8"), 9, "float64", "pool", 0, 1, "m+5")
# One row; float32 features; the trained screener, where tiles are skipped.
@example(("multi", "trained", "threshold", "fp64"), 1, "float64", "pool", 0, 5_000, "m")
@example(("multi", "trained", "top_m", "int8_mmap"), 64, "float32", "noise", 2, None, "m+5")
@example(("multi", "trained", "threshold", "float16"), 64, "float64", "pool", 0, 7, "m")
# Every plan through its worker fleet.
@example(("u1", "trained", "top_m", "fp64"), 9, "float64", "pool", 0, 5_000, "width")
@example(("u2", "trained", "threshold", "fp64"), 64, "float32", "pool", 0, None, "m")
@example(("u4", "trained", "top_m", "int8"), 2, "float64", "noise", 4, None, "m+5")
@example(("balanced", "trained", "threshold", "int8"), 9, "float32", "repeat", 5, 5_000, "1")
@example(("hot", "trained", "top_m", "fp64"), 9, "float64", "pool", 0, 7, "m+5")
@example(("replica", "trained", "threshold", "fp64"), 9, "float64", "pool", 0, None, "m")
@example(("u2", "tied", "top_m", "int8"), 9, "float32", "pool", 0, 5_000, "width")
@example(("u2", "tied", "few_rejected", "fp64"), 2, "float64", "pool", 0, None, "m+5")
@example(("u2", "tied", "nothing", "fp64"), 1, "float64", "pool", 0, 7, "m")
@example(("u2", "zeroed", "top_m", "fp64"), 9, "float32", "noise", 6, 50_000, "width")
def test_every_op_on_every_backend_keeps_every_contract(
    zoo, engines, key, rows, dtype, content, seed, block, k
):
    # 64 rows ranked over a whole shard is a million entries a call; nine
    # rows take the same code path.
    assume(rows < 64 or k != "width")
    check_configuration(zoo, engines, key, rows, dtype, content, seed, block, k)
