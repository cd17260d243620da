"""Load normalisation for shard plans.

``normalize_loads`` turns non-negative per-shard load weights into
fractions summing to 1; ``ShardPlan(loads=...)`` stores its loads
through it. (The module keeps its name from when it also held the
replica autoscaler's tests; the autoscaler is gone, the load math stays.)
"""

import pytest

from repro.distributed.sharding import normalize_loads


class TestLoadHelpers:
    def test_normalize_loads_fractions(self):
        assert normalize_loads([2.0, 1.0, 1.0]) == (0.5, 0.25, 0.25)

    def test_normalize_zero_mass_degrades_to_uniform(self):
        assert normalize_loads([0.0, 0.0]) == (0.5, 0.5)

    def test_normalize_rejects_bad_loads(self):
        with pytest.raises(ValueError):
            normalize_loads([])
        with pytest.raises(ValueError):
            normalize_loads([1.0, -0.1])
        with pytest.raises(ValueError):
            normalize_loads([1.0, float("nan")])
