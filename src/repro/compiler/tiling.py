"""Tiling of the screening matvec onto the 256 B on-DIMM buffers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.enmc.config import ENMCConfig
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TilePlan:
    """How the ``(l, k)`` screening weight splits into row tiles."""

    num_categories: int
    projection_dim: int
    rows_per_tile: int

    @property
    def num_tiles(self) -> int:
        return -(-self.num_categories // self.rows_per_tile)

    def tile_rows(self, tile_index: int) -> range:
        """Row indices covered by ``tile_index``."""
        if not 0 <= tile_index < self.num_tiles:
            raise IndexError(f"tile {tile_index} out of range (0..{self.num_tiles - 1})")
        start = tile_index * self.rows_per_tile
        stop = min(start + self.rows_per_tile, self.num_categories)
        return range(start, stop)

    def __iter__(self):
        return (self.tile_rows(i) for i in range(self.num_tiles))


def plan_screening_tiles(
    num_categories: int,
    projection_dim: int,
    config: ENMCConfig,
) -> TilePlan:
    """Choose the row-tile height from the Screener buffer capacities.

    The weight buffer (256 B at INT4 = 512 elements) holds one
    ``rows × k`` tile; the projected feature (``k`` INT4 values) must
    fit the feature buffer; the PSUM buffer (32-bit accumulators) caps
    rows per tile as well.
    """
    check_positive("num_categories", num_categories)
    check_positive("projection_dim", projection_dim)

    feature_capacity = config.screener_buffer_bytes * 8 // config.screener_bits
    if projection_dim > feature_capacity:
        raise ValueError(
            f"projection dim {projection_dim} exceeds the feature buffer "
            f"({feature_capacity} INT{config.screener_bits} elements); "
            "tile the projection dimension or enlarge the buffer"
        )
    weight_capacity = config.screener_buffer_bytes * 8 // config.screener_bits
    rows_by_weight = max(1, weight_capacity // projection_dim)
    rows_by_psum = max(1, config.psum_buffer_bytes // 4)
    rows_per_tile = min(rows_by_weight, rows_by_psum, num_categories)
    return TilePlan(
        num_categories=num_categories,
        projection_dim=projection_dim,
        rows_per_tile=rows_per_tile,
    )
