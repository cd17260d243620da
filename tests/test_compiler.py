import numpy as np
import pytest

from repro.compiler import compile_screened_classification, plan_screening_tiles
from repro.compiler.tiling import TilePlan
from repro.enmc.config import ENMCConfig, DEFAULT_CONFIG
from repro.isa.opcodes import Opcode


class TestTilePlan:
    def test_rows_per_tile_from_buffers(self):
        # 256 B at INT4 = 512 elements; k=16 → 32 rows, capped by PSUM
        # (256 B / 4 B = 64 rows).
        plan = plan_screening_tiles(1000, 16, DEFAULT_CONFIG)
        assert plan.rows_per_tile == 32

    def test_psum_caps_rows(self):
        config = ENMCConfig(psum_buffer_bytes=64)  # only 16 accumulators
        plan = plan_screening_tiles(1000, 4, config)
        assert plan.rows_per_tile == 16

    def test_num_tiles_ceiling(self):
        plan = TilePlan(num_categories=100, projection_dim=16, rows_per_tile=32)
        assert plan.num_tiles == 4

    def test_tile_rows_ranges(self):
        plan = TilePlan(num_categories=70, projection_dim=16, rows_per_tile=32)
        ranges = list(plan)
        assert ranges[0] == range(0, 32)
        assert ranges[-1] == range(64, 70)

    def test_tile_index_out_of_range(self):
        plan = TilePlan(num_categories=70, projection_dim=16, rows_per_tile=32)
        with pytest.raises(IndexError):
            plan.tile_rows(5)

    def test_projection_dim_exceeding_buffer_rejected(self):
        with pytest.raises(ValueError, match="feature buffer"):
            plan_screening_tiles(100, 4096, DEFAULT_CONFIG)


class TestLowering:
    @pytest.fixture(scope="class")
    def kernel(self, small_task=None):
        from repro.core import ScreeningConfig, train_screener
        from repro.data import make_task

        task = make_task(num_categories=300, hidden_dim=32, rng=2)
        screener = train_screener(
            task.classifier, task.sample_features(128),
            config=ScreeningConfig(projection_dim=8), solver="lstsq", rng=1,
        )
        feature = task.sample_features(1)[0]
        return compile_screened_classification(
            task.classifier, screener, feature, threshold=0.0
        ), task, screener

    def test_program_validates(self, kernel):
        compiled, _, _ = kernel
        compiled.program.validate()

    def test_tile_structure(self, kernel):
        compiled, _, _ = kernel
        tiles = compiled.plan.num_tiles
        # Per tile: LDR + MUL_ADD + MOVE + RETURN + FILTER.
        assert compiled.program.count(Opcode.MUL_ADD_INT4) == tiles
        assert compiled.program.count(Opcode.FILTER) == tiles
        assert compiled.program.count(Opcode.RETURN) == tiles + 1

    def test_memory_image_binds_all_tiles(self, kernel):
        compiled, task, _ = kernel
        loads = compiled.program.dram_loads
        for load in loads:
            array, bits = compiled.memory.fetch(load.address)
            assert array.size > 0

    def test_feature_dim_checked(self, kernel):
        _, task, screener = kernel
        with pytest.raises(ValueError, match="feature dim"):
            compile_screened_classification(
                task.classifier, screener, np.zeros(16), threshold=0.0
            )

    def test_registers_initialized(self, kernel):
        compiled, task, screener = kernel
        from repro.isa.instruction import Init
        from repro.isa.opcodes import RegisterId

        inits = {
            i.register: i.value
            for i in compiled.program
            if isinstance(i, Init)
        }
        assert inits[RegisterId.VOCAB_SIZE] == 300
        assert inits[RegisterId.HIDDEN_DIM] == 33  # d+1, bias-augmented
        assert RegisterId.THRESHOLD in inits
