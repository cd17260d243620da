"""Host-side wrapper: run screened classification *on the DIMM*.

``ENMCOffload`` mirrors the numpy
:class:`~repro.core.pipeline.ApproximateScreeningClassifier` API but
executes through the full hardware path — compile to ENMC instructions,
deliver via the host memory controller, execute on the functional DIMM,
and reassemble the mixed (approximate + exact) output from the RETURNed
buffers.  ``tests/test_offload_equivalence.py`` asserts the two paths
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.compiler.lowering import CompiledKernel, compile_screened_classification
from repro.core.candidates import CandidateSet
from repro.core.classifier import FullClassifier
from repro.core.pipeline import ScreenedOutput
from repro.core.screener import ScreeningModule
from repro.enmc.config import ENMCConfig, DEFAULT_CONFIG
from repro.enmc.controller import ExecutionTrace
from repro.enmc.dimm import ENMCDimm
from repro.host.memctrl import HostMemoryController
from repro.utils.validation import check_batch_features


@dataclass
class OffloadResult:
    """One batch's hardware execution: outputs plus per-row traces."""

    output: ScreenedOutput
    traces: List[ExecutionTrace]
    kernels: List[CompiledKernel]

    @property
    def total_dram_bytes(self) -> float:
        return sum(trace.dram_bytes for trace in self.traces)

    @property
    def total_instructions(self) -> int:
        return sum(
            trace.instructions_executed + trace.generated_instructions
            for trace in self.traces
        )


class ENMCOffload:
    """Screened classification executed on the functional ENMC DIMM."""

    def __init__(
        self,
        classifier: FullClassifier,
        screener: ScreeningModule,
        threshold: float,
        config: ENMCConfig = DEFAULT_CONFIG,
    ):
        if screener.num_categories != classifier.num_categories:
            raise ValueError(
                f"screener covers {screener.num_categories} categories, "
                f"classifier has {classifier.num_categories}"
            )
        self.classifier = classifier
        self.screener = screener
        self.threshold = threshold
        self.config = config
        self.memctrl = HostMemoryController(config.timing, config.channels)

    # ------------------------------------------------------------------
    def forward(self, features: np.ndarray) -> OffloadResult:
        """Run a feature batch through the hardware path."""
        batch = check_batch_features(features, self.classifier.hidden_dim)
        mixed = np.empty((batch.shape[0], self.classifier.num_categories))
        approx = np.empty_like(mixed)
        indices: List[np.ndarray] = []
        traces: List[ExecutionTrace] = []
        kernels: List[CompiledKernel] = []

        for row, feature in enumerate(batch):
            kernel = compile_screened_classification(
                self.classifier, self.screener, feature, self.threshold, self.config
            )
            dimm = ENMCDimm(self.config, memory=kernel.memory)
            packet = self.memctrl.pack(kernel.program)
            self.memctrl.delivery_cycles(packet)  # accounted, not blocking
            trace = dimm.execute(kernel.program)

            # Approximate scores: the per-tile RETURNed output buffers.
            tile_scores = np.concatenate(trace.outputs)
            if tile_scores.shape[0] != self.classifier.num_categories:
                raise RuntimeError(
                    f"DIMM returned {tile_scores.shape[0]} scores, expected "
                    f"{self.classifier.num_categories}"
                )
            approx[row] = tile_scores
            mixed[row] = tile_scores
            # Exact candidate results override the approximate entries.
            for index, value in trace.exact_results:
                mixed[row, index] = value
            indices.append(np.asarray(trace.candidate_indices, dtype=np.intp))
            traces.append(trace)
            kernels.append(kernel)

        output = ScreenedOutput.from_planes(
            mixed, approx, CandidateSet(indices=indices)
        )
        return OffloadResult(output=output, traces=traces, kernels=kernels)

    __call__ = forward

    def forward_batched(self, features: np.ndarray) -> OffloadResult:
        """Batched execution: one program, weight tiles loaded once.

        Functionally identical to :meth:`forward` (tested) but the
        screening-weight traffic is paid once per batch instead of once
        per row — the hardware's actual batched dataflow.
        """
        from repro.compiler.batching import compile_batched_screening

        batch = check_batch_features(features, self.classifier.hidden_dim)
        kernel = compile_batched_screening(
            self.classifier, self.screener, batch, self.threshold, self.config
        )
        dimm = ENMCDimm(self.config, memory=kernel.memory)
        packet = self.memctrl.pack(kernel.program)
        self.memctrl.delivery_cycles(packet)
        trace = dimm.execute(kernel.program)

        batch_size = batch.shape[0]
        l = self.classifier.num_categories
        approx = np.empty((batch_size, l))
        # Outputs arrive per (tile, row): index = tile*batch + row.
        tile_slices = list(kernel.plan)
        expected = len(tile_slices) * batch_size
        if len(trace.outputs) != expected:
            raise RuntimeError(
                f"DIMM returned {len(trace.outputs)} tiles, expected {expected}"
            )
        for tile_index, rows in enumerate(tile_slices):
            for row in range(batch_size):
                scores = trace.outputs[tile_index * batch_size + row]
                approx[row, rows.start : rows.stop] = scores

        mixed = approx.copy()
        for batch_id, index, value in trace.tagged_results:
            mixed[batch_id, index] = value
        per_row: List[np.ndarray] = [
            np.array(sorted(
                idx for b, idx in trace.tagged_candidates if b == row
            ), dtype=np.intp)
            for row in range(batch_size)
        ]
        output = ScreenedOutput.from_planes(
            mixed, approx, CandidateSet(indices=per_row)
        )
        return OffloadResult(output=output, traces=[trace], kernels=[kernel])

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(features).output.logits, axis=-1)
