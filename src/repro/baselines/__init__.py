"""Approximation baselines the paper compares against (Section 6.1).

* :class:`SVDSoftmax` — Shim et al., NeurIPS 2017: preview all
  categories through the top singular window, re-compute top-N exactly.
* :class:`FGDClassifier` — Zhang et al., NeurIPS 2018: graph-based
  nearest-neighbor decoding over the classifier weight vectors.
"""

from repro.baselines.svd_softmax import SVDSoftmax
from repro.baselines.fgd import FGDClassifier

__all__ = ["SVDSoftmax", "FGDClassifier"]
