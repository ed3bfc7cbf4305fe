"""The website-fingerprinting evaluation (§7.3, Table 1).

The paper records "all Tor traffic between the client and its guard
relay" for visits to 100 popular sites and attacks the traces with Deep
Fingerprinting [73].  This package reproduces the pipeline:

* :mod:`~repro.fingerprint.websites` -- a synthetic 100-site corpus with
  realistic page/resource size distributions, served in the simulator,
* :mod:`~repro.fingerprint.lab` -- trace collection at the client-guard
  vantage point, with or without the Browser defense,
* :mod:`~repro.fingerprint.features` -- CUMUL-style trace features,
* :mod:`~repro.fingerprint.classifier` -- a k-NN attacker standing in
  for the DF CNN (see DESIGN.md §2: the defense's effect dominates the
  classifier choice).
"""

from repro.fingerprint.websites import SiteSpec, build_corpus
from repro.fingerprint.features import extract_features
from repro.fingerprint.classifier import (
    KnnClassifier,
    confusion_matrix,
    evaluate_open_world,
    evaluate_split,
)
from repro.fingerprint.lab import FingerprintLab, TraceSample
from repro.fingerprint.defenses import make_padded_visit, padded_tor_visit

__all__ = [
    "SiteSpec",
    "build_corpus",
    "extract_features",
    "KnnClassifier",
    "confusion_matrix",
    "evaluate_open_world",
    "evaluate_split",
    "FingerprintLab",
    "TraceSample",
    "make_padded_visit",
    "padded_tor_visit",
]
