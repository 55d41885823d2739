"""``repro.sketch`` — the approximate tier (DESIGN §15).

MinHash signatures (:mod:`repro.sketch.minhash`), LSH banding math
(:mod:`repro.sketch.analysis`), the band-bucket join engine
(:mod:`repro.sketch.engine`) and the exact-vs-approx recall harness
(:mod:`repro.sketch.recall`). Routing by band lives with the other
routers in :mod:`repro.routing.band_router`.
"""

from repro.sketch.analysis import (
    collision_probability,
    expected_recall,
    recall_lower_bound,
)
from repro.sketch.engine import SketchStreamingSetJoin
from repro.sketch.minhash import (
    DEFAULT_SEED,
    MinHashScheme,
    estimate_jaccard,
    merge_signatures,
    shared_scheme,
)
from repro.sketch.recall import match_pairs, observables_recall

__all__ = [
    "DEFAULT_SEED",
    "MinHashScheme",
    "SketchStreamingSetJoin",
    "collision_probability",
    "estimate_jaccard",
    "expected_recall",
    "match_pairs",
    "merge_signatures",
    "observables_recall",
    "recall_lower_bound",
    "shared_scheme",
]
