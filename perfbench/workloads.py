"""The benchmark's workloads: seeded inputs, join flags, reference oracle.

Each workload is one ``repro join`` invocation over a token file that
this module generates from the public :mod:`repro.datasets` generators.
The program under test only ever sees the file. The reference pair set
comes from :func:`repro.parallel.runtime.run_serial` over the same file
and config, and :func:`check_output` grades a run's ``--pairs`` output
against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import JoinConfig
from repro.datasets import (
    CorpusSpec,
    load_token_file,
    save_token_file,
    synthetic_aol,
    synthetic_tweet,
)
from repro.datasets.generators import lognormal_lengths, stream_from_spec
from repro.parallel.runtime import run_serial
from repro.sketch.analysis import recall_lower_bound

#: Worker processes of the parallel workloads (the host here has 2 cores).
WORKERS = 2

#: Corpus recipes: vocabulary size and near-duplicate rate, pinned here
#: so that a change of the generators' defaults cannot change the inputs.
#: ``aol`` and ``tweet`` are the published-statistics defaults of
#: :func:`synthetic_aol` and :func:`synthetic_tweet`.
VOCABULARY = {"aol": 30_000, "tweet": 50_000, "longdoc": 60_000}
DUPLICATE_RATE = {"aol": 0.12, "tweet": 0.15, "longdoc": 0.08}

#: ``longdoc`` lengths: log-normal, from hundreds to a few thousand tokens.
LONGDOC_LENGTHS = dict(mu=6.0, sigma=0.6, lo=100, hi=3000)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpus recipe, size and join flags.

    ``window`` is in seconds of stream time; records arrive at the
    CLI's default 1000 records/second, so a window of ``w`` seconds
    holds ``1000 * w`` live records once it fills.
    """

    name: str
    corpus: str
    records: int
    window: float
    parallel: bool = True
    mode: str = "exact"
    perms: Optional[int] = None
    bands: Optional[int] = None
    bundles: bool = False

    def join_flags(self) -> List[str]:
        """The ``repro join`` flags after the input file (``--pairs`` included)."""
        flags = ["--window", repr(self.window), "--pairs"]
        if self.parallel:
            flags += ["--parallel", "--workers", str(WORKERS)]
        if self.bundles:
            flags.append("--bundles")
        if self.mode != "exact":
            flags += ["--mode", self.mode, "--perms", str(self.perms),
                      "--bands", str(self.bands)]
        return flags

    def config(self) -> JoinConfig:
        """The :class:`JoinConfig` that ``repro join`` builds from
        :meth:`join_flags` (8 shards or simulated workers by default)."""
        extra = {}
        if self.mode != "exact":
            extra = {"perms": self.perms, "bands": self.bands}
        return JoinConfig(
            num_workers=8,
            use_bundles=self.bundles,
            window_seconds=self.window,
            collect_pairs=True,
            mode=self.mode,
            **extra,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("aol-exact", "aol", records=20_000, window=4.0),
        Workload("longdoc-exact", "longdoc", records=600, window=0.15),
        Workload("aol-approx", "aol", records=20_000, window=4.0,
                 mode="approx", perms=64, bands=4),
        Workload("tweet-sim", "tweet", records=8_000, window=1.5,
                 parallel=False, bundles=True),
    )
}


def scaled(workload: Workload, factor: float) -> Workload:
    """``workload`` with its record count and window scaled by
    ``factor`` (smoke runs keep the window's share of the stream)."""
    return replace(
        workload,
        records=max(50, int(workload.records * factor)),
        window=round(workload.window * factor, 6),
    )


def make_input(workload: Workload, seed: int, path: Path) -> Dict[str, object]:
    """Write ``workload``'s token file for ``seed``; return its properties."""
    n, corpus_name = workload.records, workload.corpus
    vocabulary = VOCABULARY[corpus_name]
    duplicate_rate = DUPLICATE_RATE[corpus_name]
    if corpus_name == "longdoc":
        spec = CorpusSpec(
            name="LONGDOC",
            vocabulary_size=vocabulary,
            length_model=lognormal_lengths(**LONGDOC_LENGTHS),
            duplicate_rate=duplicate_rate,
        )
        stream = stream_from_spec(spec, n, seed)
    else:
        builder = synthetic_aol if corpus_name == "aol" else synthetic_tweet
        stream = builder(n, seed=seed, vocabulary_size=vocabulary,
                         duplicate_rate=duplicate_rate)
    save_token_file(path, stream)
    corpus = stream.corpus
    lengths = [len(tokens) for tokens in corpus]
    seen = set()
    repeats = 0
    for tokens in corpus:
        if tokens in seen:
            repeats += 1
        seen.add(tokens)
    return {
        "records": len(corpus),
        "mean_length": round(sum(lengths) / len(lengths), 3),
        "max_length": max(lengths),
        "vocabulary": vocabulary,
        "distinct_tokens": len({t for tokens in corpus for t in tokens}),
        "duplicate_rate": duplicate_rate,
        "exact_repeat_share": round(repeats / len(corpus), 4),
        "window_s": workload.window,
        "live_records": int(workload.window * 1000),
        "workers": WORKERS if workload.parallel else None,
        "bytes": path.stat().st_size,
    }


# -- reference oracle ---------------------------------------------------------
#: One ``--pairs`` line: similarity at 4 decimals, earlier rid, later rid.
PAIR_LINE = re.compile(r"^(\d+\.\d{4})\t(\d+)\t(\d+)$", re.MULTILINE)

Pair = Tuple[int, int]


@dataclass
class Reference:
    """The exact pair set of one (workload, seed): pair -> similarity."""

    pairs: Dict[Pair, str]
    #: Analytic recall floor for approx workloads (1.0 for exact ones).
    recall_floor: float


def reference(workload: Workload, path: Path) -> Reference:
    """Exact pairs of ``workload`` over the token file at ``path``.

    ``run_serial`` cannot host the bundle engine, so ``tweet-sim`` is
    checked against the unbundled config: bundles are an exact
    optimisation and must not change the pair set. ``aol-approx`` is
    checked against the exact tier over the same stream.
    """
    stream, _ = load_token_file(path)
    config = replace(workload.config(), use_bundles=False, mode="exact")
    result = run_serial(config, stream)
    pairs = {
        (earlier, later): f"{similarity:.4f}"
        for _ts, later, earlier, _overlap, similarity in result.matches
    }
    floor = 1.0
    if workload.mode == "approx":
        similarities = [row[4] for row in result.matches]
        rows = workload.perms // workload.bands
        floor = recall_lower_bound(similarities, rows, workload.bands)
    return Reference(pairs=pairs, recall_floor=floor)


def parse_pairs(stdout: str) -> List[Tuple[Pair, str]]:
    """The ``((earlier, later), similarity)`` pairs a run printed."""
    return [
        ((int(a), int(b)), sim) for sim, a, b in PAIR_LINE.findall(stdout)
    ]


def check_output(
    workload: Workload, ref: Reference, stdout: str
) -> Tuple[bool, float, str]:
    """Grade one run's ``--pairs`` output: ``(ok, recall, reason)``.

    Exact workloads must print exactly the reference pairs with the
    reference similarity. ``aol-approx`` must have precision 1.0 (every
    printed pair is a reference pair with its similarity) and recall at
    or above the analytic floor. A pair printed twice always fails.
    """
    emitted = parse_pairs(stdout)
    printed = dict(emitted)
    if len(printed) != len(emitted):
        return False, 0.0, f"{len(emitted) - len(printed)} pairs printed twice"
    hits = sum(1 for pair, sim in printed.items() if ref.pairs.get(pair) == sim)
    wrong = len(printed) - hits
    recall = hits / len(ref.pairs) if ref.pairs else 1.0
    if workload.mode == "approx":
        if wrong:
            return False, recall, f"precision < 1: {wrong} pairs not in the reference"
        if recall < ref.recall_floor:
            return False, recall, (
                f"recall {recall:.4f} below the floor {ref.recall_floor:.4f}"
            )
        return True, recall, ""
    missing = len(ref.pairs) - hits
    if wrong or missing:
        return False, recall, (
            f"{missing} reference pairs missing, {wrong} pairs extra or "
            f"with another similarity"
        )
    return True, recall, ""
