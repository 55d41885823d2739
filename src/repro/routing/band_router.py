"""Band-based distribution for the approximate (sketch) tier.

The sketch engine generates candidates from LSH band-bucket collisions,
so the natural sharding unit is the **band bucket**: worker ownership is
a stable hash of ``(band index, band key)``, every record is shipped to
the owners of its ``bands`` band keys, and each shard hosts (and
probes) only its owned buckets. Two colliding records agree on a band's
key by definition, so every collision — hence every reportable pair —
is discovered at that band's owner; the sketch engine's minimal
colliding band rule (see :mod:`repro.sketch.engine`) then makes exactly
one owner report each pair, with no cross-shard state.

Like the prefix scheme, band routing replicates records (up to
``min(bands, k)`` copies); unlike it, the replication factor is a
configuration constant rather than a function of record length, so the
scheme cannot skew towards long records. Skew can still arise from hot
buckets (many records sharing a band key), which is the same
duplicate-heavy clustering the sketch engine's signature groups exploit
locally.

The router and every shard's :class:`~repro.sketch.engine.BandFilter`
must agree on ownership, so both use :func:`band_owner`; determinism
across processes follows from the scheme's seeded hashes (band keys are
value-determined ``int`` hashes — see :mod:`repro.sketch.minhash`).
Router and engines in one process share one scheme
(:func:`~repro.sketch.minhash.shared_scheme`), and :meth:`BandRouter.prepare`
sketches a block of records in one numpy kernel call before it is
routed.
"""

from __future__ import annotations

from typing import Sequence

from repro.records import Record
from repro.routing.base import Router, RoutingDecision
from repro.sketch.minhash import MinHashScheme

_KNUTH = 2654435761  # Knuth's multiplicative hashing constant (2^32 / φ)
_MASK = 0xFFFFFFFFFFFFFFFF


def band_owner(band: int, key: int, num_workers: int) -> int:
    """The join task owning one ``(band, key)`` bucket.

    Mixes the band index into the key before the multiplicative hash so
    identical keys in different bands (common: a one-token record's
    band slices repeat) don't pile onto one worker.
    """
    return (((key ^ (band * 0x9E3779B97F4A7C15)) * _KNUTH) & _MASK) % num_workers


class BandRouter(Router):
    """Ship each record to the owners of its LSH band buckets."""

    name = "band"

    def __init__(self, num_workers: int, scheme: MinHashScheme):
        super().__init__(num_workers)
        self.scheme = scheme

    def route(self, record: Record) -> RoutingDecision:
        tokens = record.tokens
        if not tokens:
            return RoutingDecision(index_tasks=(0,), probe_tasks=(0,))
        keys = self.scheme.keys(tokens)
        workers = self.num_workers
        owners = tuple(sorted({
            band_owner(band, key, workers) for band, key in enumerate(keys)
        }))
        return RoutingDecision(index_tasks=owners, probe_tasks=owners)

    def prepare(self, records: Sequence[Record]) -> None:
        """Sketch a block of records in one kernel call, so each
        :meth:`route` (and every engine in this process sharing the
        scheme) reads its band keys from the cache."""
        self.scheme.band_keys_batch(
            [record.tokens for record in records if record.tokens]
        )

    def routing_units(self, record: Record, cost) -> float:
        """Band routing hashes one key per band. Computing the keys is
        not charged: the simulated cost model meters routing decisions,
        and the keys come from the per-process scheme cache that the
        engines read too (see :mod:`repro.sketch.minhash`)."""
        return cost.route_token * self.scheme.bands
