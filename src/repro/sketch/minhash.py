"""Streaming MinHash signatures with LSH banding (DESIGN §15).

A record's signature is ``perms`` independent minimum hash values over
its token set: lane ``i`` applies the universal hash

    h_i(x) = (a_i * x + b_i) mod (2^61 - 1)

with per-lane parameters drawn from a seeded :class:`random.Random`, so
the whole scheme is a pure function of ``(perms, bands, seed)`` and two
processes configured alike produce identical signatures — the property
the band router and the sharded engines rely on.

Band keys are Python ``hash`` values of the per-band row slices. Hashing
of ``int`` tuples is value-determined (``PYTHONHASHSEED`` only salts
``str``/``bytes``), so keys agree across driver and worker processes.

Two paths compute the same keys:

* :meth:`MinHashScheme.sketch` — the scalar reference definition, one
  record at a time in pure Python;
* :meth:`MinHashScheme.band_keys_batch` — a numpy kernel over a whole
  batch: lane hashes for the batch's unique tokens only (exact
  ``uint64`` arithmetic, 32-bit limbs with Mersenne folding),
  signatures as a segmented ``np.minimum.reduceat``, and band keys by
  CPython's tuple-hash recurrence applied to each band's row slice.
  Signature values are below ``2^61 - 1``, so ``hash(v) == v`` for each
  one and the recurrence reproduces ``hash(signature[band])`` bit for
  bit. numpy is imported on the kernel's first call, never at module
  import, so exact runs do not load it.

Both paths fill one bounded, keys-only cache per scheme, keyed by the
canonical token tuple: streaming corpora are duplicate-heavy, so a
repeated record costs one dict hit (:meth:`MinHashScheme.keys`). The
engines and the band router need keys only, never signatures, and
:func:`shared_scheme` hands every caller in a process the same scheme,
so each process sketches a distinct token set at most once.

Signatures are mergeable (the SetSketch motivation): the signature of a
union is the elementwise minimum of the signatures, which
:func:`merge_signatures` and the incremental :meth:`MinHashScheme.extend`
expose for callers that grow a set one token at a time.
"""

from __future__ import annotations

import random
import sys
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.records import Record

__all__ = [
    "DEFAULT_SEED",
    "MinHashScheme",
    "estimate_jaccard",
    "merge_signatures",
    "shared_scheme",
]

#: Seed shared by every default-configured scheme in the repo (the
#: corpus seed of the committed benches, for artefact provenance).
DEFAULT_SEED = 20200420

#: Mersenne prime 2^61 - 1: modulus of the universal hash family. Large
#: enough that min-collisions between distinct tokens are negligible,
#: small enough that ``a * x + b`` stays a cheap machine-word-ish int.
_MERSENNE_P = (1 << 61) - 1

#: Entries kept in a scheme's keys cache before it is dropped wholesale
#: — a bound on memory for streams of all-distinct records; observables
#: never depend on cache hits, only wall time does.
_KEYS_LIMIT = 1 << 17

#: Lane-hash cells (unique tokens x perms) one kernel pass may hold,
#: which bounds each ``uint64`` temporary at 4 MiB whatever the batch.
_KERNEL_CELLS = 1 << 19

#: CPython's 64-bit tuple-hash constants (``Objects/tupleobject.c``).
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_TUPLE_HASH_TAIL = _XXPRIME_5 ^ 3527539
_MINUS_ONE_HASH = 1546275796

Signature = Tuple[int, ...]
BandKeys = Tuple[int, ...]


def _kernel_supported() -> bool:
    """Whether this interpreter hashes ``int`` tuples with the 64-bit
    xxHash recurrence the kernel reproduces (CPython >= 3.8 on a 64-bit
    build). Elsewhere :meth:`MinHashScheme.band_keys_batch` falls back
    to the scalar path, which is correct everywhere."""
    return (
        sys.implementation.name == "cpython"
        and sys.version_info >= (3, 8)
        and sys.hash_info.width == 64
        and sys.hash_info.modulus == _MERSENNE_P
    )


class MinHashScheme:
    """A fixed family of ``perms`` hash lanes folded into ``bands`` bands.

    ``perms`` must be a positive multiple of ``bands``; each band covers
    ``rows = perms // bands`` consecutive lanes. Two records collide in
    band ``j`` iff their signatures agree on all of that band's rows —
    probability ``s^rows`` per band under the permutation model, hence
    ``1 - (1 - s^rows)^bands`` overall (see
    :func:`repro.sketch.analysis.collision_probability`).
    """

    __slots__ = (
        "perms", "bands", "rows", "seed", "_a", "_b", "_keys", "_lanes",
    )

    def __init__(self, perms: int = 64, bands: int = 8,
                 seed: int = DEFAULT_SEED):
        if perms < 1:
            raise ValueError(f"perms must be >= 1, got {perms}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if perms % bands:
            raise ValueError(
                f"bands must divide perms evenly: {bands} bands over "
                f"{perms} permutations leaves a ragged band"
            )
        self.perms = perms
        self.bands = bands
        self.rows = perms // bands
        self.seed = seed
        rng = random.Random(seed)
        self._a = tuple(rng.randrange(1, _MERSENNE_P) for _ in range(perms))
        self._b = tuple(rng.randrange(0, _MERSENNE_P) for _ in range(perms))
        #: Canonical token tuple -> band keys, filled by both paths.
        self._keys: Dict[Tuple[int, ...], BandKeys] = {}
        #: ``(a_hi, a_lo, b)`` as numpy lane vectors, built on the
        #: kernel's first call.
        self._lanes = None

    # -- scalar reference ---------------------------------------------------
    def token_hashes(self, token: int) -> Tuple[int, ...]:
        """All ``perms`` lane hashes of one token."""
        p = _MERSENNE_P
        return tuple((a * token + b) % p for a, b in zip(self._a, self._b))

    def signature(self, record: Union[Record, Iterable[int]]) -> Signature:
        """The MinHash signature of a record (or raw token iterable)."""
        tokens = (
            record.tokens if isinstance(record, Record) else tuple(record)
        )
        return self.sketch(tokens)[0]

    def band_keys(self, signature: Signature) -> BandKeys:
        """One hashable key per band: ``hash`` of the band's row slice."""
        rows = self.rows
        return tuple(
            hash(signature[j * rows:(j + 1) * rows])
            for j in range(self.bands)
        )

    def sketch(self, tokens: Tuple[int, ...]) -> Tuple[Signature, BandKeys]:
        """``(signature, band_keys)`` of a canonical token tuple — the
        reference definition the batch kernel is tested against."""
        if not tokens:
            raise ValueError("cannot sketch an empty token set")
        token_hashes = self.token_hashes
        if len(tokens) == 1:
            signature = token_hashes(tokens[0])
        else:
            signature = tuple(
                map(min, *[token_hashes(token) for token in tokens])
            )
        return signature, self.band_keys(signature)

    # -- cached band keys ---------------------------------------------------
    def keys(self, tokens: Tuple[int, ...]) -> BandKeys:
        """The band keys of a non-empty canonical token tuple: one dict
        hit when this process has sketched the set before (either
        path), the scalar reference otherwise."""
        cached = self._keys.get(tokens)
        if cached is None:
            cached = self.sketch(tokens)[1]
            cache = self._keys
            if len(cache) >= _KEYS_LIMIT:
                cache.clear()
            cache[tokens] = cached
        return cached

    def band_keys_batch(
        self, token_tuples: Sequence[Tuple[int, ...]]
    ) -> List[BandKeys]:
        """Band keys of every (non-empty) token tuple, in order —
        identical to ``sketch(tokens)[1]`` for each one.

        Tuples already in the cache cost a dict hit; the distinct rest
        go through the numpy kernel in one pass (or a few, for batches
        past :data:`_KERNEL_CELLS`) and are cached, so the engines'
        per-record :meth:`keys` calls that follow are all hits.
        """
        cache = self._keys
        found = [cache.get(tokens) for tokens in token_tuples]
        missing: Dict[Tuple[int, ...], None] = {}
        for tokens, keys in zip(token_tuples, found):
            if keys is None:
                if not tokens:
                    raise ValueError("cannot sketch an empty token set")
                missing[tokens] = None
        if not missing:
            return found
        todo = list(missing)
        computed = dict(zip(todo, self._compute_keys(todo)))
        if len(cache) + len(computed) > _KEYS_LIMIT:
            cache.clear()
        cache.update(computed)
        return [
            keys if keys is not None else computed[tokens]
            for tokens, keys in zip(token_tuples, found)
        ]

    # -- the kernel ---------------------------------------------------------
    def _compute_keys(self, todo: List[Tuple[int, ...]]) -> List[BandKeys]:
        """Band keys of distinct non-empty tuples, kernel-computed in
        passes of at most :data:`_KERNEL_CELLS` lane-hash cells."""
        if not _kernel_supported():
            return [self.sketch(tokens)[1] for tokens in todo]
        budget = max(1, _KERNEL_CELLS // self.perms)
        out: List[BandKeys] = []
        lo = 0
        while lo < len(todo):
            hi, cells = lo, 0
            while hi < len(todo) and (hi == lo or cells + len(todo[hi]) <= budget):
                cells += len(todo[hi])
                hi += 1
            out += self._kernel(todo[lo:hi], cells)
            lo = hi
        return out

    def _kernel(self, todo: List[Tuple[int, ...]], total: int) -> List[BandKeys]:
        import numpy as np

        try:
            tokens = np.fromiter(
                chain.from_iterable(todo), dtype=np.uint64, count=total
            )
        except (OverflowError, ValueError, TypeError):
            # Negative, >= 2^64 or non-int token ids: the scalar path
            # takes Python ints of any size.
            return [self.sketch(tokens)[1] for tokens in todo]
        lanes = self._lanes
        if lanes is None:
            a = np.array(self._a, dtype=np.uint64)
            lanes = self._lanes = (
                a >> np.uint64(32),
                a & np.uint64(0xFFFFFFFF),
                np.array(self._b, dtype=np.uint64),
            )
        a_hi, a_lo, b = lanes
        p = np.uint64(_MERSENNE_P)
        s29, s32, s61 = np.uint64(29), np.uint64(32), np.uint64(61)

        # Lane hashes of the unique tokens, reduced mod p first (the
        # hash depends on x only through x mod p).
        unique, inverse = np.unique(tokens, return_inverse=True)
        x = (unique & p) + (unique >> s61)
        x[x >= p] -= p
        x_hi = (x >> s32)[:, None]
        x_lo = (x & np.uint64(0xFFFFFFFF))[:, None]
        # a*x = hh*2^64 + mid*2^32 + ll with every partial product below
        # 2^64; mod p, 2^61 == 1, so 2^64 == 8 and mid*2^32 folds to
        # (mid >> 29) + (mid mod 2^29) * 2^32. The five terms plus b sum
        # below 2^63 + 2^34, then two folds bring the sum below p.
        mid = x_hi * a_lo
        mid += x_lo * a_hi
        ll = x_lo * a_lo
        h = (x_hi * a_hi) << np.uint64(3)
        h += mid >> s29
        mid &= np.uint64((1 << 29) - 1)
        mid <<= s32
        h += mid
        h += ll & p
        ll >>= s61
        h += ll
        h += b
        ll = h >> s61
        h &= p
        h += ll
        h[h >= p] -= p

        # Signatures: segmented minimum over each record's gathered rows.
        lengths = np.fromiter(map(len, todo), dtype=np.intp, count=len(todo))
        starts = np.zeros(len(todo), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        sig = np.minimum.reduceat(h[inverse.reshape(-1)], starts, axis=0)

        # Band keys: CPython's tuple hash over each band's row slice.
        rows = self.rows
        sig = sig.reshape(len(todo), self.bands, rows)
        acc = np.full((len(todo), self.bands), _XXPRIME_5, dtype=np.uint64)
        prime_1, prime_2 = np.uint64(_XXPRIME_1), np.uint64(_XXPRIME_2)
        s31, s33 = np.uint64(31), np.uint64(33)
        for i in range(rows):
            acc += sig[:, :, i] * prime_2
            acc = (acc << s31) | (acc >> s33)
            acc *= prime_1
        acc += np.uint64(rows ^ _TUPLE_HASH_TAIL)
        acc[acc == np.uint64(0xFFFFFFFFFFFFFFFF)] = _MINUS_ONE_HASH
        return list(map(tuple, acc.view(np.int64).tolist()))

    # -- incremental / mergeable updates ------------------------------------
    def extend(self, signature: Signature, token: int) -> Signature:
        """The signature of ``set ∪ {token}`` — O(perms), no re-scan."""
        return tuple(map(min, signature, self.token_hashes(token)))

    def estimate_jaccard(self, sig_a: Signature, sig_b: Signature) -> float:
        """Instance sugar for :func:`estimate_jaccard`."""
        return estimate_jaccard(sig_a, sig_b)

    def describe(self) -> dict:
        return {
            "perms": self.perms,
            "bands": self.bands,
            "rows": self.rows,
            "seed": self.seed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MinHashScheme(perms={self.perms}, bands={self.bands}, "
            f"seed={self.seed})"
        )


#: ``(perms, bands, seed)`` -> this process's scheme (see
#: :func:`shared_scheme`).
_SHARED: Dict[Tuple[int, int, int], MinHashScheme] = {}


def shared_scheme(
    perms: int = 64, bands: int = 8, seed: int = DEFAULT_SEED
) -> MinHashScheme:
    """The one :class:`MinHashScheme` per ``(perms, bands, seed)`` in
    this process.

    The band router and every shard engine or bolt hosted here take
    their scheme from this function, so they share one keys cache: a
    token set sketched while routing (or for an earlier shard's batch)
    is a dict hit for every later caller. A forked worker inherits the
    driver's schemes as they stood at fork time.
    """
    key = (perms, bands, seed)
    scheme = _SHARED.get(key)
    if scheme is None:
        scheme = _SHARED[key] = MinHashScheme(perms, bands, seed)
    return scheme


def estimate_jaccard(sig_a: Sequence[int], sig_b: Sequence[int]) -> float:
    """Unbiased Jaccard estimate: the fraction of agreeing lanes.

    Each lane agrees with probability equal to the true Jaccard
    similarity (the minimum over the union lands in the intersection),
    so the estimator's standard error is ``sqrt(J(1-J)/perms)``.
    """
    if len(sig_a) != len(sig_b):
        raise ValueError(
            f"signature widths differ: {len(sig_a)} vs {len(sig_b)}"
        )
    if not sig_a:
        raise ValueError("cannot compare empty signatures")
    agree = sum(1 for a, b in zip(sig_a, sig_b) if a == b)
    return agree / len(sig_a)


def merge_signatures(sig_a: Signature, sig_b: Signature) -> Signature:
    """The signature of the *union* of the two underlying sets."""
    if len(sig_a) != len(sig_b):
        raise ValueError(
            f"signature widths differ: {len(sig_a)} vs {len(sig_b)}"
        )
    return tuple(map(min, sig_a, sig_b))
