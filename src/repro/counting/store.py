"""Pluggable state-table stores for the FPRAS dynamic program.

Algorithm 3 fills three tables keyed by ``(state, level)`` while it walks
the unrolled automaton: the estimates ``N(q^l)``, the sample multisets
``S(q^l)`` and the per-state count of genuinely drawn samples.  The
historical implementation kept all three in plain dictionaries for the
whole run, so memory grew with ``n * m * ns * n`` (every level's sample
words, each of length up to ``n``) and capped the word length long before
wall time did.

This module makes the table layout pluggable behind
:class:`StateTableStore`:

* :class:`DictStore` *is* the historical layout — three plain dicts — and
  is the default; every existing call site sees literally the same objects
  it used to, so behaviour is bit-identical by construction.
* :class:`WindowedStore` keeps the estimates and the per-state sample
  counts fully resident (the backward sampler reads ``N(q^l)`` at every
  level it descends through, so estimates cannot be windowed; both
  tables hold ``O(n*m)`` scalars) but retains only a sliding window of
  the most recent levels' *sample-word lists*.  Older levels are spilled
  to an anonymous temporary file when the window advances and are
  faulted back transparently (through a one-level fault cache) when
  something below the window is read — the backward sampler and the
  post-run uniform word sampler both do — so reads below the window are
  slower but *identical* in value.  Peak resident sample memory is bound
  by the window, not by ``n``.  A level's pickle under
  :data:`RAW_SPILL_LIMIT` bytes is spilled raw behind a CRC32, a larger
  one zlib-compressed.

The parity contract: estimates, RNG streams and the algorithm-level work
counters are bit-identical between the two stores.  The store only changes
*where* table entries live, never their values, and it draws no
randomness.  Its own activity counters (``store_*``) are
representation-level diagnostics, reported alongside the engine counters
and excluded from the locked-counter suites for the same reason
``decode_ops`` is.

>>> store = create_store("windowed", window=2)
>>> store.samples[("q", 0)] = [()]
>>> store.samples[("q", 1)] = [("a",)]
>>> store.samples[("q", 2)] = [("a", "a")]   # advances past the window
>>> store.counters()["store_spilled_levels"]
1
>>> store.samples[("q", 0)]                  # faulted back, value identical
[()]
>>> store.counters()["store_level_faults"]
1
>>> store.close()
"""

from __future__ import annotations

import pickle
import struct
import tempfile
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ParameterError, ReproError

StateLevel = Tuple[object, int]

#: Registry names of the available stores.
STORE_NAMES = ("dict", "windowed")

#: Default sliding-window width (levels of sample lists kept resident) for
#: the windowed store.  The estimator itself only ever *writes* the current
#: level and *reads* level ``l - 1`` eagerly, so a small window keeps the
#: hot path resident while bounding memory; deeper reads (the backward
#: sampler's descent) stream through the fault cache.
DEFAULT_WINDOW = 4

#: Pickles shorter than this many bytes are spilled raw: ``zlib.compress``
#: has a fixed per-call cost about that of pickling a small level, and
#: saves little on it.  Longer pickles are spilled zlib-compressed, which
#: bounds a long run's spill file: the n = 10**4 unary-loop run writes
#: 4.5 MB this way and 143 MB with every level raw.
RAW_SPILL_LIMIT = 4096

#: Header of a raw spill: a zero tag byte (a zlib stream starts with a
#: CMF byte whose low nibble is 8, never 0) and the pickle's CRC32.
_RAW_HEADER = struct.Struct(">BI")


def validate_store(store: object) -> str:
    """Validate a store name (the ``store`` knob on requests/parameters).

    >>> validate_store("windowed")
    'windowed'
    >>> validate_store("ram")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown state-table store 'ram'; available: ['dict', 'windowed']
    """
    if store not in STORE_NAMES:
        raise ParameterError(
            f"unknown state-table store {store!r}; available: {list(STORE_NAMES)}"
        )
    return store


def validate_window(window: object) -> int:
    """Validate the ``window`` knob (a positive integer number of levels)."""
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ParameterError(
            f"window must be a positive integer (levels kept resident), "
            f"got {window!r}"
        )
    return window


class DictStore:
    """The historical table layout: three plain dictionaries.

    The views *are* plain dicts — :class:`~repro.counting.fpras.NFACounter`
    binds them directly, so the default configuration has zero overhead and
    is bit-identical to the pre-store code by construction.
    """

    name = "dict"

    def __init__(self) -> None:
        self.estimates: Dict[StateLevel, float] = {}
        self.samples: Dict[StateLevel, List] = {}
        self.sample_counts: Dict[StateLevel, int] = {}

    def counters(self) -> Dict[str, int]:
        """Store-level diagnostics (all zero for the resident dict store)."""
        return {
            "store_windowed": 0,
            "store_resident_levels": 0,
            "store_spilled_levels": 0,
            "store_evicted_entries": 0,
            "store_level_faults": 0,
            "store_spill_bytes": 0,
        }

    def close(self) -> None:
        """Nothing to release for the in-memory store."""


class _WindowedLevelTable:
    """Mapping-like view over one windowed ``(state, level)``-keyed table.

    Entries are grouped by level.  Writing the first entry of a level above
    every level seen so far advances the window: complete levels that fall
    out of it are pickled to an anonymous temporary file (raw behind a
    CRC32 below :data:`RAW_SPILL_LIMIT` bytes, zlib-compressed above) and
    their resident lists dropped.  Reads of an evicted level fault the
    whole level back into a one-level cache — values are restored
    bit-identically from the spill, so consumers (the backward sampler, the
    uniform word sampler, AppUnion's sample streams) cannot observe the
    difference except in wall time.

    Writing to an already-evicted level raises: the level-synchronous
    dynamic program never does it, so an attempt indicates a bug rather
    than a use case.  Faulting back a spill that is truncated or corrupt,
    or one read after :meth:`close`, raises :class:`~repro.errors.ReproError`
    naming the level, never a wrong value.
    """

    def __init__(self, window: int) -> None:
        self._window = validate_window(window)
        self._resident: Dict[int, Dict[StateLevel, List]] = {}
        self._max_level: Optional[int] = None
        self._spill_file = None
        # level -> (offset, payload length, entry count) in the spill file.
        self._spill_index: Dict[int, Tuple[int, int, int]] = {}
        self._fault_level: Optional[int] = None
        self._fault_entries: Dict[StateLevel, List] = {}
        self.spilled_levels = 0
        self.evicted_entries = 0
        self.level_faults = 0
        self.spill_bytes = 0

    # -- write path ----------------------------------------------------
    def __setitem__(self, key: StateLevel, value: List) -> None:
        level = key[1]
        if level in self._spill_index:
            raise ReproError(
                f"windowed store: level {level} was already evicted; the "
                f"level-synchronous plan never rewrites evicted levels"
            )
        if self._max_level is None or level > self._max_level:
            self._max_level = level
            self._advance(level)
        self._resident.setdefault(level, {})[key] = value

    def _advance(self, new_max: int) -> None:
        """Spill and evict every resident level at or below ``new_max - window``."""
        horizon = new_max - self._window
        for level in sorted(self._resident):
            if level > horizon:
                break
            self._spill_level(level)

    def _spill_level(self, level: int) -> None:
        entries = self._resident.pop(level)
        pickled = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        if len(pickled) < RAW_SPILL_LIMIT:
            payload = _RAW_HEADER.pack(0, zlib.crc32(pickled)) + pickled
        else:
            payload = zlib.compress(pickled, 1)
        if self._spill_file is None:
            self._spill_file = tempfile.TemporaryFile(prefix="repro-store-")
        self._spill_file.seek(0, 2)
        offset = self._spill_file.tell()
        self._spill_file.write(payload)
        self._spill_index[level] = (offset, len(payload), len(entries))
        self.spilled_levels += 1
        self.evicted_entries += len(entries)
        self.spill_bytes += len(payload)

    # -- read path -----------------------------------------------------
    def _level_entries(self, level: int) -> Optional[Dict[StateLevel, List]]:
        resident = self._resident.get(level)
        if resident is not None:
            return resident
        if level == self._fault_level:
            return self._fault_entries
        location = self._spill_index.get(level)
        if location is None:
            return None
        offset, length, _ = location
        if self._spill_file is None:
            raise ReproError(
                f"windowed store: level {level} is spilled and the store is closed"
            )
        self._spill_file.seek(offset)
        payload = self._spill_file.read(length)
        if len(payload) != length:
            raise ReproError(
                f"windowed store: the spill of level {level} is truncated "
                f"({len(payload)} of {length} bytes)"
            )
        try:
            if payload[0] == 0:
                _, checksum = _RAW_HEADER.unpack_from(payload)
                pickled = payload[_RAW_HEADER.size :]
                if zlib.crc32(pickled) != checksum:
                    raise pickle.UnpicklingError("CRC32 mismatch")
            else:
                pickled = zlib.decompress(payload)
            entries = pickle.loads(pickled)
        except (zlib.error, pickle.UnpicklingError) as error:
            raise ReproError(
                f"windowed store: the spill of level {level} is corrupt ({error})"
            ) from error
        self._fault_level = level
        self._fault_entries = entries
        self.level_faults += 1
        return entries

    def __getitem__(self, key: StateLevel) -> List:
        entries = self._level_entries(key[1])
        if entries is None:
            raise KeyError(key)
        return entries[key]

    def get(self, key: StateLevel, default: object = None) -> object:
        entries = self._level_entries(key[1])
        if entries is None:
            return default
        return entries.get(key, default)

    def __contains__(self, key: object) -> bool:
        if not (isinstance(key, tuple) and len(key) == 2):
            return False
        entries = self._level_entries(key[1])
        return entries is not None and key in entries

    # -- whole-table protocol (cold paths: tests, diagnostics) ---------
    def _levels(self) -> List[int]:
        return sorted(set(self._resident) | set(self._spill_index))

    def __iter__(self) -> Iterator[StateLevel]:
        for level in self._levels():
            yield from list(self._level_entries(level))

    def keys(self) -> List[StateLevel]:
        return list(iter(self))

    def items(self):
        for level in self._levels():
            yield from list(self._level_entries(level).items())

    def __len__(self) -> int:
        # Spilled levels count from the index, so len() faults nothing back.
        return sum(len(entries) for entries in self._resident.values()) + sum(
            count for _, _, count in self._spill_index.values()
        )

    def close(self) -> None:
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None


class WindowedStore:
    """Sliding-window store: resident estimates and counts, windowed samples.

    ``window`` is the number of most-recent levels whose sample lists stay
    resident.  See the module docstring for the design and the parity
    contract.
    """

    name = "windowed"

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.estimates: Dict[StateLevel, float] = {}
        self.sample_counts: Dict[StateLevel, int] = {}
        self.samples = _WindowedLevelTable(window)
        self.window = self.samples._window

    def counters(self) -> Dict[str, int]:
        """Store-level diagnostics: the sample lists' spill/evict/fault activity."""
        samples = self.samples
        return {
            "store_windowed": 1,
            "store_resident_levels": len(samples._resident),
            "store_spilled_levels": samples.spilled_levels,
            "store_evicted_entries": samples.evicted_entries,
            "store_level_faults": samples.level_faults,
            "store_spill_bytes": samples.spill_bytes,
        }

    def close(self) -> None:
        """Release the spill file (the other two tables are plain dicts)."""
        self.samples.close()

    def __del__(self):  # pragma: no cover - GC-time safety net
        try:
            self.close()
        except Exception:
            pass


def create_store(store: str = "dict", window: int = DEFAULT_WINDOW):
    """Build a :class:`StateTableStore` from the (validated) knob values.

    >>> create_store().name, create_store("windowed", 8).name
    ('dict', 'windowed')
    """
    validate_store(store)
    if store == "windowed":
        return WindowedStore(window=window)
    return DictStore()
