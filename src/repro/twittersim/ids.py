"""Deterministic, time-ordered identifier generation.

Twitter issues "snowflake" ids whose high bits encode the creation
timestamp, making ids sortable by time.  The simulator mimics that
property: tweet and user ids are ``(timestamp_ms << 16) | sequence`` so
that sorting by id equals sorting by creation time, which several
behavioral features (average tweet interval, mention time) and tests
rely on.
"""

from __future__ import annotations

import numpy as np


class SnowflakeGenerator:
    """Issues unique, strictly increasing, time-ordered integer ids."""

    _SEQUENCE_BITS = 16
    _SEQUENCE_MASK = (1 << _SEQUENCE_BITS) - 1

    def __init__(self) -> None:
        self._last_ms = -1
        self._sequence = 0

    def next_id(self, timestamp: float) -> int:
        """Return a fresh id for an event at simulation time ``timestamp``.

        Ids issued for non-decreasing timestamps are strictly increasing.
        Timestamps may be negative (pre-simulation account creation).
        """
        ms = int(timestamp * 1000)
        if ms < self._last_ms:
            # Never let ids go backwards even if callers hand us an
            # out-of-order timestamp (e.g. backdated account creation
            # interleaved with live tweets): clamp to the newest seen.
            ms = self._last_ms
        if ms == self._last_ms:
            self._sequence += 1
            if self._sequence > self._SEQUENCE_MASK:
                ms += 1
                self._sequence = 0
        else:
            self._sequence = 0
        self._last_ms = ms
        # Offset keeps ids positive even for timestamps far in the past.
        return ((ms + (1 << 40)) << self._SEQUENCE_BITS) | self._sequence

    def next_ids(self, timestamps: np.ndarray) -> np.ndarray:
        """Ids for many events, equal to calling :meth:`next_id` in order.

        The clamp to the newest millisecond is a running maximum and
        the sequence counts positions within each run of equal
        milliseconds; the array path runs up to the first sequence
        overflow, which :meth:`next_id` rolls over, then resumes.
        """
        ms = (np.asarray(timestamps, dtype=np.float64) * 1000).astype(
            np.int64
        )
        ids = np.empty(len(ms), dtype=np.int64)
        start = 0
        while start < len(ms):
            chunk = np.maximum.accumulate(
                np.maximum(ms[start:], self._last_ms)
            )
            n = len(chunk)
            positions = np.arange(n)
            new_run = np.empty(n, dtype=bool)
            new_run[0] = chunk[0] != self._last_ms
            new_run[1:] = chunk[1:] != chunk[:-1]
            sequence = positions - np.maximum.accumulate(
                np.where(new_run, positions, 0)
            )
            if not new_run[0]:
                # The first run continues the generator's current one.
                first_new = np.flatnonzero(new_run)
                end = first_new[0] if len(first_new) else n
                sequence[:end] += self._sequence + 1
            overflow = np.flatnonzero(sequence > self._SEQUENCE_MASK)
            stop = overflow[0] if len(overflow) else n
            if stop:
                ids[start : start + stop] = (
                    (chunk[:stop] + (1 << 40)) << self._SEQUENCE_BITS
                ) | sequence[:stop]
                self._last_ms = int(chunk[stop - 1])
                self._sequence = int(sequence[stop - 1])
            if stop == n:
                break
            ids[start + stop] = self.next_id(
                float(timestamps[start + stop])
            )
            start += stop + 1
        return ids

    @classmethod
    def timestamp_of(cls, snowflake: int) -> float:
        """Recover the (approximate) creation time in seconds from an id."""
        ms = (snowflake >> cls._SEQUENCE_BITS) - (1 << 40)
        return ms / 1000.0
