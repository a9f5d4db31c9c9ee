"""Tests for snowflake id generation."""

import numpy as np

from repro.twittersim.ids import SnowflakeGenerator


class TestSnowflakeGenerator:
    def test_ids_are_unique(self):
        gen = SnowflakeGenerator()
        ids = [gen.next_id(1.0) for __ in range(1000)]
        assert len(set(ids)) == 1000

    def test_ids_increase_with_time(self):
        gen = SnowflakeGenerator()
        a = gen.next_id(1.0)
        b = gen.next_id(2.0)
        c = gen.next_id(100.0)
        assert a < b < c

    def test_ids_increase_within_same_timestamp(self):
        gen = SnowflakeGenerator()
        ids = [gen.next_id(5.0) for __ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_out_of_order_timestamps_never_decrease_ids(self):
        gen = SnowflakeGenerator()
        a = gen.next_id(100.0)
        b = gen.next_id(50.0)  # backdated
        assert b > a

    def test_negative_timestamps_supported(self):
        gen = SnowflakeGenerator()
        identifier = gen.next_id(-86400.0 * 1000)
        assert identifier > 0

    def test_timestamp_roundtrip(self):
        gen = SnowflakeGenerator()
        identifier = gen.next_id(1234.5)
        recovered = SnowflakeGenerator.timestamp_of(identifier)
        assert abs(recovered - 1234.5) < 0.002

    def test_sequence_overflow_rolls_to_next_ms(self):
        gen = SnowflakeGenerator()
        last = 0
        for __ in range(70_000):  # > 2^16 ids at one timestamp
            current = gen.next_id(1.0)
            assert current > last
            last = current


class TestSnowflakeBatch:
    """``next_ids`` equals a loop of ``next_id`` over the same times."""

    @staticmethod
    def _assert_batch_equals_loop(chunks):
        looped, batched = SnowflakeGenerator(), SnowflakeGenerator()
        for times in chunks:
            expected = [looped.next_id(t) for t in times]
            got = batched.next_ids(np.array(times, dtype=np.float64))
            assert got.tolist() == expected

    def test_out_of_order_timestamps(self):
        rng = np.random.default_rng(3)
        for __ in range(100):
            chunks = [
                (
                    rng.integers(-3, 30, size=int(rng.integers(0, 40)))
                    * 0.001
                ).tolist()
                for __ in range(int(rng.integers(1, 5)))
            ]
            self._assert_batch_equals_loop(chunks)

    def test_same_ms_run_past_the_sequence_space(self):
        run = [5.0] * 70_000 + [4.0] * 70_000 + [140.5, 140.5, 60.0]
        self._assert_batch_equals_loop([run, [140.5] * 3])

    def test_continues_the_current_run(self):
        self._assert_batch_equals_loop(
            [[1.0] * 65_535, [1.0], [1.0, 1.0, 1.001], []]
        )
