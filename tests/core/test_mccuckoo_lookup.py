"""McCuckoo lookup: the paper's principles 1-3 (Theorem 3) and accounting."""

import pytest

from repro import DeletionMode, McCuckoo
from repro.core import check_mccuckoo
from repro.core.mccuckoo import probe_plan
from repro.workloads import distinct_keys, missing_keys


def filled_table(n_buckets=200, load=0.7, seed=40, **kwargs):
    table = McCuckoo(n_buckets, d=3, seed=seed, **kwargs)
    keys = distinct_keys(int(table.capacity * load), seed=seed + 1)
    for key in keys:
        table.put(key, value=key % 1000)
    return table, keys


class TestBasicLookup:
    def test_finds_every_inserted_key_with_value(self):
        table, keys = filled_table()
        for key in keys:
            outcome = table.lookup(key)
            assert outcome.found
            assert outcome.value == key % 1000

    def test_missing_keys_not_found(self):
        table, keys = filled_table()
        for key in missing_keys(300, set(keys), seed=42):
            assert not table.lookup(key).found

    def test_get_with_default(self):
        table, keys = filled_table()
        assert table.get(keys[0]) == keys[0] % 1000
        assert table.get(missing_keys(1, set(keys), seed=43)[0], "dflt") == "dflt"

    def test_contains(self):
        table, keys = filled_table()
        assert keys[0] in table
        assert missing_keys(1, set(keys), seed=44)[0] not in table

    def test_empty_table_lookup(self):
        table = McCuckoo(32, d=3)
        outcome = table.lookup(123)
        assert not outcome.found
        assert outcome.buckets_read == 0


class TestPrinciple1_ZeroCounterScreen:
    def test_zero_counter_answers_without_offchip_access(self):
        table, keys = filled_table(load=0.3)
        screened = 0
        for key in missing_keys(200, set(keys), seed=45):
            cands = table._candidates(key)
            has_zero = any(table._counters.peek(b) == 0 for b in cands)
            before = table.mem.off_chip.reads
            outcome = table.lookup(key)
            if has_zero:
                assert not outcome.found
                assert table.mem.off_chip.reads == before
                screened += 1
        assert screened > 100

    def test_rule_disabled_in_reset_mode(self):
        """After a RESET-mode deletion, a zero counter is a scar, not proof
        of absence — lookups must keep probing."""
        table = McCuckoo(64, d=3, seed=46, deletion_mode=DeletionMode.RESET)
        keys = distinct_keys(60, seed=47)
        for key in keys:
            table.put(key)
        # delete a neighbour that shares a bucket with a surviving key
        survivor, victim = None, None
        for a in keys:
            for b in keys:
                if a != b and set(table.copies_of(a)) and (
                    set(table._candidates(a)) & set(table.copies_of(b))
                ):
                    survivor, victim = a, b
                    break
            if survivor:
                break
        assert survivor is not None
        table.delete(victim)
        assert table.lookup(survivor).found, "RESET deletion caused false negative"


class TestPrinciple2_SkipSmallPartitions:
    def test_partition_smaller_than_value_skipped(self):
        """A single candidate with counter 3 cannot hold the queried item
        (3 copies cannot fit in one bucket) and must not be read."""
        table = McCuckoo(128, d=3, seed=48)
        first = distinct_keys(1, seed=49)[0]
        table.put(first)  # 3 copies
        triple_buckets = set(table.copies_of(first))
        for key in missing_keys(5000, {first}, seed=50):
            cands = table._candidates(key)
            vals = [table._counters.peek(b) for b in cands]
            overlap = [b for b in cands if b in triple_buckets]
            # want: exactly one candidate on a 3-bucket, others empty
            if len(overlap) == 1 and sorted(vals) == [0, 0, 3]:
                before = table.mem.off_chip.reads
                outcome = table.lookup(key)
                assert not outcome.found
                assert table.mem.off_chip.reads == before  # nothing read
                return
        pytest.fail("no suitable probe key found")


class TestPrinciple3_ProbeBudget:
    def test_at_most_s_minus_v_plus_1_probes(self):
        """For every failed partition the number of buckets read is at most
        S - V + 1 (Theorem 3's budget)."""
        table, keys = filled_table(load=0.8, seed=51)
        for key in missing_keys(500, set(keys), seed=52):
            cands = table._candidates(key)
            vals = [table._counters.peek(b) for b in cands]
            groups = {}
            for bucket, v in zip(cands, vals):
                if v:
                    groups.setdefault(v, []).append(bucket)
            budget = sum(
                len(members) - v + 1
                for v, members in groups.items()
                if len(members) >= v
            )
            outcome = table.lookup(key)
            assert outcome.buckets_read <= budget

    def test_double_copy_found_within_two_probes(self):
        """An item with 2 copies among candidates of equal value 2 is found
        in at most S-V+1 = 2 probes."""
        table = McCuckoo(256, d=3, seed=53)
        keys = distinct_keys(int(table.capacity * 0.5), seed=54)
        for key in keys:
            table.put(key)
        checked = 0
        for key in keys:
            copies = table.copies_of(key)
            if len(copies) == 2:
                outcome = table.lookup(key)
                assert outcome.found
                assert outcome.buckets_read <= 2
                checked += 1
                if checked >= 50:
                    break
        assert checked > 0

    def test_triple_copy_found_in_one_probe(self):
        """All three candidates share counter 3 -> any single probe hits."""
        table = McCuckoo(256, d=3, seed=55)
        first = distinct_keys(1, seed=56)[0]
        table.put(first)
        outcome = table.lookup(first)
        assert outcome.found
        assert outcome.buckets_read == 1


class TestProbePlan:
    """The probe order every lookup path shares, pinned row by row."""

    @pytest.mark.parametrize("row, plan", [
        ((1, 1, 1), (0, 1, 2)),   # one group of value 1: every candidate
        ((2, 2, 1), (0, 2)),      # largest value first, S-V+1 = 1 each
        ((1, 2, 2), (1, 0)),
        ((2, 1, 2), (0, 1)),
        ((2, 2, 2), (0, 1)),      # S=3, V=2: two probes
        ((3, 3, 3), (0,)),
        ((1, 1, 2), (0, 1)),      # a lone 2 cannot carry two copies
        ((1, 2, 3), (0,)),
        ((0, 1, 1), (1, 2)),      # zero counters are never probed
        ((0, 0, 0), ()),
        ((2, 2, 1, 1), (0, 2, 3)),
        ((1, 3, 3, 3), (1, 0)),
    ])
    def test_plan_for_row(self, row, plan):
        assert probe_plan(row) == plan

    def test_scalar_lookup_reads_in_plan_order(self):
        table, keys = filled_table(load=0.6)
        for key in keys:
            cands = table._candidates(key)
            vals = tuple(table._counters.peek(bucket) for bucket in cands)
            order = [cands[column] for column in probe_plan(vals)]
            outcome = table.lookup(key)
            assert outcome.buckets_read == 1 + next(
                i for i, bucket in enumerate(order) if table._keys[bucket] == key
            )


class TestLookupAccountingShape:
    def test_mccuckoo_reads_fewer_buckets_than_d(self):
        table, keys = filled_table(load=0.6, seed=57)
        total_reads = 0
        for key in keys[:400]:
            total_reads += table.lookup(key).buckets_read
        assert total_reads / 400 < 2.0  # d=3 would be the blind bound

    def test_missing_lookup_cost_increases_with_load(self):
        low, low_keys = filled_table(load=0.3, seed=58)
        high, high_keys = filled_table(load=0.85, seed=58)

        def avg_missing(table, keys):
            absent = missing_keys(300, set(keys), seed=59)
            before = table.mem.off_chip.reads
            for key in absent:
                table.lookup(key)
            return (table.mem.off_chip.reads - before) / len(absent)

        assert avg_missing(low, low_keys) < avg_missing(high, high_keys)

    def test_lookup_mutates_nothing(self):
        table, keys = filled_table(load=0.7, seed=60)
        check_mccuckoo(table)
        histogram_before = table.counter_histogram()
        for key in keys[:100]:
            table.lookup(key)
        for key in missing_keys(100, set(keys), seed=61):
            table.lookup(key)
        assert table.counter_histogram() == histogram_before
        check_mccuckoo(table)
