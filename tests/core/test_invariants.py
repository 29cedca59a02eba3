"""The invariant checkers must catch deliberately injected corruption."""

import re

import pytest

from repro import BlockedMcCuckoo, McCuckoo, SiblingTracking
from repro._numpy import numpy_available, numpy_or_none
from repro.core import check_blocked, check_mccuckoo, invariants
from repro.core.errors import InvariantViolationError
from repro.workloads import distinct_keys


def healthy_mccuckoo(seed=170, **kwargs):
    table = McCuckoo(64, d=3, seed=seed, **kwargs)
    for key in distinct_keys(100, seed=seed + 1):
        table.put(key)
    check_mccuckoo(table)  # sanity: healthy before corruption
    return table


def healthy_blocked(seed=180):
    table = BlockedMcCuckoo(24, d=3, slots=3, seed=seed)
    for key in distinct_keys(120, seed=seed + 1):
        table.put(key)
    check_blocked(table)
    return table


def counter_without_entry():
    table = healthy_mccuckoo()
    empty = next(
        b for b in range(table.capacity) if table._counters.peek(b) == 0
    )
    table._keys[empty] = None
    table._counters.poke(empty, 1)
    return table, "no entry"


def wrong_copy_count():
    table = healthy_mccuckoo(seed=171)
    bucket = next(
        b for b in range(table.capacity) if table._counters.peek(b) == 2
    )
    table._counters.poke(bucket, 3)
    return table, "live copies"


def misplaced_key():
    table = healthy_mccuckoo(seed=172)
    occupied = [b for b in range(table.capacity) if table._counters.peek(b) > 0]
    bucket = occupied[0]
    table._keys[bucket] = table._keys[bucket] ^ 0x12345  # not a candidate here
    return table, "does not hash here"


def value_divergence():
    table = healthy_mccuckoo(seed=173)
    key = next(
        key for key, _ in table.items() if len(table.copies_of(key)) >= 2
    )
    bucket = table.copies_of(key)[0]
    table._values[bucket] = "diverged"
    return table, "disagree"


def stale_mask():
    table = healthy_mccuckoo(
        seed=174, sibling_tracking=SiblingTracking.METADATA
    )
    occupied = next(
        b for b in range(table.capacity) if table._counters.peek(b) > 0
    )
    table._masks[occupied] = 0
    return table, "bitmap"


def item_count_drift():
    table = healthy_mccuckoo(seed=175)
    table._n_main += 1
    return table, "count"


def stash_flag_corruption():
    table = McCuckoo(8, d=3, seed=176, maxloop=0)
    keys = distinct_keys(40, seed=177)
    for key in keys:
        table.put(key)
    assert len(table.stash) > 0
    stashed_key = next(iter(table.stash.items()))[0]
    flag_bucket = table._candidates(stashed_key)[0]
    table._flags.clear_bit(flag_bucket)
    return table, "flag"


CORRUPTIONS = {
    "no-entry": counter_without_entry,
    "copy-count": wrong_copy_count,
    "misplaced-key": misplaced_key,
    "value-divergence": value_divergence,
    "stale-mask": stale_mask,
    "count-drift": item_count_drift,
    "stash-flag": stash_flag_corruption,
}


@pytest.fixture(params=["prescreen", "reference"])
def checker_path(request):
    """One of ``check_mccuckoo``'s two paths, judged on its own verdict:
    the array pre-screen (needs NumPy) or the per-bucket reference loop."""
    if request.param == "prescreen" and not numpy_available():
        pytest.skip("the array pre-screen needs NumPy")
    return request.param


def assert_check_rejects(build):
    table, match = build()
    with pytest.raises(InvariantViolationError, match=match):
        check_mccuckoo(table)


def path_accepts(table, path):
    if path == "prescreen":
        return invariants._mccuckoo_sound(table, numpy_or_none())
    return invariants._mccuckoo_problems(table) == []


class TestMcCuckooChecker:
    def test_detects_counter_without_entry(self):
        assert_check_rejects(counter_without_entry)

    def test_detects_wrong_copy_count(self):
        assert_check_rejects(wrong_copy_count)

    def test_detects_misplaced_key(self):
        assert_check_rejects(misplaced_key)

    def test_detects_value_divergence(self):
        assert_check_rejects(value_divergence)

    def test_detects_stale_mask(self):
        assert_check_rejects(stale_mask)

    def test_detects_item_count_drift(self):
        assert_check_rejects(item_count_drift)

    def test_detects_stash_flag_corruption(self):
        assert_check_rejects(stash_flag_corruption)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_each_path_rejects(self, corruption, checker_path):
        table, match = CORRUPTIONS[corruption]()
        assert not path_accepts(table, checker_path)
        if checker_path == "reference":
            assert any(
                re.search(match, problem)
                for problem in invariants._mccuckoo_problems(table)
            )

    def test_each_path_accepts_healthy_tables(self, checker_path):
        for kwargs in ({}, {"sibling_tracking": SiblingTracking.METADATA}):
            table = healthy_mccuckoo(seed=178, **kwargs)
            assert path_accepts(table, checker_path)

    def test_loop_names_every_problem_the_screen_flags(self):
        """A screened anomaly is reported with the loop's own messages:
        the default path and the loop alone raise the same error."""
        for build in CORRUPTIONS.values():
            table, _ = build()
            with pytest.raises(InvariantViolationError) as default:
                check_mccuckoo(table)
            assert str(default.value) == "; ".join(
                invariants._mccuckoo_problems(table)
            )


class TestBlockedChecker:
    def test_detects_counter_without_entry(self):
        table = healthy_blocked()
        empty = next(
            i for i in range(table.capacity) if table._counters.peek(i) == 0
        )
        table._keys[empty] = None
        table._counters.poke(empty, 1)
        with pytest.raises(InvariantViolationError):
            check_blocked(table)

    def test_detects_stale_slotmap(self):
        table = healthy_blocked(seed=181)
        index = next(
            i for i in range(table.capacity) if table._counters.peek(i) > 0
        )
        table._slotmaps[index] = (None,) * table.d
        with pytest.raises(InvariantViolationError, match="metadata"):
            check_blocked(table)

    def test_detects_wrong_copy_count(self):
        table = healthy_blocked(seed=182)
        index = next(
            i for i in range(table.capacity) if table._counters.peek(i) == 1
        )
        table._counters.poke(index, 2)
        with pytest.raises(InvariantViolationError):
            check_blocked(table)

    def test_detects_item_count_drift(self):
        table = healthy_blocked(seed=183)
        table._n_main -= 1
        with pytest.raises(InvariantViolationError, match="count"):
            check_blocked(table)
