"""Property tests for the hashing layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._numpy import numpy_available, numpy_or_none
from repro.filters import BloomFilter
from repro.hashing import FAMILIES, MASK64, canonical_key

KEY64 = st.integers(min_value=0, max_value=MASK64)


@given(key=st.one_of(st.integers(), st.binary(max_size=64), st.text(max_size=32)))
@settings(max_examples=100)
def test_canonical_key_is_deterministic_and_64bit(key):
    first = canonical_key(key)
    second = canonical_key(key)
    assert first == second
    assert 0 <= first <= MASK64


@given(key=KEY64, family=st.sampled_from(sorted(FAMILIES)))
@settings(max_examples=100)
def test_hash64_range(key, family):
    fn = FAMILIES[family].make(0, seed=1)
    assert 0 <= fn.hash64(key) <= MASK64


@given(
    key=KEY64,
    n_buckets=st.integers(min_value=1, max_value=1 << 20),
    family=st.sampled_from(sorted(FAMILIES)),
)
@settings(max_examples=100)
def test_bucket_always_in_range(key, n_buckets, family):
    fn = FAMILIES[family].make(1, seed=2)
    assert 0 <= fn.bucket(key, n_buckets) < n_buckets


@given(keys=st.lists(KEY64, min_size=1, max_size=100, unique=True))
@settings(max_examples=30)
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter(512, 3, seed=5)
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


@given(
    text_keys=st.lists(st.text(min_size=1, max_size=16), min_size=2, max_size=50,
                       unique=True)
)
@settings(max_examples=30)
def test_canonical_key_rarely_collides_on_text(text_keys):
    canonicals = [canonical_key(key) for key in text_keys]
    # 64-bit space: collisions among <=50 random strings are astronomically
    # unlikely; any collision indicates a digest bug.
    assert len(set(canonicals)) == len(text_keys)


@pytest.mark.skipif(not numpy_available(), reason="candidates_paged needs NumPy")
@given(
    keys=st.lists(KEY64, min_size=1, max_size=50),
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1,
                   max_size=5),
    family=st.sampled_from(sorted(FAMILIES)),
    data=st.data(),
)
@settings(max_examples=60)
def test_candidates_paged_matches_per_key_candidates(keys, sizes, family, data):
    """Every family's paged ids (SplitMix's 2-D pass and the base loop
    fallback) equal the per-key candidates of each key's own page."""
    np = numpy_or_none()
    fam = FAMILIES[family]
    pages = [(fam.functions(3, seed=page), n) for page, n in enumerate(sizes)]
    page_of = data.draw(st.lists(st.integers(0, len(pages) - 1),
                                 min_size=len(keys), max_size=len(keys)))
    rows = fam.candidates_paged(pages, np.array(keys, dtype=np.uint64),
                                np.array(page_of, dtype=np.int64))
    for key, page, row in zip(keys, page_of, rows.tolist()):
        functions, n = pages[page]
        assert row == [t * n + c for t, c in
                       enumerate(fam.candidates(functions, key, n))]
