"""Shared address space: allocation, lookup, home policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, ConfigError
from repro.memory import AddressSpace

BLOCK = 32


def make_space(nprocs=4):
    return AddressSpace(nprocs, BLOCK)


def test_alloc_returns_block_aligned_regions():
    space = make_space()
    a = space.alloc("a", 10, 8)
    b = space.alloc("b", 3, 4)
    assert a.base % BLOCK == 0
    assert b.base % BLOCK == 0
    assert b.base >= a.base + 10 * 8


def test_address_zero_is_never_allocated():
    space = make_space()
    array = space.alloc("a", 4, 8)
    assert array.addr(0) >= BLOCK


def test_addr_bounds_checked():
    space = make_space()
    array = space.alloc("a", 4, 8)
    array.addr(3)
    with pytest.raises(AddressError):
        array.addr(4)
    with pytest.raises(AddressError):
        array.addr(-1)


def test_addrs_helper():
    space = make_space()
    array = space.alloc("a", 8, 8)
    assert array.addrs([0, 2]) == (array.addr(0), array.addr(2))


def test_region_lookup():
    space = make_space()
    a = space.alloc("a", 16, 8)
    b = space.alloc("b", 16, 8)
    assert space.region_of(a.addr(5)).name == "a"
    assert space.region_of(b.addr(0)).name == "b"


def test_unallocated_address_raises():
    space = make_space()
    space.alloc("a", 4, 8)
    with pytest.raises(AddressError):
        space.region_of(0)  # below all regions
    with pytest.raises(AddressError):
        space.home_of(10_000_000)


def test_home_of_with_a_warm_memo():
    """The block -> home memo answers first; misses still validate."""
    space = make_space(4)
    a = space.alloc("a", 64, 8, "blocked")
    memo = space._home_cache
    cold = [space.home_of(a.addr(i)) for i in range(64)]
    assert memo  # filled by the lookups above
    space.region_of = None  # a memo hit must not need the region
    assert [space.home_of(a.addr(i)) for i in range(64)] == cold
    del space.region_of
    for bad in (0, BLOCK - 1, a.region.end, 10_000_000):
        with pytest.raises(AddressError):
            space.home_of(bad)
    # A later alloc() empties the memo in place -- machines hold a
    # reference to this very dict -- and lookups see the new region.
    b = space.alloc("b", 8, 8, ("node", 3))
    assert space._home_cache is memo and not memo
    assert space.home_of(b.addr(0)) == 3
    assert space.home_of(a.region.end) == 3  # was unallocated above
    assert [space.home_of(a.addr(i)) for i in range(64)] == cold


def test_blocked_distribution_chunks():
    space = make_space(4)
    # 16 blocks of 4 elements each, blocked over 4 nodes -> 4 blocks per node.
    array = space.alloc("a", 64, 8, "blocked")
    homes = [space.home_of(array.addr(i)) for i in range(0, 64, 4)]
    assert homes == sorted(homes)
    assert set(homes) == {0, 1, 2, 3}
    assert homes.count(0) == 4


def test_blocked_alignment_gives_each_node_own_chunk():
    space = make_space(4)
    array = space.alloc("a", 4, 8, "blocked", align_blocks_per_proc=True)
    # Only one block of real data, but padding ensures element 0 is on
    # node 0 and the region spans a multiple of nprocs blocks.
    assert array.home(0) == 0
    assert array.region.nblocks % 4 == 0


def test_interleaved_distribution_round_robins_blocks():
    space = make_space(4)
    array = space.alloc("a", 64, 8, "interleaved")  # 16 blocks
    homes = [space.home_of_block(space.block_of(array.addr(i * 4)))
             for i in range(16)]
    assert homes == [i % 4 for i in range(16)]


def test_node_distribution_pins_home():
    space = make_space(4)
    array = space.alloc("a", 64, 8, ("node", 2))
    assert all(space.home_of(array.addr(i)) == 2 for i in range(0, 64, 7))


def test_bad_distribution_rejected():
    space = make_space(4)
    with pytest.raises(ConfigError):
        space.alloc("a", 4, 8, "striped")
    with pytest.raises(ConfigError):
        space.alloc("b", 4, 8, ("node", 4))


def test_bad_alloc_params_rejected():
    space = make_space()
    with pytest.raises(ConfigError):
        space.alloc("a", 0, 8)
    with pytest.raises(ConfigError):
        space.alloc("a", 8, 0)


def test_same_block_same_home():
    space = make_space(4)
    array = space.alloc("a", 64, 8, "interleaved")
    # Elements 0-3 share block 0: identical homes.
    homes = {space.home_of(array.addr(i)) for i in range(4)}
    assert len(homes) == 1


@settings(max_examples=50, deadline=None)
@given(
    nprocs=st.sampled_from([1, 2, 4, 8]),
    counts=st.lists(st.integers(1, 200), min_size=1, max_size=6),
    elem=st.sampled_from([4, 8, 32]),
    dist=st.sampled_from(["blocked", "interleaved"]),
)
def test_every_allocated_address_resolves(nprocs, counts, elem, dist):
    space = AddressSpace(nprocs, BLOCK)
    arrays = [
        space.alloc(f"r{i}", count, elem, dist)
        for i, count in enumerate(counts)
    ]
    for array in arrays:
        for index in (0, len(array) // 2, len(array) - 1):
            addr = array.addr(index)
            assert space.region_of(addr).name == array.name
            home = space.home_of(addr)
            assert 0 <= home < nprocs


@settings(max_examples=30, deadline=None)
@given(nprocs=st.sampled_from([2, 4, 8]), nblocks=st.integers(1, 64))
def test_blocked_homes_are_monotone(nprocs, nblocks):
    space = AddressSpace(nprocs, BLOCK)
    array = space.alloc("a", nblocks * BLOCK, 1, "blocked")
    homes = [space.home_of(array.addr(i * BLOCK)) for i in range(nblocks)]
    assert homes == sorted(homes)
    assert homes[0] == 0
