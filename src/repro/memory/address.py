"""The CC-NUMA shared address space.

Every node holds a slice of the globally shared memory.  Applications
allocate named :class:`SharedArray` regions with a *distribution policy*
that decides which node is the home of each cache block:

``"blocked"``
    contiguous chunks of the region per node (the natural layout for
    statically partitioned data: FFT points, CG rows, ...),
``"interleaved"``
    blocks assigned round-robin across nodes (spreads hot structures
    like global histograms),
``("node", i)``
    the whole region lives on node ``i`` (e.g. a lock or a global sum).

Addresses are plain integers.  Regions are block-aligned so a block
never straddles two regions, making the block -> home map well defined.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import AddressError, ConfigError

#: Distribution policy: a name or ("node", index).
Distribution = Union[str, Tuple[str, int]]


@dataclass
class Region:
    """One allocated region of the shared address space."""

    name: str
    base: int
    count: int
    elem_bytes: int
    distribution: Distribution
    nbytes: int
    #: First block id of the region.
    first_block: int
    #: Number of blocks in the region.
    nblocks: int

    @property
    def end(self) -> int:
        return self.base + self.nbytes


class SharedArray:
    """Typed view of a region: element index -> address."""

    __slots__ = ("region", "space")

    def __init__(self, region: Region, space: "AddressSpace"):
        self.region = region
        self.space = space

    @property
    def name(self) -> str:
        return self.region.name

    @property
    def base(self) -> int:
        return self.region.base

    @property
    def count(self) -> int:
        return self.region.count

    @property
    def elem_bytes(self) -> int:
        return self.region.elem_bytes

    def addr(self, index: int) -> int:
        """Address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.region.count:
            raise AddressError(
                f"index {index} out of range for array {self.region.name!r} "
                f"of {self.region.count} elements"
            )
        return self.region.base + index * self.region.elem_bytes

    def addrs(self, indices) -> Tuple[int, ...]:
        """Addresses of several elements."""
        return tuple(self.addr(i) for i in indices)

    def home(self, index: int) -> int:
        """Home node of element ``index``."""
        return self.space.home_of(self.addr(index))

    def __len__(self) -> int:
        return self.region.count

    def __repr__(self) -> str:
        return (
            f"<SharedArray {self.region.name} x{self.region.count} "
            f"@{self.region.base:#x}>"
        )


class AddressSpace:
    """Allocator and home-node map for the shared address space."""

    def __init__(self, nprocs: int, block_bytes: int):
        if nprocs < 1:
            raise ConfigError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.block_bytes = block_bytes
        self._next_base = block_bytes  # keep address 0 unused
        self._regions: List[Region] = []
        self._bases: List[int] = []
        #: block id -> home node memo (coherence asks for the same hot
        #: blocks constantly; invalidated whenever a region is added).
        #: Machines keep a reference to this dict on their hot paths, so
        #: it is only ever cleared in place, never rebound.
        self._home_cache: Dict[int, int] = {}

    # -- allocation --------------------------------------------------------------

    def alloc(
        self,
        name: str,
        count: int,
        elem_bytes: int,
        distribution: Distribution = "blocked",
        align_blocks_per_proc: bool = False,
        exact_nblocks: Optional[int] = None,
    ) -> SharedArray:
        """Allocate ``count`` elements of ``elem_bytes`` each.

        :param distribution: home-node policy (see module docstring).
        :param align_blocks_per_proc: for ``"blocked"``, pad the region so
            each node's chunk starts on a block boundary *and* all chunks
            are equal -- used when applications index "processor ``i``'s
            part" directly.
        :param exact_nblocks: force the region to span exactly this many
            blocks (used by trace replay to reproduce a recorded layout,
            padding included).
        """
        if count <= 0 or elem_bytes <= 0:
            raise ConfigError(
                f"array {name!r}: count and elem_bytes must be positive"
            )
        self._check_distribution(distribution)
        nbytes = count * elem_bytes
        # Round the region itself up to whole blocks.
        nblocks = -(-nbytes // self.block_bytes)
        if align_blocks_per_proc and distribution == "blocked":
            # Make block count a multiple of nprocs for clean chunks.
            nblocks = -(-nblocks // self.nprocs) * self.nprocs
        if exact_nblocks is not None:
            if exact_nblocks < nblocks:
                raise ConfigError(
                    f"array {name!r}: exact_nblocks={exact_nblocks} cannot "
                    f"hold {count} x {elem_bytes} bytes"
                )
            nblocks = exact_nblocks
        base = self._next_base
        region = Region(
            name=name,
            base=base,
            count=count,
            elem_bytes=elem_bytes,
            distribution=distribution,
            nbytes=nblocks * self.block_bytes,
            first_block=base // self.block_bytes,
            nblocks=nblocks,
        )
        self._next_base = region.end
        self._regions.append(region)
        self._bases.append(base)
        self._home_cache.clear()
        return SharedArray(region, self)

    def _check_distribution(self, distribution: Distribution) -> None:
        if isinstance(distribution, tuple):
            kind, node = distribution
            if kind != "node" or not 0 <= node < self.nprocs:
                raise ConfigError(f"bad distribution {distribution!r}")
        elif distribution not in ("blocked", "interleaved"):
            raise ConfigError(f"bad distribution {distribution!r}")

    # -- lookup --------------------------------------------------------------------

    def region_of(self, addr: int) -> Region:
        """The region containing ``addr``."""
        idx = bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.base <= addr < region.end:
                return region
        raise AddressError(f"address {addr:#x} is not in any allocated region")

    def block_of(self, addr: int) -> int:
        """Global block id containing ``addr``."""
        return addr // self.block_bytes

    def home_of(self, addr: int) -> int:
        """Home node of the block containing ``addr``."""
        block = addr // self.block_bytes
        home = self._home_cache.get(block)
        if home is not None:
            return home
        # Regions are whole blocks, so a memoised block is an allocated
        # address; only a miss needs the region (or raises AddressError).
        return self.home_of_block(block, self.region_of(addr))

    def home_of_block(self, block: int, region: Optional[Region] = None) -> int:
        """Home node of a global block id (memoized)."""
        home = self._home_cache.get(block)
        if home is not None:
            return home
        if region is None:
            region = self.region_of(block * self.block_bytes)
        rel = block - region.first_block
        if not 0 <= rel < region.nblocks:
            raise AddressError(
                f"block {block} not in region {region.name!r}"
            )
        distribution = region.distribution
        if distribution == "blocked":
            per_node = -(-region.nblocks // self.nprocs)
            home = min(rel // per_node, self.nprocs - 1)
        elif distribution == "interleaved":
            home = rel % self.nprocs
        else:  # ("node", i)
            home = distribution[1]
        self._home_cache[block] = home
        return home

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    def __repr__(self) -> str:
        return (
            f"<AddressSpace nprocs={self.nprocs} block={self.block_bytes} "
            f"regions={len(self._regions)}>"
        )
