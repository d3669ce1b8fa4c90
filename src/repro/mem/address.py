"""Physical address bit-field mappings (paper Figure 2).

Two interleavings are modelled:

* :class:`CacheLineInterleaving` — cacheline-granularity mapping of addresses
  over L2 banks.  With a 64B line and 32 banks, bank id = bits 6..10 of the
  physical address, exactly as Figure 2a draws it.
* :class:`PageInterleaving` — page-granularity mapping over memory channels,
  ranks, and banks.  With 4KB pages, 4 channels, 4 ranks and 8 banks, the
  channel is bits 12..13, rank 14..15, bank 16..18 (Figure 2b).

Both are expressed via :class:`BitField` so non-default geometries (different
bank counts, page sizes) just change field widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError


def _bits_for(count: int, what: str) -> int:
    """Number of index bits for ``count`` entries; count must be a power of 2."""
    if count < 1 or count & (count - 1):
        raise MappingError(f"{what} count must be a power of two, got {count}")
    return count.bit_length() - 1


@dataclass(frozen=True)
class BitField:
    """A contiguous bit field ``[low, low+width)`` of an address."""

    low: int
    width: int

    @property
    def high(self) -> int:
        """Exclusive upper bit index."""
        return self.low + self.width

    def extract(self, address: int) -> int:
        """Value of this field within ``address``."""
        return (address >> self.low) & ((1 << self.width) - 1)

    def insert(self, address: int, value: int) -> int:
        """Return ``address`` with this field replaced by ``value``."""
        if value >> self.width:
            raise MappingError(
                f"value {value} does not fit in {self.width}-bit field"
            )
        mask = ((1 << self.width) - 1) << self.low
        return (address & ~mask) | (value << self.low)


class CacheLineInterleaving:
    """Cacheline-granularity address-to-L2-bank mapping (Figure 2a).

    The default (``hash_fold=False``) extracts the bank from the bit field
    directly above the line offset, exactly as Figure 2a draws it.  This
    places *consecutive* blocks on *consecutive* banks/nodes — the geometry
    the paper's short MST edges rely on (a statement's operands usually sit
    a few lines apart, hence a few hops apart).  ``hash_fold=True`` instead
    XOR-folds the whole block number into the bank index, modeling
    production NUCA hashes that trade this adjacency for conflict spreading;
    the fold is XOR-linear, so the page allocator can still preserve each
    page's bank contribution during VA->PA translation.  (Arrays' staggered
    base addresses — see :meth:`repro.mem.layout.DataLayout.add_array` —
    keep same-index elements of different arrays off the same bank in both
    modes.)
    """

    def __init__(self, line_size: int = 64, bank_count: int = 32, hash_fold: bool = False):
        self.line_size = line_size
        self.bank_count = bank_count
        self.hash_fold = hash_fold
        line_bits = _bits_for(line_size, "cache line size")
        bank_bits = _bits_for(bank_count, "L2 bank")
        self.offset_field = BitField(0, line_bits)
        self.bank_field = BitField(line_bits, bank_bits)

    def _fold(self, block: int) -> int:
        """XOR-fold an arbitrary-width block number down to bank-index width."""
        width = self.bank_field.width
        mask = (1 << width) - 1
        folded = 0
        while block:
            folded ^= block & mask
            block >>= width
        return folded

    def bank_of(self, address: int) -> int:
        """Home L2 bank index of ``address`` (SNUCA static mapping)."""
        if not self.hash_fold:
            return self.bank_field.extract(address)
        return self._fold(self.block_of(address))

    def page_bank_contribution(self, address: int, page_size: int) -> int:
        """The page-number part of the folded bank index for ``address``.

        Because the fold is XOR-linear, ``bank_of(addr) ==
        page_bank_contribution(addr) ^ bank_of(offset_within_page)``; a page
        allocator that preserves this contribution preserves every line's
        bank.  Without folding the contribution is the bank bits that fall
        above the page offset (zero for the default geometry).
        """
        page_base = (address // page_size) * page_size
        if not self.hash_fold:
            return self.bank_field.extract(page_base)
        return self._fold(self.block_of(page_base))

    def block_of(self, address: int) -> int:
        """Cache block (line) number of ``address``."""
        return address >> self.offset_field.width


class PageInterleaving:
    """Page-granularity mapping over channels/ranks/banks (Figure 2b)."""

    def __init__(
        self,
        page_size: int = 4096,
        channel_count: int = 4,
        rank_count: int = 4,
        bank_count: int = 8,
    ):
        self.page_size = page_size
        self.channel_count = channel_count
        self.rank_count = rank_count
        self.bank_count = bank_count
        page_bits = _bits_for(page_size, "page size")
        channel_bits = _bits_for(channel_count, "channel")
        rank_bits = _bits_for(rank_count, "rank")
        bank_bits = _bits_for(bank_count, "memory bank")
        self.offset_field = BitField(0, page_bits)
        self.channel_field = BitField(page_bits, channel_bits)
        self.rank_field = BitField(page_bits + channel_bits, rank_bits)
        self.bank_field = BitField(page_bits + channel_bits + rank_bits, bank_bits)

    def channel_of(self, address: int) -> int:
        """Memory channel (controller) index of ``address``."""
        return self.channel_field.extract(address)

    def bank_of(self, address: int) -> int:
        return self.bank_field.extract(address)

    def page_of(self, address: int) -> int:
        """Virtual/physical page number of ``address``."""
        return address >> self.offset_field.width

    def with_channel(self, address: int, channel: int) -> int:
        """Rewrite the channel bits of ``address`` (page coloring)."""
        return self.channel_field.insert(address, channel)


@dataclass(frozen=True)
class AddressMapping:
    """The machine's full physical address mapping: L2 + memory levels."""

    l2: CacheLineInterleaving
    memory: PageInterleaving

    @staticmethod
    def default(bank_count: int = 32, channel_count: int = 4) -> "AddressMapping":
        """The paper's Figure 2 geometry, parameterized by bank/MC counts."""
        return AddressMapping(
            l2=CacheLineInterleaving(line_size=64, bank_count=bank_count),
            memory=PageInterleaving(page_size=4096, channel_count=channel_count),
        )
