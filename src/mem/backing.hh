/**
 * @file
 * Byte-addressed backing store standing in for L2 / main memory.
 *
 * Table 2 gives L2 a fixed 10-cycle latency and it always hits, so no
 * tag state is needed — only data. Every level above is write-through
 * in this reproduction, so the backing store always holds the current
 * value of every byte; stale data can only live in L0 buffers, which
 * is exactly the coherence hazard the paper's compiler manages.
 *
 * Unwritten bytes read as a deterministic per-address pattern so that
 * cold loads are reproducible and checkable by the oracle.
 *
 * Every simulated access and every oracle check reads this store, so
 * the per-access path does no hashing. A page is materialised with its
 * default pattern on its first touch, read or write; after that a
 * direct-mapped table of page pointers resolves it with one compare.
 * The table has enough slots that the several streams one loop
 * invocation interleaves do not evict each other; a slot miss falls
 * back to the page map once and refills the slot.
 */

#ifndef L0VLIW_MEM_BACKING_HH
#define L0VLIW_MEM_BACKING_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace l0vliw::mem
{

/** Sparse paged byte store with deterministic default contents. */
class Backing
{
  public:
    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::uint8_t *out, int size) const;

    /** Write @p size bytes from @p in at @p addr. */
    void write(Addr addr, const std::uint8_t *in, int size);

    /** The deterministic content of an unwritten byte. */
    static std::uint8_t defaultByte(Addr addr);

    /** Drop all written data (reset to the default pattern). */
    void
    clear()
    {
        pages.clear();
        cache.fill(Slot{});
    }

  private:
    static constexpr int kPageShift = 12;
    static constexpr Addr kPageBytes = Addr{1} << kPageShift;
    static constexpr int kCacheBits = 8;
    static constexpr Addr kNoPage = ~Addr{0};

    /** One direct-mapped page-pointer slot. */
    struct Slot
    {
        Addr id = kNoPage;
        std::uint8_t *data = nullptr;
    };

    static std::size_t
    slotOf(Addr page_id)
    {
        // Fold the next bits in so arrays a power-of-two number of
        // pages apart do not share a slot.
        return static_cast<std::size_t>(
                   page_id ^ (page_id >> kCacheBits))
               & ((std::size_t{1} << kCacheBits) - 1);
    }

    /** The bytes of page @p page_id, materialised on first touch. */
    std::uint8_t *
    page(Addr page_id) const
    {
        const Slot &s = cache[slotOf(page_id)];
        return s.id == page_id ? s.data : pageSlow(page_id);
    }

    /** page() past a slot miss: the page map, then refill the slot. */
    std::uint8_t *pageSlow(Addr page_id) const;

    // A read materialises pages too, so the page state is mutable;
    // the observable contents never change on a read.
    mutable std::unordered_map<Addr, std::unique_ptr<std::uint8_t[]>>
        pages;
    mutable std::array<Slot, std::size_t{1} << kCacheBits> cache{};
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_BACKING_HH
