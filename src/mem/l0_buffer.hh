/**
 * @file
 * The flexible compiler-managed L0 buffer (paper Section 3).
 *
 * Each cluster owns one L0 buffer: a small, fully associative,
 * LRU-replaced array of subblocks. A subblock is an L1 block divided by
 * the number of clusters (8 bytes for Table 2's 32-byte blocks and 4
 * clusters). Two entry flavours exist, matching the two mapping hints:
 *
 *  - linear: 8 consecutive bytes of an L1 block (one of its N
 *    "sub-slots"), filled into the accessing cluster only;
 *  - interleaved: the elements of an L1 block whose index is congruent
 *    to a residue modulo N, at a dynamic element granularity (the
 *    interleaving factor, taken from the access size). A single fill
 *    spreads all N residues across the N clusters.
 *
 * The buffer is write-through and non-write-allocate: stores update at
 * most one matching local entry and *invalidate* any other local
 * duplicates (the paper keeps a single write port), and invalidate-all
 * is a constant-latency operation because no dirty data can exist.
 *
 * Data bytes physically live in the entries: a load that hits a stale
 * entry returns stale bytes. The coherence oracle in src/sim depends on
 * this to prove the compiler's coherence management correct.
 */

#ifndef L0VLIW_MEM_L0_BUFFER_HH
#define L0VLIW_MEM_L0_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "ir/hints.hh"

namespace l0vliw::mem
{

/** One L0 subblock entry. */
struct L0Entry
{
    bool valid = false;
    Addr blockAddr = 0;             ///< owning L1 block (aligned)
    ir::MapHint kind = ir::MapHint::LinearMap;
    /** Linear: sub-slot index (0..N-1). Interleaved: element residue. */
    int index = 0;
    /** Interleaved only: element granularity in bytes (1/2/4/8). */
    int factor = 0;
    std::uint64_t lastUse = 0;
    std::vector<std::uint8_t> data; ///< subblockBytes of payload
};

/** Result of an L0 lookup. */
struct L0Lookup
{
    bool hit = false;
    /** Hit touched the highest-addressed element of the subblock. */
    bool lastElement = false;
    /** Hit touched the lowest-addressed element of the subblock. */
    bool firstElement = false;
    /** Index of the hit entry (for tests). */
    int entry = -1;
};

/** A single cluster's flexible L0 buffer. */
class L0Buffer
{
  public:
    /**
     * @param num_entries entries in this buffer; < 0 means unbounded
     * @param subblock_bytes subblock size (L1 block / clusters)
     * @param num_clusters N, the interleaving modulus
     */
    L0Buffer(int num_entries, int subblock_bytes, int num_clusters);

    /**
     * Probe for [addr, addr+size). Reads the bytes into @p out when it
     * hits (out may be null for a pure probe). Updates LRU.
     */
    L0Lookup lookup(Addr addr, int size, std::uint8_t *out);

    /**
     * Fill one linear subblock. @p sub_data points at subblockBytes of
     * payload (the sub-slot's slice of the L1 block).
     */
    void fillLinear(Addr block_addr, int sub_index,
                    const std::uint8_t *sub_data);

    /**
     * Fill one interleaved subblock holding the elements of
     * @p block_addr whose element index is congruent to @p residue
     * (mod N) at granularity @p factor. @p block_data points at the
     * whole L1 block; the entry packs its residue's elements densely.
     */
    void fillInterleaved(Addr block_addr, int factor, int residue,
                         const std::uint8_t *block_data);

    /**
     * Write-through store update: update the most recently used
     * matching entry's bytes and invalidate every other matching entry
     * (single write port, Section 4.1). @return true if any entry
     * matched.
     */
    bool store(Addr addr, int size, const std::uint8_t *in);

    /** PSR non-primary replica: invalidate all matching entries. */
    void invalidateMatching(Addr addr, int size);

    /** invalidate_buffer instruction: drop everything, O(1) latency. */
    void invalidateAll();

    /** True when a subblock with these exact parameters is present. */
    bool hasLinear(Addr block_addr, int sub_index) const;
    bool hasInterleaved(Addr block_addr, int factor, int residue) const;

    /** Number of valid entries (for capacity tests). */
    int validEntries() const;

    int capacity() const { return numEntries; }
    bool unbounded() const { return numEntries < 0; }

    StatSet &stats() { syncStats(); return statSet; }
    const StatSet &stats() const { syncStats(); return statSet; }

  private:
    /** True when entry @p e contains all bytes of [addr, addr+size). */
    bool contains(const L0Entry &e, Addr addr, int size) const;

    /** Byte offset inside the entry payload for @p addr, or -1. */
    int payloadOffset(const L0Entry &e, Addr addr, int size) const;

    /** payloadOffset() for an entry already known to contain addr. */
    int payloadOffsetUnchecked(const L0Entry &e, Addr addr) const;

    /** Pick a slot for a new entry (invalid first, else LRU victim). */
    std::size_t victimIndex();

    /** Pack residue's elements of an L1 block densely into @p dst. */
    void gatherResidue(std::uint8_t *dst, const std::uint8_t *block_data,
                       int factor, int residue) const;

    /** Publish the hot counters into statSet (on stats() reads). */
    void syncStats() const;

    /**
     * Per-access counters as plain integers: lookup/fill/store run
     * once per simulated memory access, where a string-keyed map
     * update is measurably the dominant cost.
     */
    struct HotCounters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t fillsLinear = 0;
        std::uint64_t fillsInterleaved = 0;
        std::uint64_t storeUpdates = 0;
        std::uint64_t storeDupInvalidations = 0;
        std::uint64_t psrInvalidations = 0;
        std::uint64_t flushes = 0;
    };

    /** quick[] value of an invalid entry; rejects any realistic addr. */
    static constexpr Addr kNoBlock = 1ULL << 63;

    /** Keep quick[idx] in sync after a validity/blockAddr change. */
    void
    syncQuick(std::size_t idx)
    {
        quick[idx] =
            entries[idx].valid ? entries[idx].blockAddr : kNoBlock;
    }

    int numEntries;
    int subblockBytes;
    int numClusters;
    Addr blockBytes; ///< subblockBytes * numClusters, hoisted
    std::uint64_t useClock = 0;
    /**
     * Entries in use: the first `used` slots of entries/quick. Bounded
     * buffers use every slot. An unbounded buffer grows on demand and
     * invalidateAll() only resets the count, so a loop's fills reuse
     * the entries (and payload vectors) of the loops before it.
     */
    std::size_t used = 0;
    std::vector<L0Entry> entries;
    /**
     * Dense copy of each entry's block address (kNoBlock when
     * invalid). lookup()/store() run once per simulated access and
     * scan every entry; one unsigned compare against this array
     * rejects an entry without touching its cache line.
     */
    std::vector<Addr> quick;
    HotCounters hot;
    mutable StatSet statSet;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_L0_BUFFER_HH
