/**
 * @file
 * Compiled kernel plans: the static structure of a modulo schedule,
 * separated from per-invocation state.
 *
 * simulateInvocation() used to rebuild the kernel-row buckets, the
 * load-use edge lists and the ready ring on every call, then walk every
 * cycle t in [0, last_issue] and re-derive each access address with a
 * div/mod in addressOf() — O(trips x ops) hashing and allocation
 * repeated per invocation, for state that only depends on the schedule.
 * A KernelPlan compiles a Schedule once into flat arrays:
 *
 *  - the non-empty kernel rows, each with the slots that must be
 *    operand-checked (they consume a load's value) and the slots that
 *    issue a memory access, in program order;
 *  - per-memory-op affine address generators (start/step/wrap
 *    precomputed, so the steady state advances an address with one add
 *    and one compare instead of a div/mod per access);
 *  - the load-use dependence lists in CSR form;
 *  - the coherence oracle's split of the loads (below);
 *  - reusable scratch: the ready ring, the golden-replay buffers (a
 *    block-granular overlay instead of a per-byte hash map), and the
 *    memory system's AccessScratch.
 *
 * run() is then a thin executor: iteration-major stepping over only the
 * non-empty rows, with an unguarded steady-state fast path between the
 * ramp-up and drain phases. Results are bit-for-bit identical to the
 * reference executor (tests/test_plan.cc proves it); one plan is meant
 * to be reused across every invocation of its loop.
 *
 * The oracle checks every load against its program-order value, split
 * by address range at compile time. An address generator never leaves
 * its array's [lo, hi), and only stores write the backing store, so a
 * load whose [lo, hi) overlaps no store's [lo, hi) reads bytes nothing
 * in the loop writes: its program-order value is the live backing
 * store at access time, and it is compared against that ("checked
 * live"). Ranges are compared by address, not array id, because two
 * ArrayInfos may alias. Only the remaining loads need the golden
 * replay of the primary stores, and the replay is skipped when there
 * are none. The check is the same one the reference executor's
 * whole-loop replay makes, at O(stores + aliasing loads) per
 * invocation instead of O(every access).
 */

#ifndef L0VLIW_SIM_KERNEL_PLAN_HH
#define L0VLIW_SIM_KERNEL_PLAN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/mem_system.hh"
#include "sched/schedule.hh"
#include "sim/kernel_sim.hh"

namespace l0vliw::sim
{

namespace detail
{

/** Ring buffer of per-iteration load-ready times. */
class ReadyRing
{
  public:
    void
    init(int num_ops, int ring_depth)
    {
        depth = ring_depth;
        ready.assign(static_cast<std::size_t>(num_ops) * depth, 0);
        tag.assign(static_cast<std::size_t>(num_ops) * depth, ~0ULL);
    }

    /** Forget every entry (between invocations) without reallocating. */
    void
    reset()
    {
        std::fill(tag.begin(), tag.end(), ~0ULL);
    }

    void
    set(OpId op, std::uint64_t iter, Cycle when)
    {
        std::size_t idx = slot(op, iter);
        ready[idx] = when;
        tag[idx] = iter;
    }

    Cycle get(OpId op, std::uint64_t iter) const;

  private:
    std::size_t
    slot(OpId op, std::uint64_t iter) const
    {
        return static_cast<std::size_t>(op) * depth + iter % depth;
    }

    int depth = 0;
    std::vector<Cycle> ready;
    std::vector<std::uint64_t> tag;
};

/**
 * Block-granular overlay over the pre-invocation backing state for the
 * golden replay. Equivalent to a per-byte map, but one hash probe
 * covers a whole chunk and the bucket storage is reused across
 * invocations via reset().
 */
class ChunkedOverlay
{
  public:
    /** Start a new invocation's replay over @p backing. */
    void
    reset(const mem::Backing &backing)
    {
        base = &backing;
        chunks.clear();
        cachedAddr = kNoChunk;
        cachedChunk = nullptr;
    }

    std::uint64_t read(Addr addr, int size) const;
    void write(Addr addr, std::uint64_t value, int size);

  private:
    static constexpr Addr kChunkBytes = 64;
    static constexpr Addr kNoChunk = ~0ULL;

    struct Chunk
    {
        std::uint64_t mask = 0; ///< bit i set => data[i] overlaid
        std::uint8_t data[kChunkBytes];
    };

    void patch(Addr chunk_addr, Addr addr, std::uint8_t *buf,
               int size) const;

    /** Existing chunk at aligned @p chunk_addr, or null. */
    const Chunk *findChunk(Addr chunk_addr) const;

    /** Chunk at aligned @p chunk_addr, created on demand. */
    Chunk &chunkFor(Addr chunk_addr);

    const mem::Backing *base = nullptr;
    std::unordered_map<Addr, Chunk> chunks;
    /**
     * One-entry chunk cache: a strided stream touches the same chunk
     * many times in a row. Node pointers stay valid until reset().
     */
    mutable Addr cachedAddr = kNoChunk;
    mutable Chunk *cachedChunk = nullptr;
};

/**
 * Precompiled affine address generator of one memory operation.
 * Strided streams step a wrapped address; irregular streams keep the
 * deterministic hash walk of addressOf().
 */
struct AddrGen
{
    bool strided = true;
    Addr start = 0;     ///< wrapped address at iteration 0
    Addr stepBytes = 0; ///< wrapped positive step, < hi - lo
    Addr lo = 0;        ///< array base
    Addr hi = 0;        ///< wrap limit: lo + elems * elemSize
    OpId op = kNoOp;    ///< irregular: hash stream id
    std::uint64_t elems = 0;
    int elemSize = 4;
};

/** Mutable cursor of one AddrGen (one for replay, one for execution). */
struct AddrCursor
{
    Addr cur = 0;
    std::uint64_t iter = 0;
};

} // namespace detail

/**
 * A Schedule compiled for repeated execution. Compile once (the
 * constructor), then run() every invocation; the plan owns a copy of
 * the schedule, so it can outlive the scheduler that produced it (plan
 * caches key plans per benchmark/architecture/loop).
 *
 * A plan is stateful scratch plus immutable structure: run() may be
 * called any number of times, but not concurrently from two threads.
 */
class KernelPlan
{
  public:
    explicit KernelPlan(const sched::Schedule &schedule);

    const sched::Schedule &schedule() const { return sched_; }

    /**
     * Execute @p trips kernel iterations against @p mem starting at
     * @p start_cycle — same contract (and bit-for-bit the same result)
     * as simulateInvocation(), including the mem.endLoop() call.
     */
    InvocationResult run(mem::MemSystem &mem, std::uint64_t trips,
                         Cycle start_cycle, const SimOptions &opts);

    /** Loads the oracle checks against the live backing store. */
    int liveCheckedLoads() const { return numLoads_ - numReplayed_; }

    /** Loads the oracle checks against the golden replay. */
    int replayedLoads() const { return numReplayed_; }

    /** True when load @p op is checked live (false for non-loads). */
    bool liveChecked(OpId op) const;

  private:
    /** A register flow edge whose producer is a load. */
    struct Use
    {
        OpId producer = kNoOp;
        int distance = 0;
        bool crossCluster = false;
    };

    /** Operand-check record: an op consuming some load's value. */
    struct DepSlot
    {
        int stage = 0;                ///< startCycle / ii
        int useBegin = 0, useEnd = 0; ///< range into uses
    };

    /** Memory-issue record (packed; the executor scans these linearly). */
    struct MemSlot
    {
        mem::MemAccess acc;     ///< template; addr filled per access
        OpId op = kNoOp;
        int stage = 0;          ///< startCycle / ii
        int gen = -1;           ///< address generator index
        int replayIdx = -1;     ///< replayed load index; -1 = live
        bool isLoad = false, isStore = false;
    };

    /** One non-empty kernel row. */
    struct Row
    {
        int row = 0;                  ///< kernel row index in [0, ii)
        int depBegin = 0, depEnd = 0; ///< range into depSlots_
        int memBegin = 0, memEnd = 0; ///< range into memSlots_
    };

    /** Replay ops in program order (replayed loads, primary stores). */
    struct GoldenOp
    {
        OpId op = kNoOp;
        bool isLoad = false;
        int gen = -1;
        int replayIdx = -1;
        int size = 0;
    };

    Addr nextAddr(int gen, detail::AddrCursor &cursor) const;

    void goldenReplay(const mem::Backing &backing, std::uint64_t trips);

    /**
     * The ramp-up / steady / drain loops, templated on the concrete
     * memory-system type so the hot path calls access() directly
     * (run() type-switches once per invocation).
     */
    template <typename TMem>
    void runPhases(TMem &mem, std::uint64_t trips, Cycle start_cycle,
                   Cycle bus_latency, const SimOptions &opts,
                   std::uint64_t &stall, InvocationResult &out);

    template <bool Steady, typename TMem>
    void runRowInstance(const Row &row, long k, std::uint64_t trips,
                        Cycle start_cycle, Cycle bus_latency, TMem &mem,
                        const SimOptions &opts, std::uint64_t &stall,
                        InvocationResult &out);

    // ---- immutable structure ----
    sched::Schedule sched_;
    int numOps_ = 0;
    int maxStart_ = 0;  ///< latest start cycle over all ops
    int minStage_ = 0, maxStage_ = 0; ///< over ops in non-empty rows
    int numLoads_ = 0;
    int numReplayed_ = 0; ///< loads whose range some store overlaps
    std::vector<DepSlot> depSlots_; ///< row-major, program order inside
    std::vector<MemSlot> memSlots_; ///< row-major, program order inside
    std::vector<Use> uses_;         ///< CSR payload of DepSlot ranges
    std::vector<Row> rows_;         ///< the non-empty rows, ascending
    std::vector<detail::AddrGen> gens_;
    std::vector<GoldenOp> goldenOps_;

    // ---- reusable scratch ----
    detail::ReadyRing ring_;
    detail::ChunkedOverlay overlay_;
    std::vector<std::uint64_t> expected_; ///< replayIdx * trips + iter
    std::vector<detail::AddrCursor> goldenCursors_;
    std::vector<detail::AddrCursor> execCursors_;
    mem::AccessScratch memScratch_;
};

} // namespace l0vliw::sim

#endif // L0VLIW_SIM_KERNEL_PLAN_HH
