#include "sim/kernel_plan.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "mem/l0_system.hh"
#include "metrics/registry.hh"
#include "sim/address.hh"

namespace l0vliw::sim
{

namespace detail
{

Cycle
ReadyRing::get(OpId op, std::uint64_t iter) const
{
    std::size_t idx = slot(op, iter);
    L0_ASSERT(tag[idx] == iter,
              "ready-ring miss for op %d iter %llu (depth %d)", op,
              static_cast<unsigned long long>(iter), depth);
    return ready[idx];
}

std::uint64_t
ChunkedOverlay::read(Addr addr, int size) const
{
    std::uint8_t buf[8];
    base->read(addr, buf, size);
    Addr first = addr & ~(kChunkBytes - 1);
    Addr last = (addr + size - 1) & ~(kChunkBytes - 1);
    patch(first, addr, buf, size);
    if (last != first)
        patch(last, addr, buf, size);
    return bytesToValue(buf, size);
}

const ChunkedOverlay::Chunk *
ChunkedOverlay::findChunk(Addr chunk_addr) const
{
    if (chunk_addr == cachedAddr)
        return cachedChunk;
    auto it = chunks.find(chunk_addr);
    if (it == chunks.end())
        return nullptr;
    cachedAddr = chunk_addr;
    cachedChunk = const_cast<Chunk *>(&it->second);
    return &it->second;
}

ChunkedOverlay::Chunk &
ChunkedOverlay::chunkFor(Addr chunk_addr)
{
    if (chunk_addr == cachedAddr)
        return *cachedChunk;
    Chunk &c = chunks[chunk_addr];
    cachedAddr = chunk_addr;
    cachedChunk = &c;
    return c;
}

void
ChunkedOverlay::patch(Addr chunk_addr, Addr addr, std::uint8_t *buf,
                      int size) const
{
    const Chunk *c = findChunk(chunk_addr);
    if (!c)
        return;
    for (int i = 0; i < size; ++i) {
        Addr a = addr + i;
        if ((a & ~(kChunkBytes - 1)) != chunk_addr)
            continue;
        int off = static_cast<int>(a - chunk_addr);
        if (c->mask >> off & 1)
            buf[i] = c->data[off];
    }
}

void
ChunkedOverlay::write(Addr addr, std::uint64_t value, int size)
{
    std::uint8_t buf[8];
    valueToBytes(value, buf, size);
    int i = 0;
    while (i < size) {
        Addr a = addr + i;
        Addr chunk_addr = a & ~(kChunkBytes - 1);
        Chunk &c = chunkFor(chunk_addr);
        int off = static_cast<int>(a - chunk_addr);
        int n = std::min(size - i, static_cast<int>(kChunkBytes) - off);
        copySmall(c.data + off, buf + i, n);
        c.mask |= ((1ULL << n) - 1) << off;
        i += n;
    }
}

} // namespace detail

namespace
{

/** @p x mod @p m with the result in [0, m) (m > 0). */
long
floorMod(long x, long m)
{
    long r = x % m;
    return r < 0 ? r + m : r;
}

/** The address generator of memory op @p id, matching addressOf(). */
detail::AddrGen
compileGen(const ir::Loop &loop, OpId id)
{
    const ir::Operation &op = loop.op(id);
    const ir::ArrayInfo &arr = loop.array(op.mem.array);
    std::uint64_t elems = arr.sizeBytes / op.mem.elemSize;
    L0_ASSERT(elems > 0, "array %s too small", arr.name.c_str());

    detail::AddrGen g;
    g.op = id;
    g.elems = elems;
    g.elemSize = op.mem.elemSize;
    g.lo = arr.base;
    g.hi = arr.base + elems * static_cast<Addr>(op.mem.elemSize);
    g.strided = op.mem.strided;
    if (g.strided) {
        long first = floorMod(op.mem.offsetElems,
                              static_cast<long>(elems));
        long step = floorMod(op.mem.strideElems,
                             static_cast<long>(elems));
        g.start = arr.base
                  + static_cast<Addr>(first) * op.mem.elemSize;
        g.stepBytes = static_cast<Addr>(step) * op.mem.elemSize;
    }
    return g;
}

detail::AddrCursor
initialCursor(const detail::AddrGen &g)
{
    detail::AddrCursor c;
    c.cur = g.start;
    c.iter = 0;
    return c;
}

} // namespace

KernelPlan::KernelPlan(const sched::Schedule &schedule) : sched_(schedule)
{
    {
        static metrics::Counter &builds = metrics::counter(
            "l0vliw_sim_plan_builds_total",
            "KernelPlans compiled from schedules (one per loop per "
            "cell execution)");
        builds.inc();
    }
    const ir::Loop &loop = sched_.loop;
    const int n = loop.numOps();
    const int ii = sched_.ii;
    numOps_ = n;

    int max_dist = 0;
    for (const auto &e : loop.edges())
        max_dist = std::max(max_dist, e.distance);
    for (OpId i = 0; i < n; ++i)
        maxStart_ = std::max(maxStart_, sched_.ops[i].startCycle);
    ring_.init(n, sched_.stageCount + max_dist + 2);

    // Load-use register inputs, grouped per consumer (CSR).
    std::vector<std::vector<Use>> op_uses(n);
    for (const auto &e : loop.edges()) {
        if (e.kind != ir::DepKind::Reg)
            continue;
        if (loop.op(e.src).kind != ir::OpKind::Load)
            continue;
        bool cross =
            sched_.ops[e.src].cluster != sched_.ops[e.dst].cluster;
        op_uses[e.dst].push_back({e.src, e.distance, cross});
    }

    // Bucket ops by kernel row, preserving program (OpId) order.
    std::vector<std::vector<OpId>> row_ops(ii);
    for (OpId i = 0; i < n; ++i)
        row_ops[sched_.ops[i].startCycle % ii].push_back(i);

    // Address generators, in program order.
    std::vector<int> gen_of(n, -1);
    for (OpId i = 0; i < n; ++i) {
        if (!ir::isMemKind(loop.op(i).kind))
            continue;
        gen_of[i] = static_cast<int>(gens_.size());
        gens_.push_back(compileGen(loop, i));
    }

    // The oracle's split: a load is replayed only when its address
    // range overlaps some store's; every other load is checked live.
    std::vector<int> replay_idx(n, -1);
    for (OpId i = 0; i < n; ++i) {
        if (loop.op(i).kind != ir::OpKind::Load)
            continue;
        ++numLoads_;
        const detail::AddrGen &lg = gens_[gen_of[i]];
        for (OpId j = 0; j < n; ++j) {
            if (loop.op(j).kind != ir::OpKind::Store)
                continue;
            const detail::AddrGen &sg = gens_[gen_of[j]];
            if (lg.lo < sg.hi && sg.lo < lg.hi) {
                replay_idx[i] = numReplayed_++;
                break;
            }
        }
    }

    // Golden replay list in program order.
    for (OpId i = 0; i < n; ++i) {
        const ir::Operation &op = loop.op(i);
        if (replay_idx[i] >= 0
            || (op.kind == ir::OpKind::Store && op.mem.primaryStore))
            goldenOps_.push_back({i, op.kind == ir::OpKind::Load,
                                  gen_of[i], replay_idx[i],
                                  op.mem.elemSize});
    }
    goldenCursors_.resize(gens_.size());
    execCursors_.resize(gens_.size());

    // Flatten rows: a row matters only if some op in it needs an
    // operand check or issues a memory access; rows of pure ALU ops
    // with loop-invariant inputs contribute nothing to stall or memory
    // traffic and are skipped entirely by the executor.
    bool stages_seen = false;
    for (int r = 0; r < ii; ++r) {
        Row row;
        row.row = r;
        row.depBegin = static_cast<int>(depSlots_.size());
        row.memBegin = static_cast<int>(memSlots_.size());
        for (OpId i : row_ops[r]) {
            const ir::Operation &op = loop.op(i);
            bool is_mem = ir::isMemKind(op.kind);
            if (op_uses[i].empty() && !is_mem)
                continue;

            const int stage = sched_.ops[i].startCycle / ii;
            if (!op_uses[i].empty()) {
                DepSlot ds;
                ds.stage = stage;
                ds.useBegin = static_cast<int>(uses_.size());
                uses_.insert(uses_.end(), op_uses[i].begin(),
                             op_uses[i].end());
                ds.useEnd = static_cast<int>(uses_.size());
                depSlots_.push_back(ds);
            }
            if (is_mem) {
                const sched::OpSchedule &os = sched_.ops[i];
                MemSlot sl;
                sl.op = i;
                sl.stage = stage;
                sl.isLoad = op.kind == ir::OpKind::Load;
                sl.isStore = op.kind == ir::OpKind::Store;
                sl.gen = gen_of[i];
                sl.replayIdx = replay_idx[i];
                sl.acc.isLoad = sl.isLoad;
                sl.acc.isPrefetch = op.kind == ir::OpKind::Prefetch;
                sl.acc.size = op.mem.elemSize;
                sl.acc.cluster = os.cluster;
                sl.acc.access = os.access;
                sl.acc.map = os.map;
                sl.acc.prefetch = os.prefetch;
                sl.acc.primaryStore = op.mem.primaryStore;
                sl.acc.psrReplicated = op.mem.psrReplicated;
                memSlots_.push_back(sl);
            }

            if (!stages_seen) {
                minStage_ = maxStage_ = stage;
                stages_seen = true;
            } else {
                minStage_ = std::min(minStage_, stage);
                maxStage_ = std::max(maxStage_, stage);
            }
        }
        row.depEnd = static_cast<int>(depSlots_.size());
        row.memEnd = static_cast<int>(memSlots_.size());
        if (row.depEnd > row.depBegin || row.memEnd > row.memBegin)
            rows_.push_back(row);
    }
}

Addr
KernelPlan::nextAddr(int gen, detail::AddrCursor &cursor) const
{
    const detail::AddrGen &g = gens_[gen];
    if (g.strided) {
        Addr a = cursor.cur;
        Addr next = a + g.stepBytes;
        if (next >= g.hi)
            next -= g.hi - g.lo;
        cursor.cur = next;
        return a;
    }
    std::uint64_t elem =
        mix(static_cast<std::uint64_t>(g.op) + 1, cursor.iter++)
        % g.elems;
    return g.lo + elem * static_cast<Addr>(g.elemSize);
}

bool
KernelPlan::liveChecked(OpId op) const
{
    for (const MemSlot &sl : memSlots_)
        if (sl.op == op)
            return sl.isLoad && sl.replayIdx < 0;
    return false;
}

void
KernelPlan::goldenReplay(const mem::Backing &backing, std::uint64_t trips)
{
    overlay_.reset(backing);
    for (std::size_t i = 0; i < gens_.size(); ++i)
        goldenCursors_[i] = initialCursor(gens_[i]);
    expected_.resize(static_cast<std::size_t>(numReplayed_) * trips);
    for (std::uint64_t iter = 0; iter < trips; ++iter) {
        for (const GoldenOp &g : goldenOps_) {
            Addr addr = nextAddr(g.gen, goldenCursors_[g.gen]);
            if (g.isLoad) {
                expected_[static_cast<std::size_t>(g.replayIdx) * trips
                          + iter] = overlay_.read(addr, g.size);
            } else {
                overlay_.write(addr, storeValue(g.op, iter), g.size);
            }
        }
    }
}

template <bool Steady, typename TMem>
void
KernelPlan::runRowInstance(const Row &row, long k, std::uint64_t trips,
                           Cycle start_cycle, Cycle bus_latency,
                           TMem &mem, const SimOptions &opts,
                           std::uint64_t &stall, InvocationResult &out)
{
    const long t = k * sched_.ii + row.row;

    // Operand readiness of the whole bundle first; one global stall.
    Cycle actual = start_cycle + static_cast<Cycle>(t) + stall;
    Cycle required = actual;
    for (int di = row.depBegin; di < row.depEnd; ++di) {
        const DepSlot &sl = depSlots_[di];
        const long iter = k - sl.stage;
        if (!Steady
            && (iter < 0 || iter >= static_cast<long>(trips)))
            continue;
        for (int ui = sl.useBegin; ui < sl.useEnd; ++ui) {
            const Use &u = uses_[ui];
            long j = iter - u.distance;
            if (j < 0)
                continue; // live-in: produced before the loop
            Cycle r = ring_.get(u.producer,
                                static_cast<std::uint64_t>(j));
            if (u.crossCluster)
                r += bus_latency;
            if (r > required)
                required = r;
        }
    }
    if (required > actual) {
        stall += required - actual;
        actual = required;
    }

    // Issue the bundle's memory accesses in program order.
    for (int mi = row.memBegin; mi < row.memEnd; ++mi) {
        MemSlot &sl = memSlots_[mi];
        const long iter = k - sl.stage;
        if (!Steady
            && (iter < 0 || iter >= static_cast<long>(trips)))
            continue;

        mem::MemAccess &acc = sl.acc;
        acc.addr = nextAddr(sl.gen, execCursors_[sl.gen]);

        // Neither buffer needs zeroing: the memory system writes
        // exactly acc.size bytes of load_out, and only acc.size bytes
        // of store data are read.
        std::uint8_t data[8];
        if (sl.isStore)
            valueToBytes(storeValue(sl.op,
                                    static_cast<std::uint64_t>(iter)),
                         data, acc.size);

        std::uint8_t observed[8];
        mem::MemAccessResult res =
            mem.access(acc, actual, sl.isStore ? data : nullptr,
                       sl.isLoad ? observed : nullptr, memScratch_);
        ++out.memAccesses;

        if (sl.isLoad) {
            ring_.set(sl.op, static_cast<std::uint64_t>(iter),
                      res.ready);
            if (opts.checkCoherence) {
                std::uint64_t got = bytesToValue(observed, acc.size);
                std::uint64_t want;
                if (sl.replayIdx >= 0) {
                    want = expected_[static_cast<std::size_t>(
                                         sl.replayIdx)
                                         * trips
                                     + static_cast<std::uint64_t>(iter)];
                } else {
                    // Nothing in the loop writes this load's range, so
                    // the live bytes are the program-order value.
                    std::uint8_t live[8];
                    mem.backing().read(acc.addr, live, acc.size);
                    want = bytesToValue(live, acc.size);
                }
                if (got != want) {
                    ++out.coherenceViolations;
                    if (opts.strictCoherence) {
                        panic("coherence violation: loop %s op %d "
                              "(%s) iter %llu addr %#llx: got %#llx "
                              "expected %#llx",
                              sched_.loop.name().c_str(), sl.op,
                              sched_.loop.op(sl.op).tag.c_str(),
                              static_cast<unsigned long long>(iter),
                              static_cast<unsigned long long>(acc.addr),
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(want));
                    }
                }
            }
        }
    }
}

template <typename TMem>
void
KernelPlan::runPhases(TMem &mem, std::uint64_t trips, Cycle start_cycle,
                      Cycle bus_latency, const SimOptions &opts,
                      std::uint64_t &stall, InvocationResult &out)
{
    // k counts kernel-row instances: cycle t = k * II + row. A slot is
    // live for k in [stage, stage + trips); between the last ramp-up
    // stage and the first drained one every slot of every row is live,
    // so that whole band runs unguarded. The per-slot liveness guards
    // subsume the t <= last_issue bound of the cycle walk: a live
    // slot's issue cycle is startCycle + iter * II <= maxStart +
    // (trips-1) * II.
    const long k_end = maxStage_ + static_cast<long>(trips);
    const long steady_beg = maxStage_;
    const long steady_end = std::max<long>(
        steady_beg, minStage_ + static_cast<long>(trips));
    for (long k = 0; k < steady_beg; ++k)
        for (const Row &row : rows_)
            runRowInstance<false>(row, k, trips, start_cycle,
                                  bus_latency, mem, opts, stall, out);
    for (long k = steady_beg; k < steady_end; ++k)
        for (const Row &row : rows_)
            runRowInstance<true>(row, k, trips, start_cycle,
                                 bus_latency, mem, opts, stall, out);
    for (long k = steady_end; k < k_end; ++k)
        for (const Row &row : rows_)
            runRowInstance<false>(row, k, trips, start_cycle,
                                  bus_latency, mem, opts, stall, out);
}

InvocationResult
KernelPlan::run(mem::MemSystem &mem, std::uint64_t trips,
                Cycle start_cycle, const SimOptions &opts)
{
    InvocationResult out;
    {
        static metrics::Counter &runs = metrics::counter(
            "l0vliw_sim_plan_runs_total",
            "Compiled-plan invocations (a plan builds once and runs "
            "once per loop invocation)");
        runs.inc();
    }
    if (trips == 0)
        return out;

    const machine::MachineConfig &cfg = mem.config();
    const Cycle bus_latency = cfg.busLatency;

    if (opts.checkCoherence) {
        static metrics::Counter &replayed = metrics::counter(
            "l0vliw_sim_oracle_loads_replayed_total",
            "Loads the coherence oracle checked against the golden "
            "replay (their range overlaps a store's)");
        static metrics::Counter &live = metrics::counter(
            "l0vliw_sim_oracle_loads_live_total",
            "Loads the coherence oracle checked against the live "
            "backing store (no store reaches their range)");
        replayed.inc(static_cast<std::uint64_t>(numReplayed_) * trips);
        live.inc(static_cast<std::uint64_t>(liveCheckedLoads()) * trips);
        if (numReplayed_ > 0)
            goldenReplay(mem.backing(), trips);
    }

    ring_.reset();
    for (std::size_t i = 0; i < gens_.size(); ++i)
        execCursors_[i] = initialCursor(gens_[i]);

    std::uint64_t stall = 0;
    if (!rows_.empty()) {
        // One type switch per invocation so the per-access call into
        // the (final) memory system is direct, not virtual.
        if (auto *l0 = dynamic_cast<mem::L0MemSystem *>(&mem))
            runPhases(*l0, trips, start_cycle, bus_latency, opts, stall,
                      out);
        else
            runPhases(mem, trips, start_cycle, bus_latency, opts, stall,
                      out);
    }

    const long last_issue =
        maxStart_ + static_cast<long>(trips - 1) * sched_.ii;
    out.computeCycles = static_cast<std::uint64_t>(last_issue + 1);
    // The inter-loop coherence flush: one invalidate_buffer row on L0
    // machines (constant latency because the buffers are write-through).
    if (cfg.memArch == machine::MemArch::L0Buffers)
        out.computeCycles += 1;
    out.stallCycles = stall;
    mem.endLoop(start_cycle + out.totalCycles());
    return out;
}

} // namespace l0vliw::sim
