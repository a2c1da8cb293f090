/**
 * @file
 * KernelPlan equivalence suite: the compiled-plan executor must
 * reproduce the reference cycle-walking simulator bit-for-bit —
 * computeCycles, stallCycles, memAccesses, coherenceViolations, and
 * every memory-system statistic — across every ArchSpec factory, with
 * plans reused across invocations, and over randomized loops and trip
 * counts (including degenerate trips where ramp-up and drain overlap).
 *
 * The plan's coherence oracle checks loads no store can reach against
 * the live backing store instead of the golden replay; the reference
 * keeps the whole-loop replay. The oracle suite below holds the two to
 * the same violation counts on every registered architecture and
 * benchmark, and proves the live check still sees corrupted data.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "ir/loop.hh"
#include "mem/l0_system.hh"
#include "mem/mem_system.hh"
#include "metrics/registry.hh"
#include "sched/scheduler.hh"
#include "sim/kernel_plan.hh"
#include "sim/kernel_sim.hh"
#include "workloads/kernels.hh"
#include "workloads/registry.hh"

using namespace l0vliw;
using l0vliw::driver::ArchSpec;

namespace
{

/** Every ArchSpec factory, PSR mode included. */
std::vector<ArchSpec>
allArchSpecs()
{
    return {
        ArchSpec::unified(),
        ArchSpec::l0(8),
        ArchSpec::l0(2),
        ArchSpec::l0(-1),
        ArchSpec::l0(8, sched::CoherenceMode::Psr),
        ArchSpec::l0AllCandidates(4),
        ArchSpec::l0PrefetchDistance(8, 2),
        ArchSpec::multiVliw(),
        ArchSpec::interleaved1(),
        ArchSpec::interleaved2(),
    };
}

/** Random loop: strided/irregular streams, dataflow, RMW chains. */
ir::Loop
randomLoop(std::uint64_t seed)
{
    Rng rng(seed);
    ir::Loop l("plan_rand" + std::to_string(seed));

    const int num_loads = static_cast<int>(rng.range(1, 4));
    const int num_rmw = static_cast<int>(rng.range(0, 2));
    const int num_alu = static_cast<int>(rng.range(1, 6));

    std::vector<OpId> values;

    auto add_array = [&] {
        static const std::uint64_t sizes[] = {1024, 4096, 16384};
        ir::ArrayInfo info;
        info.sizeBytes = sizes[rng.below(3)];
        info.name = "arr";
        info.base = 0x100000ULL
                    + 0x20000ULL * static_cast<Addr>(l.arrays().size())
                    + 544 * static_cast<Addr>(l.arrays().size() % 7);
        return l.addArray(info);
    };

    for (int i = 0; i < num_loads; ++i) {
        ir::Operation op;
        op.kind = ir::OpKind::Load;
        op.mem.array = add_array();
        const int elems[] = {1, 2, 4, 8};
        op.mem.elemSize = elems[rng.below(4)];
        op.mem.strided = rng.chance(0.8);
        if (op.mem.strided) {
            const long strides[] = {0, 1, -1, 2, 1, 8, 16};
            op.mem.strideElems = strides[rng.below(7)];
        }
        op.mem.offsetElems = rng.range(-2, 3);
        op.tag = "ld" + std::to_string(i);
        values.push_back(l.addOp(op));
    }

    for (int i = 0; i < num_rmw; ++i) {
        int arr = add_array();
        ir::Operation ld;
        ld.kind = ir::OpKind::Load;
        ld.mem.array = arr;
        ld.mem.elemSize = 4;
        ld.mem.strideElems = 1;
        ld.mem.offsetElems = -static_cast<long>(rng.range(1, 2));
        ld.tag = "rmw_ld" + std::to_string(i);
        OpId lid = l.addOp(ld);
        values.push_back(lid);

        ir::Operation al;
        al.kind = ir::OpKind::IntAlu;
        OpId aid = l.addOp(al);
        l.addRegEdge(lid, aid);

        ir::Operation st;
        st.kind = ir::OpKind::Store;
        st.mem.array = arr;
        st.mem.elemSize = 4;
        st.mem.strideElems = 1;
        st.mem.offsetElems = 0;
        st.tag = "rmw_st" + std::to_string(i);
        OpId sid = l.addOp(st);
        l.addRegEdge(aid, sid);
        int dist = static_cast<int>(-ld.mem.offsetElems);
        l.addMemEdge(sid, lid, dist);
        l.addMemEdge(lid, sid, 0);
    }

    for (int i = 0; i < num_alu; ++i) {
        ir::Operation op;
        op.kind = rng.chance(0.25) ? ir::OpKind::FpAlu
                                   : ir::OpKind::IntAlu;
        OpId id = l.addOp(op);
        l.addRegEdge(values[rng.below(values.size())], id);
        if (rng.chance(0.5))
            l.addRegEdge(values[rng.below(values.size())], id);
        values.push_back(id);
    }

    {
        ir::Operation st;
        st.kind = ir::OpKind::Store;
        st.mem.array = add_array();
        st.mem.elemSize = 4;
        st.mem.strideElems = 1;
        st.tag = "out";
        OpId sid = l.addOp(st);
        l.addRegEdge(values.back(), sid);
    }

    l.validate();
    return l;
}

/** Merged stats of @p mem (system counters plus per-L0 counters). */
std::map<std::string, std::uint64_t>
allStats(mem::MemSystem &mem)
{
    if (auto *l0sys = dynamic_cast<mem::L0MemSystem *>(&mem))
        return l0sys->l0Stats().all();
    return mem.stats().all();
}

/**
 * The plan and the reference executor side by side, each on its own
 * memory system with its own clock, so every invocation sees what the
 * earlier ones (of any loop) left behind.
 */
struct Lockstep
{
    explicit Lockstep(const machine::MachineConfig &config)
        : Lockstep(mem::MemSystem::create(config),
                   mem::MemSystem::create(config))
    {
    }

    Lockstep(std::unique_ptr<mem::MemSystem> ref,
             std::unique_ptr<mem::MemSystem> planned)
        : refMem(std::move(ref)), planMem(std::move(planned))
    {
    }

    /** One invocation through both; every result field must match. */
    void
    invoke(sim::KernelPlan &plan, std::uint64_t trips,
           const sim::SimOptions &opts)
    {
        sim::InvocationResult r = sim::simulateInvocationReference(
            plan.schedule(), *refMem, trips, refClock, opts);
        sim::InvocationResult p =
            plan.run(*planMem, trips, planClock, opts);
        refClock += r.totalCycles();
        planClock += p.totalCycles();
        EXPECT_EQ(p.computeCycles, r.computeCycles) << "inv " << count;
        EXPECT_EQ(p.stallCycles, r.stallCycles) << "inv " << count;
        EXPECT_EQ(p.memAccesses, r.memAccesses) << "inv " << count;
        EXPECT_EQ(p.coherenceViolations, r.coherenceViolations)
            << "inv " << count;
        violations += p.coherenceViolations;
        ++count;
    }

    void
    expectSameStats()
    {
        EXPECT_EQ(allStats(*planMem), allStats(*refMem));
    }

    std::unique_ptr<mem::MemSystem> refMem, planMem;
    Cycle refClock = 0, planClock = 0;
    std::uint64_t violations = 0; ///< summed over the plan's runs
    int count = 0;                ///< invocations so far
};

/**
 * Run @p invocations of @p schedule through both executors (one reused
 * plan vs the reference) on fresh memory systems and assert every
 * result field and every stat is identical.
 */
void
expectEquivalent(const sched::Schedule &schedule, const ArchSpec &arch,
                 std::uint64_t trips, int invocations,
                 bool check_coherence = true)
{
    SCOPED_TRACE("arch=" + arch.label + " trips="
                 + std::to_string(trips));

    sim::SimOptions opts;
    opts.checkCoherence = check_coherence;
    sim::KernelPlan plan(schedule);
    Lockstep run(arch.config);
    for (int inv = 0; inv < invocations; ++inv)
        run.invoke(plan, trips, opts);
    run.expectSameStats();
}

sched::Schedule
scheduleFor(const ir::Loop &body, const ArchSpec &arch)
{
    return sched::ModuloScheduler(arch.config, arch.sched)
        .schedule(body);
}

/** A representative loop body: a MediaBench-style stream kernel. */
ir::Loop
streamBody(int unroll)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.elemSize = 2;
    p.loadStreams = 3;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = workloads::streamMap(as, "plan_stream", p);
    return unroll > 1 ? ir::unrollLoop(l, unroll) : l;
}

} // namespace

TEST(KernelPlanEquivalence, EveryArchSpecFactory)
{
    ir::Loop body = streamBody(4);
    for (const ArchSpec &arch : allArchSpecs()) {
        sched::Schedule s = scheduleFor(body, arch);
        expectEquivalent(s, arch, 256, 3);
    }
}

TEST(KernelPlanEquivalence, CoherenceCheckOff)
{
    ir::Loop body = streamBody(4);
    for (const ArchSpec &arch : allArchSpecs()) {
        sched::Schedule s = scheduleFor(body, arch);
        expectEquivalent(s, arch, 256, 3, /*check_coherence=*/false);
    }
}

TEST(KernelPlanEquivalence, DegenerateTripCounts)
{
    // trips below / at / just above the stage count exercise the
    // overlapped ramp-up and drain phases with no steady state.
    ir::Loop body = streamBody(2);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    for (std::uint64_t trips : {1, 2, 3, 5, 17}) {
        expectEquivalent(s, arch, trips, 2);
    }
}

TEST(KernelPlanEquivalence, ZeroTripsIsEmpty)
{
    ir::Loop body = streamBody(1);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    auto mem = mem::MemSystem::create(arch.config);
    sim::KernelPlan plan(s);
    sim::SimOptions opts;
    auto r = plan.run(*mem, 0, 0, opts);
    EXPECT_EQ(r.totalCycles(), 0u);
    EXPECT_EQ(r.memAccesses, 0u);
}

TEST(KernelPlanEquivalence, MisalignedWideAccessesStraddleChunks)
{
    // 8-byte elements on a base 61 bytes into a page: golden-replay
    // reads and writes straddle the overlay's chunk boundaries.
    ir::Loop l("straddle");
    int arr = l.addArray({"arr", 0x10000 + 61, 4096});
    ir::Operation ld;
    ld.kind = ir::OpKind::Load;
    ld.mem.array = arr;
    ld.mem.elemSize = 8;
    ld.mem.strideElems = 1;
    ld.mem.offsetElems = -1;
    OpId lid = l.addOp(ld);
    ir::Operation al;
    al.kind = ir::OpKind::IntAlu;
    OpId aid = l.addOp(al);
    l.addRegEdge(lid, aid);
    ir::Operation st;
    st.kind = ir::OpKind::Store;
    st.mem.array = arr;
    st.mem.elemSize = 8;
    st.mem.strideElems = 1;
    st.mem.offsetElems = 0;
    OpId sid = l.addOp(st);
    l.addRegEdge(aid, sid);
    l.addMemEdge(sid, lid, 1);
    l.addMemEdge(lid, sid, 0);
    l.validate();

    for (const ArchSpec &arch : {ArchSpec::unified(), ArchSpec::l0(8)}) {
        sched::Schedule s = scheduleFor(l, arch);
        expectEquivalent(s, arch, 300, 3);
    }
}

TEST(KernelPlanEquivalence, PlanReuseMatchesFreshPlans)
{
    // The same plan object run back-to-back from identical machine
    // state must not leak scratch state between invocations.
    ir::Loop body = streamBody(4);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    sim::SimOptions opts;

    sim::KernelPlan reused(s);
    auto m1 = mem::MemSystem::create(arch.config);
    auto first = reused.run(*m1, 200, 0, opts);

    auto m2 = mem::MemSystem::create(arch.config);
    auto again = reused.run(*m2, 200, 0, opts);
    EXPECT_EQ(again.totalCycles(), first.totalCycles());
    EXPECT_EQ(again.stallCycles, first.stallCycles);
    EXPECT_EQ(again.memAccesses, first.memAccesses);
    EXPECT_EQ(allStats(*m2), allStats(*m1));
}

class RandomLoopEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomLoopEquivalence, PlanMatchesReferenceBitForBit)
{
    const std::uint64_t seed = GetParam();
    ir::Loop loop = randomLoop(seed);
    ir::Loop body = seed % 2 == 0 ? ir::unrollLoop(loop, 4) : loop;

    Rng trips_rng(seed * 7919 + 1);
    const std::uint64_t trips =
        static_cast<std::uint64_t>(trips_rng.range(1, 300));

    const ArchSpec archs[] = {
        ArchSpec::unified(),
        ArchSpec::l0(8),
        ArchSpec::l0(2),
        ArchSpec::interleaved2(),
    };
    for (const ArchSpec &arch : archs) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        sched::Schedule s = scheduleFor(body, arch);
        expectEquivalent(s, arch, trips, 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLoopEquivalence,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------------------ coherence oracle

namespace
{

/**
 * Plan vs reference with the oracle on, over a whole benchmark: every
 * loop for two invocations, all on one memory system per executor, so
 * each invocation reads what the ones before it stored.
 */
void
expectBenchmarkEquivalent(const workloads::Benchmark &bench,
                          const ArchSpec &arch,
                          const std::vector<int> &unrolls)
{
    SCOPED_TRACE(bench.name + " on " + arch.label);
    // Enough trips for the steady state and L0 capacity effects,
    // few enough that the whole registry sweep stays quick.
    constexpr std::uint64_t kMaxTrips = 96;

    auto plans = driver::buildLoopPlans(bench, arch, unrolls);
    sim::SimOptions opts;
    Lockstep run(arch.config);
    for (std::size_t i = 0; i < plans.size(); ++i) {
        SCOPED_TRACE("loop " + std::to_string(i));
        const std::uint64_t trips = std::min<std::uint64_t>(
            bench.loops[i].trips / unrolls[i], kMaxTrips);
        for (int inv = 0; inv < 2; ++inv)
            run.invoke(*plans[i], trips, opts);
    }
    run.expectSameStats();
}

/**
 * A test-only memory system: forwards every access to a real one and
 * flips one byte of the @p nth load that lands in [lo, hi). Stores are
 * mirrored into this wrapper's own backing store, which is the one the
 * oracles read.
 */
class CorruptingMemSystem final : public mem::MemSystem
{
  public:
    CorruptingMemSystem(const machine::MachineConfig &config, Addr lo,
                        Addr hi, std::uint64_t nth)
        : MemSystem(config), inner(mem::MemSystem::create(config)),
          lo(lo), hi(hi), nth(nth)
    {
    }

    mem::MemAccessResult
    access(const mem::MemAccess &acc, Cycle now,
           const std::uint8_t *store_data, std::uint8_t *load_out,
           mem::AccessScratch &scratch) override
    {
        mem::MemAccessResult res =
            inner->access(acc, now, store_data, load_out, scratch);
        if (store_data) {
            std::uint8_t bytes[8];
            inner->backing().read(acc.addr, bytes, acc.size);
            back.write(acc.addr, bytes, acc.size);
        } else if (load_out && acc.addr >= lo && acc.addr < hi
                   && seen++ == nth) {
            load_out[0] ^= 0x5a;
            ++flipped;
        }
        return res;
    }

    void endLoop(Cycle now) override { inner->endLoop(now); }

    int flipped = 0;

  private:
    std::unique_ptr<mem::MemSystem> inner;
    Addr lo, hi;
    std::uint64_t nth;
    std::uint64_t seen = 0;
};

} // namespace

TEST(OracleEquivalence, EveryRegisteredArchAndBenchmark)
{
    std::vector<workloads::Benchmark> benches =
        workloads::mediabenchSuite();
    // fig8's synthetic labels (bench/fig8_synthetic.cpp) and two random
    // DDGs through the registry grammar.
    for (const char *label :
         {"stream-2", "stream-8", "stride-4x2", "stride-32x4",
          "stencil2d-2", "stencil2d-4", "reduce-4", "reduce-12",
          "pchase-8", "pchase-256", "rand-s1-12", "rand-s7-16",
          "rand-s3-24", "rand-s42-40"})
        benches.push_back(workloads::workloadRegistry().resolve(label));
    ASSERT_EQ(benches.size(), 27u);

    const std::vector<std::string> &archs =
        driver::archRegistry().names();
    ASSERT_FALSE(archs.empty());
    for (const workloads::Benchmark &bench : benches) {
        const std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        for (const std::string &label : archs)
            expectBenchmarkEquivalent(
                bench, driver::archRegistry().resolve(label), unrolls);
    }
}

TEST(OracleEquivalence, MiscompiledScheduleFlagsInBothOracles)
{
    // No registered architecture miscompiles coherence, so the sweep
    // above compares zeros. This is test_sim's deliberately incoherent
    // schedule (a store in cluster 0, a flow-dependent reader serving
    // a[i-1] from a stale L0 copy in cluster 1) plus a load of an
    // array nothing stores to: the replayed loads must flag, the live
    // one must not, and both oracles must agree over two invocations.
    ir::Loop l("bad");
    int arr = l.addArray({"arr", 0x10000, 4096});
    int other = l.addArray({"other", 0x20000, 4096});
    auto mem_op = [](ir::OpKind kind, int array, long offset) {
        ir::Operation op;
        op.kind = kind;
        op.mem.array = array;
        op.mem.elemSize = 4;
        op.mem.strideElems = 1;
        op.mem.offsetElems = offset;
        return op;
    };
    OpId ld1 = l.addOp(mem_op(ir::OpKind::Load, arr, 0));
    OpId st = l.addOp(mem_op(ir::OpKind::Store, arr, 0));
    OpId ld2 = l.addOp(mem_op(ir::OpKind::Load, arr, -1));
    OpId ld3 = l.addOp(mem_op(ir::OpKind::Load, other, 0));
    l.addRegEdge(ld1, st);
    l.addMemEdge(ld1, st, 0);
    l.addMemEdge(st, ld2, 1);
    l.addMemEdge(ld2, st, 1);

    sched::Schedule s;
    s.loop = l;
    s.ii = 4;
    s.stageCount = 2;
    s.ops.resize(4);
    s.ops[ld1] = {1, 0, 1, true, ir::AccessHint::ParAccess,
                  ir::MapHint::LinearMap, ir::PrefetchHint::Positive};
    s.ops[st] = {0, 2, 1, false, ir::AccessHint::NoAccess,
                 ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    s.ops[ld2] = {1, 5, 1, true, ir::AccessHint::ParAccess,
                  ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    s.ops[ld3] = {2, 1, 1, true, ir::AccessHint::ParAccess,
                  ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};

    ArchSpec arch = ArchSpec::l0(8);
    sim::KernelPlan plan(s);
    EXPECT_FALSE(plan.liveChecked(ld1));
    EXPECT_FALSE(plan.liveChecked(ld2));
    EXPECT_TRUE(plan.liveChecked(ld3));

    sim::SimOptions opts;
    Lockstep run(arch.config);
    for (int inv = 0; inv < 2; ++inv)
        run.invoke(plan, 200, opts);
    // Stale copies surface in the first invocation; the second stores
    // the same values again, so its stale reads happen to match.
    EXPECT_GT(run.violations, 0u);
    run.expectSameStats();
}

TEST(OracleEquivalence, LiveCheckedLoadSeesCorruptedBytes)
{
    // streamBody's loads read arrays no store writes, so the plan
    // checks them live. Flip one byte of one such load: the plan and
    // the reference must each count exactly that one violation.
    ir::Loop body = streamBody(4);
    for (const ArchSpec &arch : {ArchSpec::unified(), ArchSpec::l0(8),
                                 ArchSpec::interleaved2()}) {
        SCOPED_TRACE(arch.label);
        sched::Schedule s = scheduleFor(body, arch);
        sim::KernelPlan plan(s);
        ASSERT_GT(plan.liveCheckedLoads(), 0);

        OpId target = kNoOp;
        for (OpId i = 0; i < body.numOps(); ++i)
            if (body.op(i).kind == ir::OpKind::Load) {
                ASSERT_TRUE(plan.liveChecked(i));
                target = i;
            }
        const ir::ArrayInfo &arr =
            body.array(body.op(target).mem.array);

        auto *ref_mem = new CorruptingMemSystem(
            arch.config, arr.base, arr.base + arr.sizeBytes, 37);
        auto *plan_mem = new CorruptingMemSystem(
            arch.config, arr.base, arr.base + arr.sizeBytes, 37);
        Lockstep run{std::unique_ptr<mem::MemSystem>(ref_mem),
                     std::unique_ptr<mem::MemSystem>(plan_mem)};
        sim::SimOptions opts;
        for (int inv = 0; inv < 2; ++inv)
            run.invoke(plan, 200, opts);
        EXPECT_EQ(ref_mem->flipped, 1);
        EXPECT_EQ(plan_mem->flipped, 1);
        EXPECT_EQ(run.violations, 1u);
    }
}

TEST(OracleEquivalence, SplitCountersAdvanceOncePerInvocation)
{
    ir::Loop body = streamBody(2);
    ArchSpec arch = ArchSpec::l0(8);
    sim::KernelPlan plan(scheduleFor(body, arch));
    EXPECT_EQ(plan.replayedLoads() + plan.liveCheckedLoads(),
              static_cast<int>(std::count_if(
                  body.ops().begin(), body.ops().end(),
                  [](const ir::Operation &op) {
                      return op.kind == ir::OpKind::Load;
                  })));

    // The first run registers the counters (with their help text).
    auto mem = mem::MemSystem::create(arch.config);
    sim::SimOptions opts;
    plan.run(*mem, 50, 0, opts);
    metrics::Counter &replayed = metrics::counter(
        "l0vliw_sim_oracle_loads_replayed_total", "");
    metrics::Counter &live =
        metrics::counter("l0vliw_sim_oracle_loads_live_total", "");
    const std::uint64_t replayed0 = replayed.value();
    const std::uint64_t live0 = live.value();

    plan.run(*mem, 50, 0, opts);
    EXPECT_EQ(replayed.value() - replayed0,
              static_cast<std::uint64_t>(plan.replayedLoads()) * 50);
    EXPECT_EQ(live.value() - live0,
              static_cast<std::uint64_t>(plan.liveCheckedLoads()) * 50);

    // Oracle off: nothing checked, nothing counted.
    opts.checkCoherence = false;
    plan.run(*mem, 50, 0, opts);
    EXPECT_EQ(live.value() - live0,
              static_cast<std::uint64_t>(plan.liveCheckedLoads()) * 50);

    const std::string reply = metrics::metricsQueryReply({"metrics"});
    EXPECT_NE(reply.find("l0vliw_sim_oracle_loads_replayed_total"),
              std::string::npos);
    EXPECT_NE(reply.find("l0vliw_sim_oracle_loads_live_total"),
              std::string::npos);
}
