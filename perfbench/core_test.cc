/**
 * @file
 * Self-tests of the benchmark: metric names, the output check, the
 * seed -> label derivation, and the paper reference data.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "workloads/registry.hh"

using namespace l0vliw;

namespace
{

/** One real cell: gsmdec on the 8-entry L0 machine. */
driver::BenchmarkRun
realCell()
{
    auto bench = workloads::workloadRegistry().resolve("gsmdec");
    auto uni = driver::ArchSpec::unified();
    auto arch = driver::archRegistry().resolve("l0-8");
    auto unrolls = driver::chooseUnrollFactors(bench);
    auto base = driver::runCell(
        bench, uni, unrolls, driver::buildLoopPlans(bench, uni, unrolls),
        nullptr);
    return driver::runCell(bench, arch, unrolls,
                           driver::buildLoopPlans(bench, arch, unrolls),
                           &base);
}

} // namespace

TEST(PerfbenchMetrics, NamesMatchTheNamingRule)
{
    for (const auto *defs :
         {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()})
        for (const auto &d : *defs)
            EXPECT_TRUE(perfbench::validMetricName(d.name)) << d.name;
    EXPECT_FALSE(perfbench::validMetricName(""));
    EXPECT_FALSE(perfbench::validMetricName(".hidden"));
    EXPECT_FALSE(perfbench::validMetricName("cell ms"));
    EXPECT_FALSE(perfbench::validMetricName("query_ms/p50"));
}

TEST(PerfbenchMetrics, CatalogueIsUniqueAndTimesSetUp)
{
    std::set<std::string> seen;
    for (const auto *defs :
         {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()})
        for (const auto &d : *defs) {
            EXPECT_TRUE(seen.insert(d.name).second) << d.name;
            EXPECT_FALSE(d.unit.empty()) << d.name;
        }
    const auto &e2e = perfbench::endToEndMetrics();
    auto setup = std::find_if(e2e.begin(), e2e.end(), [](const auto &d) {
        return d.name == "setup_s";
    });
    ASSERT_NE(setup, e2e.end());
    EXPECT_EQ(setup->unit, "s");
    EXPECT_TRUE(setup->lowerIsBetter);
}

TEST(PerfbenchCheck, CorruptedOutcomeCountsInFailRatio)
{
    driver::BenchmarkRun reference = realCell();
    perfbench::FailTally tally;
    std::string why;

    driver::CellOutcome good;
    good.ok = true;
    good.run = reference;
    EXPECT_TRUE(perfbench::checkCell(good, reference, tally, why));

    driver::CellOutcome flipped = good; // one simulated cycle off
    flipped.run.loopStall += 1;
    EXPECT_FALSE(perfbench::checkCell(flipped, reference, tally, why));

    driver::CellOutcome incoherent = good;
    incoherent.run.coherenceViolations = 1;
    EXPECT_FALSE(perfbench::checkCell(incoherent, reference, tally, why));

    driver::CellOutcome failed = good;
    failed.ok = false;
    failed.error = "worker died";
    EXPECT_FALSE(perfbench::checkCell(failed, reference, tally, why));

    EXPECT_EQ(tally.attempted, 4u);
    EXPECT_EQ(tally.failed, 3u);
    EXPECT_DOUBLE_EQ(tally.ratio(), 0.75);
}

TEST(PerfbenchLabels, SeedDerivationIsDeterministic)
{
    auto a = perfbench::randLabels(1);
    EXPECT_EQ(a, perfbench::randLabels(1));
    EXPECT_NE(a, perfbench::randLabels(2));
    const auto &strata = perfbench::randStrata();
    ASSERT_EQ(a.size(), strata.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        const auto &stratum = strata[k];
        EXPECT_TRUE(std::any_of(stratum.begin(), stratum.end(),
                                [&](const perfbench::RandEntry &e) {
                                    return a[k] == e.label;
                                }))
            << a[k] << " is not from stratum " << k;
    }
}

TEST(PerfbenchLabels, PoolLabelsComeFromTheCandidates)
{
    for (bool heldOut : {false, true}) {
        auto candidates = perfbench::randCandidates(
            perfbench::kRandPoolCandidates, heldOut);
        const auto &strata = perfbench::randStrata(heldOut);
        EXPECT_EQ(strata.size(), 8u);
        for (const auto &stratum : strata) {
            EXPECT_FALSE(stratum.empty());
            for (const perfbench::RandEntry &entry : stratum) {
                std::string label = entry.label;
                EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                                    label),
                          candidates.end())
                    << label;
                long ops = std::stol(label.substr(label.rfind('-') + 1));
                EXPECT_GE(ops, 96);
                EXPECT_LE(ops, 128);
                EXPECT_TRUE(workloads::workloadRegistry().tryResolve(label))
                    << label;
            }
        }
    }
}

TEST(PerfbenchLabels, OnlyTheHeldOutSeedDrawsTheHeldOutPool)
{
    std::set<std::string> open, heldOut;
    for (const auto &stratum : perfbench::randStrata(false))
        for (const auto &e : stratum)
            open.insert(e.label);
    for (const auto &stratum : perfbench::randStrata(true))
        for (const auto &e : stratum) {
            heldOut.insert(e.label);
            EXPECT_EQ(open.count(e.label), 0u) << e.label;
        }
    for (const auto &label : perfbench::randLabels(perfbench::kHeldOutSeed))
        EXPECT_EQ(heldOut.count(label), 1u) << label;
    for (std::uint64_t seed = 0; seed < 64; ++seed)
        for (const auto &label : perfbench::randLabels(seed))
            EXPECT_EQ(open.count(label), 1u) << seed << ": " << label;
}

TEST(PerfbenchPaper, UnrollReferenceMatchesTheModels)
{
    ASSERT_EQ(perfbench::paperUnroll().size(),
              workloads::benchmarkNames().size());
    for (const auto &name : workloads::benchmarkNames())
        EXPECT_DOUBLE_EQ(perfbench::paperUnroll().at(name),
                         workloads::workloadRegistry()
                             .resolve(name)
                             .paper.unroll)
            << name;
}

TEST(PerfbenchPaper, GapIsMeanAbsoluteError)
{
    perfbench::ArchMeans exact = {
        {"l0-8", 0.84}, {"l0-2", 0.93}, {"l0-4", 1.0},
        {"l0-4-allcand", 1.06}};
    EXPECT_NEAR(perfbench::fig5Gap(exact), 0.0, 1e-12);
    perfbench::ArchMeans off = exact;
    off["l0-8"] = 0.90; // +0.06 on one of three points
    EXPECT_NEAR(perfbench::fig5Gap(off), 0.02, 1e-12);
    EXPECT_NEAR(perfbench::unrollGap({{"epicdec", 2.4}, {"rasta", 2.6}}),
                0.25, 1e-12);
}

TEST(PerfbenchStats, QuantilesInterpolate)
{
    EXPECT_DOUBLE_EQ(perfbench::median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(perfbench::median({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(perfbench::quantile({0, 10}, 0.9), 9);
    EXPECT_DOUBLE_EQ(perfbench::quantile({}, 0.5), 0);
}
