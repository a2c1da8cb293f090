/**
 * @file
 * The benchmark's pure parts, kept apart from main.cc so the
 * self-tests can drive them: the metric catalogue, the seed -> rand-ddg
 * label derivation, the per-cell output check, the paper reference
 * points behind the paper_gap metrics, and sample statistics.
 */

#ifndef L0VLIW_PERFBENCH_CORE_HH
#define L0VLIW_PERFBENCH_CORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/executor.hh"
#include "driver/runner.hh"

namespace perfbench
{

/** One reported metric: name, unit and which direction is better. */
struct MetricDef
{
    std::string name;
    std::string unit;
    bool lowerIsBetter = true;
};

/** Printed by an untraced run: BENCHMARK.json's "end_to_end" list,
 *  read from the file the build names. */
const std::vector<MetricDef> &endToEndMetrics();
/** Printed by a traced run: BENCHMARK.json's "per_layer" list. */
const std::vector<MetricDef> &perLayerMetrics();

/** True when @p name matches [A-Za-z0-9_.-]+ and starts with a letter
 *  or digit (the BENCHMARK.json naming rule). */
bool validMetricName(const std::string &name);

/**
 * Candidate rand-ddg labels: @p count distinct `rand-s<seed>-<ops>`
 * labels with ops in [96, 128], drawn from a fixed master seed — a
 * second master seed when @p heldOut, so the two candidate sets behind
 * the open and the held-out pools are disjoint.
 */
std::vector<std::string> randCandidates(int count, bool heldOut = false);

/** How many candidates each committed pool was calibrated from. */
constexpr int kRandPoolCandidates = 512;

/** The one seed that draws from the held-out pool (see README.md). */
constexpr std::uint64_t kHeldOutSeed = 424242;

/** One calibrated rand-ddg label. */
struct RandEntry
{
    const char *label;
    double prepMs; ///< chooseUnrollFactors, as calibrated
    double cycles; ///< simulated cycles of its baseline and six cells
};

/**
 * A rand-ddg pool: eight strata of labels whose cell time (the unified
 * baseline plus the six fig5 cells) measured within 5% of one octile
 * of the open candidates' distribution. The held-out pool has the same
 * strata, filled from the held-out candidates. See README.md.
 */
const std::vector<std::vector<RandEntry>> &randStrata(bool heldOut = false);

/**
 * The rand-ddg workload's labels, a pure function of the benchmark's
 * --seed: one label from each stratum, redrawn until their prep time
 * and simulated cycles both sum within a few percent of the open
 * strata's medians — every seed draws a different grid of the same
 * profile. kHeldOutSeed draws from the held-out pool, every other seed
 * from the open pool.
 */
std::vector<std::string> randLabels(std::uint64_t seed);

/** Cells attempted and cells that failed the output check. */
struct FailTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    double
    ratio() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) / attempted;
    }
};

/**
 * The per-cell output check: the outcome must be ok, simulate with
 * zero coherence violations, and equal @p reference bit for bit
 * (lossless BenchmarkRun JSON). Counts into @p tally; false sets
 * @p why.
 */
bool checkCell(const l0vliw::driver::CellOutcome &got,
               const l0vliw::driver::BenchmarkRun &reference,
               FailTally &tally, std::string &why);

/** One fig5 reference point: an AMEAN of normalised time (or a ratio
 *  of two AMEANs when @p over is set). */
struct Fig5Reference
{
    std::string arch;
    std::string over; ///< "" = plain AMEAN of `arch`
    double paper = 0;
};

/** The fig5 footer: 8-entry ~0.84, 2-entry ~0.93, 4-entry
 *  all-candidates ~1.06x selective 4-entry. */
const std::vector<Fig5Reference> &fig5References();

/** Figure 6's average unroll factor per Mediabench model. */
const std::map<std::string, double> &paperUnroll();

/** AMEAN over benchmarks of normalised time, per arch label. */
using ArchMeans = std::map<std::string, double>;

/** Mean absolute error of @p means against fig5References(). */
double fig5Gap(const ArchMeans &means);

/** Mean |avgUnroll - paper| over the models in @p unrolls
 *  (bench -> measured l0-8 avgUnroll). */
double unrollGap(const std::map<std::string, double> &unrolls);

/** Linear-interpolated quantile @p q in [0, 1]; 0 on empty input. */
double quantile(std::vector<double> xs, double q);

inline double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

} // namespace perfbench

#endif // L0VLIW_PERFBENCH_CORE_HH
