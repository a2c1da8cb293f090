#include "core.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace perfbench
{

namespace
{

/** One metric list of BENCHMARK.json; a malformed file is fatal. */
std::vector<MetricDef>
loadMetrics(const char *key)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    std::stringstream text;
    text << in.rdbuf();
    auto doc = l0vliw::json::parse(text.str());
    const l0vliw::json::Value *list =
        doc && doc->isObject() ? doc->find(key) : nullptr;
    if (list == nullptr || !list->isArray())
        l0vliw::fatal("perfbench: %s has no \"%s\" list",
                      PERFBENCH_BENCHMARK_JSON, key);
    std::vector<MetricDef> defs;
    for (const auto &m : list->items()) {
        const l0vliw::json::Value *name = m.find("name");
        const l0vliw::json::Value *unit = m.find("unit");
        const l0vliw::json::Value *better = m.find("better");
        if (name == nullptr || unit == nullptr || better == nullptr
            || !name->isString() || !unit->isString()
            || !better->isString()
            || (better->str() != "lower" && better->str() != "higher"))
            l0vliw::fatal("perfbench: malformed metric in %s's \"%s\"",
                          PERFBENCH_BENCHMARK_JSON, key);
        defs.push_back({name->str(), unit->str(), better->str() == "lower"});
    }
    return defs;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = loadMetrics("end_to_end");
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = loadMetrics("per_layer");
    return defs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
            static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_'
               || c == '.' || c == '-';
    });
}

std::vector<std::string>
randCandidates(int count, bool heldOut)
{
    l0vliw::Rng rng(heldOut ? 0x686c646f75742dULL : 0x6c30766c6977ULL);
    std::set<std::string> seen;
    std::vector<std::string> labels;
    while (static_cast<int>(labels.size()) < count) {
        std::uint64_t s = rng.below(1000000000ULL);
        std::uint64_t ops = 96 + rng.below(33);
        std::string label = "rand-s" + std::to_string(s) + "-"
                            + std::to_string(ops);
        if (seen.insert(label).second)
            labels.push_back(label);
    }
    return labels;
}

namespace
{
// kOpenStrata and kHeldOutStrata, generated by --calibrate-rand.
#include "rand_strata.inc"
} // namespace

const std::vector<std::vector<RandEntry>> &
randStrata(bool heldOut)
{
    return heldOut ? kHeldOutStrata : kOpenStrata;
}

std::vector<std::string>
randLabels(std::uint64_t seed)
{
    double prepTarget = 0, cyclesTarget = 0;
    for (const auto &stratum : randStrata()) {
        std::vector<double> prep, cycles;
        for (const RandEntry &e : stratum) {
            prep.push_back(e.prepMs);
            cycles.push_back(e.cycles);
        }
        prepTarget += median(prep);
        cyclesTarget += median(cycles);
    }
    const auto &strata = randStrata(seed == kHeldOutSeed);
    l0vliw::Rng rng(seed ^ 0x72616e642d646467ULL);
    std::vector<const RandEntry *> best;
    double bestScore = 0;
    for (int draw = 0; draw < 4096; ++draw) {
        std::vector<const RandEntry *> pick;
        double prep = 0, cycles = 0;
        for (const auto &stratum : strata) {
            pick.push_back(&stratum[rng.below(stratum.size())]);
            prep += pick.back()->prepMs;
            cycles += pick.back()->cycles;
        }
        double score = std::max(std::fabs(prep / prepTarget - 1) / 0.05,
                                std::fabs(cycles / cyclesTarget - 1) / 0.03);
        if (best.empty() || score < bestScore) {
            best = pick;
            bestScore = score;
        }
        if (score <= 1)
            break;
    }
    std::vector<std::string> labels;
    for (const RandEntry *e : best)
        labels.push_back(e->label);
    return labels;
}

bool
checkCell(const l0vliw::driver::CellOutcome &got,
          const l0vliw::driver::BenchmarkRun &reference,
          FailTally &tally, std::string &why)
{
    ++tally.attempted;
    if (!got.ok)
        why = "failed: " + got.error;
    else if (got.run.coherenceViolations != 0)
        why = std::to_string(got.run.coherenceViolations)
              + " coherence violation(s)";
    else if (l0vliw::driver::benchmarkRunToJson(got.run)
             != l0vliw::driver::benchmarkRunToJson(reference))
        why = "differs from the reference run";
    else
        return true;
    ++tally.failed;
    return false;
}

const std::vector<Fig5Reference> &
fig5References()
{
    static const std::vector<Fig5Reference> refs = {
        {"l0-8", "", 0.84},
        {"l0-2", "", 0.93},
        {"l0-4-allcand", "l0-4", 1.06},
    };
    return refs;
}

const std::map<std::string, double> &
paperUnroll()
{
    static const std::map<std::string, double> unroll = {
        {"epicdec", 1.9},   {"g721dec", 4.0},   {"g721enc", 4.0},
        {"gsmdec", 2.3},    {"gsmenc", 2.2},    {"jpegdec", 3.2},
        {"jpegenc", 2.6},   {"mpeg2dec", 2.2},  {"pegwitdec", 1.5},
        {"pegwitenc", 1.5}, {"pgpdec", 1.5},    {"pgpenc", 1.4},
        {"rasta", 2.6},
    };
    return unroll;
}

double
fig5Gap(const ArchMeans &means)
{
    double sum = 0;
    for (const Fig5Reference &ref : fig5References()) {
        double measured = means.at(ref.arch);
        if (!ref.over.empty())
            measured /= means.at(ref.over);
        sum += std::fabs(measured - ref.paper);
    }
    return sum / static_cast<double>(fig5References().size());
}

double
unrollGap(const std::map<std::string, double> &unrolls)
{
    double sum = 0;
    for (const auto &[bench, measured] : unrolls)
        sum += std::fabs(measured - paperUnroll().at(bench));
    return unrolls.empty() ? 0 : sum / static_cast<double>(unrolls.size());
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

} // namespace perfbench
