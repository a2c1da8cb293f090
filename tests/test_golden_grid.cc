/**
 * @file
 * Golden-grid regression: recompute fig5's grid (the 13 Mediabench
 * models x the six L0 sizes, plus each model's unified baseline) and
 * compare every cell's lossless BenchmarkRun JSON byte-for-byte with
 * tests/data/fig5_grid.jsonl.
 *
 * Every backend and job count is already proven bit-identical inside
 * one build; this test pins the numbers across commits, so a change
 * that claims to preserve results has to. On a mismatch the
 * recomputed grid is written to fig5_grid.actual.jsonl in the working
 * directory. A change that means to move the numbers copies that file
 * over the golden one and says so.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/executor.hh"
#include "driver/suite.hh"

using namespace l0vliw;

namespace
{

/** One line per run: "<bench>\t<arch>\t<BenchmarkRun JSON>". */
std::string
fig5Grid()
{
    driver::ExperimentSpec spec;
    spec.archs = {"l0-2",  "l0-4",         "l0-8",
                  "l0-16", "l0-unbounded", "l0-4-allcand"};
    driver::ExecOptions exec;
    exec.jobs = 2;
    driver::ResultGrid grid = driver::Suite(std::move(spec)).run(exec);

    std::ostringstream out;
    for (std::size_t b = 0; b < grid.numBenches(); ++b) {
        const driver::BenchmarkRun &base = grid.baseline(b);
        out << base.bench << '\t' << base.arch << '\t'
            << driver::benchmarkRunToJson(base) << '\n';
        for (std::size_t a = 0; a < grid.numArchs(); ++a) {
            const driver::BenchmarkRun &r = grid.cell(b, a).run;
            out << r.bench << '\t' << r.arch << '\t'
                << driver::benchmarkRunToJson(r) << '\n';
        }
    }
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The first line where @p a and @p b differ, for the failure text. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (int n = 1;; ++n) {
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "none";
        if (!ga || !gb || la != lb)
            return "line " + std::to_string(n) + "\n  golden: "
                   + (ga ? la : "<eof>") + "\n  actual: "
                   + (gb ? lb : "<eof>");
    }
}

} // namespace

TEST(GoldenGrid, Fig5MatchesCommittedRuns)
{
    const std::string golden = readFile(L0VLIW_GOLDEN_FIG5);
    const std::string actual = fig5Grid();
    if (actual != golden) {
        std::ofstream("fig5_grid.actual.jsonl", std::ios::binary)
            << actual;
        FAIL() << "fig5 grid drifted from " << L0VLIW_GOLDEN_FIG5
               << " (recomputed grid in fig5_grid.actual.jsonl); first "
               << "difference at " << firstDifference(golden, actual);
    }
}
