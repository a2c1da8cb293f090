/**
 * @file
 * The repository's benchmark: four closed-loop workloads that each
 * load one layer of the L0-VLIW stack, driven from outside through the
 * library's public functions. See README.md in this directory for the
 * workloads, the metrics and the layer -> metric map.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 reports the end-to-end metrics;
 * --trace 1 reports the per-layer metrics, prints the layer budget
 * table and writes a Perfetto-loadable trace into the work directory.
 *
 * The binary is also its own cell worker (--cell-worker, spawned by the
 * subprocess executor) and its own cell daemon (--serve-cells <port>).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/result_sink.hh"
#include "core.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "ir/loop.hh"
#include "ir/memdep.hh"
#include "mem/mem_system.hh"
#include "metrics/trace.hh"
#include "net/framing.hh"
#include "net/socket.hh"
#include "sched/scheduler.hh"
#include "sched/validate.hh"
#include "sim/kernel_plan.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

extern char **environ;

using namespace l0vliw;
using perfbench::FailTally;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    std::exit(2);
}

// ---- workloads ----

/** Where cells run; the tcp workload also publishes to the store. */
enum class Transport { InProcess, Subprocess, Tcp };

struct Workload
{
    std::string name;
    std::vector<std::string> labels;
    std::vector<std::string> archs;
    Transport transport = Transport::InProcess;
    int workers = 1; ///< threads, worker processes or tcp connections
};

const std::vector<std::string> kFig5Archs = {
    "l0-2", "l0-4", "l0-8", "l0-16", "l0-unbounded", "l0-4-allcand"};

/** fig8_synthetic's rows: every synthetic family along its axis. */
const std::vector<std::string> kFig8Labels = {
    "stream-2",    "stream-8",    "stride-4x2", "stride-32x4",
    "stencil2d-2", "stencil2d-4", "reduce-4",   "reduce-12",
    "pchase-8",    "pchase-256",  "rand-s1-12", "rand-s7-16",
};

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "mediabench-l0") {
        w.labels = workloads::benchmarkNames();
        w.archs = kFig5Archs;
    } else if (name == "rand-ddg") {
        w.labels = perfbench::randLabels(seed);
        w.archs = kFig5Archs;
    } else if (name == "sweep-tcp-store" || name == "sweep-subprocess") {
        w.labels = kFig8Labels;
        w.archs = driver::archRegistry().names();
        w.workers = 2;
        w.transport = name == "sweep-tcp-store" ? Transport::Tcp
                                                : Transport::Subprocess;
    } else {
        return std::nullopt;
    }
    return w;
}

// ---- child processes ----

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        die("cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return buf;
}

std::string
siblingExe(const std::string &name)
{
    std::string self = selfExe();
    return self.substr(0, self.rfind('/') + 1) + name;
}

/** Where a --cell-worker appends its peak RSS (KiB) when it exits. */
const char *const kWorkerRssEnv = "PERFBENCH_WORKER_RSS";

/** VmHWM of @p pid ("self" for this process), in KiB; 0 if unknown. */
long
peakRssKb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** Pids of the live children; stopped at exit, so that neither die()
 *  nor a library fatal() leaves one running. */
std::vector<pid_t> &
liveChildren()
{
    static std::vector<pid_t> pids;
    return pids;
}

void
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
}

void
stopLiveChildren()
{
    for (pid_t pid : liveChildren()) {
        ::kill(pid, SIGTERM);
        reap(pid);
    }
    liveChildren().clear();
}

/**
 * One spawned daemon, its stdout and stderr appended to a log file.
 * The destructor stops and reaps it, so no exit path leaves one behind.
 */
class Child
{
  public:
    Child() = default;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    Child(Child &&o) noexcept { *this = std::move(o); }
    Child &
    operator=(Child &&o) noexcept
    {
        if (this != &o) {
            stop();
            pid_ = o.pid_;
            o.pid_ = -1;
        }
        return *this;
    }
    ~Child() { stop(); }

    static Child
    spawn(const std::vector<std::string> &argv, const std::string &logPath)
    {
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
        for (int fd : {1, 2})
            posix_spawn_file_actions_addopen(
                &fa, fd, logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                0644);
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        pid_t pid = -1;
        int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            die("spawn " + argv[0] + ": " + std::strerror(rc));
        Child c;
        c.pid_ = pid;
        liveChildren().push_back(pid);
        return c;
    }

    pid_t pid() const { return pid_; }

    /** SIGTERM the daemon and wait for it. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        reap(pid_);
        auto &live = liveChildren();
        live.erase(std::remove(live.begin(), live.end(), pid_), live.end());
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** One request line, one reply line; false on any transport error. */
bool
roundTrip(int fd, net::LineReader &reader, const std::string &line,
          std::string &reply)
{
    std::string error;
    return net::writeLine(fd, line, error)
           && reader.readLine(reply, error, 30000)
                  == net::LineReader::Status::Line;
}

/** Idle ping -> pong round trips through writeLine/LineReader. */
void
pingRtts(int fd, net::LineReader &reader, int n, std::vector<double> &us)
{
    for (int i = 0; i < n; ++i) {
        std::string reply;
        auto t = Clock::now();
        if (!roundTrip(fd, reader, driver::kCellPingLine, reply)
            || reply != driver::kCellPongLine)
            die("ping round trip failed");
        us.push_back(msSince(t) * 1000.0);
    }
}

// ---- tracing ----

/** Self time and call count of one span name. */
struct LayerTime
{
    double selfUs = 0;
    std::uint64_t calls = 0;
};
using Layers = std::map<std::string, LayerTime>;

/**
 * The benchmark's spans: nested on the calling thread, recorded into a
 * metrics::TraceRecorder (lane 0; the library's own per-job spans take
 * lanes 1..N), and folded into per-name self times as they close.
 */
class Tracer
{
  public:
    metrics::TraceRecorder recorder;
    Layers pass; ///< self times of the current pass

    void
    begin(const char *name)
    {
        stack_.push_back({name, recorder.nowUs(), 0});
    }

    void
    end()
    {
        Open o = stack_.back();
        stack_.pop_back();
        double dur = recorder.nowUs() - o.startUs;
        if (!stack_.empty())
            stack_.back().childUs += dur;
        LayerTime &l = pass[o.name];
        l.selfUs += dur - o.childUs;
        ++l.calls;
        metrics::TraceSpan span;
        span.name = o.name;
        span.cat = span.name.substr(0, span.name.find('.'));
        span.tsUs = o.startUs;
        span.durUs = dur;
        recorder.record(std::move(span));
    }

    /** Credit @p us of the open span's time to layer @p name: slices
     *  a worker measured itself while the span waited on it. */
    void
    attribute(const char *name, double us, std::uint64_t calls)
    {
        stack_.back().childUs += us;
        LayerTime &l = pass[name];
        l.selfUs += us;
        l.calls += calls;
    }

  private:
    struct Open
    {
        const char *name;
        double startUs;
        double childUs;
    };
    std::vector<Open> stack_;
};

/** RAII span; a no-op without a tracer (untraced passes). */
class Span
{
  public:
    Span(Tracer *t, const char *name) : t_(t)
    {
        if (t_ != nullptr)
            t_->begin(name);
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

// ---- one grid pass ----

/** A cell's plans as the traced run's mirror of buildLoopPlans
 *  builds them, for the oracle A/B. */
struct CellPlans
{
    workloads::Benchmark bench;
    driver::ArchSpec arch;
    std::vector<int> unrolls;
    std::vector<std::shared_ptr<sim::KernelPlan>> plans;
};

struct Pass
{
    double wallMs = 0;
    std::vector<driver::BenchmarkRun> baselines; ///< per label
    std::vector<driver::CellJob> jobs;
    std::vector<driver::CellOutcome> outcomes;   ///< parallel to jobs
    std::vector<double> cellMs;                  ///< parallel to jobs
    std::vector<double> publishUs;
    ResultTable table;
    int retries = 0, respawns = 0, maxInFlight = 0;
    Layers layers; ///< traced passes only
};

/** What a pass runs against: the workload plus its live services. */
struct Env
{
    const Workload *w = nullptr;
    std::vector<std::string> labels; ///< schedulable labels only
    std::string cellEndpoint;        ///< tcp: host:port
    std::unique_ptr<driver::OutcomeStream> stream; ///< store publisher
    std::string suite;
};

/** The grid rendered as the frame published to the store. */
ResultTable
gridTable(const Env &env, const Pass &p)
{
    ResultTable t;
    t.title = "perfbench " + env.w->name + "\n";
    t.header.push_back("benchmark");
    std::vector<std::string> archs;
    for (const auto &a : env.w->archs)
        if (a != "unified") {
            t.header.push_back(a);
            archs.push_back(a);
        }
    for (std::size_t b = 0; b < env.labels.size(); ++b) {
        std::vector<CellValue> row = {CellValue::text(env.labels[b])};
        double base = static_cast<double>(p.baselines[b].totalCycles());
        for (std::size_t a = 0; a < archs.size(); ++a) {
            const auto &run = p.outcomes[b * archs.size() + a].run;
            row.push_back(CellValue::fixed(run.totalCycles() / base, 4));
        }
        t.rows.push_back(std::move(row));
    }
    return t;
}

/** Execute the jobs through makeExecutor(...)->execute. */
void
executeBatch(Pass &p, Env &env, Tracer *tr)
{
    const Workload &w = *env.w;
    driver::ExecOptions opts;
    opts.jobs = w.workers;
    opts.trace = tr != nullptr ? &tr->recorder : nullptr;
    if (w.transport == Transport::Subprocess)
        opts.backend = driver::ExecBackend::Subprocess;
    if (w.transport == Transport::Tcp) {
        opts.backend = driver::ExecBackend::Tcp;
        opts.endpoints.assign(w.workers, env.cellEndpoint);
    }
    std::mutex mutex;
    p.cellMs.assign(p.jobs.size(), 0);
    driver::OutcomeStream *stream = env.stream.get();
    opts.onOutcome = [&](const driver::CellJob &job,
                         const driver::CellOutcome &outcome,
                         double wallMs) {
        double publishUs = 0;
        if (stream != nullptr) {
            auto t = Clock::now();
            stream->write(job, outcome, wallMs);
            publishUs = msSince(t) * 1000.0;
        }
        std::lock_guard<std::mutex> lock(mutex);
        p.cellMs[job.id - 1] = wallMs;
        if (stream != nullptr)
            p.publishUs.push_back(publishUs);
    };
    std::unique_ptr<driver::Executor> exec = driver::makeExecutor(opts);
    p.outcomes = exec->execute(p.jobs);
    if (auto *sub = dynamic_cast<driver::SubprocessExecutor *>(exec.get())) {
        p.retries = sub->stats().retries;
        p.respawns = sub->stats().respawns;
        p.maxInFlight = 1; // one job per worker pipe
    }
    if (auto *rem = dynamic_cast<driver::RemoteExecutor *>(exec.get())) {
        p.retries = rem->stats().retries;
        p.respawns = rem->stats().reconnects;
        p.maxInFlight = rem->stats().maxInFlight;
    }
}

/**
 * One closed-loop grid pass: resolve the labels, phase 0 (unroll
 * choice and unified baselines), then every remaining cell as one
 * batch, and — with a store — the grid frame. @p tr selects a traced
 * pass; null is the untraced pass the end-to-end metrics time.
 */
Pass
runPass(Env &env, Tracer *tr, int passNo)
{
    const Workload &w = *env.w;
    Pass p;
    if (tr != nullptr)
        tr->pass.clear();
    auto start = Clock::now();
    {
        Span root(tr, "pass");
        std::vector<workloads::Benchmark> benches;
        std::vector<driver::ArchSpec> archs;
        {
            Span s(tr, "workloads.resolve");
            for (const auto &label : env.labels)
                benches.push_back(
                    workloads::workloadRegistry().resolve(label));
            for (const auto &label : w.archs)
                archs.push_back(driver::archRegistry().resolve(label));
        }
        std::vector<std::vector<int>> unrolls;
        {
            Span s(tr, "driver.prep");
            for (const auto &bench : benches)
                unrolls.push_back(driver::chooseUnrollFactors(bench));
        }
        {
            Span s(tr, "driver.baseline");
            const driver::ArchSpec uni = driver::ArchSpec::unified();
            for (std::size_t b = 0; b < benches.size(); ++b) {
                auto plans =
                    driver::buildLoopPlans(benches[b], uni, unrolls[b]);
                p.baselines.push_back(driver::runCell(
                    benches[b], uni, unrolls[b], plans, nullptr));
            }
        }
        for (std::size_t b = 0; b < benches.size(); ++b)
            for (const auto &arch : archs) {
                if (arch.label == "unified")
                    continue;
                driver::CellJob job;
                job.id = p.jobs.size() + 1;
                job.bench = env.labels[b];
                job.arch = arch.label;
                job.unrolls = unrolls[b];
                job.baseline = p.baselines[b];
                p.jobs.push_back(std::move(job));
            }
        {
            Span s(tr, "driver.execute");
            if (env.stream != nullptr)
                env.stream->setMeta(env.suite, passNo % 2 ? "a" : "b",
                                    "pass-" + std::to_string(passNo));
            executeBatch(p, env, tr);
            if (tr != nullptr && w.transport == Transport::InProcess) {
                // One in-process worker runs the cells one after another
                // inside this span: credit it the slices executeCellJob
                // measured (plan build; resolve plus runCell).
                double planUs = 0, execUs = 0;
                for (const auto &o : p.outcomes) {
                    planUs += o.planUs;
                    execUs += o.execUs;
                }
                tr->attribute("sched.plan_build", planUs, p.outcomes.size());
                tr->attribute("sim.run", execUs - planUs, p.outcomes.size());
            }
        }
        if (env.stream != nullptr) {
            Span s(tr, "store.grid");
            p.table = gridTable(env, p);
            env.stream->writeGrid(p.table);
        }
    }
    p.wallMs = msSince(start);
    if (tr != nullptr)
        p.layers = tr->pass;
    return p;
}

// ---- checks ----

void
report(const std::string &cell, const std::string &why)
{
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", cell.c_str(),
                 why.c_str());
}

/** Check @p p against the reference grid @p ref, bit for bit. */
void
checkPass(const Pass &p, const Pass &ref, FailTally &tally,
          std::uint64_t unschedulableCells)
{
    std::string why;
    for (std::size_t b = 0; b < p.baselines.size(); ++b) {
        driver::CellOutcome base;
        base.ok = true;
        base.run = p.baselines[b];
        if (!perfbench::checkCell(base, ref.baselines[b], tally, why))
            report(p.baselines[b].bench + "/unified", why);
    }
    for (std::size_t j = 0; j < p.jobs.size(); ++j)
        if (!perfbench::checkCell(p.outcomes[j], ref.outcomes[j].run, tally,
                                  why))
            report(p.jobs[j].bench + "/" + p.jobs[j].arch, why);
    tally.attempted += unschedulableCells;
    tally.failed += unschedulableCells;
}

/**
 * Whether @p label resolves and its phase 0 and plan builds succeed on
 * every arch, tried in a forked child (the scheduler fatal()s on a
 * loop it cannot schedule). Finds the labels that sank the reference.
 */
bool
schedulable(const std::string &label, const std::vector<std::string> &archs)
{
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        die("fork: " + std::string(std::strerror(errno)));
    if (pid == 0) {
        liveChildren().clear(); // the parent's daemons are not ours
        auto bench = workloads::workloadRegistry().tryResolve(label);
        if (!bench)
            ::_exit(3);
        std::vector<int> unrolls = driver::chooseUnrollFactors(*bench);
        driver::buildLoopPlans(*bench, driver::ArchSpec::unified(),
                               unrolls);
        for (const auto &arch : archs)
            driver::buildLoopPlans(*bench,
                                   driver::archRegistry().resolve(arch),
                                   unrolls);
        ::_exit(0);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * The reference grid: the same jobs in-process, untimed, in a forked
 * child that streams the baselines, jobs and outcomes back as codec
 * lines. Empty when the child dies — the scheduler fatal()s on a loop
 * it cannot schedule, which must not end the benchmark.
 */
std::optional<Pass>
referenceInChild(const Env &env)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        die("pipe: " + std::string(std::strerror(errno)));
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        die("fork: " + std::string(std::strerror(errno)));
    if (pid == 0) {
        liveChildren().clear(); // the parent's daemons are not ours
        ::close(fds[0]);
        Workload local = *env.w;
        local.transport = Transport::InProcess;
        local.workers = 1;
        Env refEnv;
        refEnv.w = &local;
        refEnv.labels = env.labels;
        Pass p = runPass(refEnv, nullptr, 0);
        std::string error;
        bool ok = true;
        for (const auto &b : p.baselines)
            ok = ok && net::writeLine(fds[1],
                                      "B" + driver::benchmarkRunToJson(b),
                                      error);
        for (std::size_t j = 0; j < p.jobs.size(); ++j)
            ok = ok && net::writeLine(fds[1], "J" + p.jobs[j].toJson(), error)
                 && net::writeLine(fds[1], "O" + p.outcomes[j].toJson(),
                                   error);
        ::_exit(ok ? 0 : 4);
    }
    ::close(fds[1]);
    net::Fd in(fds[0]);
    net::LineReader reader(in.get());
    Pass p;
    std::string line, error;
    bool decoded = true;
    while (reader.readLine(line, error) == net::LineReader::Status::Line) {
        std::string body = line.substr(1);
        if (line[0] == 'B') {
            p.baselines.emplace_back();
            decoded = decoded && driver::benchmarkRunFromJson(
                                     body, p.baselines.back(), error);
        } else if (line[0] == 'J') {
            p.jobs.emplace_back();
            decoded = decoded
                      && driver::CellJob::fromJson(body, p.jobs.back(), error);
        } else {
            p.outcomes.emplace_back();
            decoded = decoded && driver::CellOutcome::fromJson(
                                     body, p.outcomes.back(), error);
        }
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    if (!decoded)
        die("reference grid did not decode: " + error);
    return p;
}

/**
 * The reference grid of @p env's workload. When it dies, each label is
 * tried alone; the ones that cannot be scheduled leave env.labels and
 * their cells (baseline included) add to @p unschedulableCells, to be
 * counted as failed on every pass.
 */
Pass
referencePass(Env &env, std::uint64_t &unschedulableCells)
{
    env.labels = env.w->labels;
    if (std::optional<Pass> p = referenceInChild(env))
        return std::move(*p);
    env.labels.clear();
    for (const auto &label : env.w->labels) {
        if (schedulable(label, env.w->archs)) {
            env.labels.push_back(label);
            continue;
        }
        std::fprintf(stderr, "perfbench: label %s cannot be scheduled; "
                             "its cells count as failed\n",
                     label.c_str());
        unschedulableCells += env.w->archs.size() + 1;
    }
    std::optional<Pass> p = referenceInChild(env);
    if (!p)
        die("the reference grid failed");
    return std::move(*p);
}

// ---- the traced run's analysis: plan-build split and oracle A/B ----

struct Totals
{
    std::uint64_t compute = 0, stall = 0, accesses = 0, violations = 0;

    bool
    sameExceptViolations(const Totals &o) const
    {
        return compute == o.compute && stall == o.stall
               && accesses == o.accesses;
    }
};

/** Every invocation of @p c's loops on a fresh memory system. */
double
simulateMs(CellPlans &c, bool checkCoherence, Totals &t)
{
    auto mem = mem::MemSystem::create(c.arch.config);
    sim::SimOptions opts;
    opts.checkCoherence = checkCoherence;
    Cycle clock = 0;
    auto start = Clock::now();
    for (std::size_t i = 0; i < c.bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = c.bench.loops[i];
        std::uint64_t trips = li.trips / c.unrolls[i];
        for (std::uint64_t inv = 0; inv < li.invocations; ++inv) {
            sim::InvocationResult r =
                c.plans[i]->run(*mem, trips, clock, opts);
            clock += r.totalCycles();
            t.compute += r.computeCycles;
            t.stall += r.stallCycles;
            t.accesses += r.memAccesses;
            t.violations += r.coherenceViolations;
        }
    }
    return msSince(start);
}

/** What the traced run measures off a pass's clock. */
struct Analysis
{
    double validateMs = 0, compileMs = 0, oracleMs = 0;
    std::uint64_t scheduleCalls = 0, iiSum = 0;
};

/**
 * Re-build every cell of pass @p p on a mirror of buildLoopPlans (its
 * public calls: ModuloScheduler::schedule, validateSchedule, KernelPlan)
 * to split plan build into schedule, validate and compile and to count
 * schedule calls and IIs; then time the coherence oracle as an A/B over
 * those plans, every invocation with checkCoherence on and off. Runs
 * untimed, after the pass. The mirror's plans must reproduce the cell's
 * reference run through runCell, and the two arms must agree on every
 * field but the violation count: a mismatch fails the cell, so the
 * mirror cannot drift from the program unnoticed.
 */
Analysis
analyse(const Pass &p, const Pass &ref, FailTally &tally)
{
    Analysis a;
    std::string why;
    for (std::size_t j = 0; j < p.jobs.size(); ++j) {
        const driver::CellJob &job = p.jobs[j];
        const std::string cell = job.bench + "/" + job.arch;
        CellPlans c;
        c.bench = workloads::workloadRegistry().resolve(job.bench);
        c.arch = driver::archRegistry().resolve(job.arch);
        c.unrolls = job.unrolls;
        sched::ModuloScheduler scheduler(c.arch.config, c.arch.sched);
        for (std::size_t i = 0; i < c.bench.loops.size(); ++i) {
            const workloads::LoopInstance &li = c.bench.loops[i];
            ir::Loop body =
                li.specialize ? ir::specializeLoop(li.loop) : li.loop;
            if (c.unrolls[i] > 1)
                body = ir::unrollLoop(body, c.unrolls[i]);
            sched::Schedule schedule = scheduler.schedule(body);
            ++a.scheduleCalls;
            a.iiSum += static_cast<std::uint64_t>(schedule.ii);
            auto t = Clock::now();
            if (c.arch.sched.selectiveL0)
                sched::validateSchedule(schedule, c.arch.config);
            a.validateMs += msSince(t);
            t = Clock::now();
            c.plans.push_back(std::make_shared<sim::KernelPlan>(schedule));
            a.compileMs += msSince(t);
        }
        driver::CellOutcome mirrored;
        mirrored.ok = true;
        mirrored.run = driver::runCell(c.bench, c.arch, c.unrolls, c.plans,
                                       &job.baseline);
        if (!perfbench::checkCell(mirrored, ref.outcomes[j].run, tally, why))
            report(cell, "mirror of buildLoopPlans: " + why);
        Totals on, off;
        a.oracleMs += simulateMs(c, true, on) - simulateMs(c, false, off);
        ++tally.attempted;
        if (!on.sameExceptViolations(off) || on.violations != 0) {
            ++tally.failed;
            report(cell, "oracle on/off runs differ");
        }
    }
    return a;
}

// ---- store reads ----

struct StoreClient
{
    net::Fd conn;
    net::LineReader reader;
};

/** One store query; true when it answered ok with exit status 0 and,
 *  when @p wantText is set, exactly that text. */
bool
query(StoreClient &store, const std::string &line,
      const std::string *wantText, double &ms)
{
    std::string reply;
    auto t = Clock::now();
    bool sent = roundTrip(store.conn.get(), store.reader, line, reply);
    ms = msSince(t);
    if (!sent)
        return false;
    auto doc = json::parse(reply);
    if (!doc || !doc->isObject())
        return false;
    const json::Value *ok = doc->find("ok");
    const json::Value *exit = doc->find("exit");
    const json::Value *text = doc->find("text");
    return ok != nullptr && ok->isBool() && ok->boolean()
           && exit != nullptr && exit->asI64() == 0
           && (wantText == nullptr
               || (text != nullptr && text->str() == *wantText));
}

// ---- setup ----

struct Services
{
    Child cellDaemon, storeDaemon;
    std::string cellEndpoint, storeEndpoint;
    std::string storeLog;
};

/** The job a subprocess set-up's fresh pool answers first, and the
 *  run it must answer with. */
struct Probe
{
    driver::CellJob job;
    driver::BenchmarkRun expected;
};

/** The workload's first cell, computed in-process (untimed). */
Probe
makeProbe(const Workload &w)
{
    Probe probe;
    auto bench = workloads::workloadRegistry().resolve(w.labels.front());
    const driver::ArchSpec uni = driver::ArchSpec::unified();
    probe.job.id = 1;
    probe.job.bench = w.labels.front();
    probe.job.arch = w.archs.front();
    probe.job.unrolls = driver::chooseUnrollFactors(bench);
    probe.job.baseline = driver::runCell(
        bench, uni, probe.job.unrolls,
        driver::buildLoopPlans(bench, uni, probe.job.unrolls), nullptr);
    probe.expected = driver::executeCellJob(probe.job).run;
    return probe;
}

void
resolveAll(const Workload &w)
{
    // tryResolve: a bad label fails its cells later, not the set-up.
    for (const auto &label : w.labels)
        workloads::workloadRegistry().tryResolve(label);
    for (const auto &label : w.archs)
        driver::archRegistry().resolve(label);
}

/** A loopback port nothing listens on, for a daemon to bind. */
std::uint16_t
freePort()
{
    std::string error;
    std::uint16_t port = 0;
    if (!net::listenTcp(0, error, &port).valid())
        die("no free port: " + error);
    return port;
}

/** Spawn a daemon listening on @p port, connect as soon as it listens
 *  and answer its first ping on @p conn. */
std::string
startDaemon(const std::vector<std::string> &argv, std::uint16_t port,
            const std::string &log, Child &child, net::Fd &conn,
            net::LineReader &reader)
{
    ::unlink(log.c_str());
    child = Child::spawn(argv, log);
    auto start = Clock::now();
    std::string error;
    while (!(conn = net::connectTcp("127.0.0.1", port, error)).valid()) {
        siginfo_t info{};
        if (::waitid(P_PID, static_cast<id_t>(child.pid()), &info,
                     WEXITED | WNOHANG | WNOWAIT) == 0
            && info.si_pid != 0)
            die("daemon exited during start-up; see " + log);
        if (msSince(start) > 10000)
            die("daemon did not listen: " + error + "; see " + log);
        std::this_thread::yield();
    }
    reader.reset(conn.get());
    std::string reply;
    if (!roundTrip(conn.get(), reader, driver::kCellPingLine, reply)
        || reply != driver::kCellPongLine)
        die("daemon did not answer its first ping");
    return "127.0.0.1:" + std::to_string(port);
}

/**
 * One set-up, timed: registry resolution, then the program's way to
 * its first answer. In-process that is all; subprocess times
 * makeExecutor and the first job a fresh worker pool answers; tcp
 * spawns the cell and store daemons and has each answer a first ping.
 * The tcp daemons are left in @p svc; idle ping round trips measured
 * after the timed part go to @p rttUs. Daemon files are named from
 * @p prefix, so a spare set-up leaves the live daemons' files alone.
 */
double
setupOnce(const Workload &w, const std::string &prefix, const Probe &probe,
          Services &svc, StoreClient &store, FailTally &tally,
          std::vector<double> &rttUs)
{
    auto start = Clock::now();
    resolveAll(w);
    if (w.transport == Transport::InProcess)
        return msSince(start) / 1000.0;
    if (w.transport == Transport::Subprocess) {
        double seconds = 0;
        driver::ExecOptions opts;
        opts.backend = driver::ExecBackend::Subprocess;
        opts.jobs = w.workers;
        opts.onOutcome = [&](const driver::CellJob &,
                             const driver::CellOutcome &, double) {
            seconds = msSince(start) / 1000.0;
        };
        auto outcomes = driver::makeExecutor(opts)->execute({probe.job});
        std::string why;
        if (!perfbench::checkCell(outcomes.front(), probe.expected, tally,
                                  why))
            report("set-up probe " + probe.job.bench + "/" + probe.job.arch,
                   why);
        return seconds;
    }
    net::Fd cellConn;
    net::LineReader cellReader;
    std::uint16_t port = freePort();
    svc.cellEndpoint = startDaemon(
        {selfExe(), "--serve-cells", std::to_string(port)}, port,
        prefix + "cell-daemon.log", svc.cellDaemon, cellConn, cellReader);
    // Two runs retained: this pass and the previous one, for `diff`.
    svc.storeLog = prefix + "store.ndjson";
    ::unlink(svc.storeLog.c_str());
    port = freePort();
    svc.storeEndpoint = startDaemon(
        {siblingExe("l0store"), "--serve", std::to_string(port), "--log",
         svc.storeLog, "--retain-runs", "2"},
        port, prefix + "store-daemon.log", svc.storeDaemon, store.conn,
        store.reader);
    double seconds = msSince(start) / 1000.0;
    pingRtts(cellConn.get(), cellReader, 32, rttUs);
    return seconds;
}

// ---- reporting ----

void
printBudget(const Layers &total, double passMs, std::size_t passes)
{
    std::printf("\nLayer budget (%zu traced pass%s, %.1f ms of pass wall "
                "time; self time per span):\n",
                passes, passes == 1 ? "" : "es", passMs);
    std::printf("  %-22s %12s %8s %14s\n", "layer", "total ms", "share",
                "per call ms");
    std::vector<std::pair<std::string, LayerTime>> rows(total.begin(),
                                                        total.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfUs > b.second.selfUs;
    });
    for (const auto &[name, l] : rows) {
        std::string label = name == "pass" ? "(unattributed)" : name;
        std::printf("  %-22s %12.2f %7.1f%% %14.4f\n", label.c_str(),
                    l.selfUs / 1000.0, 100.0 * l.selfUs / 1000.0 / passMs,
                    l.selfUs / 1000.0 / static_cast<double>(l.calls));
    }
}

/** Everything the measured passes leave behind for the report. */
struct Samples
{
    std::vector<double> setupS, rttUs;
    std::vector<double> passMs, cyclesPerS, overheadMs;
    std::vector<std::vector<double>> cellMs; ///< per job: one per pass
    std::vector<double> tracedMs, coverage;
    std::vector<double> planMs, workerRunMs; ///< traced, from outcomes
    std::vector<double> validateMs, compileMs, oracleMs; ///< analysis
    Analysis analysis; ///< the last traced pass's
    std::vector<double> encodeUs, decodeUs, frameBytes;
    std::vector<double> publishUs, queryMs, logBytes;
    std::map<std::string, std::vector<double>> verbMs, layerMs;
    Layers layerTotal;
    double tracedWallMs = 0;
    int retries = 0, respawns = 0, maxInFlight = 0;
    Pass last; ///< the final pass, for its grid and simulated counts
};

/** Time the codec on a traced remote pass's frames: both ends of the
 *  wire encode and decode each job and each outcome. */
void
timeCodec(const Pass &p, Samples &s)
{
    for (std::size_t j = 0; j < p.jobs.size(); ++j) {
        auto t = Clock::now();
        std::string jobLine = p.jobs[j].toJson();
        std::string outLine = p.outcomes[j].toJson();
        s.encodeUs.push_back(msSince(t) * 1000.0);
        std::string error;
        driver::CellJob job;
        driver::CellOutcome out;
        t = Clock::now();
        bool ok = driver::CellJob::fromJson(jobLine, job, error)
                  && driver::CellOutcome::fromJson(outLine, out, error);
        s.decodeUs.push_back(msSince(t) * 1000.0);
        if (!ok)
            die("codec round trip failed: " + error);
        s.frameBytes.push_back(
            static_cast<double>(jobLine.size() + outLine.size() + 2));
    }
}

/**
 * Read the pass back from the store: latest-grid must render exactly
 * the grid just published, and `diff` against the previous pass (the
 * other rev), asked in both directions, must show no cell moving.
 */
void
readBack(const Env &env, const Pass &p, StoreClient &store,
         const std::string &storeLog, FailTally &tally, Samples &s)
{
    const std::string latest = renderText(p.table);
    struct Query
    {
        const char *verb;
        std::string line;
        const std::string *text;
    };
    const Query queries[] = {
        {"latest-grid", "latest-grid " + env.suite, &latest},
        // `diff` flags only cells that got slower: ask both ways.
        {"diff", "diff " + env.suite + " a b 0", nullptr},
        {"diff", "diff " + env.suite + " b a 0", nullptr},
        {"runs", "runs " + env.suite, nullptr},
        {"stats", "stats", nullptr},
    };
    for (const Query &q : queries) {
        double ms = 0;
        ++tally.attempted;
        if (!query(store, q.line, q.text, ms)) {
            ++tally.failed;
            std::fprintf(stderr, "perfbench: check failed: store query "
                                 "'%s'\n", q.line.c_str());
        }
        s.queryMs.push_back(ms);
        s.verbMs[q.verb].push_back(ms);
    }
    struct stat st{};
    if (::stat(storeLog.c_str(), &st) == 0)
        s.logBytes.push_back(static_cast<double>(st.st_size));
}

/** Fold one checked pass into the samples (timings only when
 *  @p sampled; the warm-up pass is not). */
void
record(Pass p, bool traced, bool sampled, Samples &s)
{
    if (!sampled) {
        s.last = std::move(p);
        return;
    }
    s.retries += p.retries;
    s.respawns += p.respawns;
    s.maxInFlight = std::max(s.maxInFlight, p.maxInFlight);
    s.publishUs.insert(s.publishUs.end(), p.publishUs.begin(),
                       p.publishUs.end());
    if (traced) {
        double planUs = 0, execUs = 0;
        for (const auto &o : p.outcomes) {
            planUs += o.planUs;
            execUs += o.execUs;
        }
        s.planMs.push_back(planUs / 1000.0);
        s.workerRunMs.push_back((execUs - planUs) / 1000.0);
        s.tracedMs.push_back(p.wallMs);
        s.tracedWallMs += p.wallMs;
        for (const auto &[name, l] : p.layers) {
            s.layerTotal[name].selfUs += l.selfUs;
            s.layerTotal[name].calls += l.calls;
            s.layerMs[name].push_back(l.selfUs / 1000.0);
        }
        s.coverage.push_back(1.0 - p.layers["pass"].selfUs / 1000.0
                                       / p.wallMs);
    } else {
        std::uint64_t cycles = 0;
        for (const auto &b : p.baselines)
            cycles += b.totalCycles();
        for (const auto &o : p.outcomes)
            cycles += o.run.totalCycles();
        s.passMs.push_back(p.wallMs);
        s.cyclesPerS.push_back(static_cast<double>(cycles)
                               / (p.wallMs / 1000.0));
        s.cellMs.resize(p.cellMs.size());
        for (std::size_t j = 0; j < p.cellMs.size(); ++j)
            s.cellMs[j].push_back(p.cellMs[j]);
    }
    for (std::size_t j = 0; j < p.jobs.size(); ++j)
        s.overheadMs.push_back(p.cellMs[j] - p.outcomes[j].execUs / 1000.0);
    s.last = std::move(p);
}

/** fig5's gaps to the paper, from the reference grid. */
std::pair<double, double>
paperGaps(const Pass &ref)
{
    perfbench::ArchMeans means;
    std::map<std::string, double> unrolls;
    std::map<std::string, std::vector<double>> norm;
    for (std::size_t j = 0; j < ref.jobs.size(); ++j) {
        const auto &job = ref.jobs[j];
        const auto &run = ref.outcomes[j].run;
        norm[job.arch].push_back(
            run.totalCycles()
            / static_cast<double>(job.baseline.totalCycles()));
        if (job.arch == "l0-8")
            unrolls[job.bench] = run.avgUnroll;
    }
    for (const auto &[arch, xs] : norm)
        means[arch] = std::accumulate(xs.begin(), xs.end(), 0.0)
                      / static_cast<double>(xs.size());
    return {perfbench::fig5Gap(means), perfbench::unrollGap(unrolls)};
}

/** Every metric's value, by name. */
std::map<std::string, double>
metricValues(const Workload &w, const Pass &ref, Samples &s,
             const FailTally &tally, long rssKb, bool traced)
{
    using perfbench::median;
    using perfbench::quantile;
    std::map<std::string, double> v;
    v["grid_s"] = median(s.passMs) / 1000.0;
    v["sim_cycles_per_s"] = median(s.cyclesPerS);
    // Each cell's median over the passes, then percentiles over the
    // cells: pooling every pass's cells would let a few passes slowed
    // by the host fill the top decile.
    std::vector<double> cellMs;
    for (const auto &passes : s.cellMs)
        cellMs.push_back(median(passes));
    v["cell_ms.p50"] = median(cellMs);
    v["cell_ms.p90"] = quantile(cellMs, 0.9);
    v["setup_s"] = median(s.setupS);
    v["peak_rss_mb"] = static_cast<double>(rssKb) / 1024.0;

    // Simulated counts of one pass's cells (identical on every pass).
    std::uint64_t accesses = 0, invocations = 0;
    for (const auto &o : s.last.outcomes) {
        v["sim.cycles"] += static_cast<double>(o.run.totalCycles());
        v["sim.stall_cycles"] += static_cast<double>(o.run.loopStall);
        v["sim.coherence_violations"] +=
            static_cast<double>(o.run.coherenceViolations);
        v["mem.l0_hits"] += static_cast<double>(o.run.l0Hits);
        v["mem.l0_misses"] += static_cast<double>(o.run.l0Misses);
        v["mem.fills_linear"] += static_cast<double>(o.run.fillsLinear);
        v["mem.fills_interleaved"] +=
            static_cast<double>(o.run.fillsInterleaved);
        accesses += o.run.memAccesses;
    }
    v["mem.accesses"] = static_cast<double>(accesses);
    for (const auto &job : s.last.jobs)
        for (const auto &li :
             workloads::workloadRegistry().resolve(job.bench).loops)
            invocations += li.invocations;
    v["sim.invocations"] = static_cast<double>(invocations);

    auto layer = [&](const char *name) { return median(s.layerMs[name]); };
    // The worker's self-measured slices of each cell, riding back in its
    // outcome: plan build (schedule, validate, compile) and the rest.
    const double runMs = median(s.workerRunMs);
    v["workloads.resolve_ms"] = layer("workloads.resolve");
    v["driver.prep_ms"] = layer("driver.prep");
    v["driver.baseline_ms"] = layer("driver.baseline");
    v["sched.schedule_ms"] = median(s.planMs);
    v["sched.schedule_calls"] =
        static_cast<double>(s.analysis.scheduleCalls);
    v["sched.ii_sum"] = static_cast<double>(s.analysis.iiSum);
    v["sched.validate_ms"] = median(s.validateMs);
    v["sim.compile_ms"] = median(s.compileMs);
    v["sim.run_ms"] = runMs;
    v["sim.ns_per_access"] =
        accesses == 0 ? 0 : runMs * 1e6 / static_cast<double>(accesses);
    v["sim.oracle_ms"] = median(s.oracleMs);
    v["driver.cell_overhead_ms"] = median(s.overheadMs);
    v["driver.retries"] = s.retries;
    v["driver.respawns_or_reconnects"] = s.respawns;
    v["driver.max_in_flight"] = s.maxInFlight;
    v["common.encode_us"] = median(s.encodeUs);
    v["common.decode_us"] = median(s.decodeUs);
    v["common.frame_bytes"] = median(s.frameBytes);
    v["net.rtt_us"] = median(s.rttUs);
    v["store.publish_us"] = median(s.publishUs);
    for (const char *verb : {"latest-grid", "diff", "runs", "stats"})
        v[std::string("store.query_ms.") + verb] = median(s.verbMs[verb]);
    v["store.log_bytes"] = median(s.logBytes);
    v["query_ms.p50"] = median(s.queryMs);
    v["query_ms.p90"] = quantile(s.queryMs, 0.9);
    std::tie(v["paper_gap.fig5"], v["paper_gap.unroll"]) =
        w.name == "mediabench-l0" ? paperGaps(ref)
                                  : std::pair<double, double>(0, 0);
    v["fail_ratio"] = tally.ratio();
    v["trace.overhead_ratio"] =
        traced ? median(s.tracedMs) / median(s.passMs) : 0;
    v["trace.coverage"] = median(s.coverage);
    return v;
}

/** Every reported metric with its unit, direction and sample count. */
void
printReport(const std::vector<perfbench::MetricDef> &defs,
            std::map<std::string, double> &values, const Samples &s,
            const FailTally &tally)
{
    std::printf("\npass wall ms:");
    for (double ms : s.passMs)
        std::printf(" %.0f", ms);
    std::printf("\npasses: %zu timed, %zu traced; cells per pass %zu "
                "(+%zu baselines)\n",
                s.passMs.size(), s.tracedMs.size(), s.last.jobs.size(),
                s.last.baselines.size());
    const std::string passes = std::to_string(s.passMs.size()) + " passes";
    const std::string cells =
        passes + " x " + std::to_string(s.cellMs.size()) + " cells";
    const std::map<std::string, std::string> samples = {
        {"grid_s", passes},
        {"sim_cycles_per_s", passes},
        {"cell_ms.p50", cells},
        {"cell_ms.p90", cells},
        {"setup_s", std::to_string(s.setupS.size()) + " set-ups"},
        {"query_ms.p50", std::to_string(s.queryMs.size()) + " queries"},
        {"query_ms.p90", std::to_string(s.queryMs.size()) + " queries"},
    };
    for (const auto &d : defs) {
        auto it = samples.find(d.name);
        std::printf("  %-30s %16.6g %-8s (%s is better%s%s)\n",
                    d.name.c_str(), values[d.name], d.unit.c_str(),
                    d.lowerIsBetter ? "lower" : "higher",
                    it == samples.end() ? "" : ", n = ",
                    it == samples.end() ? "" : it->second.c_str());
    }
    std::printf("  checks: %" PRIu64 " of %" PRIu64 " failed\n",
                tally.failed, tally.attempted);
}

/** The one-line JSON result. */
std::string
resultLine(const std::vector<perfbench::MetricDef> &defs,
           std::map<std::string, double> &values, const FailTally &tally)
{
    std::string out = "{\"correct\":";
    out += tally.failed == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(tally.attempted);
    out += ",\"failed\":" + std::to_string(tally.failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < defs.size(); ++i)
        out += std::string(i ? "," : "") + json::quote(defs[i].name)
               + ":{\"value\":" + json::fromDouble(values[defs[i].name])
               + ",\"unit\":" + json::quote(defs[i].unit) + "}";
    return out + "}}";
}

/** One rand label's grid work, as a rand-ddg pass does it. */
struct LabelCost
{
    std::string label;
    double prepMs = 0;  ///< chooseUnrollFactors
    double cellsMs = 0; ///< unified baseline plus the six fig5 cells
    double cycles = 0;  ///< simulated cycles of those seven runs

    double totalMs() const { return prepMs + cellsMs; }
};

LabelCost
measureLabel(const std::string &label)
{
    LabelCost c;
    c.label = label;
    auto bench = workloads::workloadRegistry().resolve(label);
    auto start = Clock::now();
    auto unrolls = driver::chooseUnrollFactors(bench);
    c.prepMs = msSince(start);
    start = Clock::now();
    const driver::ArchSpec uni = driver::ArchSpec::unified();
    auto base = driver::runCell(bench, uni, unrolls,
                                driver::buildLoopPlans(bench, uni, unrolls),
                                nullptr);
    c.cycles = static_cast<double>(base.totalCycles());
    for (const auto &name : kFig5Archs) {
        auto arch = driver::archRegistry().resolve(name);
        c.cycles += static_cast<double>(
            driver::runCell(bench, arch, unrolls,
                            driver::buildLoopPlans(bench, arch, unrolls),
                            &base)
                .totalCycles());
    }
    c.cellsMs = msSince(start);
    return c;
}

/** Print one pool: for each octile target, up to 16 of @p costs whose
 *  cell time lies within 5% of it, nearest first. */
void
printStrata(const char *name, const std::vector<double> &targets,
            const std::vector<LabelCost> &costs)
{
    std::printf("const std::vector<std::vector<RandEntry>> %s = {\n", name);
    for (std::size_t k = 0; k < targets.size(); ++k) {
        const double target = targets[k];
        std::vector<std::pair<double, const LabelCost *>> near;
        for (const auto &c : costs)
            if (std::abs(c.cellsMs - target) <= 0.05 * target)
                near.emplace_back(std::abs(c.cellsMs - target), &c);
        if (near.empty())
            die(std::string(name) + ": no candidate near octile "
                + std::to_string(k) + "; calibrate from more candidates");
        std::sort(near.begin(), near.end());
        near.resize(std::min<std::size_t>(near.size(), 16));
        std::printf("// octile %zu: cells %.0f ms\n{", k, target);
        for (std::size_t i = 0; i < near.size(); ++i)
            std::printf("%s{\"%s\", %.1f, %.0f}", i ? ",\n " : "",
                        near[i].second->label.c_str(),
                        near[i].second->prepMs, near[i].second->cycles);
        std::printf("},\n");
    }
    std::printf("};\n");
}

/**
 * Regenerate rand_strata.inc (`perfbench --calibrate-rand >
 * rand_strata.inc`). Measure @p candidates open and @p candidates
 * held-out labels in three rounds on one thread, keeping each label's
 * fastest run (rounds spread a host's slow spells over all labels).
 * The open candidates' octiles of cell time set eight targets; each
 * pool keeps, per target, up to 16 of its own candidates within 5% of
 * it. Each entry carries its prep time and simulated cycles, which
 * randLabels() balances across the strata.
 */
int
calibrateRand(int candidates)
{
    std::vector<std::string> labels = perfbench::randCandidates(candidates);
    for (const auto &l : perfbench::randCandidates(candidates, true))
        labels.push_back(l);
    std::vector<LabelCost> costs(labels.size());
    for (int round = 0; round < 3; ++round)
        for (std::size_t i = 0; i < labels.size(); ++i) {
            LabelCost c = measureLabel(labels[i]);
            if (round == 0 || c.totalMs() < costs[i].totalMs())
                costs[i] = c;
        }
    const auto heldOutBegin = costs.begin() + candidates;
    std::vector<LabelCost> open(costs.begin(), heldOutBegin);
    std::vector<LabelCost> heldOut(heldOutBegin, costs.end());
    std::sort(open.begin(), open.end(),
              [](const LabelCost &a, const LabelCost &b) {
                  return a.cellsMs < b.cellsMs;
              });
    std::vector<double> targets;
    const std::size_t per = open.size() / 8;
    for (std::size_t k = 0; k < 8; ++k) {
        std::vector<double> cells;
        for (std::size_t i = k * per; i < (k + 1) * per; ++i)
            cells.push_back(open[i].cellsMs);
        targets.push_back(perfbench::median(cells));
    }

    std::printf("// Generated by `perfbench --calibrate-rand` from %d open "
                "and %d held-out\n// candidates; see README.md. "
                "{label, prep ms, simulated cycles}\n",
                candidates, candidates);
    printStrata("kOpenStrata", targets, open);
    printStrata("kHeldOutStrata", targets, heldOut);
    return 0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + arg);
        std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = *end == '\0' && !v.empty();
        } else if (arg == "--seconds") {
            a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (*end != '\0' || a.seconds < 1 || a.seconds > 60)
                die("--seconds wants 1..60");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                die("--trace wants 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--work-dir") {
            a.workDir = v;
        } else {
            die("unknown argument " + arg);
        }
    }
    if (!haveWorkload || !haveSeed)
        die("usage: perfbench --workload <name> --seed <n> "
            "--seconds <1..60> --trace <0|1> [--work-dir <dir>]");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--cell-worker") {
        int rc = driver::cellWorkerMain(stdin, stdout);
        // A pool worker reports its own peak RSS on the way out.
        if (const char *path = std::getenv(kWorkerRssEnv)) {
            std::ofstream(path, std::ios::app) << peakRssKb("self") << "\n";
        }
        return rc;
    }
    if (argc == 3 && std::string(argv[1]) == "--serve-cells")
        return driver::cellDaemonMain(
            static_cast<std::uint16_t>(std::strtoul(argv[2], nullptr, 10)),
            1);
    if (argc == 2 && std::string(argv[1]) == "--calibrate-rand")
        return calibrateRand(perfbench::kRandPoolCandidates);

    std::atexit(stopLiveChildren);
    Args args = parseArgs(argc, argv);
    std::optional<Workload> wl = makeWorkload(args.workload, args.seed);
    if (!wl)
        die("unknown workload '" + args.workload
            + "' (mediabench-l0 | rand-ddg | sweep-tcp-store | "
              "sweep-subprocess)");
    const Workload &w = *wl;
    ::mkdir(args.workDir.c_str(), 0755);
    net::ignoreSigpipe();
    const bool inProcess = w.transport == Transport::InProcess;
    const bool tcp = w.transport == Transport::Tcp;

    std::printf("workload %s, seed %" PRIu64 ", %d s, trace %d\n",
                w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
    if (w.name == "rand-ddg") {
        std::printf("labels:");
        for (const auto &l : w.labels)
            std::printf(" %s", l.c_str());
        std::printf("\n");
    }

    // Set up several times before the passes and a few times after each
    // (spare set-ups, torn down at once), so that the median set-up
    // samples the whole run as grid_s does; the last set-up before the
    // passes keeps its services for them.
    const int setupsBefore = inProcess ? 21 : 5;
    const int setupsPerPass = inProcess ? 10 : 2;
    FailTally tally;
    Samples smp;
    const Probe probe = w.transport == Transport::Subprocess ? makeProbe(w)
                                                             : Probe();
    Services svc;
    StoreClient store;
    auto setUp = [&](Services &services, StoreClient &client,
                     const std::string &prefix) {
        smp.setupS.push_back(setupOnce(w, args.workDir + "/" + prefix,
                                       probe, services, client, tally,
                                       smp.rttUs));
    };
    for (int rep = 0; rep < setupsBefore; ++rep) {
        store.conn.reset();
        svc.cellDaemon.stop();
        svc.storeDaemon.stop();
        setUp(svc, store, "live-");
    }

    Env env;
    env.w = &w;
    env.cellEndpoint = svc.cellEndpoint;
    env.suite = "perfbench-" + w.name;
    std::uint64_t unschedulableCells = 0;
    const Pass ref = referencePass(env, unschedulableCells);
    for (const auto &o : ref.outcomes)
        if (!o.ok) // every pass's check of this cell will fail
            std::fprintf(stderr, "perfbench: reference cell failed: %s\n",
                         o.error.c_str());
    if (tcp) {
        // The reference is the first grid the store sees, so `diff`
        // has a run at the other rev from the first pass on.
        std::string error;
        env.stream =
            driver::OutcomeStream::open("tcp:" + svc.storeEndpoint, error);
        if (!env.stream)
            die("publish: " + error);
        env.stream->setMeta(env.suite, "b", "reference");
        for (std::size_t j = 0; j < ref.jobs.size(); ++j)
            env.stream->write(ref.jobs[j], ref.outcomes[j], 0);
        env.stream->writeGrid(gridTable(env, ref));
    }

    // Pool workers spawned from here on append their peak RSS here.
    const std::string workerRss = args.workDir + "/worker-rss.txt";
    ::unlink(workerRss.c_str());
    ::setenv(kWorkerRssEnv, workerRss.c_str(), 1);

    Tracer tracer;
    auto measureStart = Clock::now();
    // Pass 1 warms caches and the allocator up: checked, not sampled.
    for (int passNo = 1;; ++passNo) {
        bool traced = args.trace && passNo % 2 == 0;
        Pass p = runPass(env, traced ? &tracer : nullptr, passNo);
        checkPass(p, ref, tally, unschedulableCells);
        if (traced) {
            smp.analysis = analyse(p, ref, tally);
            smp.validateMs.push_back(smp.analysis.validateMs);
            smp.compileMs.push_back(smp.analysis.compileMs);
            smp.oracleMs.push_back(smp.analysis.oracleMs);
        }
        if (traced && !inProcess)
            timeCodec(p, smp);
        if (tcp)
            readBack(env, p, store, svc.storeLog, tally, smp);
        record(std::move(p), traced, passNo > 1, smp);
        for (int rep = 0; rep < setupsPerPass; ++rep) {
            Services spare;
            StoreClient spareStore;
            setUp(spare, spareStore, "spare-");
        }
        bool paired = !args.trace || passNo % 2 == 0;
        if (paired && passNo >= 3
            && msSince(measureStart) >= args.seconds * 1000.0)
            break;
    }

    // Peak memory: this process plus its daemons, or plus the worker
    // pool (the largest worker's peak times the pool size).
    long rssKb = peakRssKb("self");
    if (tcp)
        rssKb += peakRssKb(std::to_string(svc.cellDaemon.pid()))
                 + peakRssKb(std::to_string(svc.storeDaemon.pid()));
    if (w.transport == Transport::Subprocess) {
        long workerKb = 0;
        std::ifstream in(workerRss);
        for (long kb; in >> kb;)
            workerKb = std::max(workerKb, kb);
        rssKb += workerKb * w.workers;
    }
    env.stream.reset();
    store.conn.reset();
    svc.cellDaemon.stop();
    svc.storeDaemon.stop();

    std::map<std::string, double> values =
        metricValues(w, ref, smp, tally, rssKb, args.trace);
    // The catalogue is BENCHMARK.json's: each metric it lists must be
    // computed here, and each metric computed here must be listed.
    std::set<std::string> listed;
    for (const auto *defs :
         {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()})
        for (const auto &d : *defs) {
            if (values.count(d.name) == 0)
                die("BENCHMARK.json lists " + d.name
                    + ", which perfbench does not compute");
            listed.insert(d.name);
        }
    for (const auto &entry : values)
        if (listed.count(entry.first) == 0)
            die("perfbench computes " + entry.first
                + ", which BENCHMARK.json does not list");
    const auto &defs = args.trace ? perfbench::perLayerMetrics()
                                  : perfbench::endToEndMetrics();
    printReport(defs, values, smp, tally);
    if (args.trace) {
        printBudget(smp.layerTotal, smp.tracedWallMs, smp.tracedMs.size());
        std::printf("  coherence oracle (A/B, inside sim.run): %.2f ms per "
                    "pass\n",
                    perfbench::median(smp.oracleMs));
        std::string path = args.workDir + "/trace-" + w.name + ".json";
        std::string error;
        if (!tracer.recorder.writeFile(path, error))
            die("trace: " + error);
        std::printf("  trace written to %s (loads in Perfetto)\n",
                    path.c_str());
    }
    std::printf("%s\n", resultLine(defs, values, tally).c_str());
    return 0;
}
