#include "spans.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>

#include "analysis/analyzer.hh"
#include "analysis/dynamic_bound.hh"
#include "analysis/race_oracle.hh"
#include "cc/compiler.hh"
#include "iasm/assembler.hh"
#include "profile/random_program.hh"
#include "profile/tracer.hh"
#include "runner/result_store.hh"
#include "runner/sweep_runner.hh"
#include "sim/cmp.hh"
#include "sim/simulator.hh"

namespace perfbench
{

namespace
{

constexpr const char *kLoad = "runner.load";
constexpr const char *kRunWorkload = "sim.workload";
constexpr const char *kStore = "runner.store";

struct Frame
{
    std::uint32_t id;
    std::uint32_t job;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_nextId{1};
std::atomic<std::uint32_t> g_nextJob{1};
std::atomic<std::uint32_t> g_nextThread{1};
std::atomic<std::int64_t> g_busyNs{0};

/** The runSweep call in flight. id is read by the pool's workers; the
 *  other fields only by the thread that opened the sweep. */
struct OpenSweep
{
    std::atomic<std::uint32_t> id{0};
    std::int64_t startNs = 0;
    bool predictSeen = false;
};
OpenSweep g_sweep;

std::mutex g_spansMutex;
std::vector<Span> g_spans; // guarded by g_spansMutex

thread_local std::vector<Frame> tl_stack;
thread_local std::uint32_t tl_thread = 0;
thread_local std::uint32_t tl_sweepJob = 0;
thread_local const char *tl_prevSweepChild = nullptr;

std::uint32_t
threadNumber()
{
    if (tl_thread == 0)
        tl_thread = g_nextThread.fetch_add(1);
    return tl_thread;
}

void
openSweep(const Scope &sweep)
{
    g_sweep.startNs = sweep.startNs();
    g_sweep.predictSeen = false;
    g_sweep.id.store(sweep.id());
}

void
closeSweep()
{
    g_sweep.id.store(0);
}

/**
 * runSweep computes its job predictions (predictSweepJobs) inside its
 * own translation unit, where a link-time wrapper cannot reach, and
 * constructs its ResultStore right after. So the prediction phase is
 * the interval from runSweep's entry to that construction, recorded as
 * a derived span; spans already recorded in it are re-parented under it.
 */
void
storeConstructed()
{
    std::uint32_t sweep = g_sweep.id.load();
    if (!g_tracing.load(std::memory_order_relaxed) || sweep == 0 ||
        tl_stack.empty() || tl_stack.back().id != sweep ||
        g_sweep.predictSeen)
        return;
    g_sweep.predictSeen = true;
    Span s;
    s.id = g_nextId.fetch_add(1);
    s.parent = sweep;
    s.job = tl_stack.back().job;
    s.thread = threadNumber();
    s.name = "analysis.predict";
    s.startNs = g_sweep.startNs;
    s.endNs = nowNs();
    std::lock_guard<std::mutex> lock(g_spansMutex);
    // The pool has not started yet, so every span under the sweep so far
    // ran on this thread inside the prediction interval.
    for (Span &c : g_spans) {
        if (c.parent == sweep)
            c.parent = s.id;
    }
    g_spans.push_back(s);
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool on)
{
    g_tracing.store(on);
}

Scope::Scope(const char *name, bool new_job)
    : recorded_(g_tracing.load(std::memory_order_relaxed))
{
    span_.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    span_.name = name;
    span_.thread = threadNumber();
    std::uint32_t sweep = g_sweep.id.load(std::memory_order_relaxed);
    span_.parent = tl_stack.empty() ? sweep : tl_stack.back().id;
    // A pool job is the load / runWorkload / store sequence one worker
    // runs directly under the sweep for one JobSpec: a load opens a job,
    // and so does a runWorkload that no load preceded.
    bool pool_job = sweep != 0 && span_.parent == sweep &&
                    (name == kLoad || name == kRunWorkload || name == kStore);
    if (new_job) {
        span_.job = g_nextJob.fetch_add(1);
    } else if (pool_job) {
        if (name == kLoad ||
            (name == kRunWorkload && tl_prevSweepChild != kLoad))
            tl_sweepJob = g_nextJob.fetch_add(1);
        tl_prevSweepChild = name;
        span_.job = tl_sweepJob;
    } else {
        span_.job = tl_stack.empty() ? 0 : tl_stack.back().job;
    }
    busy_ = new_job || pool_job;
    tl_stack.push_back({span_.id, span_.job});
    span_.startNs = nowNs();
}

Scope::~Scope()
{
    span_.endNs = nowNs();
    tl_stack.pop_back();
    if (busy_)
        g_busyNs.fetch_add(span_.endNs - span_.startNs,
                           std::memory_order_relaxed);
    if (recorded_) {
        std::lock_guard<std::mutex> lock(g_spansMutex);
        g_spans.push_back(span_);
    }
}

std::vector<Span>
takeSpans()
{
    std::lock_guard<std::mutex> lock(g_spansMutex);
    std::vector<Span> out;
    out.swap(g_spans);
    return out;
}

std::int64_t
busyNs()
{
    return g_busyNs.load();
}

void
resetBusy()
{
    g_busyNs.store(0);
}

std::string
formatSpans(const std::vector<Span> &spans)
{
    std::ostringstream os;
    for (const Span &s : spans) {
        os << s.id << '\t' << s.parent << '\t' << s.job << '\t'
           << s.thread << '\t' << s.name << '\t' << s.startNs << '\t'
           << s.endNs << '\t' << s.count << '\n';
    }
    return os.str();
}

} // namespace perfbench

// ---------------------------------------------------------------------
// Link-time wrappers. The linker resolves every reference to <sym> in
// the harness and in the simulator libraries to __wrap_<sym>, and
// __real_<sym> to the original definition (see wrapped_symbols.txt).
// Member functions take `this` as their first argument in the Itanium
// ABI, which the free-function declarations below mirror.
// ---------------------------------------------------------------------

using perfbench::Scope;
using namespace mmt;

#define PB_WRAPPED(ret, sym, wrap, real, ...)                              \
    ret real(__VA_ARGS__) __asm__("__real_" sym);                          \
    ret wrap(__VA_ARGS__) __asm__("__wrap_" sym)

PB_WRAPPED(Program, "_ZN3mmt8assembleERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmmS7_",
           wrapAssemble, realAssemble, const std::string &, Addr, Addr,
           const std::string &);
Program
wrapAssemble(const std::string &src, Addr code, Addr data,
             const std::string &name)
{
    Scope s("iasm.assemble");
    return realAssemble(src, code, data, name);
}

PB_WRAPPED(cc::CompileResult, "_ZN3mmt2cc7compileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES8_RKNS0_14CompileOptionsE",
           wrapCompile, realCompile, const std::string &,
           const std::string &, const cc::CompileOptions &);
cc::CompileResult
wrapCompile(const std::string &src, const std::string &name,
            const cc::CompileOptions &opt)
{
    Scope s("cc.compile");
    return realCompile(src, name, opt);
}

PB_WRAPPED(analysis::AnalysisResult, "_ZN3mmt8analysis14analyzeProgramERKNS_7ProgramERKNS0_15AnalysisOptionsE",
           wrapAnalyze, realAnalyze, const Program &,
           const analysis::AnalysisOptions &);
analysis::AnalysisResult
wrapAnalyze(const Program &prog, const analysis::AnalysisOptions &opt)
{
    Scope s("analysis.analyze");
    return realAnalyze(prog, opt);
}

PB_WRAPPED(analysis::MergeBoundReport, "_ZN3mmt8analysis20checkMergeUpperBoundERKNS0_14AnalysisResultERKNS_7ProgramERKSt3mapImNS_8PcCountsESt4lessImESaISt4pairIKmS8_EEE",
           wrapBound, realBound, const analysis::AnalysisResult &,
           const Program &, const PcMergeProfile &);
analysis::MergeBoundReport
wrapBound(const analysis::AnalysisResult &a, const Program &prog,
          const PcMergeProfile &profile)
{
    Scope s("analysis.bound");
    return realBound(a, prog, profile);
}

PB_WRAPPED(analysis::RaceGateReport, "_ZN3mmt8analysis11runRaceGateERKNS_8WorkloadENS_10ConfigKindEiPNS0_14AnalysisResultEPNS_9RunResultERKNS_12SimOverridesE",
           wrapRaceGate, realRaceGate, const Workload &, ConfigKind, int,
           analysis::AnalysisResult *, RunResult *, const SimOverrides &);
analysis::RaceGateReport
wrapRaceGate(const Workload &w, ConfigKind kind, int threads,
             analysis::AnalysisResult *out_analysis, RunResult *out_result,
             const SimOverrides &ov)
{
    Scope s("analysis.race_gate");
    return realRaceGate(w, kind, threads, out_analysis, out_result, ov);
}

PB_WRAPPED(Workload, "_ZN3mmt22generateRandomWorkloadERKNS_19RandomProgramParamsE",
           wrapGenerate, realGenerate, const RandomProgramParams &);
Workload
wrapGenerate(const RandomProgramParams &params)
{
    Scope s("profile.generate");
    return realGenerate(params);
}

PB_WRAPPED(void, "_ZN3mmt13FunctionalCpu3runEm", wrapGolden, realGolden,
           FunctionalCpu *, std::uint64_t);
void
wrapGolden(FunctionalCpu *self, std::uint64_t max_insts)
{
    Scope s("profile.golden");
    realGolden(self, max_insts);
}

PB_WRAPPED(RunResult, "_ZN3mmt11runWorkloadERKNS_8WorkloadENS_10ConfigKindEiRKNS_12SimOverridesEbPSt3mapImNS_8PcCountsESt4lessImESaISt4pairIKmS8_EEEPSt6vectorISH_INS_9RaceEventESaISI_EESaISK_EE",
           wrapRunWorkload, realRunWorkload, const Workload &, ConfigKind,
           int, const SimOverrides &, bool, PcMergeProfile *, RaceTrace *);
RunResult
wrapRunWorkload(const Workload &w, ConfigKind kind, int threads,
                const SimOverrides &ov, bool check_golden,
                PcMergeProfile *profile, RaceTrace *race)
{
    Scope s(perfbench::kRunWorkload);
    return realRunWorkload(w, kind, threads, ov, check_golden, profile,
                           race);
}

PB_WRAPPED(void, "_ZN3mmt3Cmp3runEv", wrapCmpRun, realCmpRun, Cmp *);
void
wrapCmpRun(Cmp *self)
{
    Scope s("core.run");
    realCmpRun(self);
    s.setCount(self->now());
}

PB_WRAPPED(ResultStore::Status, "_ZNK3mmt11ResultStore4loadERKNS_7JobSpecERNS_9RunResultE",
           wrapLoad, realLoad, const ResultStore *, const JobSpec &,
           RunResult &);
ResultStore::Status
wrapLoad(const ResultStore *self, const JobSpec &job, RunResult &out)
{
    Scope s(perfbench::kLoad);
    return realLoad(self, job, out);
}

PB_WRAPPED(bool, "_ZNK3mmt11ResultStore5storeERKNS_7JobSpecERKNS_9RunResultE",
           wrapStore, realStore, const ResultStore *, const JobSpec &,
           const RunResult &);
bool
wrapStore(const ResultStore *self, const JobSpec &job,
          const RunResult &result)
{
    Scope s(perfbench::kStore);
    return realStore(self, job, result);
}

PB_WRAPPED(void, "_ZN3mmt11ResultStoreC1ENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
           wrapStoreCtor, realStoreCtor, ResultStore *, std::string);
void
wrapStoreCtor(ResultStore *self, std::string dir)
{
    perfbench::storeConstructed();
    realStoreCtor(self, std::move(dir));
}

PB_WRAPPED(SweepOutcome, "_ZN3mmt8runSweepERKNS_9SweepSpecERKNS_12SweepOptionsE",
           wrapRunSweep, realRunSweep, const SweepSpec &,
           const SweepOptions &);
SweepOutcome
wrapRunSweep(const SweepSpec &spec, const SweepOptions &options)
{
    Scope s("runner.sweep");
    perfbench::openSweep(s);
    SweepOutcome out = realRunSweep(spec, options);
    perfbench::closeSweep();
    return out;
}
