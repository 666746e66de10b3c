/**
 * @file
 * Benchmark harness: runs one workload for a time budget, checks every
 * output, and writes its measurements (and, when traced, its spans) to
 * files that perfbench/run.py turns into metrics.
 *
 *   mmt_perfbench --workload fig5c-cold|fuzz-seeded|warm-resweep
 *                 --seed N --seconds S --trace 0|1 --out FILE
 *                 --workdir DIR [--setup-only]
 *   mmt_perfbench --workload warm-resweep --prepare-only --out FILE
 *                 --workdir DIR [--corrupt-entries K]
 *
 * warm-resweep needs its store prepared first, by a --prepare-only call
 * into the same --workdir: a process of its own, so that the measured
 * process's peak RSS covers only its set-up and passes.
 *
 * A fixed reference loop runs between the units of work of every pass
 * (programs, figures), untimed: the host's speed drifts by tens of
 * percent over seconds, and a pass's wall time divided by the reference
 * time interleaved with it drifts much less.
 *
 * With --trace 1 the budget is split between untraced passes (pool
 * utilization, and the baseline of the tracing overhead) and traced
 * passes (spans), followed by an untimed counter dump of every MMT-FXR
 * job for the simulated per-layer counts.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/dynamic_bound.hh"
#include "analysis/race_oracle.hh"
#include "iasm/assembler.hh"
#include "profile/random_program.hh"
#include "runner/figures.hh"
#include "runner/result_store.hh"
#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
using namespace mmt;
using perfbench::Scope;

namespace
{

/** Pool size of the cold sweep and of the warm store's preparation. */
constexpr int kColdWorkers = 2;
/** Generated programs per fuzz-seeded pass. */
constexpr int kFuzzPrograms = 100;
/** The paper's Figure 5(c) MMT-FXR geomean speedup at 4 threads. */
constexpr double kPaperFig5cSpeedup = 1.25;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string workdir;
    bool setupOnly = false;
    bool prepareOnly = false;
    int corruptEntries = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "mmt_perfbench: %s\n", why.c_str());
    std::exit(2);
}

long
parseCount(const std::string &flag, const std::string &text)
{
    long v = 0;
    if (!parseStrictInt(text, v))
        usage(flag + " wants a non-negative integer, got '" + text + "'");
    return v;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    if (!out)
        usage("cannot write " + path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usage("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only" || flag == "--prepare-only") {
            (flag == "--setup-only" ? a.setupOnly : a.prepareOnly) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<std::uint64_t>(parseCount(flag, v));
        else if (flag == "--seconds") {
            if (!parseStrictDouble(v, a.seconds) || a.seconds <= 0.0)
                usage("--seconds wants a positive number");
        } else if (flag == "--trace")
            a.trace = parseCount(flag, v) != 0;
        else if (flag == "--out")
            a.out = v;
        else if (flag == "--workdir")
            a.workdir = v;
        else if (flag == "--corrupt-entries")
            a.corruptEntries = static_cast<int>(parseCount(flag, v));
        else
            usage("unknown flag " + flag);
    }
    if (a.workload != "fig5c-cold" && a.workload != "fuzz-seeded" &&
        a.workload != "warm-resweep")
        usage("--workload must be fig5c-cold, fuzz-seeded or "
              "warm-resweep");
    if (a.out.empty() || a.workdir.empty())
        usage("--out and --workdir are required");
    if (a.prepareOnly && a.workload != "warm-resweep")
        usage("--prepare-only applies to warm-resweep only");
    return a;
}

/** Every check the harness makes, counted against the number attempted. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; // first few, for the log

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
};

std::string
jobName(const JobSpec &job)
{
    return job.workload + "/" + configName(job.kind) + "/" +
           std::to_string(job.numThreads) + "T";
}

/** One simulated run that feeds the per-layer simulated counts. */
struct FxrJob
{
    Workload workload;
    int threads;
    RunResult result;
};

/** What one timed pass over the workload produced. */
struct Pass
{
    double wallS = 0.0; // without the reference ticks
    double refS = 0.0;  // kRefReps reps of the reference loop, from the ticks
    double tickS = 0.0; // reference ticks made during the pass
    int tickReps = 0;
    double busyS = 0.0;
    int workers = 1;
    double simCycles = 0.0;
    double speedup = 0.0;
    std::uint32_t rootSpan = 0;
};

double
geomeanOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : geomean(v);
}

/** Base ÷ MMT-FXR cycle ratios of Figure 5(c) (4 threads). */
double
fig5cSpeedup(const Figure &fig, const std::vector<RunResult> &results)
{
    ResultIndex index(fig.sweep, results);
    std::vector<double> ratios;
    for (const std::string &app : workloadNames())
        ratios.push_back(speedupRowFromResults(index, app, 4).mmtFXR);
    return geomeanOf(ratios);
}

/** The MMT-FXR geomean cell of a rendered Figure 5(a)/(c) table. */
std::string
tableFxrGeomean(const std::string &table)
{
    std::istringstream is(table);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::vector<std::string> cells;
        std::string c;
        while (ls >> c)
            cells.push_back(c);
        // "geomean  <F> <FX> <FXR> <Limit>" (the base-cycles cell is empty).
        if (cells.size() == 5 && cells[0] == "geomean")
            return cells[3];
    }
    return "";
}

double
cyclesOf(const std::vector<RunResult> &results)
{
    double sum = 0.0;
    for (const RunResult &r : results)
        sum += static_cast<double>(r.cycles);
    return sum;
}

/** Keeps the reference loop's result live. */
volatile std::uint64_t referenceSink;

/** Reference-loop repetitions of the unit wall_ref is measured in: about
 *  40 ms at 2 GHz. */
constexpr int kRefReps = 850;
/** Repetitions of one tick between two units of a pass's work. */
constexpr int kTickReps = 40;

/**
 * A fixed dispatch loop over a toy bytecode, the shape of a simulator's
 * inner loop but independent of src/, so that no change to the simulator
 * changes it. Of the kernels tried (ALU, L2- and DRAM-sized random
 * access, hash-map churn, this one), its time tracks the host-speed
 * drift of a pass most closely. Returns its wall seconds.
 */
double
referenceLoop(int reps)
{
    constexpr int kOps = 4096;
    static std::uint8_t code[kOps];
    std::uint64_t mem[1024] = {};
    std::uint64_t x = 88172645463325252ULL; // xorshift64
    for (std::uint8_t &op : code) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        op = static_cast<std::uint8_t>(x % 8);
    }
    std::uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::int64_t t0 = perfbench::nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (int pc = 0; pc < kOps; ++pc) {
            switch (code[pc]) {
              case 0: r[0] += r[1]; break;
              case 1: r[1] ^= r[2] << 1; break;
              case 2: r[2] = r[3] * 3; break;
              case 3: if (r[0] & 1) r[3] += r[4]; break;
              case 4: r[4] = mem[r[5] & 1023]; break;
              case 5: mem[r[6] & 1023] = r[0]; break;
              case 6: r[6] += r[7] >> 2; break;
              default: r[7] ^= r[pc & 7]; break;
            }
        }
    }
    std::int64_t t1 = perfbench::nowNs();
    referenceSink = r[0] + r[7];
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Run the reference loop between two units of @p p's work. Its time is
 *  taken out of the pass's wall time and makes up its reference time. */
void
tick(Pass &p, int reps = kTickReps)
{
    p.tickS += referenceLoop(reps);
    p.tickReps += reps;
}

/**
 * Time @p body as one pass under a bench.pass span, with tracing on only
 * inside it when @p traced, so the harness's own verification after a
 * pass is neither timed nor traced. The reference ticks the body makes
 * are not part of the pass's wall time; they are its bench.pass self
 * time in a trace.
 */
void
timed(Pass &p, bool traced, const std::function<void()> &body)
{
    perfbench::resetBusy();
    perfbench::setTracing(traced);
    std::int64_t t0 = perfbench::nowNs();
    {
        Scope root("bench.pass");
        p.rootSpan = root.id();
        body();
    }
    p.wallS = static_cast<double>(perfbench::nowNs() - t0) * 1e-9 - p.tickS;
    p.refS = p.tickS / p.tickReps * kRefReps;
    perfbench::setTracing(false);
    p.busyS = static_cast<double>(perfbench::busyNs()) * 1e-9;
}

std::string
renderFigure(const Figure &fig, const std::vector<RunResult> &results)
{
    Scope s("runner.render");
    return fig.render(fig.sweep, results);
}

// ---------------------------------------------------------------------
// fig5c-cold: the Figure 5(c) sweep into an empty store at 2 workers.
// ---------------------------------------------------------------------

class Fig5cCold
{
  public:
    Fig5cCold(const Args &args, Checks &checks)
        : args_(args), checks_(checks), fig_(makeFigure("5c"))
    {}

    Pass
    pass(bool traced)
    {
        fs::path dir = fs::path(args_.workdir) / "cold-store";
        fs::remove_all(dir);
        SweepOptions opt;
        opt.jobs = kColdWorkers;
        opt.cacheDir = dir.string();

        Pass p;
        p.workers = kColdWorkers;
        SweepOutcome out;
        std::string table;
        timed(p, traced, [&] {
            tick(p, kRefReps / 2);
            out = runSweep(fig_.sweep, opt);
            table = renderFigure(fig_, out.results);
            tick(p, kRefReps / 2);
        });
        p.simCycles = cyclesOf(out.results);
        p.speedup = fig5cSpeedup(fig_, out.results);
        verify(out, table, dir, p.speedup);
        fs::remove_all(dir);
        return p;
    }

    /** MMT-FXR jobs of the first pass, for the counter dump. */
    const std::vector<FxrJob> &fxrJobs() const { return fxr_; }

  private:
    void
    verify(const SweepOutcome &out, const std::string &table,
           const fs::path &dir, double speedup)
    {
        const std::vector<JobSpec> &jobs = fig_.sweep.jobs;
        checks_.expect(out.executed == jobs.size() && out.cacheHits == 0,
                       "cold sweep simulated every job");
        checks_.expect(out.corruptEntries == 0 && out.missingJobs == 0,
                       "cold sweep: no corrupt or missing entries");
        bool first = reference_.empty();
        ResultStore store(dir.string());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const RunResult &r = out.results[i];
            checks_.expect(r.goldenOk, "golden: " + jobName(jobs[i]));
            std::string bytes = serializeResult(r);
            RunResult loaded;
            bool hit =
                store.load(jobs[i], loaded) == ResultStore::Status::Hit;
            checks_.expect(hit && serializeResult(loaded) == bytes,
                           "stored entry reads back identical: " +
                               jobName(jobs[i]));
            if (first) {
                reference_.push_back(bytes);
                if (jobs[i].kind == ConfigKind::MMT_FXR)
                    fxr_.push_back({resolveWorkload(jobs[i].workload),
                                    jobs[i].numThreads, r});
            } else {
                checks_.expect(bytes == reference_[i],
                               "result identical across passes: " +
                                   jobName(jobs[i]));
            }
        }
        if (first)
            table_ = table;
        checks_.expect(table == table_, "table identical across passes");
        checks_.expect(tableFxrGeomean(table) == fmt(speedup),
                       "table geomean matches the computed speedup");
    }

    const Args &args_;
    Checks &checks_;
    Figure fig_;
    std::vector<std::string> reference_;
    std::string table_;
    std::vector<FxrJob> fxr_;
};

// ---------------------------------------------------------------------
// fuzz-seeded: generated programs, serial, every run checked.
// ---------------------------------------------------------------------

const std::vector<ConfigKind> kFuzzKinds = {ConfigKind::Base,
                                            ConfigKind::MMT_FXR};
const std::vector<int> kFuzzThreads = {2, 4};

class FuzzSeeded
{
  public:
    FuzzSeeded(const Args &args, Checks &checks)
        : args_(args), checks_(checks)
    {}

    Pass
    pass(bool traced)
    {
        bool first = fxr_.empty();
        Pass p;
        std::vector<double> ratios;
        timed(p, traced, [&] {
            for (int i = 0; i < kFuzzPrograms; ++i) {
                runProgram(i, first, ratios, p.simCycles);
                tick(p);
            }
        });
        p.speedup = geomeanOf(ratios);
        return p;
    }

    const std::vector<FxrJob> &fxrJobs() const { return fxr_; }

  private:
    /** Generate program @p i of a pass and run every check on it. */
    void
    runProgram(int i, bool keep, std::vector<double> &ratios,
               double &cycles)
    {
        Scope job("bench.job", true);
        RandomProgramParams params;
        params.seed = args_.seed + static_cast<std::uint64_t>(i);
        params.multiExecution = i % 2 == 1;
        Workload w = generateRandomWorkload(params);
        Program prog = assemble(w.source, defaultCodeBase, defaultDataBase,
                                w.name);
        // The analysis must model the program's own thread semantics:
        // with the MT model, ME programs show false bound violations.
        analysis::AnalysisOptions opt;
        opt.multiExecution = w.multiExecution;
        analysis::AnalysisResult an = analysis::analyzeProgram(prog, opt);
        std::string tag = w.name + (w.multiExecution ? " (ME)" : " (MT)");
        for (int threads : kFuzzThreads) {
            Cycles base = 0;
            for (ConfigKind kind : kFuzzKinds) {
                std::string what = tag + " " + configName(kind) + " " +
                                   std::to_string(threads) + "T";
                PcMergeProfile profile;
                RunResult r = runWorkload(w, kind, threads, SimOverrides(),
                                          /*check_golden=*/true, &profile);
                checks_.expect(r.goldenOk, "golden: " + what);
                checks_.expect(
                    analysis::checkMergeUpperBound(an, prog, profile).ok(),
                    "static merge bound: " + what);
                if (!w.multiExecution) {
                    checks_.expect(
                        analysis::runRaceGate(w, kind, threads).ok(),
                        "race gate: " + what);
                }
                cycles += static_cast<double>(r.cycles);
                if (kind == ConfigKind::Base) {
                    base = r.cycles;
                } else {
                    ratios.push_back(static_cast<double>(base) /
                                     static_cast<double>(r.cycles));
                    if (keep)
                        fxr_.push_back({w, threads, r});
                }
            }
        }
    }

    const Args &args_;
    Checks &checks_;
    std::vector<FxrJob> fxr_; // MMT-FXR runs of the first pass
};

// ---------------------------------------------------------------------
// warm-resweep: every figure from a store prepared before timing.
// ---------------------------------------------------------------------

class WarmResweep
{
  public:
    WarmResweep(const Args &args, Checks &checks)
        : args_(args), checks_(checks),
          store_((fs::path(args.workdir) / "warm-store").string()),
          refDir_(fs::path(args.workdir) / "warm-reference")
    {
        for (const std::string &id : figureIds())
            figs_.push_back(makeFigure(id));
    }

    /**
     * Untimed fixture, run by --prepare-only: simulate every figure into
     * the store once, and write the fresh results and rendered tables to
     * files as the reference the measured process compares against.
     */
    void
    prepare()
    {
        fs::remove_all(store_);
        fs::remove_all(refDir_);
        fs::create_directories(refDir_);
        SweepOptions opt;
        opt.jobs = kColdWorkers;
        opt.cacheDir = store_;
        for (const Figure &fig : figs_) {
            SweepOutcome out = runSweep(fig.sweep, opt);
            checks_.expect(out.goldenFailures == 0,
                           "store preparation golden checks: fig" + fig.id);
            // Length-prefixed, since a serialized result spans lines.
            std::string records;
            for (const RunResult &r : out.results) {
                std::string bytes = serializeResult(r);
                records += std::to_string(bytes.size()) + "\n" + bytes;
            }
            writeFile(refPath(fig, ".results"), records);
            writeFile(refPath(fig, ".table"),
                      fig.render(fig.sweep, out.results));
        }
        corrupt(args_.corruptEntries);
    }

    /** Read the reference a --prepare-only process wrote. */
    void
    loadReference()
    {
        for (const Figure &fig : figs_) {
            std::string records = readFile(refPath(fig, ".results"));
            std::vector<std::string> bytes;
            std::size_t pos = 0;
            while (pos < records.size()) {
                std::size_t eol = records.find('\n', pos);
                long len = 0;
                if (eol == std::string::npos ||
                    !parseStrictInt(records.substr(pos, eol - pos), len) ||
                    eol + 1 + static_cast<std::size_t>(len) > records.size())
                    usage("malformed reference for fig" + fig.id);
                bytes.push_back(records.substr(eol + 1, len));
                pos = eol + 1 + static_cast<std::size_t>(len);
            }
            if (bytes.size() != fig.sweep.jobs.size())
                usage("reference for fig" + fig.id + " has " +
                      std::to_string(bytes.size()) + " results");
            refResults_.push_back(std::move(bytes));
            refTables_.push_back(readFile(refPath(fig, ".table")));
        }
    }

    Pass
    pass(bool traced)
    {
        SweepOptions opt;
        opt.jobs = 1;
        opt.cacheDir = store_;
        std::vector<SweepOutcome> outs;
        std::vector<std::string> tables;
        Pass p;
        timed(p, traced, [&] {
            for (const Figure &fig : figs_) {
                outs.push_back(runSweep(fig.sweep, opt));
                tables.push_back(renderFigure(fig, outs.back().results));
                tick(p);
            }
        });
        for (std::size_t f = 0; f < figs_.size(); ++f) {
            p.simCycles += cyclesOf(outs[f].results);
            if (figs_[f].id == "5c")
                p.speedup = fig5cSpeedup(figs_[f], outs[f].results);
            verify(f, outs[f], tables[f]);
        }
        if (fxr_.empty())
            fillFxrJobs(outs);
        return p;
    }

    const std::vector<FxrJob> &fxrJobs() const { return fxr_; }

  private:
    void
    verify(std::size_t f, const SweepOutcome &out, const std::string &table)
    {
        const Figure &fig = figs_[f];
        checks_.expect(out.corruptEntries == 0,
                       "no corrupt store entries: fig" + fig.id);
        for (std::size_t i = 0; i < out.results.size(); ++i) {
            const std::string what = "fig" + fig.id + " " +
                                     jobName(fig.sweep.jobs[i]);
            checks_.expect(out.fromCache[i], "cache hit: " + what);
            checks_.expect(serializeResult(out.results[i]) ==
                               refResults_[f][i],
                           "loaded result equals the fresh one: " + what);
        }
        checks_.expect(table == refTables_[f],
                       "warm table equals the cold one: fig" + fig.id);
    }

    /** Simulated counts of a warm pass come from the Figure 5(c) jobs it
     *  loads, so they must equal fig5c-cold's. */
    void
    fillFxrJobs(const std::vector<SweepOutcome> &outs)
    {
        for (std::size_t f = 0; f < figs_.size(); ++f) {
            if (figs_[f].id != "5c")
                continue;
            const std::vector<JobSpec> &jobs = figs_[f].sweep.jobs;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (jobs[i].kind == ConfigKind::MMT_FXR)
                    fxr_.push_back({resolveWorkload(jobs[i].workload),
                                    jobs[i].numThreads, outs[f].results[i]});
            }
        }
    }

    std::string
    refPath(const Figure &fig, const char *ext) const
    {
        return (refDir_ / ("fig" + fig.id + ext)).string();
    }

    /** Rewrite the cycle count of @p count entries, as a torn or bit-
     *  rotted write would; the store's checksum must catch each one. */
    void
    corrupt(int count)
    {
        int done = 0;
        for (const Figure &fig : figs_) {
            for (const JobSpec &job : fig.sweep.jobs) {
                if (done >= count)
                    return;
                std::string path = ResultStore(store_).entryPath(job);
                std::string s = readFile(path);
                std::size_t at = s.find("\ncycles ");
                if (at == std::string::npos)
                    continue;
                char &digit = s[at + 8];
                digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
                writeFile(path, s);
                ++done;
            }
        }
    }

    const Args &args_;
    Checks &checks_;
    std::string store_;
    fs::path refDir_;
    std::vector<Figure> figs_;
    std::vector<std::vector<std::string>> refResults_;
    std::vector<std::string> refTables_;
    std::vector<FxrJob> fxr_;
};

// ---------------------------------------------------------------------
// Simulated per-layer counts (exact; from RunResult and the counter dump).
// ---------------------------------------------------------------------

/** Parse the flat {"name": integer, ...} object runStatsDump emits. */
std::map<std::string, double>
parseFlatJson(const std::string &text)
{
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        std::size_t end = text.find('"', pos + 1);
        std::size_t colon = text.find(':', end);
        if (end == std::string::npos || colon == std::string::npos)
            break;
        std::string key = text.substr(pos + 1, end - pos - 1);
        out[key] = std::strtod(text.c_str() + colon + 1, nullptr);
        pos = colon + 1;
    }
    return out;
}

std::map<std::string, double>
simulatedCounts(const std::vector<FxrJob> &jobs, double cycles_total,
                Checks &checks)
{
    std::map<std::string, double> sum;
    double energy = 0.0, energy_overhead = 0.0;
    for (const FxrJob &j : jobs) {
        std::map<std::string, double> dump = parseFlatJson(runStatsDump(
            j.workload, ConfigKind::MMT_FXR, j.threads, SimOverrides(),
            /*json=*/true));
        checks.expect(dump["cycles"] ==
                              static_cast<double>(j.result.cycles) &&
                          dump["commit.threadInsts"] ==
                              static_cast<double>(
                                  j.result.committedThreadInsts),
                      "counter dump agrees with the run: " +
                          j.workload.name);
        for (const auto &[k, v] : dump)
            sum[k] += v;
        energy += j.result.energy.total();
        energy_overhead += j.result.energy.overhead;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double insts = sum["commit.threadInsts"];
    double fetched = sum["fetch.threadInsts"];
    std::map<std::string, double> m;
    m["core.fetch.records_per_kinst"] =
        1000.0 * ratio(sum["fetch.records"], insts);
    m["core.fetch.merge_frac"] = ratio(sum["fetch.mode.merge"], fetched);
    m["core.fetch.detect_frac"] = ratio(sum["fetch.mode.detect"], fetched);
    m["core.fetch.catchup_frac"] =
        ratio(sum["fetch.mode.catchup"], fetched);
    m["core.mmt.exec_merged_frac"] =
        ratio(sum["commit.execIdentical"] +
                  sum["commit.execIdenticalRegMerge"],
              insts);
    m["core.mmt.lvip_rollbacks_per_kinst"] =
        1000.0 * ratio(sum["mmt.lvip.rollbacks"], insts);
    m["core.mmt.remerges"] = sum["mmt.sync.remerges"];
    m["core.mmt.catchup_aborted"] = sum["mmt.sync.catchupAborted"];
    m["core.mmt.regmerge_port_starved"] = sum["mmt.regMerge.portStarved"];
    m["core.iq.wakeups_per_cycle"] = ratio(sum["iq.wakeups"], sum["cycles"]);
    m["branch.mispredicts_per_kinst"] =
        1000.0 * ratio(sum["branch.mispredicts"], insts);
    m["mem.l1d_miss_rate"] =
        ratio(sum["mem.l1d.misses"], sum["mem.l1d.accesses"]);
    m["mem.l2_miss_rate"] =
        ratio(sum["mem.l2.misses"], sum["mem.l2.accesses"]);
    m["mem.tracecache_miss_rate"] = ratio(sum["mem.traceCache.misses"],
                                          sum["mem.traceCache.accesses"]);
    m["mem.mshr_stalls"] = sum["mem.mshrStalls"];
    m["energy.pj_per_inst"] = ratio(energy, insts);
    m["energy.overhead_frac"] = ratio(energy_overhead, energy);
    m["sim.ipc"] = ratio(insts, sum["cycles"]);
    m["sim.cycles_total"] = cycles_total;
    return m;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
passesJson(const std::vector<Pass> &passes)
{
    std::string s = "[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        s += (i ? ", " : "") + std::string("{\"wall_s\": ") + num(p.wallS) +
             ", \"ref_s\": " + num(p.refS) +
             ", \"busy_s\": " + num(p.busyS) +
             ", \"workers\": " + std::to_string(p.workers) +
             ", \"sim_cycles\": " + num(p.simCycles) +
             ", \"speedup\": " + num(p.speedup) +
             ", \"root_span\": " + std::to_string(p.rootSpan) + "}";
    }
    return s + "]";
}

/** Static registries every workload needs before its first pass; mmtc
 *  compiles the embedded C kernels here. */
void
setUp(const Args &args)
{
    Scope s("bench.setup", true);
    allWorkloads();
    compiledWorkloads();
    placementScenarios();
    if (args.workload == "warm-resweep")
        for (const std::string &id : figureIds())
            makeFigure(id);
}

/** The "attempted", "failed" and "failures" members of a result. */
std::string
checksJson(const Checks &checks)
{
    std::string failures = "[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i)
        failures += (i ? ", " : "") + jsonString(checks.failures[i]);
    return "\"attempted\": " + std::to_string(checks.attempted) +
           ", \"failed\": " + std::to_string(checks.failed) +
           ", \"failures\": " + failures + "]";
}

template <typename W>
void
measure(const Args &args, W &workload, Checks &checks,
        std::int64_t ready_ns, const std::string &setup_spans)
{
    // One unmeasured pass first, so that first-touch page faults and
    // cold host caches do not land in the samples. Then each phase makes
    // passes until its budget of pass and reference time is spent, with
    // at least one pass. The untraced phase gets the whole budget, or
    // half of it when a traced phase follows.
    workload.pass(false);
    auto phase = [&](bool traced, double budget) {
        std::vector<Pass> passes;
        double spent = 0.0;
        do {
            passes.push_back(workload.pass(traced));
            spent += passes.back().wallS + passes.back().tickS;
        } while (spent < budget);
        return passes;
    };
    double plain_budget = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<Pass> plain = phase(false, plain_budget), traced;
    std::string sim = "{}";
    if (args.trace) {
        traced = phase(true, args.seconds - plain_budget);
        writeFile(args.out + ".spans",
                  setup_spans +
                      perfbench::formatSpans(perfbench::takeSpans()));

        std::map<std::string, double> counts = simulatedCounts(
            workload.fxrJobs(), plain.front().simCycles, checks);
        sim = "{";
        for (const auto &[k, v] : counts)
            sim += (sim.size() > 1 ? ", " : "") + jsonString(k) + ": " +
                   num(v);
        sim += "}";
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::string json =
        "{\"workload\": " + jsonString(args.workload) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"ready_ns\": " + std::to_string(ready_ns) +
        ", \"peak_rss_kb\": " + std::to_string(ru.ru_maxrss) +
        ", \"paper_speedup\": " +
        (args.workload == "fuzz-seeded" ? "null"
                                        : num(kPaperFig5cSpeedup)) +
        ", " + checksJson(checks) +
        ", \"passes\": " + passesJson(plain) +
        ", \"traced_passes\": " + passesJson(traced) +
        ", \"simulated\": " + sim + "}\n";
    writeFile(args.out, json);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    fs::create_directories(args.workdir);
    perfbench::setTracing(args.trace);
    setUp(args);
    std::int64_t ready_ns = perfbench::nowNs();
    perfbench::setTracing(false);
    std::string setup_spans =
        perfbench::formatSpans(perfbench::takeSpans());
    if (args.setupOnly) {
        writeFile(args.out, "{\"ready_ns\": " + std::to_string(ready_ns) +
                                "}\n");
        return 0;
    }

    Checks checks;
    if (args.prepareOnly) {
        WarmResweep w(args, checks);
        w.prepare();
        writeFile(args.out, "{" + checksJson(checks) + "}\n");
        return 0;
    }
    if (args.workload == "fig5c-cold") {
        Fig5cCold w(args, checks);
        measure(args, w, checks, ready_ns, setup_spans);
    } else if (args.workload == "fuzz-seeded") {
        FuzzSeeded w(args, checks);
        measure(args, w, checks, ready_ns, setup_spans);
    } else {
        WarmResweep w(args, checks);
        w.loadReference();
        measure(args, w, checks, ready_ns, setup_spans);
    }
    fs::remove_all(args.workdir);
    return 0;
}
