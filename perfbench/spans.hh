/**
 * @file
 * Outside-in span recorder of the benchmark harness.
 *
 * Every call into a layer's public entry point is intercepted at link
 * time (spans.cc, wrapped_symbols.txt) and, while tracing is on, becomes
 * one span: name, start, end, parent and the id of the job it belongs
 * to. Spans stay in memory until the harness writes them out at exit.
 * With tracing off the wrappers still keep the per-thread span stack and
 * time job spans (the pool-busy accounting), but record nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; // 0: root
    std::uint32_t job = 0;    // 0: not part of a job
    std::uint32_t thread = 0; // small per-process thread number
    const char *name = "";
    std::int64_t startNs = 0; // steady_clock, i.e. CLOCK_MONOTONIC
    std::int64_t endNs = 0;
    /** Work done inside the span where the layer reports it (simulated
     *  cycles for core.run), else 0. */
    std::uint64_t count = 0;
};

/** Nanoseconds on the clock spans use (CLOCK_MONOTONIC on Linux, so
 *  comparable with the launching process's monotonic clock). */
std::int64_t nowNs();

void setTracing(bool on);

/**
 * RAII span. A scope opened with @p new_job starts a job its
 * descendants share; otherwise the job is inherited from the parent.
 * Root scopes on threads other than the opener of the running sweep
 * take the sweep's span as parent.
 */
class Scope
{
  public:
    explicit Scope(const char *name, bool new_job = false);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setCount(std::uint64_t count) { span_.count = count; }
    std::uint32_t id() const { return span_.id; }
    std::int64_t startNs() const { return span_.startNs; }

  private:
    Span span_;
    bool recorded_;
    bool busy_; // a job: counts towards busyNs()
};

/** Every span recorded so far (clears the buffer). */
std::vector<Span> takeSpans();

/** Summed duration of job spans (a harness job, or one pool job's
 *  load / runWorkload / store) since the last reset, recorded with
 *  tracing on or off. */
std::int64_t busyNs();
void resetBusy();

/** Spans as tab-separated lines:
 *  id parent job thread name start_ns end_ns count. */
std::string formatSpans(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
