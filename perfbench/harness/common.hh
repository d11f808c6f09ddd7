#pragma once

/**
 * @file
 * Shared pieces of the benchmark harness: the run configuration, the
 * result record every workload fills, sample statistics, and the span
 * log the traced runs keep in memory and write at exit.
 */

#include <chrono>
#include <cstdint>
#include <sched.h>
#include <sys/types.h>
#include <set>
#include <string>
#include <vector>

#include "util/json.hh"

namespace perfbench {

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 1;        ///< the "N" of every jobs-1-vs-N oracle
    std::string serveBin;     ///< the snoop_serve daemon
    std::string workDir;      ///< scratch space inside the checkout
    /**
     * Test hook: corrupt one answer before the named oracle checks it
     * ("serve-answer", "serve-cold", "serve-jobs", "serve-stats",
     * "sweep-jobs", "sweep-table41"), so the smoke test can prove the
     * oracle fires.
     */
    std::string plant;
};

/** Monotonic nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The @p q quantile (0..1) of @p v, linear between order statistics;
 *  0 for an empty sample. */
double quantile(std::vector<double> v, double q);

/** The CPUs this process may run on, in increasing order. */
std::vector<int> allowedCpus();

/** Restrict process or thread @p pid (0 = the calling thread) to @p cpu. */
bool pinTo(pid_t pid, int cpu);

/**
 * While it lives, restricts the calling thread, and every thread and
 * process it starts meanwhile, to one CPU; the destructor gives the
 * thread back its former CPU set.
 */
class CpuPin
{
  public:
    explicit CpuPin(int cpu);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Peak resident set (VmHWM) of @p pid in MiB; "self" for this process. */
double peakRssMb(const std::string &pid);

/** One timed interval at a layer boundary. */
struct Span
{
    const char *name;
    uint64_t task;   ///< request id or sweep index: spans of one op share it
    uint32_t parent; ///< index + 1 of the causing span; 0 = root
    int64_t start;
    int64_t end;
};

/** Spans kept in memory during a traced run, written once at exit. */
class SpanLog
{
  public:
    /** Record a finished span; returns its index + 1 (a parent id). */
    uint32_t add(const char *name, uint64_t task, uint32_t parent,
                 int64_t start, int64_t end);

    /** Write Chrome trace_event JSON to @p path. */
    bool write(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

/**
 * What a workload reports: metric values, the operation count, the
 * distinct operations that failed (an error response or cell, or an
 * oracle mismatch) and a few messages saying why.
 */
struct Result
{
    uint64_t attempted = 0;
    std::set<uint64_t> failedOps;
    std::vector<std::string> problems;
    snoop::JsonValue::Object metrics;
    snoop::JsonValue::Object detail;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void fail(uint64_t op, const std::string &why);
};

/** A count or measure as a JSON number. */
inline snoop::JsonValue
num(double v)
{
    return snoop::JsonValue(v);
}

/** True when a and b agree within @p rel of |a|. */
bool withinRel(double a, double b, double rel);

} // namespace perfbench
