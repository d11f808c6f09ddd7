#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

bool
pinTo(pid_t pid, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(pid, sizeof one, &one) == 0;
}

CpuPin::CpuPin(int cpu)
{
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
        pinTo(0, cpu);
}

CpuPin::~CpuPin()
{
    if (pinned_)
        sched_setaffinity(0, sizeof saved_, &saved_);
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

uint32_t
SpanLog::add(const char *name, uint64_t task, uint32_t parent,
             int64_t start, int64_t end)
{
    spans_.push_back(Span{name, task, parent, start, end});
    return static_cast<uint32_t>(spans_.size());
}

bool
SpanLog::write(const std::string &path) const
{
    // Chrome trace_event "complete" events; ts/dur in microseconds,
    // tid = the operation the span belongs to.
    std::string out = "{\"traceEvents\":[\n";
    int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%u}}\n",
                      i == 0 ? "" : ",", s.name,
                      static_cast<unsigned long long>(s.task),
                      static_cast<double>(s.start - origin) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, i + 1,
                      s.parent);
        out += buf;
    }
    out += "]}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << out;
    return static_cast<bool>(file.flush());
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    snoop::JsonValue::Object m;
    m["value"] = snoop::JsonValue(value);
    m["unit"] = snoop::JsonValue(unit);
    metrics[name] = snoop::JsonValue(std::move(m));
}

void
Result::fail(uint64_t op, const std::string &why)
{
    failedOps.insert(op);
    if (problems.size() < 8)
        problems.push_back(why);
}

bool
withinRel(double a, double b, double rel)
{
    return std::fabs(a - b) <= rel * std::fabs(a);
}

} // namespace perfbench
