/**
 * @file
 * perfbench: runs one benchmark workload and prints one JSON line with
 * its metrics, operation counts, oracle outcome and detail. run.py
 * builds this binary and the daemon, and turns the line into the
 * benchmark's result.
 *
 *   perfbench --workload serve_fill|serve_hot|sweep_grid --seed N
 *             --seconds S --trace 0|1 --jobs J --serve-bin PATH
 *             --work-dir DIR [--plant ORACLE]
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <sched.h>
#include <string>

#include "workloads.hh"

using namespace perfbench;
using snoop::JsonValue;

namespace {

/**
 * Every per-layer metric, with its unit. A traced run reports all of
 * them; a layer the workload never calls reports 0 (no work done).
 */
const char *const kLayerMetrics[][2] = {
    {"e2e.lat_p50_us", "us"},
    {"e2e.lat_p99_us", "us"},
    {"serve.decode_us_p50", "us"},
    {"serve.encode_us_p50", "us"},
    {"serve.pipe_us_p50", "us"},
    {"serve.canon_us_p50", "us"},
    {"serve.find_us_p50", "us"},
    {"serve.hit_ratio", "hits/lookups"},
    {"serve.nearest_us_p50", "us"},
    {"serve.nearest_us_p99", "us"},
    {"serve.seed_ratio", "seeded/misses"},
    {"serve.insert_us_p50", "us"},
    {"serve.evictions", "count"},
    {"serve.service_self_us_p50", "us"},
    {"mva.solve_us_p50", "us"},
    {"mva.lane_iters_mean", "iterations"},
    {"mva.warm_iter_ratio", "warm/cold"},
    {"mva.ns_per_lane_iter", "ns"},
    {"mva.batch_jobs1_ms", "ms"},
    {"mva.batch_jobsN_ms", "ms"},
    {"mva.pool_speedup", "jobs1/jobsN"},
    {"workload.derive_us_p50", "us"},
    {"core.sweep_solve_ms_p50", "ms"},
    {"core.csv_us_p50", "us"},
    {"core.checkpoint_us_p50", "us"},
    {"core.checkpoint_bytes", "bytes"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "failed/attempted"},
};

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN); // a dead daemon is an error, not a kill
    RunConfig cfg;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            cfg.workload = value;
        else if (key == "--seed")
            cfg.seed = std::stoull(value);
        else if (key == "--seconds")
            cfg.seconds = std::stod(value);
        else if (key == "--trace")
            cfg.trace = value == "1";
        else if (key == "--jobs")
            cfg.jobs = static_cast<unsigned>(std::stoul(value));
        else if (key == "--serve-bin")
            cfg.serveBin = value;
        else if (key == "--work-dir")
            cfg.workDir = value;
        else if (key == "--plant")
            cfg.plant = value;
        else
            return usage(("unknown option " + key).c_str());
    }
    if (argc % 2 != 1 || cfg.workDir.empty() || cfg.jobs == 0 ||
        !(cfg.seconds > 0))
        return usage("bad arguments");
    std::filesystem::create_directories(cfg.workDir);

    Result res;
    try {
        if (cfg.workload == "serve_fill" || cfg.workload == "serve_hot") {
            if (cfg.serveBin.empty())
                return usage("--serve-bin is required");
            runServe(cfg, res);
        } else if (cfg.workload == "sweep_grid") {
            runSweep(cfg, res);
        } else {
            return usage(("unknown workload " + cfg.workload).c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const uint64_t failed = res.failedOps.size();
    if (cfg.trace) {
        res.metric("fail_frac",
                   res.attempted > 0 ? static_cast<double>(failed) /
                           static_cast<double>(res.attempted)
                                     : 1.0,
                   "failed/attempted");
        for (const auto &[name, unit] : kLayerMetrics) {
            if (res.metrics.find(name) == res.metrics.end())
                res.metric(name, 0.0, unit);
        }
    }

    cpu_set_t set;
    unsigned nproc = sched_getaffinity(0, sizeof set, &set) == 0
        ? static_cast<unsigned>(CPU_COUNT(&set))
        : 0;
    JsonValue::Object env;
#if defined(__clang__)
    env["compiler"] = JsonValue(std::string("clang ") + __VERSION__);
#else
    env["compiler"] = JsonValue(std::string("gcc ") + __VERSION__);
#endif
    env["nproc"] = JsonValue(nproc);
    env["jobs"] = JsonValue(cfg.jobs);
    env["seed"] = JsonValue(static_cast<double>(cfg.seed));
    env["workload"] = JsonValue(cfg.workload);

    JsonValue::Array problems;
    for (const std::string &p : res.problems)
        problems.emplace_back(p);
    res.detail["problems"] = JsonValue(std::move(problems));

    JsonValue::Object out;
    out["correct"] = JsonValue(failed == 0 && res.attempted > 0);
    out["attempted"] = JsonValue(static_cast<double>(res.attempted));
    out["failed"] = JsonValue(static_cast<double>(failed));
    out["metrics"] = JsonValue(std::move(res.metrics));
    out["detail"] = JsonValue(std::move(res.detail));
    out["env"] = JsonValue(std::move(env));
    std::printf("%s\n", snoop::serializeJson(JsonValue(std::move(out))).c_str());
    return 0;
}
