/**
 * @file
 * sweep_grid: in-process tryRunSweep over seeded grids, each with a
 * fresh checkpoint file, then csv() and cellCsv(). One sample is one
 * sweep, from building its spec until the CSV strings and the
 * checkpoint exist. It exercises the SoA batch engine, the pool split
 * and the checkpoint commit, and never touches the serve cache.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <sys/vfs.h>

#include "core/checkpoint.hh"
#include "core/paper_data.hh"
#include "core/sweep.hh"
#include "mva/batch_solver.hh"
#include "random/rng.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace perfbench {

using namespace snoop;
namespace fs = std::filesystem;

namespace {

struct Param
{
    const char *name; ///< findParamSetter name
    double WorkloadParams::*member;
};

const Param kParams[] = {
    {"tau", &WorkloadParams::tau},
    {"h_private", &WorkloadParams::hPrivate},
    {"h_sro", &WorkloadParams::hSro},
    {"h_sw", &WorkloadParams::hSw},
};

const SharingLevel kLevels[] = {SharingLevel::OnePercent,
                                SharingLevel::FivePercent,
                                SharingLevel::TwentyPercent};

/** Grid shapes: values x protocol columns (4 or all 16). */
struct Grid
{
    size_t values;
    bool allProtocols;
};

const Grid kGrids[] = {{13, false}, {27, false}, {13, true}, {64, true}};

/**
 * The size rotation: 52, 108, 108, 208, 1024 cells. The 108-cell
 * class (the size of the Table 4-1 grid) appears twice so the median
 * sweep falls inside one class rather than on a class boundary.
 */
const unsigned kRotation[] = {0, 1, 1, 2, 3};

struct Plan
{
    unsigned grid = 0;
    unsigned level = 0;
    unsigned n = 1;
    unsigned param = 0;
    double step = 0.002; ///< relative spacing of the swept values
};

/**
 * @p count plans. Grid size, system size, sharing level and swept
 * parameter follow a fixed pattern, so every seed sweeps the same mix
 * of grid costs and the figures of two seeds compare; the seed draws
 * each sweep's step, and so every swept value but the first.
 */
std::vector<Plan>
generate(uint64_t seed, size_t count)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eeb);
    const std::vector<unsigned> &ns = table41Ns();
    std::vector<Plan> plans(count);
    for (size_t i = 0; i < count; ++i) {
        const size_t turn = i / std::size(kRotation);
        const size_t slot = i % std::size(kRotation);
        Plan &p = plans[i];
        p.grid = kRotation[slot];
        p.n = ns[(2 * turn + slot) % ns.size()];
        p.level = static_cast<unsigned>(i % 3);
        p.param = static_cast<unsigned>((turn + slot) % std::size(kParams));
        p.step = rng.uniform(0.001, 0.004);
    }
    return plans;
}

/**
 * The spec of @p plan: the Appendix A workload of its sharing level,
 * one parameter swept downward from its preset value (so value 0 is
 * the Table 4-1 workload itself), at one Table 4-1 system size.
 */
SweepSpec
makeSpec(const Plan &plan, const std::string &checkpoint)
{
    const Grid &grid = kGrids[plan.grid];
    const Param &param = kParams[plan.param];
    SweepSpec spec;
    spec.base = presets::appendixA(kLevels[plan.level]);
    spec.paramName = param.name;
    spec.set = findParamSetter(param.name);
    const double base = spec.base.*(param.member);
    for (size_t k = 0; k < grid.values; ++k)
        spec.values.push_back(base *
                              (1.0 - static_cast<double>(k) * plan.step));
    if (grid.allProtocols) {
        for (unsigned i = 0; i < 16; ++i)
            spec.protocols.push_back(ProtocolConfig::fromIndex(i));
    } else {
        for (const char *mods : {"", "1", "13", "14"})
            spec.protocols.push_back(ProtocolConfig::fromModString(mods));
    }
    spec.n = plan.n;
    // Committed at the library's default cadence (checkpointEvery).
    spec.checkpointPath = checkpoint;
    return spec;
}

struct Sample
{
    double us = 0.0;       ///< spec until CSV strings and checkpoint exist
    double sweepUs = 0.0;  ///< tryRunSweep alone
    double csvUs = 0.0;    ///< csv() + cellCsv()
    size_t cellCsvHash = 0; ///< the oracles compare cellCsv() by hash
    SweepSpec spec;
    Expected<SweepResult> result = SolveError();
};

/**
 * One sweep as a user runs it: spec, solve, CSV, checkpoint. With
 * @p spans, each layer call is recorded under @p task.
 */
Sample
runOne(const Plan &plan, const std::string &checkpoint,
       SpanLog *spans = nullptr, uint64_t task = 0)
{
    fs::remove(checkpoint); // an existing file would make it a resume
    Sample s;
    int64_t t0 = nowNs();
    s.spec = makeSpec(plan, checkpoint);
    int64_t t1 = nowNs();
    auto result = tryRunSweep(s.spec);
    int64_t t2 = nowNs();
    size_t bytes = 0;
    std::string cellCsv;
    if (result) {
        bytes = result.value().csv().size();
        cellCsv = result.value().cellCsv();
    }
    int64_t t3 = nowNs();
    s.us = static_cast<double>(t3 - t0) / 1e3;
    s.sweepUs = static_cast<double>(t2 - t1) / 1e3;
    s.csvUs = static_cast<double>(t3 - t2) / 1e3;
    if (spans != nullptr) {
        uint32_t root = spans->add("sweep.request", task, 0, t0, t3);
        spans->add("core.spec", task, root, t0, t1);
        spans->add("core.sweep", task, root, t1, t2);
        spans->add("core.csv", task, root, t2, t3);
    }
    s.cellCsvHash = std::hash<std::string>{}(cellCsv);
    if (result && !fs::exists(checkpoint))
        s.result = makeError(SolveErrorCode::Internal, "perfbench",
                             "no checkpoint after the sweep");
    else if (result && bytes == 0)
        s.result = makeError(SolveErrorCode::Internal, "perfbench",
                             "empty csv()");
    else
        s.result = std::move(result);
    fs::remove(checkpoint);
    return s;
}

size_t
cellsOf(const Plan &plan)
{
    const Grid &grid = kGrids[plan.grid];
    return grid.values * (grid.allProtocols ? 16 : 4);
}

struct Passes
{
    std::vector<double> us; ///< every sample, in the order swept
    double busyS = 0.0;     ///< their summed time
    double cells = 0.0;     ///< cells they solved
};

/**
 * Sweep plan after plan until the window closes, stopping only at the
 * end of a turn of the size rotation (at least one turn), so every run
 * sweeps the same mix of grid sizes; past the last plan, the plans
 * repeat. Every sample counts. @p check sees the sweep's index, its
 * plan and the sample. The calling thread, which serializes every
 * checkpoint, takes the CPUs in turn, one sweep on each, since a shared
 * host slows some of them more than others at any one time; the pool's
 * workers, started before, keep every CPU.
 */
Passes
timedSweeps(const std::vector<Plan> &plans, double window,
            const std::string &checkpoint, SpanLog *spans,
            const std::function<void(size_t, size_t, Sample &)> &check)
{
    Passes out;
    const std::vector<int> cpus = allowedCpus();
    const int64_t deadline = nowNs() + static_cast<int64_t>(window * 1e9);
    for (size_t k = 0;; ++k) {
        if (k > 0 && k % std::size(kRotation) == 0 && nowNs() >= deadline)
            break;
        const size_t i = k % plans.size();
        std::optional<CpuPin> pin;
        if (!cpus.empty())
            pin.emplace(cpus[k % cpus.size()]);
        Sample sample = runOne(plans[i], checkpoint, spans, k + 1);
        pin.reset();
        out.us.push_back(sample.us);
        out.busyS += sample.us / 1e6;
        out.cells += static_cast<double>(cellsOf(plans[i]));
        check(k, i, sample);
    }
    return out;
}

/**
 * Oracle: the value-0 cells of the Write-Once, mod 1 and mods 1+4
 * columns are Table 4-1 cells; they must be within the 6% of the
 * paper's MVA speedups that the Table 4-1 regression test asserts.
 */
size_t
checkTable41(const Plan &plan, const SweepResult &r, bool plant,
             uint64_t op, Result &res)
{
    const std::vector<unsigned> &ns = table41Ns();
    const size_t ni = static_cast<size_t>(
        std::find(ns.begin(), ns.end(), plan.n) - ns.begin());
    size_t checked = 0;
    for (size_t p = 0; p < r.spec.protocols.size(); ++p) {
        const std::string mods = r.spec.protocols[p].modString();
        char sub = mods.empty() ? 'a' : mods == "1" ? 'b'
                                 : mods == "14"     ? 'c'
                                                    : 0;
        if (sub == 0)
            continue;
        for (const PaperRow &row : paperTable41(sub)) {
            if (row.level != kLevels[plan.level])
                continue;
            double paper = row.mva[ni];
            double got = plant && checked == 0 ? paper * 1.07
                                               : r.results[0][p].speedup;
            if (!withinRel(paper, got, 0.06))
                res.fail(op, "Table 4-1(" + std::string(1, sub) +
                                 ") N=" + std::to_string(plan.n) +
                                 ": speedup " + std::to_string(got) +
                                 " vs paper " + std::to_string(paper));
            ++checked;
        }
    }
    return checked;
}

const char *
fsName(const std::string &dir)
{
    struct statfs st;
    if (statfs(dir.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0x01021994ul: return "tmpfs";
      case 0xEF53ul: return "ext4";
      case 0x794c7630ul: return "overlayfs";
      case 0x58465342ul: return "xfs";
      case 0x9123683Eul: return "btrfs";
      default: return "other";
    }
}

struct Layers
{
    std::vector<double> solveMs, csvUs, checkpointUs, checkpointBytes,
        deriveUs, laneUs, jobsNMs, jobs1Ms;
    double lanes = 0, iters = 0, jobs1Ns = 0, jobsNNs = 0;
};

/** The batch jobs of @p spec's grid, as tryRunSweep admits them. */
std::vector<MvaJob>
gridJobs(const SweepSpec &spec, double *deriveNs)
{
    std::vector<MvaJob> jobs;
    int64_t t0 = nowNs();
    for (double value : spec.values) {
        WorkloadParams wl = spec.base;
        spec.set(wl, value);
        for (const ProtocolConfig &protocol : spec.protocols) {
            MvaJob job;
            job.inputs = DerivedInputs::compute(wl, protocol);
            job.n = spec.n;
            jobs.push_back(std::move(job));
        }
    }
    if (deriveNs != nullptr)
        *deriveNs = static_cast<double>(nowNs() - t0);
    return jobs;
}

} // namespace

void
runSweep(const RunConfig &cfg, Result &res)
{
    const std::string dir = cfg.workDir + "/checkpoints";
    fs::create_directories(dir);
    const std::string checkpoint = dir + "/sweep-" + std::to_string(cfg.seed);

    // Set-up, 101 times: size the pool, start its threads with a first
    // dispatch, and build the specs of the plans (ten turns of the size
    // rotation, more than a window sweeps).
    std::vector<double> setup;
    std::vector<Plan> plans;
    for (int rep = 0; rep < 101; ++rep) {
        int64_t t0 = nowNs();
        setParallelJobs(cfg.jobs);
        parallelFor(cfg.jobs, [](size_t) {});
        plans = generate(cfg.seed, 10 * std::size(kRotation));
        std::vector<SweepSpec> specs;
        for (const Plan &plan : plans)
            specs.push_back(makeSpec(plan, checkpoint));
        setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // One unsampled sweep of each grid size, outside the set-up time.
    for (const Plan &plan :
         generate(cfg.seed + 1000003ull, std::size(kRotation))) {
        Sample warm = runOne(plan, checkpoint);
        if (!warm.result)
            throw std::runtime_error("warm-up sweep failed: " +
                                     warm.result.error().describe());
    }

    // Every sample is checked.
    std::vector<std::optional<size_t>> hashes(plans.size());
    size_t table41 = 0;
    auto check = [&](size_t, size_t i, Sample &sample) {
        const uint64_t op = res.attempted++;
        if (!sample.result) {
            res.fail(op, "sweep failed: " + sample.result.error().describe());
            return;
        }
        if (sample.result.value().failureCount() > 0) {
            res.fail(op, "error cells: " +
                             sample.result.value().failureSummary());
            return;
        }
        if (!hashes[i])
            hashes[i] = sample.cellCsvHash;
        else if (*hashes[i] != sample.cellCsvHash)
            res.fail(op, "cellCsv of plan " + std::to_string(i) +
                             " changed between sweeps");
        table41 += checkTable41(plans[i], sample.result.value(),
                                cfg.plant == "sweep-table41" && op == 0, op,
                                res);
    };
    const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const Passes timed =
        timedSweeps(plans, window, checkpoint, nullptr, check);
    const double rss = peakRssMb("self");

    // Oracle: the swept plans at one job give byte-identical cellCsv.
    // Without a checkpoint the grid is one batch rather than batches of
    // checkpointEvery cells; batch lanes equal scalar solves either way.
    setParallelJobs(1);
    for (size_t i = 0; i < plans.size(); ++i) {
        if (!hashes[i])
            continue;
        auto serial = tryRunSweep(makeSpec(plans[i], ""));
        std::string cellCsv = serial ? serial.value().cellCsv() : "";
        if (cfg.plant == "sweep-jobs" && i == 0) {
            size_t nl = cellCsv.find('\n');
            cellCsv = cellCsv.substr(nl + 1) + cellCsv.substr(0, nl + 1);
        }
        if (!serial || std::hash<std::string>{}(cellCsv) != hashes[i])
            res.fail(i, "cellCsv of plan " + std::to_string(i) +
                            " differs between 1 and " +
                            std::to_string(cfg.jobs) + " jobs");
    }
    setParallelJobs(cfg.jobs);
    parallelFor(cfg.jobs, [](size_t) {}); // start the pool unpinned

    res.detail["sweeps"] = num(timed.us.size());
    res.detail["table41_cells_checked"] = num(table41);
    res.detail["checkpoint_fs"] = JsonValue(fsName(dir));
    res.detail["jobs"] = num(cfg.jobs);

    if (!cfg.trace) {
        res.metric("req_per_s",
                   static_cast<double>(timed.us.size()) / timed.busyS,
                   "1/s");
        res.metric("cells_per_s", timed.cells / timed.busyS, "1/s");
        res.metric("setup_s", quantile(setup, 0.5), "s");
        res.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    // Traced: the same plans again with spans around each layer call.
    // The first sweep of each plan is followed, outside its timing, by
    // probes of the layers tryRunSweep calls internally: checkpoint
    // commit, input derivation and the batch solve.
    SpanLog spans;
    Layers l;
    BatchMvaSolver batch;
    const std::string probeFile = checkpoint + ".probe";
    std::vector<size_t> probed;
    auto probe = [&](size_t k, size_t i, Sample &sample) {
        check(k, i, sample);
        if (k >= plans.size() || !sample.result)
            return;
        probed.push_back(i);
        const uint64_t task = i + 1;
        l.solveMs.push_back(sample.sweepUs / 1e3);
        l.csvUs.push_back(sample.csvUs);

        fs::remove(probeFile);
        int64_t c0 = nowNs();
        auto written =
            writeSweepCheckpoint(probeFile, sample.spec, sample.result.value());
        int64_t c1 = nowNs();
        if (!written)
            res.fail(i, "writeSweepCheckpoint failed");
        spans.add("core.checkpoint", task, 0, c0, c1);
        l.checkpointUs.push_back(static_cast<double>(c1 - c0) / 1e3);
        l.checkpointBytes.push_back(
            static_cast<double>(fs::file_size(probeFile)));
        fs::remove(probeFile);

        double deriveNs = 0;
        std::vector<MvaJob> jobs = gridJobs(sample.spec, &deriveNs);
        l.deriveUs.push_back(deriveNs / 1e3 /
                             static_cast<double>(jobs.size()));
        int64_t b0 = nowNs();
        auto solved = batch.solveBatch(jobs);
        int64_t b1 = nowNs();
        spans.add("mva.solve", task, 0, b0, b1);
        l.jobsNMs.push_back(static_cast<double>(b1 - b0) / 1e6);
        l.jobsNNs += static_cast<double>(b1 - b0);
        l.laneUs.push_back(static_cast<double>(b1 - b0) / 1e3 /
                           static_cast<double>(jobs.size()));
        l.lanes += static_cast<double>(jobs.size());
        for (const auto &r : solved)
            l.iters += r ? r.value().iterations : 0;
    };
    const Passes traced =
        timedSweeps(plans, cfg.seconds / 2, checkpoint, &spans, probe);

    setParallelJobs(1);
    for (size_t i : probed) {
        std::vector<MvaJob> jobs = gridJobs(makeSpec(plans[i], ""), nullptr);
        int64_t b0 = nowNs();
        auto solved = batch.solveBatch(jobs);
        int64_t b1 = nowNs();
        spans.add("mva.solve.jobs1", i + 1, 0, b0, b1);
        l.jobs1Ms.push_back(static_cast<double>(b1 - b0) / 1e6);
        l.jobs1Ns += static_cast<double>(b1 - b0);
    }
    setParallelJobs(cfg.jobs);

    const std::string tracePath =
        cfg.workDir + "/trace-" + cfg.workload + ".json";
    spans.write(tracePath);
    res.detail["trace_file"] = JsonValue(tracePath);
    res.detail["spans"] = num(spans.size());

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    res.metric("core.sweep_solve_ms_p50", quantile(l.solveMs, 0.5), "ms");
    res.metric("core.csv_us_p50", quantile(l.csvUs, 0.5), "us");
    res.metric("core.checkpoint_us_p50", quantile(l.checkpointUs, 0.5),
               "us");
    res.metric("core.checkpoint_bytes", quantile(l.checkpointBytes, 0.5),
               "bytes");
    res.metric("workload.derive_us_p50", quantile(l.deriveUs, 0.5), "us");
    res.metric("mva.solve_us_p50", quantile(l.laneUs, 0.5), "us");
    res.metric("mva.lane_iters_mean", ratio(l.iters, l.lanes),
               "iterations");
    res.metric("mva.ns_per_lane_iter", ratio(l.jobs1Ns, l.iters), "ns");
    res.metric("mva.batch_jobs1_ms", quantile(l.jobs1Ms, 0.5), "ms");
    res.metric("mva.batch_jobsN_ms", quantile(l.jobsNMs, 0.5), "ms");
    res.metric("mva.pool_speedup", ratio(l.jobs1Ns, l.jobsNNs),
               "jobs1/jobsN");
    // Seconds per cell, traced over untraced.
    res.metric("trace.overhead_frac",
               ratio(traced.busyS / traced.cells, timed.busyS / timed.cells) -
                   1.0,
               "ratio");
    res.metric("e2e.lat_p50_us", quantile(timed.us, 0.5), "us");
    res.metric("e2e.lat_p99_us", quantile(timed.us, 0.99), "us");
}

} // namespace perfbench
