/**
 * Resume-equivalence and sharding-determinism tests: a sweep killed at
 * any checkpoint boundary (via the keyed sweep.checkpoint fault site)
 * and rerun produces byte-identical table/CSV/cell-CSV output to the
 * uninterrupted run at SNOOP_JOBS=1/2/8, and the concatenation of N
 * shards' cellCsv() outputs equals the unsharded run's.
 * tools/run_chaos.sh proves the same claims against real SIGKILLs;
 * these tests pin them in-process where every boundary is enumerable.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/sweep.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

SweepSpec
resumableSpec()
{
    SweepSpec spec;
    spec.base = presets::appendixA(SharingLevel::FivePercent);
    spec.paramName = "h_sw";
    spec.set = findParamSetter("h_sw");
    spec.values = {0.1, 0.25, 0.4, 0.55, 0.7};
    spec.protocols = {ProtocolConfig::writeOnce(),
                      *findProtocol("Illinois"),
                      *findProtocol("Berkeley"),
                      *findProtocol("Dragon")};
    spec.n = 8;
    spec.checkpointEvery = 4; // 20 cells -> 5 checkpoint boundaries
    return spec;
}

/** Every rendering of a result that the byte-identity claim covers. */
std::string
allOutputs(const SweepResult &res)
{
    return res.table().render() + "\n" + res.csv() + "\n" +
           res.cellCsv();
}

class ShardResume : public testing::Test
{
  protected:
    void SetUp() override
    {
        clearFaultSpecs();
        setParallelJobs(0);
        path_ = testing::TempDir() + "snoop_resume_test.ckpt";
        std::remove(path_.c_str());
    }
    void TearDown() override
    {
        clearFaultSpecs();
        setParallelJobs(0);
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(ShardResume, KilledAtEveryBoundaryResumesByteIdentically)
{
    SweepSpec spec = resumableSpec();
    const std::string golden = allOutputs(runSweep(spec));

    spec.checkpointPath = path_;
    // 20 cells at checkpointEvery=4 commit at ordinals 1..5; the kill
    // at ordinal k aborts with the first k*4 cells durable. Resume
    // from every one of those boundaries, at several thread counts,
    // and require byte-identical output.
    for (size_t k = 1; k <= 5; ++k) {
        for (unsigned jobs : {1u, 2u, 8u}) {
            std::remove(path_.c_str());
            setParallelJobs(jobs);
            ASSERT_TRUE(setFaultSpecs(
                            strprintf("sweep.checkpoint:every=%zu", k))
                            .ok());
            auto killed = tryRunSweep(spec);
            ASSERT_FALSE(killed.ok()) << "k=" << k;
            EXPECT_EQ(killed.error().code, SolveErrorCode::InjectedFault);
            EXPECT_EQ(killed.error().site, "sweep.checkpoint");

            clearFaultSpecs();
            auto resumed = tryRunSweep(spec);
            ASSERT_TRUE(resumed.ok())
                << "k=" << k << ": " << resumed.error().describe();
            EXPECT_EQ(allOutputs(resumed.value()), golden)
                << "killed at checkpoint " << k << ", jobs=" << jobs;
            EXPECT_EQ(resumed.value().evaluatedCount(), 20u);
        }
    }
}

TEST_F(ShardResume, ChainOfKillsStillConverges)
{
    // every=1 kills the run after EVERY commit: each resume advances
    // exactly one batch before dying, until the final resume finds
    // nothing pending and completes - the worst-case crash cadence.
    SweepSpec spec = resumableSpec();
    const std::string golden = allOutputs(runSweep(spec));
    spec.checkpointPath = path_;

    ASSERT_TRUE(setFaultSpecs("sweep.checkpoint:every=1").ok());
    int kills = 0;
    Expected<SweepResult> res = tryRunSweep(spec);
    while (!res.ok()) {
        ASSERT_EQ(res.error().code, SolveErrorCode::InjectedFault);
        ASSERT_LT(++kills, 20) << "no forward progress across resumes";
        res = tryRunSweep(spec);
    }
    EXPECT_EQ(kills, 5); // one kill per batch of 4, none on the last
    EXPECT_EQ(allOutputs(res.value()), golden);
}

TEST_F(ShardResume, ShardCellCsvsConcatenateToTheUnshardedRun)
{
    SweepSpec spec = resumableSpec();
    const SweepResult whole = runSweep(spec);

    for (size_t count : {2u, 4u, 7u}) {
        std::string stitched;
        for (size_t index = 0; index < count; ++index) {
            SweepSpec shard = spec;
            shard.shard = {index, count};
            auto res = tryRunSweep(shard);
            ASSERT_TRUE(res.ok());
            auto [begin, end] = shard.shard.cellRange(20);
            EXPECT_EQ(res.value().evaluatedCount(), end - begin);
            stitched += res.value().cellCsv();
        }
        EXPECT_EQ(stitched, whole.cellCsv()) << count << " shards";
    }
}

TEST_F(ShardResume, ShardedResumeIsByteIdenticalToo)
{
    // Kill-and-resume one shard: its slice must come back identical
    // to the same shard of an uninterrupted run.
    SweepSpec spec = resumableSpec();
    spec.shard = {1, 3};
    const std::string golden = allOutputs(runSweep(spec));

    spec.checkpointPath = path_;
    ASSERT_TRUE(setFaultSpecs("sweep.checkpoint:every=1").ok());
    auto killed = tryRunSweep(spec);
    ASSERT_FALSE(killed.ok());
    clearFaultSpecs();
    auto resumed = tryRunSweep(spec);
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_EQ(allOutputs(resumed.value()), golden);
}

TEST_F(ShardResume, ErrorCellsSurviveTheKillAndResume)
{
    // A failing cell committed before the kill must come back from the
    // checkpoint as the same error cell, not be re-evaluated or lost.
    SweepSpec spec = resumableSpec();
    spec.values[0] = 1.5; // not a probability: 4 error cells in batch 1
    testing::internal::CaptureStderr();
    const SweepResult golden = runSweep(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_EQ(golden.failureCount(), 4u);

    spec.checkpointPath = path_;
    ASSERT_TRUE(setFaultSpecs("sweep.checkpoint:every=1").ok());
    testing::internal::CaptureStderr();
    auto killed = tryRunSweep(spec);
    ASSERT_FALSE(killed.ok());
    clearFaultSpecs();
    auto resumed = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_EQ(resumed.value().failureCount(), 4u);
    EXPECT_EQ(resumed.value().errors[0][0]->describe(),
              golden.errors[0][0]->describe());
    EXPECT_EQ(allOutputs(resumed.value()), allOutputs(golden));
}


TEST_F(ShardResume, EmptyShardsStillWriteTheirCheckpoint)
{
    // 33 shards of a 20-cell grid: 13 slices are empty. Each must
    // still leave a (header-only) checkpoint, or snoop_merge finds the
    // shard missing; merging all of them rebuilds the unsharded run.
    SweepSpec spec = resumableSpec();
    const SweepResult whole = runSweep(spec);
    const size_t count = 33;

    SweepResult merged;
    merged.spec = spec;
    merged.results.assign(spec.values.size(),
                          std::vector<MvaResult>(spec.protocols.size()));
    merged.errors.assign(spec.values.size(),
                         std::vector<std::optional<SolveError>>(
                             spec.protocols.size()));
    merged.evaluated.assign(spec.values.size(),
                            std::vector<char>(spec.protocols.size(), 0));
    size_t empty = 0;
    for (size_t index = 0; index < count; ++index) {
        SweepSpec shard = spec;
        shard.shard = {index, count};
        shard.checkpointPath = path_ + strprintf(".%zu", index);
        std::remove(shard.checkpointPath.c_str());
        auto res = tryRunSweep(shard);
        ASSERT_TRUE(res.ok()) << res.error().describe();
        ASSERT_TRUE(checkpointExists(shard.checkpointPath))
            << "shard " << index << "/" << count;
        auto data = readSweepCheckpoint(shard.checkpointPath);
        std::remove(shard.checkpointPath.c_str());
        ASSERT_TRUE(data.ok()) << data.error().describe();
        auto [begin, end] = shard.shard.cellRange(20);
        ASSERT_EQ(data.value().cells.size(), end - begin);
        empty += begin == end ? 1 : 0;
        for (const CheckpointCell &cell : data.value().cells) {
            size_t v = cell.cell / spec.protocols.size();
            size_t p = cell.cell % spec.protocols.size();
            ASSERT_TRUE(cell.ok);
            merged.results[v][p] = cell.result;
            merged.evaluated[v][p] = 1;
        }
    }
    EXPECT_EQ(empty, 13u);
    EXPECT_EQ(allOutputs(merged), allOutputs(whole));
}

} // namespace
} // namespace snoop
