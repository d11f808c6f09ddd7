/**
 * Checkpoint format tests: the MvaResult/SolveError codec round-trips
 * bit-exactly, the fingerprint pins exactly the grid-determining spec
 * fields, and every corruption - garbled header, flipped bytes,
 * truncated cells, bumped version, out-of-order or out-of-range cells
 * - is rejected with a structured error naming the file and offset,
 * never silently reused. The carry-forward commit path writes exactly
 * the bytes of a full rewrite at every cadence, across resumes with
 * gaps, files changed between commits, and failed commits - and
 * serializes each cell of a fresh sweep exactly once.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/sweep.hh"
#include "observe/metrics.hh"
#include "protocol/catalog.hh"
#include "util/fault.hh"

namespace snoop {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.base = presets::appendixA(SharingLevel::FivePercent);
    spec.paramName = "h_sw";
    spec.set = findParamSetter("h_sw");
    spec.values = {0.1, 0.3, 0.5};
    spec.protocols = {ProtocolConfig::writeOnce(),
                      *findProtocol("Illinois")};
    spec.n = 8;
    return spec;
}

/** A grid of @p values x @p protocols cells (ProtocolConfig order). */
SweepSpec
gridSpec(size_t values, unsigned protocols)
{
    SweepSpec spec = smallSpec();
    spec.values.clear();
    for (size_t i = 0; i < values; ++i)
        spec.values.push_back(0.02 + 0.9 * static_cast<double>(i) /
                                         static_cast<double>(values));
    spec.protocols.clear();
    for (unsigned i = 0; i < protocols; ++i)
        spec.protocols.push_back(ProtocolConfig::fromIndex(i));
    return spec;
}

/** @p full with only the cells in [@p begin, @p end) evaluated. */
SweepResult
onlyCells(const SweepResult &full, size_t begin, size_t end)
{
    SweepResult out = full;
    const size_t protocols = full.spec.protocols.size();
    for (size_t v = 0; v < out.evaluated.size(); ++v) {
        for (size_t p = 0; p < protocols; ++p) {
            size_t cell = v * protocols + p;
            out.evaluated[v][p] = cell >= begin && cell < end;
        }
    }
    return out;
}

/** The checkpoint-cell serialization counter's running total. */
double
cellsSerialized()
{
    for (const MetricEntry &e : metrics().snapshot()) {
        if (e.name == "sweep.checkpoint_cells_serialized")
            return e.total;
    }
    return 0.0;
}

/** A checkpoint-file fixture: every test gets a fresh temp path. */
class Checkpoint : public testing::Test
{
  protected:
    void SetUp() override
    {
        clearFaultSpecs();
        path_ = testing::TempDir() + "snoop_ckpt_test.ckpt";
        ref_ = testing::TempDir() + "snoop_ckpt_test.ref";
        std::remove(path_.c_str());
        std::remove(ref_.c_str());
        metrics().reset();
        metrics().setEnabled(true);
    }
    void TearDown() override
    {
        clearFaultSpecs();
        metrics().setEnabled(false);
        metrics().reset();
        std::remove(path_.c_str());
        std::remove(ref_.c_str());
    }

    /** The bytes of one full rewrite of @p partial. */
    std::string fullRewrite(const SweepSpec &spec,
                            const SweepResult &partial)
    {
        std::remove(ref_.c_str());
        EXPECT_TRUE(writeSweepCheckpoint(ref_, spec, partial).ok());
        return slurp(ref_);
    }

    std::string path_;
    std::string ref_; ///< where reference full rewrites go
};

TEST(CheckpointCodec, MvaResultRoundTripsBitExactly)
{
    MvaResult r;
    r.numProcessors = 12;
    r.speedup = 7.123456789012345;
    r.processingPower = 6.5;
    r.responseTime = 10.0 / 3.0; // not exactly representable in decimal
    r.rLocal = 0.1;
    r.rBroadcast = 0.2;
    r.rRemoteRead = 0.3;
    r.wBus = 1.5;
    r.qBus = 0.25;
    r.busUtil = 0.875;
    r.pBusyBus = 0.5;
    r.tBus = 4.0;
    r.tResBus = 2.0;
    r.wMem = 0.75;
    r.memUtil = 0.125;
    r.pBusyMem = 0.0625;
    r.nInterference = 1.25;
    r.tInterference = 2.5;
    r.iterations = 17;
    r.converged = true;
    r.residual = 1e-9;
    r.warmStarted = true;

    MvaResult back;
    ASSERT_TRUE(mvaResultFromJson(mvaResultToJson(r), back).ok());
    EXPECT_EQ(back.numProcessors, r.numProcessors);
    // Bit-exact restoration is what the byte-identical-output claim
    // rides on: the JSON codec's shortest-round-trip serialization
    // must restore every double to the same bits.
    EXPECT_EQ(back.speedup, r.speedup);
    EXPECT_EQ(back.responseTime, r.responseTime);
    EXPECT_EQ(back.residual, r.residual);
    EXPECT_EQ(back.busUtil, r.busUtil);
    EXPECT_EQ(back.iterations, r.iterations);
    EXPECT_EQ(back.converged, r.converged);
    EXPECT_EQ(back.warmStarted, r.warmStarted);
}

TEST(CheckpointCodec, NonFiniteMeasuresSurviveAsNull)
{
    // JSON has no NaN/inf literal; the codec maps them through null
    // so a diverged-but-recorded cell still round-trips.
    MvaResult r;
    r.speedup = std::numeric_limits<double>::quiet_NaN();
    r.wBus = std::numeric_limits<double>::infinity();
    r.nonFinite = true;
    MvaResult back;
    ASSERT_TRUE(mvaResultFromJson(mvaResultToJson(r), back).ok());
    EXPECT_TRUE(std::isnan(back.speedup));
    EXPECT_TRUE(std::isnan(back.wBus)); // inf normalizes to NaN
    EXPECT_TRUE(back.nonFinite);
}

TEST(CheckpointCodec, MalformedResultsAreRejected)
{
    MvaResult out;
    EXPECT_FALSE(mvaResultFromJson(JsonValue(3.0), out).ok());
    JsonValue incomplete{JsonValue::Object{}};
    auto r = mvaResultFromJson(incomplete, out);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
}

TEST(CheckpointCodec, FingerprintPinsTheGridAndNothingElse)
{
    SweepSpec spec = smallSpec();
    std::string base = sweepFingerprint(spec);

    // Operational knobs do not change the fingerprint: a resume may
    // change them, and every shard of one grid shares it.
    SweepSpec same = smallSpec();
    same.shard = {1, 4};
    same.checkpointPath = "elsewhere.ckpt";
    same.checkpointEvery = 1;
    EXPECT_EQ(sweepFingerprint(same), base);

    // Everything that determines cell results does change it.
    SweepSpec v = smallSpec();
    v.values[1] = 0.30000000000000004; // one ulp-ish nudge
    EXPECT_NE(sweepFingerprint(v), base);
    SweepSpec n = smallSpec();
    n.n = 9;
    EXPECT_NE(sweepFingerprint(n), base);
    SweepSpec p = smallSpec();
    p.protocols.push_back(*findProtocol("Dragon"));
    EXPECT_NE(sweepFingerprint(p), base);
    SweepSpec w = smallSpec();
    w.base.tau += 0.5;
    EXPECT_NE(sweepFingerprint(w), base);
}

TEST_F(Checkpoint, WriteReadRoundTrip)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.checkpointEvery = 2;
    // Poison one cell so an error cell rides along in the file.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=6").ok());
    testing::internal::CaptureStderr();
    auto res = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    clearFaultSpecs();
    ASSERT_TRUE(res.ok());

    auto data = readSweepCheckpoint(path_);
    ASSERT_TRUE(data.ok()) << data.error().describe();
    EXPECT_EQ(data.value().version, kCheckpointVersion);
    EXPECT_EQ(data.value().fingerprint, sweepFingerprint(spec));
    EXPECT_EQ(data.value().gridCells, 6u);
    EXPECT_EQ(data.value().cells.size(), 6u);
    EXPECT_EQ(data.value().paramName, "h_sw");
    EXPECT_EQ(data.value().n, 8u);
    ASSERT_EQ(data.value().protocolMods.size(), 2u);
    EXPECT_EQ(data.value().protocolMods[1], "13"); // Illinois

    // Cell 0 carries the injected error, bit-identical through the
    // SolveError codec; survivors carry bit-exact results.
    const auto &cells = data.value().cells;
    EXPECT_FALSE(cells[0].ok);
    EXPECT_EQ(cells[0].error.code, SolveErrorCode::InjectedFault);
    EXPECT_EQ(cells[0].error.describe(),
              res.value().errors[0][0]->describe());
    EXPECT_TRUE(cells[1].ok);
    EXPECT_EQ(cells[1].result.speedup, res.value().results[0][1].speedup);
    for (size_t i = 1; i < cells.size(); ++i)
        EXPECT_GT(cells[i].cell, cells[i - 1].cell);
}

TEST_F(Checkpoint, ResumeFromCompleteCheckpointRecomputesNothing)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    auto first = tryRunSweep(spec);
    ASSERT_TRUE(first.ok());

    // Arm every cell to fail: if the resume re-evaluated anything,
    // the outputs would differ.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=1").ok());
    auto resumed = tryRunSweep(spec);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.value().failureCount(), 0u);
    EXPECT_EQ(resumed.value().csv(), first.value().csv());
    EXPECT_EQ(resumed.value().cellCsv(), first.value().cellCsv());
    EXPECT_EQ(resumed.value().table().render(),
              first.value().table().render());
}

TEST_F(Checkpoint, MismatchedSpecIsRejectedNotSilentlyReused)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    SweepSpec changed = spec;
    changed.values[2] = 0.7; // a different sweep now
    auto res = tryRunSweep(changed);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message.find("fingerprint"),
              std::string::npos);
}

TEST_F(Checkpoint, WrongShardIsRejected)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.shard = {0, 2};
    ASSERT_TRUE(tryRunSweep(spec).ok());

    SweepSpec other = spec;
    other.shard = {1, 2}; // same grid, different slice
    auto res = tryRunSweep(other);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message.find("shard"), std::string::npos);
}

TEST_F(Checkpoint, CorruptedHeaderIsRejectedNamingTheFile)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // Flip one byte inside the header's fingerprint.
    std::string contents = slurp(path_);
    size_t pos = contents.find("\"fingerprint\":\"");
    ASSERT_NE(pos, std::string::npos);
    pos += 15;
    contents[pos] = contents[pos] == 'a' ? 'b' : 'a';
    spit(path_, contents);

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find(path_), std::string::npos);
    EXPECT_NE(data.error().message.find("checksum"), std::string::npos);
}

TEST_F(Checkpoint, TruncatedCellLineIsRejectedNamingTheOffset)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    std::string contents = slurp(path_);
    // Chop the final cell line in half (keep its trailing newline so
    // the reader sees a short, garbled line rather than no line).
    size_t last_nl = contents.rfind('\n');
    size_t prev_nl = contents.rfind('\n', last_nl - 1);
    std::string truncated =
        contents.substr(0, prev_nl + (last_nl - prev_nl) / 2) + "\n";
    spit(path_, truncated);

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find(path_), std::string::npos);
    EXPECT_NE(data.error().message.find("line 7"), std::string::npos);
    EXPECT_NE(data.error().message.find("byte offset"),
              std::string::npos);
}

TEST_F(Checkpoint, VersionBumpIsRejectedEvenWithAValidChecksum)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // Forge a future-version header with a *recomputed* checksum, so
    // the version check itself - not the checksum - must fire.
    std::string contents = slurp(path_);
    size_t nl = contents.find('\n');
    auto header = parseJson(contents.substr(0, nl));
    ASSERT_TRUE(header.ok());
    JsonValue h = std::move(header).value();
    h.asObject().erase("check");
    h.set("version", JsonValue(kCheckpointVersion + 1));
    h.set("check", JsonValue(fnv1aHex(serializeJson(h))));
    // (set order doesn't matter: objects serialize key-sorted.)
    JsonValue reserialized = h;
    reserialized.asObject().erase("check");
    ASSERT_EQ(h.get("check")->asString(),
              fnv1aHex(serializeJson(reserialized)));
    spit(path_, serializeJson(h) + contents.substr(nl));

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_NE(data.error().message.find("version"), std::string::npos);
    EXPECT_NE(data.error().message.find("not the supported"),
              std::string::npos);
}

TEST_F(Checkpoint, EmptyAndGarbageFilesAreRejected)
{
    spit(path_, "");
    auto empty = readSweepCheckpoint(path_);
    ASSERT_FALSE(empty.ok());
    EXPECT_NE(empty.error().message.find("no header"),
              std::string::npos);

    spit(path_, "not json at all\n");
    auto garbage = readSweepCheckpoint(path_);
    ASSERT_FALSE(garbage.ok());
    EXPECT_NE(garbage.error().message.find("malformed header"),
              std::string::npos);

    spit(path_, "{\"format\":\"something-else\"}\n");
    auto wrong = readSweepCheckpoint(path_);
    ASSERT_FALSE(wrong.ok());
    EXPECT_NE(wrong.error().message.find("not a snoop-sweep-checkpoint"),
              std::string::npos);
}

TEST_F(Checkpoint, OutOfRangeAndOutOfOrderCellsAreRejected)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.shard = {0, 2}; // owns cells [0, 3) of the 6-cell grid
    ASSERT_TRUE(tryRunSweep(spec).ok());
    std::string contents = slurp(path_);

    // A cell belonging to the other shard sneaks in.
    std::string smuggled = contents;
    size_t pos = smuggled.find("{\"cell\":2,");
    ASSERT_NE(pos, std::string::npos);
    smuggled.replace(pos, 10, "{\"cell\":5,");
    spit(path_, smuggled);
    auto out_of_range = readSweepCheckpoint(path_);
    ASSERT_FALSE(out_of_range.ok());
    EXPECT_NE(out_of_range.error().message.find("outside shard"),
              std::string::npos);

    // The same cell committed twice.
    std::string duplicated = contents;
    pos = duplicated.find("{\"cell\":1,");
    ASSERT_NE(pos, std::string::npos);
    duplicated.replace(pos, 10, "{\"cell\":0,");
    spit(path_, duplicated);
    auto out_of_order = readSweepCheckpoint(path_);
    ASSERT_FALSE(out_of_order.ok());
    EXPECT_NE(out_of_order.error().message.find("out of order"),
              std::string::npos);
}

TEST_F(Checkpoint, FailedCheckpointCommitIsAStructuredError)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(setFaultSpecs("io.fsync").ok());
    auto res = tryRunSweep(spec);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::IoError);
    EXPECT_NE(res.error().message.find("fsync"), std::string::npos);
}

TEST_F(Checkpoint, EveryCadenceCommitsTheBytesOfOneFullRewrite)
{
    for (size_t every : {1u, 7u, 32u}) {
        SCOPED_TRACE(every);
        std::remove(path_.c_str());
        SweepSpec spec = gridSpec(24, 4);
        spec.checkpointPath = path_;
        spec.checkpointEvery = every;
        // Error cells ride along too.
        ASSERT_TRUE(setFaultSpecs("sweep.cell:every=11").ok());
        testing::internal::CaptureStderr();
        auto res = tryRunSweep(spec);
        testing::internal::GetCapturedStderr();
        clearFaultSpecs();
        ASSERT_TRUE(res.ok()) << res.error().describe();
        ASSERT_GT(res.value().failureCount(), 0u);
        EXPECT_EQ(slurp(path_), fullRewrite(spec, res.value()));
    }
}

TEST_F(Checkpoint, ResumeWithGapsMatchesTheUninterruptedRun)
{
    SweepSpec spec = gridSpec(24, 4);
    spec.checkpointPath = path_;
    spec.checkpointEvery = 5;
    auto golden = tryRunSweep(spec);
    ASSERT_TRUE(golden.ok());
    const std::string golden_bytes = slurp(path_);

    // A hand-built checkpoint whose restored cells are not a prefix:
    // the first commits fill gaps below the last restored cell.
    SweepResult partial = onlyCells(golden.value(), 0, 0);
    for (size_t cell : {0u, 1u, 2u, 7u, 8u, 20u, 33u, 34u, 60u}) {
        partial.evaluated[cell / 4][cell % 4] = 1;
    }
    std::remove(path_.c_str());
    ASSERT_TRUE(writeSweepCheckpoint(path_, spec, partial).ok());

    testing::internal::CaptureStderr();
    auto resumed = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_EQ(slurp(path_), golden_bytes);
    EXPECT_EQ(resumed.value().csv(), golden.value().csv());
    EXPECT_EQ(resumed.value().cellCsv(), golden.value().cellCsv());
}

TEST_F(Checkpoint, ChangedFileIsRewrittenInFullNeverCarriedForward)
{
    SweepSpec spec = gridSpec(10, 4);
    auto full = tryRunSweep(spec);
    ASSERT_TRUE(full.ok());
    const SweepResult first = onlyCells(full.value(), 0, 16);
    const SweepResult second = onlyCells(full.value(), 0, 40);
    const std::string expect = fullRewrite(spec, second);

    struct Change
    {
        const char *what;
        void (*apply)(const std::string &path);
    };
    const Change changes[] = {
        {"appended to",
         [](const std::string &path) {
             std::ofstream(path, std::ios::app) << "{\"cell\":39}\n";
         }},
        {"truncated",
         [](const std::string &path) {
             std::string bytes = slurp(path);
             spit(path, bytes.substr(0, bytes.size() - 10));
         }},
        {"replaced by a same-size copy",
         [](const std::string &path) {
             std::string copy = path + ".copy";
             spit(copy, slurp(path));
             ASSERT_EQ(std::rename(copy.c_str(), path.c_str()), 0);
         }},
    };
    for (const Change &change : changes) {
        SCOPED_TRACE(change.what);
        std::remove(path_.c_str());
        SweepCheckpointWriter writer(path_, spec);
        ASSERT_TRUE(writer.commit(first).ok());
        change.apply(path_);
        metrics().reset();
        ASSERT_TRUE(writer.commit(second).ok());
        EXPECT_EQ(cellsSerialized(), 40.0); // every cell, in full
        EXPECT_EQ(slurp(path_), expect);
    }
}

TEST_F(Checkpoint, FailedCommitIsFollowedByAFullRewrite)
{
    SweepSpec spec = gridSpec(10, 4);
    auto full = tryRunSweep(spec);
    ASSERT_TRUE(full.ok());
    const SweepResult first = onlyCells(full.value(), 0, 8);
    const SweepResult third = onlyCells(full.value(), 0, 40);
    for (const char *site : {"io.commit", "io.fsync"}) {
        SCOPED_TRACE(site);
        std::remove(path_.c_str());
        SweepCheckpointWriter writer(path_, spec);
        ASSERT_TRUE(writer.commit(first).ok());
        const std::string first_bytes = slurp(path_);

        ASSERT_TRUE(setFaultSpecs(site).ok());
        auto failed = writer.commit(onlyCells(full.value(), 0, 24));
        clearFaultSpecs();
        ASSERT_FALSE(failed.ok());
        EXPECT_EQ(failed.error().code, SolveErrorCode::IoError);
        EXPECT_EQ(slurp(path_), first_bytes); // the last commit survives

        metrics().reset();
        ASSERT_TRUE(writer.commit(third).ok());
        EXPECT_EQ(cellsSerialized(), 40.0); // not carried forward
        EXPECT_EQ(slurp(path_), fullRewrite(spec, third));
    }
}

TEST_F(Checkpoint, FreshSweepSerializesEachCellExactlyOnce)
{
    // The machine-independent guard against quadratic commits: 128
    // commits of 8 cells must serialize 1024 cell lines, not the
    // 66 048 a rewrite of every committed cell at every commit costs.
    SweepSpec spec = gridSpec(64, 16);
    spec.checkpointPath = path_;
    spec.checkpointEvery = 8;
    auto res = tryRunSweep(spec);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value().evaluatedCount(), 1024u);
    EXPECT_EQ(cellsSerialized(),
              static_cast<double>(res.value().evaluatedCount()));
    EXPECT_EQ(slurp(path_), fullRewrite(spec, res.value()));
}

TEST(ShardSlices, RangesAreContiguousExhaustiveAndOrdered)
{
    for (size_t cells : {0u, 1u, 7u, 14u, 112u, 113u}) {
        for (size_t count : {1u, 2u, 3u, 4u, 7u, 16u}) {
            size_t expect_begin = 0;
            for (size_t index = 0; index < count; ++index) {
                ShardSpec s{index, count};
                auto [begin, end] = s.cellRange(cells);
                EXPECT_EQ(begin, expect_begin)
                    << cells << " cells, shard " << index << "/"
                    << count;
                EXPECT_LE(begin, end);
                expect_begin = end;
            }
            EXPECT_EQ(expect_begin, cells) << count;
        }
    }
    EXPECT_TRUE(ShardSpec{}.isWhole());
    EXPECT_FALSE((ShardSpec{0, 4}).isWhole());
}

} // namespace
} // namespace snoop
