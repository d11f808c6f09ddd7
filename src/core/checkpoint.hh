#pragma once

/**
 * @file
 * Crash-safe sweep checkpoints: the durable cell store behind
 * runSweep's checkpoint/resume and the snoop_merge shard combiner
 * (docs/SHARDING.md).
 *
 * A checkpoint is a line-delimited JSON file, replaced atomically at
 * every commit through util/atomic_file.hh (fsync'd temp + rename +
 * directory fsync), so the file on disk is always a complete,
 * internally consistent snapshot - a SIGKILL or power cut between
 * commits loses at most checkpointEvery cells of work, never the
 * file.
 *
 * A commit costs O(new cells), not O(all cells): SweepCheckpointWriter
 * streams the previous commit's bytes into the new temporary and
 * serializes only the cells evaluated since. It carries bytes forward
 * only when the file on disk is the one it last committed (same size,
 * inode, and mtime) and every new cell comes after the last committed
 * one; otherwise - the first commit, a resume whose restored cells
 * leave gaps, a file changed by someone else, the commit after a
 * failed one - it rewrites the file in full. Either way the bytes are
 * exactly those a full rewrite of the same cells would produce.
 *
 * Line 1 is a versioned, self-validating header: it carries the
 * format tag, the format version, a checksum of the header itself,
 * the spec fingerprint (a 64-bit FNV-1a over the canonicalized grid:
 * workload, swept values, protocol columns, system size - everything
 * that determines cell results, nothing operational), the shard
 * descriptor, and the rendering-relevant spec copy the merge tool
 * rebuilds output from. Every following line is one completed cell in
 * global cell order - a result cell with the full set of performance
 * measures, or an error cell whose SolveError round-trips through the
 * shared JSON codec (util/json.hh) bit-identically.
 *
 * Versioning policy: readers accept exactly the versions they know
 * (currently 1). A bumped version, a checksum mismatch, a truncated
 * or garbled line, an out-of-range or duplicated cell - each is a
 * structured InvalidArgument/IoError naming the file and the offset,
 * and resume refuses to run rather than silently recompute or reuse.
 *
 * What is *not* persisted: solver diagnostics (per-attempt ladder
 * records, the convergence trace) and the derived inputs, which no
 * sweep output consumes. A restored SweepResult therefore renders
 * table()/csv()/cellCsv()/winners() byte-identically to the
 * uninterrupted run, but its cells carry empty diagnostics.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "util/expected.hh"
#include "util/json.hh"

namespace snoop {

/** The checkpoint format version this build reads and writes. */
inline constexpr unsigned kCheckpointVersion = 1;

/** The header's format tag. */
inline constexpr const char *kCheckpointFormat =
    "snoop-sweep-checkpoint";

/** One persisted cell: a result or a structured failure. */
struct CheckpointCell
{
    size_t cell = 0;  ///< global cell index (v * numProtocols + p)
    bool ok = true;   ///< result valid when true, error when false
    MvaResult result;
    SolveError error;
};

/** A parsed, structurally validated checkpoint file. */
struct CheckpointData
{
    unsigned version = kCheckpointVersion;
    std::string fingerprint; ///< sweepFingerprint() of the grid
    ShardSpec shard;         ///< the slice this file belongs to
    size_t gridCells = 0;    ///< values x protocols of the full grid

    // The rendering-relevant spec copy (validated against the resuming
    // spec; the merge tool rebuilds SweepSpec columns from it).
    std::string paramName;
    unsigned n = 0;
    std::vector<double> values;
    std::vector<std::string> protocolMods;    ///< ProtocolConfig::modString
    std::vector<std::string> protocolHeaders; ///< display column names

    /** Completed cells, in strictly increasing cell order. */
    std::vector<CheckpointCell> cells;
};

/**
 * 64-bit FNV-1a of @p text as 16 lowercase hex digits - the hash
 * behind both the grid fingerprint and the header self-checksum.
 * Public so tests can forge headers (e.g. a version bump with a
 * recomputed checksum) and prove the *version* check fires, not just
 * the checksum.
 */
std::string fnv1aHex(const std::string &text);

/**
 * The 16-hex-digit FNV-1a fingerprint of everything in @p spec that
 * determines cell results: base workload, swept parameter name and
 * values (exact, via shortest-round-trip serialization), protocol
 * columns, and n. Shard descriptor and checkpoint knobs are excluded,
 * so all shards of one grid - and a resume of any of them - share a
 * fingerprint, while any change to the grid changes it.
 */
std::string sweepFingerprint(const SweepSpec &spec);

/** An MvaResult's persisted measures as a JSON object. */
JsonValue mvaResultToJson(const MvaResult &result);

/**
 * Inverse of mvaResultToJson. Missing members and wrong member kinds
 * come back as InvalidArgument naming the member; @p out is then left
 * untouched.
 */
Expected<void> mvaResultFromJson(const JsonValue &value, MvaResult &out);

/** True when @p path exists (resume trigger; not a validity check). */
bool checkpointExists(const std::string &path);

/**
 * The commit path of one sweep's checkpoint file. Each commit()
 * atomically persists every evaluated cell of a partial result for
 * the shard slice of the spec - the same bytes at any commit cadence
 * - carrying the previous commit's bytes forward when it safely can
 * (the file comment). Holds only the header line and the position of
 * its last successful commit, never serialized cells.
 */
class SweepCheckpointWriter
{
  public:
    SweepCheckpointWriter(std::string path, const SweepSpec &spec);

    /**
     * Atomically persist every evaluated cell of @p partial. IoError
     * when the atomic commit fails; the previous checkpoint, if any,
     * survives, and the next commit rewrites the file in full.
     */
    Expected<void> commit(const SweepResult &partial);

  private:
    /** What identifies the file this writer last committed. */
    struct FileStamp
    {
        uint64_t size = 0, device = 0, inode = 0;
        int64_t mtimeNs = 0;
        bool operator==(const FileStamp &) const = default;
    };

    static std::optional<FileStamp> stampOf(const std::string &path);
    bool canCarryForward(const SweepResult &partial) const;

    std::string path_;
    std::string header_; ///< the header line, newline included
    size_t protocols_ = 0;
    size_t begin_ = 0, end_ = 0; ///< the shard's cell range

    // The last successful commit (meaningful only when committed_).
    bool committed_ = false;
    FileStamp stamp_;
    size_t cells_ = 0;    ///< cell lines in the file
    size_t nextCell_ = 0; ///< one past the file's last cell line
};

/**
 * Atomically persist every evaluated cell of @p partial (results and
 * error cells) for the shard slice of @p spec: a fresh
 * SweepCheckpointWriter's full-rewrite commit. IoError when the
 * atomic commit fails; the previous checkpoint, if any, survives.
 */
Expected<void> writeSweepCheckpoint(const std::string &path,
                                    const SweepSpec &spec,
                                    const SweepResult &partial);

/**
 * Read and structurally validate a checkpoint file: format tag,
 * version, header checksum, cell order/range/shape. Every rejection
 * is a structured error naming @p path and the offending line and
 * byte offset. Spec compatibility is applyCheckpoint's job.
 */
Expected<CheckpointData> readSweepCheckpoint(const std::string &path);

/**
 * Restore @p data into @p res (whose grids must be pre-sized for
 * @p spec): fills results/errors and marks the cells evaluated.
 * Rejects - with a structured error, never silent reuse - a
 * fingerprint mismatch, a different shard descriptor, or a grid
 * shape that does not match @p spec.
 */
Expected<void> applyCheckpoint(const CheckpointData &data,
                               const SweepSpec &spec, SweepResult &res);

} // namespace snoop
