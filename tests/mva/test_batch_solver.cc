/**
 * Tests for the SoA batch engine (BatchMvaSolver): every lane must be
 * bit-identical to the scalar MvaSolver::trySolve of the same cell -
 * the same measures, diagnostics, attempt ladder, and convergence
 * trace, at any SNOOP_JOBS setting - and a faulted lane (non-finite
 * inputs, injected solver faults, invalid arguments) must fail alone,
 * with the same structured error the scalar engine produces, without
 * perturbing its neighbors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mva/batch_solver.hh"
#include "mva/solver.hh"
#include "util/fault.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

DerivedInputs
appendixAInputs(SharingLevel level, const std::string &mods)
{
    return DerivedInputs::compute(presets::appendixA(level),
                                  ProtocolConfig::fromModString(mods));
}

/** The Table 4-1-shaped grid both engines are compared across. */
std::vector<MvaJob>
tableGridJobs(const MvaOptions &opts)
{
    std::vector<MvaJob> jobs;
    for (auto level : kSharingLevels) {
        for (const char *mods : {"", "1", "13", "123"}) {
            for (unsigned n :
                 {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 1000u}) {
                MvaJob job;
                job.inputs = appendixAInputs(level, mods);
                job.n = n;
                job.opts = opts;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

/** Scalar reference results, one trySolve per job, same options. */
std::vector<Expected<MvaResult>>
scalarReference(const std::vector<MvaJob> &jobs)
{
    std::vector<Expected<MvaResult>> out;
    out.reserve(jobs.size());
    for (const MvaJob &job : jobs) {
        MvaSolver solver(job.opts);
        // snoop-lint: nonconvergence-ok (reference values compared
        // field-for-field below, converged flag included)
        out.push_back(solver.trySolve(job.inputs, job.n, job.seed));
    }
    return out;
}

/** Bit-identity: every field, == on doubles, no tolerance. */
void
expectBitIdentical(const MvaResult &a, const MvaResult &b)
{
    EXPECT_EQ(a.numProcessors, b.numProcessors);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.processingPower, b.processingPower);
    EXPECT_EQ(a.responseTime, b.responseTime);
    EXPECT_EQ(a.rLocal, b.rLocal);
    EXPECT_EQ(a.rBroadcast, b.rBroadcast);
    EXPECT_EQ(a.rRemoteRead, b.rRemoteRead);
    EXPECT_EQ(a.wBus, b.wBus);
    EXPECT_EQ(a.qBus, b.qBus);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.pBusyBus, b.pBusyBus);
    EXPECT_EQ(a.tBus, b.tBus);
    EXPECT_EQ(a.tResBus, b.tResBus);
    EXPECT_EQ(a.wMem, b.wMem);
    EXPECT_EQ(a.memUtil, b.memUtil);
    EXPECT_EQ(a.pBusyMem, b.pBusyMem);
    EXPECT_EQ(a.nInterference, b.nInterference);
    EXPECT_EQ(a.tInterference, b.tInterference);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.residual, b.residual);
    EXPECT_EQ(a.nonFinite, b.nonFinite);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    EXPECT_EQ(a.warmStarted, b.warmStarted);
    EXPECT_EQ(a.convergenceTrace, b.convergenceTrace);
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t k = 0; k < a.attempts.size(); ++k) {
        EXPECT_EQ(a.attempts[k].damping, b.attempts[k].damping);
        EXPECT_EQ(a.attempts[k].iterations, b.attempts[k].iterations);
        EXPECT_EQ(a.attempts[k].residual, b.attempts[k].residual);
        EXPECT_EQ(a.attempts[k].converged, b.attempts[k].converged);
    }
}

/** Compare a whole batch against its scalar reference. */
void
expectBatchMatchesScalar(const std::vector<Expected<MvaResult>> &batch,
                         const std::vector<Expected<MvaResult>> &scalar)
{
    ASSERT_EQ(batch.size(), scalar.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        ASSERT_EQ(batch[i].ok(), scalar[i].ok());
        if (batch[i].ok()) {
            expectBitIdentical(batch[i].value(), scalar[i].value());
        } else {
            EXPECT_EQ(batch[i].error().code, scalar[i].error().code);
            EXPECT_EQ(batch[i].error().message,
                      scalar[i].error().message);
        }
    }
}

/** Restores the pool size and fault registry around every test. */
class BatchSolver : public testing::Test
{
  protected:
    void SetUp() override { clearFaultSpecs(); }
    void TearDown() override
    {
        clearFaultSpecs();
        setParallelJobs(0);
    }
};

TEST_F(BatchSolver, BitIdenticalToScalarAcrossTheGridAtAnyJobCount)
{
    std::vector<MvaJob> jobs = tableGridJobs(MvaOptions{});
    auto scalar = scalarReference(jobs);
    BatchMvaSolver batch;
    for (unsigned n_jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE("SNOOP_JOBS=" + std::to_string(n_jobs));
        setParallelJobs(n_jobs);
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
    }
}

TEST_F(BatchSolver, BlockSizeNeverChangesTheNumbers)
{
    std::vector<MvaJob> jobs = tableGridJobs(MvaOptions{});
    auto scalar = scalarReference(jobs);
    for (size_t block : {1u, 3u, 16u, 1000u}) {
        SCOPED_TRACE("blockSize=" + std::to_string(block));
        BatchMvaSolver batch(BatchOptions{block});
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
    }
}

TEST_F(BatchSolver, LadderLanesMixWithCleanLanes)
{
    // Lanes that walk the full recovery ladder (an iteration cap no
    // rung can converge under) interleaved with lanes that converge
    // on the first attempt: the per-lane ladder state must never
    // bleed across lanes of one SoA block.
    MvaOptions capped;
    capped.maxIterations = 2;
    capped.onNonConvergence = NonConvergencePolicy::Accept;
    std::vector<MvaJob> jobs;
    for (unsigned i = 0; i < 12; ++i) {
        MvaJob job;
        job.inputs = appendixAInputs(SharingLevel::FivePercent,
                                     i % 3 ? "13" : "");
        job.n = 10 + i;
        if (i % 2)
            job.opts = capped;
        jobs.push_back(std::move(job));
    }
    auto scalar = scalarReference(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(scalar[i].ok());
        // The capped lanes really did walk the whole ladder.
        EXPECT_EQ(scalar[i].value().attempts.size(), i % 2 ? 5u : 1u);
        EXPECT_EQ(scalar[i].value().converged, i % 2 == 0);
    }
    BatchMvaSolver batch(BatchOptions{4});
    expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
}

TEST_F(BatchSolver, WarmAndColdLanesShareABatch)
{
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "13");
    MvaSolver solver;
    auto anchor = solver.trySolve(inputs, 10);
    ASSERT_TRUE(anchor.ok());

    std::vector<MvaJob> jobs(2);
    jobs[0].inputs = inputs;
    jobs[0].n = 12; // cold
    jobs[1].inputs = inputs;
    jobs[1].n = 12; // warm, seeded from the N=10 fixed point
    jobs[1].seed = MvaSeed::fromResult(anchor.value());

    auto scalar = scalarReference(jobs);
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    expectBatchMatchesScalar(solved, scalar);
    ASSERT_TRUE(solved[0].ok());
    ASSERT_TRUE(solved[1].ok());
    EXPECT_FALSE(solved[0].value().warmStarted);
    EXPECT_TRUE(solved[1].value().warmStarted);
    EXPECT_LT(solved[1].value().iterations,
              solved[0].value().iterations);
}

TEST_F(BatchSolver, NonFiniteLaneFailsAloneWithTheScalarError)
{
    std::vector<MvaJob> jobs(3);
    for (MvaJob &job : jobs) {
        job.inputs = appendixAInputs(SharingLevel::FivePercent, "");
        job.n = 10;
        job.opts.onNonConvergence = NonConvergencePolicy::Accept;
    }
    jobs[1].inputs.tau = std::nan(""); // poison the middle lane
    auto scalar = scalarReference(jobs);
    ASSERT_FALSE(scalar[1].ok());
    EXPECT_EQ(scalar[1].error().code, SolveErrorCode::NonFiniteIterate);
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    expectBatchMatchesScalar(solved, scalar);
    EXPECT_TRUE(solved[0].ok());
    EXPECT_TRUE(solved[2].ok());
}

TEST_F(BatchSolver, InvalidLanesFailAloneWithTheScalarErrors)
{
    std::vector<MvaJob> jobs(3);
    for (MvaJob &job : jobs) {
        job.inputs = appendixAInputs(SharingLevel::FivePercent, "");
        job.n = 8;
    }
    jobs[0].n = 0;                       // no processors
    jobs[2].seed = {std::nan(""), 0, 0}; // non-finite seed
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    ASSERT_FALSE(solved[0].ok());
    EXPECT_EQ(solved[0].error().code, SolveErrorCode::InvalidArgument);
    ASSERT_TRUE(solved[1].ok());
    EXPECT_TRUE(solved[1].value().converged);
    ASSERT_FALSE(solved[2].ok());
    EXPECT_EQ(solved[2].error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(solved[2].error().message.find("seed"),
              std::string::npos);
}

TEST_F(BatchSolver, InjectedSolverFaultsMatchScalarLaneForLane)
{
    for (const char *spec :
         {"mva.nan", "mva.nonconverge", "mva.first_attempt"}) {
        SCOPED_TRACE(spec);
        ASSERT_TRUE(setFaultSpecs(spec).ok());
        MvaOptions opts;
        opts.onNonConvergence = NonConvergencePolicy::Accept;
        std::vector<MvaJob> jobs(4);
        for (size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].inputs = appendixAInputs(
                SharingLevel::FivePercent, i % 2 ? "13" : "");
            jobs[i].n = 8 + static_cast<unsigned>(i);
            jobs[i].opts = opts;
        }
        auto scalar = scalarReference(jobs);
        BatchMvaSolver batch;
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
        clearFaultSpecs();
    }
}

TEST_F(BatchSolver, LadderRescuesAFaultedFirstAttemptBelowHalf)
{
    // The batch engine consumes the same shared rung table
    // (kRecoveryLadderRungs): a lane configured at damping 0.3 whose
    // first attempt is faulted must retry at 0.25, not give up.
    ASSERT_TRUE(setFaultSpecs("mva.first_attempt").ok());
    MvaJob job;
    job.inputs = appendixAInputs(SharingLevel::FivePercent, "");
    job.n = 8;
    job.opts.damping = 0.3;
    BatchMvaSolver batch;
    auto solved = batch.solveBatch({job});
    ASSERT_EQ(solved.size(), 1u);
    ASSERT_TRUE(solved[0].ok());
    const MvaResult &r = solved[0].value();
    EXPECT_TRUE(r.converged);
    ASSERT_GE(r.attempts.size(), 2u);
    EXPECT_EQ(r.attempts[0].damping, 0.3);
    EXPECT_FALSE(r.attempts[0].converged);
    EXPECT_EQ(r.attempts[1].damping, 0.25);
    EXPECT_TRUE(r.attempts.back().converged);
}

TEST_F(BatchSolver, IterationBudgetLanesMatchScalarBitForBit)
{
    // Budgeted lanes across policies and dampings, mixed with
    // unbudgeted ones: every cut - on the first rung, mid-ladder, or
    // never - must match the scalar solve, error codes and messages
    // included.
    const long budgets[] = {0, 1, 3, 17, 40, 200, 100000};
    const double dampings[] = {1.0, 0.5, 0.3};
    std::vector<MvaJob> jobs;
    for (size_t k = 0; k < 42; ++k) {
        MvaJob job;
        job.inputs = appendixAInputs(kSharingLevels[k % 3],
                                     k % 2 ? "13" : "");
        job.n = 4 + static_cast<unsigned>(7 * k % 60);
        job.opts.iterationBudget = budgets[k % 7];
        job.opts.damping = dampings[k / 7 % 3];
        job.opts.maxIterations = k % 4 == 0 ? 25 : 500;
        job.opts.onNonConvergence = k % 5 == 0
            ? NonConvergencePolicy::Fatal
            : NonConvergencePolicy::Accept;
        jobs.push_back(std::move(job));
    }
    auto scalar = scalarReference(jobs);
    size_t cut = 0, failed = 0;
    for (const auto &r : scalar) {
        if (!r.ok())
            ++failed;
        else if (r.value().budgetExhausted)
            ++cut;
    }
    EXPECT_GT(cut, 0u);
    EXPECT_GT(failed, 0u);
    for (size_t block : {1u, 4u, 16u}) {
        SCOPED_TRACE("blockSize=" + std::to_string(block));
        BatchMvaSolver batch(BatchOptions{block});
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
    }
}

TEST_F(BatchSolver, IterationBudgetCutsMidLadderUnderFirstAttemptFault)
{
    // mva.first_attempt burns the whole first rung; the budget then
    // leaves the second rung too few iterations (or none at all).
    ASSERT_TRUE(setFaultSpecs("mva.first_attempt").ok());
    std::vector<MvaJob> jobs;
    for (long budget : {20L, 21L, 25L, 30L, 60L, 1000L}) {
        for (auto policy : {NonConvergencePolicy::Accept,
                            NonConvergencePolicy::Fatal}) {
            MvaJob job;
            job.inputs = appendixAInputs(SharingLevel::FivePercent, "1");
            job.n = 16;
            job.opts.maxIterations = 20;
            job.opts.iterationBudget = budget;
            job.opts.onNonConvergence = policy;
            jobs.push_back(std::move(job));
        }
    }
    auto scalar = scalarReference(jobs);
    ASSERT_TRUE(scalar[0].ok());
    EXPECT_TRUE(scalar[0].value().budgetExhausted);
    EXPECT_EQ(scalar[0].value().attempts.size(), 1u);
    ASSERT_TRUE(scalar[4].ok());
    EXPECT_TRUE(scalar[4].value().budgetExhausted);
    EXPECT_EQ(scalar[4].value().attempts.size(), 2u);
    ASSERT_FALSE(scalar[5].ok());
    EXPECT_EQ(scalar[5].error().code, SolveErrorCode::BudgetExhausted);
    BatchMvaSolver batch(BatchOptions{4});
    expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
}

TEST_F(BatchSolver, ExpiredTimeBudgetLaneFailsAloneWithTheScalarError)
{
    // One lane's wall-clock budget is gone before its first
    // iteration; a generous budget on another lane never fires. The
    // untimed and generously timed lanes stay bit-identical.
    std::vector<MvaJob> jobs(4);
    for (size_t k = 0; k < jobs.size(); ++k) {
        jobs[k].inputs = appendixAInputs(SharingLevel::FivePercent,
                                         k % 2 ? "13" : "");
        jobs[k].n = 8 + static_cast<unsigned>(k);
        jobs[k].opts.onNonConvergence = NonConvergencePolicy::Accept;
    }
    jobs[1].opts.timeBudget = 1e-12; // expires before the first check
    jobs[3].opts.timeBudget = 3600.0;
    auto scalar = scalarReference(jobs);
    ASSERT_FALSE(scalar[1].ok());
    EXPECT_EQ(scalar[1].error().code, SolveErrorCode::BudgetExhausted);
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    expectBatchMatchesScalar(solved, scalar);
    EXPECT_TRUE(solved[0].ok());
    EXPECT_TRUE(solved[2].ok());
    EXPECT_TRUE(solved[3].ok());
}

TEST_F(BatchSolver, EmptyBatchIsANoOp)
{
    BatchMvaSolver batch;
    EXPECT_TRUE(batch.solveBatch({}).empty());
}

} // namespace
} // namespace snoop
