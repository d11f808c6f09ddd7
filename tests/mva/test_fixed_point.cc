/**
 * Unit tests for the fixed-point driver (mva/fixed_point.hh) with a
 * toy step: x <- f(x) on a small vector, max-abs residual, absolute
 * tolerance. Every solver runs through this driver, so these cases
 * pin the ladder, budget, non-finite, fault and disposition contract
 * once for all of them.
 */

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mva/fixed_point.hh"
#include "observe/metrics.hh"
#include "util/fault.hh"

namespace snoop {
namespace {

constexpr FixedPointSite kToySite =
    SNOOP_FIXED_POINT_SITE("toy", "ToySolver", "ToySolver::solve");

/** x <- f(x) with damping; the driver's view of a solver. */
template <class F>
class ToyStep
{
  public:
    ToyStep(std::vector<double> x0, F f)
        : x0_(x0), x_(x0), next_(x0.size()), f_(f)
    {
    }

    void restart()
    {
        x_ = x0_;
        ++restarts;
    }

    std::span<double> propose()
    {
        f_(x_, next_);
        return next_;
    }

    FixedPointDelta commit(double damping)
    {
        double resid = 0.0;
        for (size_t i = 0; i < x_.size(); ++i) {
            double blended =
                damping * next_[i] + (1.0 - damping) * x_[i];
            resid = std::max(resid, std::fabs(blended - x_[i]));
            x_[i] = blended;
        }
        return {resid, 1.0};
    }

    const std::vector<double> &x() const { return x_; }
    int restarts = 0;

  private:
    std::vector<double> x0_, x_, next_;
    F f_;
};

template <class F>
ToyStep<F>
toyStep(std::vector<double> x0, F f)
{
    return ToyStep<F>(std::move(x0), f);
}

/** x -> x + 1: converges at no damping. */
auto kDrift = [](const std::vector<double> &x, std::vector<double> &n) {
    n[0] = x[0] + 1.0;
};
/** x -> -x: oscillates undamped, converges to 0 at damping 0.5. */
auto kFlip = [](const std::vector<double> &x, std::vector<double> &n) {
    n[0] = -x[0];
};

std::string
describeToy()
{
    return "toy";
}

MvaOptions
options(int max_iterations, NonConvergencePolicy policy)
{
    MvaOptions opts;
    opts.maxIterations = max_iterations;
    opts.tolerance = 1e-9;
    opts.onNonConvergence = policy;
    return opts;
}

/** Every test starts and ends with no fault armed. */
class FixedPoint : public testing::Test
{
  protected:
    void SetUp() override { clearFaultSpecs(); }
    void TearDown() override { clearFaultSpecs(); }
};

TEST_F(FixedPoint, SolvesContractionMapping)
{
    // x = cos(x) has the Dottie fixed point ~0.739085.
    auto step = toyStep({0.0}, [](const std::vector<double> &x,
                                  std::vector<double> &n) {
        n[0] = std::cos(x[0]);
    });
    MvaOptions opts;
    opts.maxIterations = 200;
    opts.tolerance = 1e-12;
    auto run = solveFixedPoint(step, opts, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run.value().last().converged);
    EXPECT_NEAR(step.x()[0], 0.7390851332151607, 1e-9);
}

TEST_F(FixedPoint, MultiDimensionalSystem)
{
    // x = 0.5*y + 1, y = 0.5*x  ->  x = 4/3, y = 2/3.
    auto step = toyStep({0.0, 0.0}, [](const std::vector<double> &v,
                                       std::vector<double> &n) {
        n[0] = 0.5 * v[1] + 1.0;
        n[1] = 0.5 * v[0];
    });
    auto run = solveFixedPoint(step, MvaOptions{}, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run.value().last().converged);
    EXPECT_NEAR(step.x()[0], 4.0 / 3.0, 1e-9);
    EXPECT_NEAR(step.x()[1], 2.0 / 3.0, 1e-9);
}

TEST_F(FixedPoint, ImmediateFixedPointConvergesInOneIteration)
{
    auto step = toyStep({1.0, 2.0}, [](const std::vector<double> &x,
                                       std::vector<double> &n) { n = x; });
    auto run = solveFixedPoint(step, MvaOptions{}, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    const FixedPointLadder &ladder = run.value();
    EXPECT_TRUE(ladder.last().converged);
    EXPECT_EQ(ladder.last().iterations, 1);
    EXPECT_FALSE(ladder.budgetExhausted());
    EXPECT_FALSE(ladder.last().nonFinite);
    ASSERT_EQ(ladder.attempts().size(), 1u);
}

TEST_F(FixedPoint, RecoveryLadderSkipsIneligibleRungs)
{
    auto rungs = [](double damping) {
        RecoveryLadder ladder(damping);
        std::vector<double> out;
        for (size_t k = 0; k < ladder.size(); ++k)
            out.push_back(ladder[k]);
        return out;
    };
    EXPECT_EQ(rungs(1.0), (std::vector<double>{1.0, 0.5, 0.25, 0.1, 0.05}));
    // 0.5 is not below 0.3: it is skipped, not a ladder terminator.
    EXPECT_EQ(rungs(0.3), (std::vector<double>{0.3, 0.25, 0.1, 0.05}));
    // Nothing lies below the heaviest shared rung: single attempt.
    EXPECT_EQ(rungs(0.05), (std::vector<double>{0.05}));
}

TEST_F(FixedPoint, AcceptReturnsTheWholeUnconvergedLadder)
{
    // x -> x + 1 never converges: every rung runs to its cap, each
    // restarting from x0, and the final attempt's state is reported.
    auto step = toyStep({0.0}, kDrift);
    auto run = solveFixedPoint(
        step, options(10, NonConvergencePolicy::Accept), kToySite,
        describeToy);
    ASSERT_TRUE(run.ok());
    const FixedPointLadder &ladder = run.value();
    ASSERT_EQ(ladder.attempts().size(), 5u);
    EXPECT_EQ(step.restarts, 5);
    for (const SolveAttempt &a : ladder.attempts())
        EXPECT_EQ(a.iterations, 10);
    EXPECT_EQ(ladder.attempts()[0].damping, 1.0);
    EXPECT_NEAR(ladder.attempts()[0].residual, 1.0, 1e-12);
    EXPECT_EQ(ladder.attempts()[3].damping, 0.1);
    EXPECT_EQ(ladder.attempts()[4].damping, 0.05);
    EXPECT_NEAR(ladder.last().residual, 0.05, 1e-12);
    EXPECT_FALSE(ladder.last().converged);
    EXPECT_FALSE(ladder.budgetExhausted());
    // The final attempt restarted from x0: ten steps of 0.05.
    EXPECT_NEAR(step.x()[0], 0.5, 1e-12);
}

TEST_F(FixedPoint, DampingStabilizesOscillation)
{
    auto step = toyStep({1.0}, kFlip);
    MvaOptions opts = options(500, NonConvergencePolicy::Fatal);
    opts.damping = 0.5;
    auto run = solveFixedPoint(step, opts, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().attempts().size(), 1u);
    EXPECT_NEAR(step.x()[0], 0.0, 1e-8);
}

TEST_F(FixedPoint, RecoveryLadderRescuesOscillation)
{
    // x -> -x at damping 1.0 bounces between 1 and -1 forever; the
    // 0.5 rung lands on 0.
    auto step = toyStep({1.0}, kFlip);
    auto run = solveFixedPoint(
        step, options(200, NonConvergencePolicy::Fatal), kToySite,
        describeToy);
    ASSERT_TRUE(run.ok());
    const FixedPointLadder &ladder = run.value();
    ASSERT_EQ(ladder.attempts().size(), 2u);
    EXPECT_FALSE(ladder.attempts()[0].converged);
    EXPECT_EQ(ladder.attempts()[0].iterations, 200);
    EXPECT_TRUE(ladder.last().converged);
    EXPECT_EQ(ladder.last().damping, 0.5);
    EXPECT_NEAR(step.x()[0], 0.0, 1e-8);
}

TEST_F(FixedPoint, ResidualsRecordTheFinalAttemptOnly)
{
    auto step = toyStep({1.0}, kFlip);
    std::vector<double> residuals;
    auto run = solveFixedPoint(
        step, options(200, NonConvergencePolicy::Fatal), kToySite,
        describeToy, &residuals);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(residuals.size(),
              static_cast<size_t>(run.value().last().iterations));
    EXPECT_EQ(residuals.front(), 1.0); // 1 -> 0 at damping 0.5
    EXPECT_EQ(residuals.back(), run.value().last().residual);
}

TEST_F(FixedPoint, NonFiniteIterateSurvivingTheLadderIsAnError)
{
    auto step = toyStep({0.0}, [](const std::vector<double> &x,
                                  std::vector<double> &n) {
        n[0] = std::numeric_limits<double>::quiet_NaN() + x[0];
    });
    auto run = solveFixedPoint(
        step, options(20, NonConvergencePolicy::Accept), kToySite,
        describeToy);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, SolveErrorCode::NonFiniteIterate);
    EXPECT_EQ(run.error().site, "ToySolver::solve");
    EXPECT_NE(run.error().message.find("all 5 damping attempts (toy)"),
              std::string::npos)
        << run.error().describe();
    // The poisoned proposal was never committed.
    EXPECT_EQ(step.x()[0], 0.0);
}

TEST_F(FixedPoint, NanFaultPoisonsTheSecondIterationOfEveryAttempt)
{
    ASSERT_TRUE(setFaultSpecs("toy.nan").ok());
    auto step = toyStep({0.0}, kDrift);
    auto run = solveFixedPoint(
        step, options(10, NonConvergencePolicy::Accept), kToySite,
        describeToy);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, SolveErrorCode::NonFiniteIterate);
    // The last finite iterate of the final (0.05) attempt: one step.
    EXPECT_EQ(step.x()[0], 0.05);
}

TEST_F(FixedPoint, FirstAttemptFaultIsRescuedByTheNextRung)
{
    ASSERT_TRUE(setFaultSpecs("toy.first_attempt").ok());
    auto step = toyStep({0.0, 0.0}, [](const std::vector<double> &v,
                                       std::vector<double> &n) {
        n[0] = 0.5 * v[1] + 1.0;
        n[1] = 0.5 * v[0];
    });
    auto run = solveFixedPoint(
        step, options(200, NonConvergencePolicy::Fatal), kToySite,
        describeToy);
    ASSERT_TRUE(run.ok());
    const FixedPointLadder &ladder = run.value();
    ASSERT_EQ(ladder.attempts().size(), 2u);
    EXPECT_FALSE(ladder.attempts()[0].converged);
    EXPECT_EQ(ladder.attempts()[0].iterations, 200);
    EXPECT_TRUE(ladder.last().converged);
}

TEST_F(FixedPoint, NonconvergeFaultFailsEveryAttempt)
{
    ASSERT_TRUE(setFaultSpecs("toy.nonconverge").ok());
    auto step = toyStep({1.0, 2.0}, [](const std::vector<double> &x,
                                       std::vector<double> &n) { n = x; });
    auto run = solveFixedPoint(
        step, options(3, NonConvergencePolicy::Fatal), kToySite,
        describeToy);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, SolveErrorCode::NonConvergence);
}

TEST_F(FixedPoint, FatalPolicyReportsTheIterationsActuallyRun)
{
    auto step = toyStep({0.0}, kDrift);
    auto run = solveFixedPoint(
        step, options(5, NonConvergencePolicy::Fatal), kToySite,
        describeToy);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, SolveErrorCode::NonConvergence);
    EXPECT_EQ(run.error().message,
              "no convergence after 25 iterations across 5 attempts "
              "(toy)");
}

TEST_F(FixedPoint, WarnPolicyWarnsAndReturns)
{
    auto step = toyStep({0.0}, kDrift);
    testing::internal::CaptureStderr();
    auto run = solveFixedPoint(
        step, options(3, NonConvergencePolicy::Warn), kToySite,
        describeToy);
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run.value().last().converged);
    EXPECT_NE(err.find("ToySolver: no convergence after 15 iterations"),
              std::string::npos)
        << err;
}

TEST_F(FixedPoint, IterationBudgetCapsTheLadder)
{
    // Budget of 15 total iterations: the first attempt consumes 10,
    // the second at most 5, and the ladder stops there.
    auto step = toyStep({0.0}, kDrift);
    MvaOptions opts = options(10, NonConvergencePolicy::Accept);
    opts.iterationBudget = 15;
    auto run = solveFixedPoint(step, opts, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    const FixedPointLadder &ladder = run.value();
    EXPECT_TRUE(ladder.budgetExhausted());
    ASSERT_EQ(ladder.attempts().size(), 2u);
    EXPECT_EQ(ladder.attempts()[0].iterations, 10);
    EXPECT_EQ(ladder.attempts()[1].iterations, 5);

    opts.onNonConvergence = NonConvergencePolicy::Fatal;
    auto fatal = solveFixedPoint(step, opts, kToySite, describeToy);
    ASSERT_FALSE(fatal.ok());
    EXPECT_EQ(fatal.error().code, SolveErrorCode::BudgetExhausted);
    EXPECT_EQ(fatal.error().message,
              "no convergence after 15 iterations across 2 attempts "
              "(toy, budget exhausted)");
}

TEST_F(FixedPoint, ExpiredTimeBudgetIsAnErrorUnderEveryPolicy)
{
    for (auto policy : {NonConvergencePolicy::Warn,
                        NonConvergencePolicy::Fatal,
                        NonConvergencePolicy::Accept}) {
        auto step = toyStep({0.0}, kDrift);
        MvaOptions opts = options(10, policy);
        opts.timeBudget = 1e-12; // expires before the first check
        auto run = solveFixedPoint(step, opts, kToySite, describeToy);
        ASSERT_FALSE(run.ok());
        EXPECT_EQ(run.error().code, SolveErrorCode::BudgetExhausted);
        EXPECT_NE(run.error().message.find("before the first iteration"),
                  std::string::npos);
    }
}

TEST_F(FixedPoint, TimeBudgetStopsALongSolve)
{
    auto step = toyStep({0.0}, kDrift);
    MvaOptions opts = options(100000000, NonConvergencePolicy::Accept);
    opts.timeBudget = 0.01;
    auto run = solveFixedPoint(step, opts, kToySite, describeToy);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run.value().budgetExhausted());
    EXPECT_FALSE(run.value().last().converged);
    EXPECT_EQ(run.value().attempts().size(), 1u);
}

TEST_F(FixedPoint, BadOptionsAreRejectedBeforeAnyIteration)
{
    auto step = toyStep({0.0}, kDrift);
    MvaOptions bad[5];
    bad[0].maxIterations = 0;
    bad[1].tolerance = 0.0;
    bad[2].damping = 1.5;
    bad[3].timeBudget = -1.0;
    bad[4].iterationBudget = -1;
    for (const MvaOptions &opts : bad) {
        auto run = solveFixedPoint(step, opts, kToySite, describeToy);
        ASSERT_FALSE(run.ok());
        EXPECT_EQ(run.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_EQ(run.error().site, "ToySolver");
    }
    EXPECT_EQ(step.restarts, 0);
}

TEST_F(FixedPoint, AttemptsAndIterationsAreCounted)
{
    metrics().reset();
    metrics().setEnabled(true);
    auto step = toyStep({0.0}, kDrift);
    auto run = solveFixedPoint(
        step, options(4, NonConvergencePolicy::Accept), kToySite,
        describeToy);
    metrics().setEnabled(false);
    ASSERT_TRUE(run.ok());
    double attempts = 0.0, iterations = 0.0;
    for (const MetricEntry &e : metrics().snapshot()) {
        if (e.name == "toy.attempts")
            attempts = e.total;
        if (e.name == "toy.iterations")
            iterations = e.total;
    }
    metrics().reset();
    EXPECT_EQ(attempts, 5.0);
    EXPECT_EQ(iterations, 20.0);
}

} // namespace
} // namespace snoop
