#include "mva/solver.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>

#include "mva/fixed_point.hh"
#include "mva/kernel.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

std::string
MvaResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f R=%.3f U_bus=%.3f w_bus=%.3f U_mem=%.3f "
        "(%d iterations%s)",
        numProcessors, speedup, responseTime, busUtil, wBus, memUtil,
        iterations, converged ? "" : ", NOT converged");
}

MvaSolver::MvaSolver(MvaOptions opts) : opts_(opts)
{
    if (auto err = checkMvaOptions(opts_))
        throw SolveException(std::move(*err));
}

namespace {

/**
 * Same-file numeric-boundary shim: trySolve routes every returned
 * value through the shared validator in mva/kernel.hh (tools/lint's
 * numeric-guard-coverage pass requires the validation edge to live in
 * this file).
 */
std::optional<SolveError>
validateResult(const MvaResult &res)
{
    return validateMvaResult(res);
}

/**
 * The flat model's step for the fixed-point driver: one mvaStep() of
 * eqs. (1)-(13) from (wBus, wMem, R) and the damped update. The
 * arithmetic lives in mva/kernel.hh so the batch solver executes the
 * identical sequence per lane (the bit-identity contract); the
 * measures of the last committed iteration go straight into the
 * result being built.
 */
class MvaScalarStep
{
  public:
    MvaScalarStep(const MvaStepConstants &c, const MvaSeed &seed,
                  double tau, MvaResult &res)
        : c_(c), seed_(seed),
          r0_(seed.rTotal > 0.0 ? seed.rTotal : tau + c.tSupply),
          res_(res)
    {
    }

    void restart()
    {
        // Section 3.2: start with all waiting times set to zero and
        // R = tau + T_supply - or, under warm-start continuation,
        // from the full seeded state of a neighboring solution (the
        // all-zero MvaSeed reproduces the paper's cold start).
        wBus_ = seed_.wBus;
        wMem_ = seed_.wMem;
        rTotal_ = r0_;
        res_.rLocal = res_.rBroadcast = res_.rRemoteRead = 0.0;
        res_.qBus = res_.busUtil = res_.pBusyBus = res_.tBus = 0.0;
        res_.tResBus = res_.memUtil = res_.pBusyMem = 0.0;
        res_.nInterference = res_.tInterference = 0.0;
    }

    std::span<double> propose()
    {
        o_ = mvaStep(c_, wBus_, wMem_, rTotal_);
        next_ = {o_.wBusNew, o_.wMemNew, o_.rNew};
        return next_;
    }

    FixedPointDelta commit(double damping)
    {
        const double delta = std::fabs(next_[2] - rTotal_);
        wBus_ = damping * next_[0] + (1.0 - damping) * wBus_;
        wMem_ = damping * next_[1] + (1.0 - damping) * wMem_;
        rTotal_ = next_[2];
        res_.rLocal = o_.rLocal;
        res_.rBroadcast = o_.rBc;
        res_.rRemoteRead = o_.rRr;
        res_.qBus = o_.qBus;
        res_.busUtil = std::min(o_.uBus, 1.0);
        res_.pBusyBus = o_.pBusyBus;
        res_.tBus = o_.tBus;
        res_.tResBus = o_.tResBus;
        res_.memUtil = std::min(o_.uMem, 1.0);
        res_.pBusyMem = o_.pBusyMem;
        res_.nInterference = o_.nInt;
        res_.tInterference = c_.tInt;
        return {delta, std::max(1.0, std::fabs(rTotal_))};
    }

    const MvaStepConstants &constants() const { return c_; }
    double wBus() const { return wBus_; }
    double wMem() const { return wMem_; }
    double rTotal() const { return rTotal_; }

  private:
    const MvaStepConstants c_;
    const MvaSeed seed_;
    const double r0_;
    MvaResult &res_;
    double wBus_ = 0.0, wMem_ = 0.0, rTotal_ = 0.0;
    MvaStepValues o_;
    std::array<double, 3> next_{};
};

} // namespace

Expected<MvaResult>
MvaSolver::trySolve(const DerivedInputs &d, unsigned n,
                    const MvaSeed &seed) const
{
    if (n == 0) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "MvaSolver::solve",
                         "need at least one processor");
    }
    if (auto err = checkMvaSeed(seed))
        return std::move(*err);

    metricAdd("mva.solves");
    const bool warm =
        seed.wBus != 0.0 || seed.wMem != 0.0 || seed.rTotal != 0.0;
    if (warm)
        metricAdd("mva.warm_solves");
    ScopedMetricTimer solve_timer("mva.solve_us");
    TraceSpan solve_span(TraceLevel::Phase, "mva.solve", n);
    if (solve_span.active()) {
        solve_span.setArgs(
            strprintf("\"protocol\":\"%s\",\"warm\":%s",
                      d.protocol.name().c_str(),
                      warm ? "true" : "false"));
    }

    // The paper's plain successive substitution (Section 3.2)
    // converges quickly below saturation; deep in saturation it can
    // cycle or blow up, and the driver's recovery ladder re-runs the
    // solve from the seed at heavier damping.
    MvaResult res;
    res.numProcessors = n;
    res.inputs = d;
    res.warmStarted = warm;
    MvaScalarStep step(mvaStepConstants(d, n), seed, d.tau, res);
    Expected<FixedPointLadder> run = solveFixedPoint(
        step, opts_, kMvaSite,
        [&] { return mvaInstance(n, d); },
        opts_.recordTrace ? &res.convergenceTrace : nullptr);
    if (!run.ok())
        return std::move(run).error();

    FixedPointLadder &ladder = run.value();
    const SolveAttempt &last = ladder.last();
    res.iterations = last.iterations;
    res.converged = last.converged;
    res.residual = last.residual;
    res.nonFinite = last.nonFinite;
    res.budgetExhausted = ladder.budgetExhausted();
    res.attempts = ladder.takeAttempts();
    const MvaStepConstants &c = step.constants();
    res.wBus = step.wBus();
    res.wMem = step.wMem();
    res.responseTime = step.rTotal();
    res.speedup = c.numProc * (d.tau + c.tSupply) / res.responseTime;
    res.processingPower = c.numProc * d.tau / res.responseTime;
    if (auto err = validateResult(res))
        return std::move(*err);
    return res;
}

MvaResult
MvaSolver::solve(const DerivedInputs &d, unsigned n) const
{
    return trySolve(d, n).orThrow();
}

MvaResult
MvaSolver::solve(const WorkloadParams &params,
                 const ProtocolConfig &protocol, unsigned n,
                 const BusTiming &timing) const
{
    return solve(DerivedInputs::compute(params, protocol, timing), n);
}

std::vector<MvaResult>
MvaSolver::sweep(const DerivedInputs &inputs,
                 const std::vector<unsigned> &ns) const
{
    std::vector<MvaResult> out;
    out.reserve(ns.size());
    for (unsigned n : ns)
        out.push_back(solve(inputs, n));
    return out;
}

} // namespace snoop
