#pragma once

/**
 * @file
 * The one fixed-point driver behind every MVA solver: the Section 3.2
 * iteration ("the equations must be solved iteratively ... starting
 * with all waiting times set to zero") plus the whole failure contract
 * around it - option admission, the recovery ladder, the iteration
 * and wall-clock budgets, the non-finite bail-out, fault injection,
 * attempt records, metrics, trace instants, and the end-of-ladder
 * disposition.
 *
 * MvaSolver, solveMulticlass and solveHierarchical hand their
 * per-iteration bodies to solveFixedPoint() as a *step*; the SoA
 * BatchMvaSolver runs its own lockstep tick but keeps one
 * FixedPointLadder per lane and asks it for every next rung and for
 * the final disposition. A solve rescued or cut short behaves the
 * same whichever engine ran it.
 *
 * A step is any type with three members (templated, so no
 * std::function and no per-iteration allocation):
 *
 *  - `void restart()` - reset the iterate to the start point and
 *    clear the recorded measures (every rung restarts from there);
 *  - `std::span<double> propose()` - compute the undamped next
 *    iterate into the step's own buffer and return it; the driver
 *    checks it for non-finite values (and poisons element 0 under the
 *    `<site>.nan` fault) before anything is committed;
 *  - `FixedPointDelta commit(double damping)` - apply the damped
 *    update and the measures of this iteration, and report the
 *    convergence residual.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mva/solver.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/expected.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace snoop {

/**
 * The recovery-ladder rungs, heaviest last. Every solver escalates
 * through the same sequence, so a solve rescued by rung k behaves
 * identically no matter which engine ran it.
 */
inline constexpr double kRecoveryLadderRungs[] = {0.5, 0.25, 0.1, 0.05};

/**
 * The full attempt schedule for a configured damping, as a fixed-size
 * value: the configured factor first, then every shared rung strictly
 * below it. A rung at or above the configured damping would retry an
 * equal-or-lighter blend, so it is *skipped*; ending the ladder there
 * instead would leave any configured damping <= 0.5 with no recovery
 * at all.
 */
class RecoveryLadder
{
  public:
    constexpr explicit RecoveryLadder(double damping)
    {
        rungs_[size_++] = damping;
        for (double d : kRecoveryLadderRungs) {
            if (d < rungs_[size_ - 1])
                rungs_[size_++] = d;
        }
    }

    constexpr size_t size() const { return size_; }
    constexpr double operator[](size_t k) const { return rungs_[k]; }

  private:
    std::array<double, std::size(kRecoveryLadderRungs) + 1> rungs_{};
    size_t size_ = 0;
};

/**
 * The names one solver reports under: its admission/warning prefix,
 * the SolveError site of a failed solve, and the `<prefix>.*`
 * metrics, trace instants and fault sites. Build one with
 * SNOOP_FIXED_POINT_SITE so the names cannot drift from the scheme.
 */
struct FixedPointSite
{
    const char *solver;         ///< admission and warning prefix
    const char *origin;         ///< SolveError site of a failed solve
    const char *attempts;       ///< counter: ladder attempts run
    const char *iterations;     ///< counter: iterations run
    const char *attemptEvent;   ///< Phase instant, one per attempt
    const char *iterationEvent; ///< Iteration instant, one per step
    const char *nan;            ///< fault: NaN at iteration 2
    const char *nonconverge;    ///< fault: no attempt converges
    const char *firstAttempt;   ///< fault: attempt 0 cannot converge
};

/** A FixedPointSite whose metric, trace and fault names are
 * `<prefix>.attempts`, `<prefix>.attempt`, `<prefix>.nan`, ... */
#define SNOOP_FIXED_POINT_SITE(prefix, solver, origin)                 \
    ::snoop::FixedPointSite                                            \
    {                                                                  \
        solver, origin, prefix ".attempts", prefix ".iterations",      \
            prefix ".attempt", prefix ".iteration", prefix ".nan",     \
            prefix ".nonconverge", prefix ".first_attempt"             \
    }

/** The flat model's site, shared by MvaSolver and BatchMvaSolver. */
inline constexpr FixedPointSite kMvaSite =
    SNOOP_FIXED_POINT_SITE("mva", "MvaSolver", "MvaSolver::solve");

/** What a step's commit() reports: convergence is
 * `residual < tolerance * scale`. */
struct FixedPointDelta
{
    double residual = 0.0; ///< recorded as the attempt's residual
    double scale = 1.0;    ///< tolerance multiplier (1 = absolute)
};

/**
 * Admission check on MvaOptions, shared by every solver (and the
 * message the MvaSolver constructor throws).
 */
inline std::optional<SolveError>
checkMvaOptions(const MvaOptions &opts, const char *solver = "MvaSolver")
{
    const char *detail = nullptr;
    if (opts.maxIterations < 1)
        detail = "maxIterations must be >= 1";
    else if (opts.tolerance <= 0.0)
        detail = "tolerance must be positive";
    else if (opts.damping <= 0.0 || opts.damping > 1.0)
        detail = "damping must be in (0, 1]";
    else if (!(opts.timeBudget >= 0.0))
        detail = "timeBudget must be >= 0";
    else if (opts.iterationBudget < 0)
        detail = "iterationBudget must be >= 0";
    if (detail != nullptr) {
        return makeError(SolveErrorCode::InvalidArgument, solver, "%s",
                         detail);
    }
    return std::nullopt;
}

/**
 * One solve's walk down the recovery ladder: the rung schedule, the
 * per-attempt iteration cap taken from the iteration budget, the
 * wall-clock deadline, the fault sites (armed once, at construction,
 * so injection is a pure function of the configuration), and the
 * attempt records. solveFixedPoint() drives one; the batch solver
 * keeps one per lane.
 */
class FixedPointLadder
{
  public:
    using clock = std::chrono::steady_clock;

    /** Iteration at which the `<site>.nan` fault poisons the step. */
    static constexpr int kNanIteration = 2;

    FixedPointLadder(const MvaOptions &opts, const FixedPointSite &site)
        : site_(&site), ladder_(opts.damping),
          policy_(opts.onNonConvergence), timeBudget_(opts.timeBudget),
          maxIterations_(opts.maxIterations),
          iterationBudget_(opts.iterationBudget),
          timed_(opts.timeBudget > 0.0), nan_(faultArmed(site.nan)),
          nonconverge_(faultArmed(site.nonconverge)),
          first_(faultArmed(site.firstAttempt))
    {
        if (timed_) {
            deadline_ = clock::now() +
                std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(timeBudget_));
        }
    }

    /**
     * Begin the next attempt. False once the ladder is over: the last
     * attempt converged, the rungs ran out, or a budget is exhausted
     * (budgetExhausted() says which). The iteration budget shrinks
     * each attempt's cap; the deadline is checked before every rung
     * after the first (the first is covered by the check before its
     * first iteration).
     */
    bool next()
    {
        if (!attempts_.empty() &&
            (attempts_.back().converged || budgetExhausted_ ||
             rung_ + 1 >= ladder_.size()))
            return false;
        int cap = maxIterations_;
        if (iterationBudget_ > 0) {
            const long remaining = iterationBudget_ - used_;
            if (remaining <= 0) {
                budgetExhausted_ = true;
                return false;
            }
            if (remaining < cap)
                cap = static_cast<int>(remaining);
        }
        if (!attempts_.empty()) {
            // A retry that starts past the deadline would overwrite
            // the previous attempt's state with a zero-iteration
            // restart.
            if (expired()) {
                budgetExhausted_ = true;
                return false;
            }
            ++rung_;
        }
        cap_ = cap;
        return true;
    }

    double damping() const { return ladder_[rung_]; }
    size_t rung() const { return rung_; }
    /** Iteration cap of the current attempt. */
    int cap() const { return cap_; }
    /** The current attempt must not converge (fault injection). */
    bool forced() const { return nonconverge_ || (first_ && rung_ == 0); }
    /** Iteration @p it of every attempt is poisoned with a NaN. */
    bool poisons(int it) const { return nan_ && it == kNanIteration; }
    /** The first iteration the driver must inspect even if the
     * attempt has not converged: the cap, or the poisoned one. */
    int tickLimit() const
    {
        return nan_ ? std::min(cap_, kNanIteration) : cap_;
    }
    bool timed() const { return timed_; }
    /** The wall-clock budget has run out as of @p now. */
    bool expiredAt(clock::time_point now) const
    {
        return timed_ && now >= deadline_;
    }
    bool expired() const { return timed_ && expiredAt(clock::now()); }
    /** The deadline stopped the current attempt before an iteration. */
    void outOfTime() { budgetExhausted_ = true; }

    /** Record a finished attempt (and count it in the metrics). */
    void record(const SolveAttempt &a)
    {
        attempts_.push_back(a);
        used_ += a.iterations;
        metricAdd(site_->attempts);
        metricAdd(site_->iterations, a.iterations);
    }

    const std::vector<SolveAttempt> &attempts() const { return attempts_; }
    std::vector<SolveAttempt> takeAttempts() { return std::move(attempts_); }
    const SolveAttempt &last() const { return attempts_.back(); }
    bool budgetExhausted() const { return budgetExhausted_; }

    /**
     * End-of-ladder disposition: a time budget that expired before
     * any iteration completed is a BudgetExhausted *error* (the
     * untouched start would otherwise masquerade as a result); a
     * non-finite iterate that survived every rung is
     * NonFiniteIterate; anything else unconverged is judged by the
     * onNonConvergence policy. @p describe names the instance
     * ("N=8, protocol Write-Once") and is only called on failure.
     */
    template <class Describe>
    std::optional<SolveError> dispose(Describe &&describe) const
    {
        const SolveAttempt &a = last();
        if (budgetExhausted_ && used_ == 0) {
            return makeError(
                SolveErrorCode::BudgetExhausted, site_->origin,
                "time budget (%g s) expired before the first iteration "
                "(%s)", timeBudget_, describe().c_str());
        }
        if (a.nonFinite && !budgetExhausted_) {
            return makeError(
                SolveErrorCode::NonFiniteIterate, site_->origin,
                "iterate became non-finite in all %zu damping attempts "
                "(%s)", attempts_.size(), describe().c_str());
        }
        if (a.converged || policy_ == NonConvergencePolicy::Accept)
            return std::nullopt;
        const std::string what = strprintf(
            "no convergence after %ld iterations across %zu attempts "
            "(%s%s)", used_, attempts_.size(), describe().c_str(),
            budgetExhausted_ ? ", budget exhausted" : "");
        if (policy_ == NonConvergencePolicy::Warn) {
            warn("%s: %s", site_->solver, what.c_str());
            return std::nullopt;
        }
        return makeError(budgetExhausted_
                             ? SolveErrorCode::BudgetExhausted
                             : SolveErrorCode::NonConvergence,
                         site_->origin, "%s", what.c_str());
    }

  private:
    const FixedPointSite *site_;
    RecoveryLadder ladder_;
    NonConvergencePolicy policy_;
    double timeBudget_;
    int maxIterations_;
    long iterationBudget_;
    bool timed_, nan_, nonconverge_, first_;
    clock::time_point deadline_{};
    size_t rung_ = 0;
    int cap_ = 0;
    long used_ = 0;
    bool budgetExhausted_ = false;
    std::vector<SolveAttempt> attempts_;
};

/** The `<site>.iteration` trace instant (Iteration level). */
inline void
traceFixedPointIteration(const FixedPointSite &site, int it, double delta,
                         double damping)
{
    traceInstant(TraceLevel::Iteration, site.iterationEvent,
                 static_cast<uint64_t>(it),
                 strprintf("\"delta\":%.17g,\"damping\":%g", delta,
                           damping));
}

/** The `<site>.attempt` trace instant (Phase level). */
inline void
traceFixedPointAttempt(const FixedPointSite &site, size_t rung,
                       const SolveAttempt &a)
{
    if (!traceEnabled(TraceLevel::Phase))
        return;
    traceInstant(TraceLevel::Phase, site.attemptEvent,
                 static_cast<uint64_t>(rung),
                 strprintf("\"damping\":%g,\"iterations\":%d,"
                           "\"residual\":%.17g,\"converged\":%s",
                           a.damping, a.iterations, a.residual,
                           a.converged ? "true" : "false"));
}

/**
 * Solve one fixed point with @p step under @p opts: admission, then
 * the recovery ladder, each attempt restarting the step and iterating
 * until the tolerance, the attempt's cap, the deadline, or a
 * non-finite proposal (which is never committed, so the step keeps
 * its last finite iterate). Returns the finished ladder - the step
 * holds the final attempt's state - or the disposition's error.
 * When @p residuals is given it receives the final attempt's
 * per-iteration residuals.
 */
template <class Step, class Describe>
Expected<FixedPointLadder>
solveFixedPoint(Step &step, const MvaOptions &opts,
                const FixedPointSite &site, Describe &&describe,
                std::vector<double> *residuals = nullptr)
{
    if (auto err = checkMvaOptions(opts, site.solver))
        return std::move(*err);
    FixedPointLadder ladder(opts, site);
    const bool trace_iters = traceEnabled(TraceLevel::Iteration);
    while (ladder.next()) {
        step.restart();
        if (residuals != nullptr)
            residuals->clear();
        SolveAttempt a;
        a.damping = ladder.damping();
        for (int it = 1; it <= ladder.cap(); ++it) {
            if (ladder.expired()) {
                ladder.outOfTime();
                break;
            }
            const std::span<double> x = step.propose();
            if (ladder.poisons(it))
                x[0] = std::nan("");
            a.iterations = it;
            if (!std::all_of(x.begin(), x.end(),
                             [](double v) { return std::isfinite(v); })) {
                a.nonFinite = true;
                break;
            }
            const FixedPointDelta d = step.commit(a.damping);
            a.residual = d.residual;
            if (residuals != nullptr)
                residuals->push_back(d.residual);
            if (trace_iters)
                traceFixedPointIteration(site, it, d.residual, a.damping);
            if (!ladder.forced() &&
                d.residual < opts.tolerance * d.scale) {
                a.converged = true;
                break;
            }
        }
        ladder.record(a);
        traceFixedPointAttempt(site, ladder.rung(), a);
    }
    if (auto err = ladder.dispose(describe))
        return std::move(*err);
    return ladder;
}

} // namespace snoop
