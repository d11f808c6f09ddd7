#include "mva/multiclass.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "mva/fixed_point.hh"
#include "mva/kernel.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

constexpr FixedPointSite kMulticlassSite = SNOOP_FIXED_POINT_SITE(
    "mva.multiclass", "solveMulticlass", "solveMulticlass");

/**
 * The multi-class step for the fixed-point driver: per-class response
 * times via per-class arrival queues, then the shared bus and memory
 * waits. Each class carries the flat model's step constants for the
 * whole machine's N (Appendix B's supplier selection sees every
 * processor). The proposal is [w_bus per class, w_mem, R per class].
 */
class MulticlassStep
{
  public:
    MulticlassStep(const std::vector<ProcessorClass> &classes,
                   MulticlassResult &res)
        : classes_(classes), res_(res), k_(classes.size()),
          wBus_(k_), r_(k_), rBc_(k_), rRr_(k_), share_(k_),
          next_(2 * k_ + 1)
    {
        for (const auto &c : classes)
            n_ += c.count;
        nTotal_ = static_cast<double>(n_);
        for (const auto &c : classes)
            consts_.push_back(mvaStepConstants(c.inputs, n_));
    }

    void restart()
    {
        std::fill(wBus_.begin(), wBus_.end(), 0.0);
        wMem_ = 0.0;
        res_.classes.assign(k_, ClassResult{});
        for (size_t k = 0; k < k_; ++k) {
            r_[k] = consts_[k].tau + bus().tSupply;
            res_.classes[k].responseTime = r_[k];
        }
        res_.busUtil = res_.memUtil = res_.wMem = 0.0;
    }

    std::span<double> propose()
    {
        // Per-class bus cycle components at current waits.
        const MvaStepConstants &t = bus();
        for (size_t k = 0; k < k_; ++k) {
            const MvaStepConstants &c = consts_[k];
            rBc_[k] = c.pBc * (wBus_[k] + wMem_ + t.tWrite);
            rRr_[k] = c.pRr * (wBus_[k] + c.tRead);
        }

        // New response times via per-class arrival queues.
        double *r_new = next_.data() + k_ + 1;
        maxDelta_ = 0.0;
        for (size_t k = 0; k < k_; ++k) {
            const MvaStepConstants &c = consts_[k];
            double r_local =
                c.pLocal * mvaInterference(c, arrivalQueue(k)) * c.tInt;
            r_new[k] = c.tau + r_local + rBc_[k] + rRr_[k] + t.tSupply;
            maxDelta_ = std::max(
                maxDelta_, std::fabs(r_new[k] - r_[k]) /
                    std::max(1.0, std::fabs(r_[k])));
        }

        // Shared-resource utilizations from the new response times.
        uBus_ = 0.0;
        uMem_ = 0.0;
        double rate_total = 0.0;
        double t_bus_num = 0.0, t_res_num = 0.0, t_res_den = 0.0;
        for (size_t k = 0; k < k_; ++k) {
            const MvaStepConstants &c = consts_[k];
            double pop = static_cast<double>(classes_[k].count);
            double demand = c.pBc * (wMem_ + t.tWrite) + c.pRr * c.tRead;
            uBus_ += pop * demand / r_new[k];
            uMem_ += pop * (1.0 / t.modules) * c.memFactor * t.dMem /
                r_new[k];
            share_[k] = pop * demand / r_new[k];

            double lam_bc = pop * c.pBc / r_new[k];
            double lam_rr = pop * c.pRr / r_new[k];
            rate_total += lam_bc + lam_rr;
            t_bus_num += lam_bc * (t.tWrite + wMem_) + lam_rr * c.tRead;
            // residual life: duration-weighted half-durations
            t_res_num += lam_bc * (t.tWrite + wMem_) *
                    (t.tWrite + wMem_) / 2.0 +
                lam_rr * c.tRead * c.tRead / 2.0;
            t_res_den += lam_bc * (t.tWrite + wMem_) + lam_rr * c.tRead;
        }
        double t_bus = rate_total > 0.0 ? t_bus_num / rate_total : 0.0;
        double t_res = t_res_den > 0.0 ? t_res_num / t_res_den : 0.0;
        double p_busy_bus = mvaPBusyFromUtilization(uBus_, n_);
        double p_busy_mem = mvaPBusyFromUtilization(uMem_, n_);
        next_[k_] = p_busy_mem * t.dMem / 2.0;

        for (size_t k = 0; k < k_; ++k) {
            next_[k] = (nTotal_ > 1.0)
                ? std::max(0.0, arrivalQueue(k) - p_busy_bus) * t_bus +
                    p_busy_bus * t_res
                : 0.0;
        }
        return next_;
    }

    FixedPointDelta commit(double damping)
    {
        const double *r_new = next_.data() + k_ + 1;
        for (size_t k = 0; k < k_; ++k) {
            res_.classes[k].responseTime = r_new[k];
            res_.classes[k].busDemandShare = share_[k];
            wBus_[k] = damping * next_[k] + (1.0 - damping) * wBus_[k];
        }
        wMem_ = damping * next_[k_] + (1.0 - damping) * wMem_;
        std::copy(r_new, r_new + k_, r_.begin());
        res_.busUtil = std::min(uBus_, 1.0);
        res_.memUtil = std::min(uMem_, 1.0);
        res_.wMem = wMem_;
        return {maxDelta_, 1.0};
    }

    /** Per-class speedups, bus shares and the mean bus wait of the
     * final iterate. */
    void finish()
    {
        double share_total = 0.0;
        res_.totalSpeedup = 0.0;
        res_.wBus = 0.0;
        for (size_t k = 0; k < k_; ++k) {
            const auto &cls = classes_[k];
            res_.classes[k].name = cls.name;
            res_.classes[k].count = cls.count;
            res_.classes[k].speedup = static_cast<double>(cls.count) *
                (consts_[k].tau + bus().tSupply) / r_[k];
            res_.totalSpeedup += res_.classes[k].speedup;
            share_total += res_.classes[k].busDemandShare;
            // population-weighted mean bus wait
            res_.wBus +=
                static_cast<double>(cls.count) * wBus_[k] / nTotal_;
        }
        if (share_total > 0.0) {
            for (auto &c : res_.classes)
                c.busDemandShare /= share_total;
        }
    }

  private:
    /** The shared bus and memory timing (solveMulticlass admits only
     * classes that agree on it; the first class's copy is used). */
    const MvaStepConstants &bus() const { return consts_.front(); }

    /** Bus queue seen by an arriving class-@p k request: the
     * population-weighted sum with one class-k customer removed. */
    double arrivalQueue(size_t k) const
    {
        double q = 0.0;
        for (size_t j = 0; j < k_; ++j) {
            double pop = static_cast<double>(classes_[j].count) -
                (j == k ? 1.0 : 0.0);
            q += pop * (rBc_[j] + rRr_[j]) / r_[j];
        }
        return std::clamp(q, 0.0, nTotal_ - 1.0);
    }

    const std::vector<ProcessorClass> &classes_;
    MulticlassResult &res_;
    const size_t k_;
    unsigned n_ = 0;      ///< processors across all classes
    double nTotal_ = 0.0; ///< the same, as a double
    std::vector<MvaStepConstants> consts_;
    std::vector<double> wBus_, r_, rBc_, rRr_, share_;
    double wMem_ = 0.0;
    double maxDelta_ = 0.0, uBus_ = 0.0, uMem_ = 0.0;
    std::vector<double> next_;
};

} // namespace

MulticlassResult
solveMulticlass(const std::vector<ProcessorClass> &classes,
                const MvaOptions &options)
{
    if (classes.empty()) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "solveMulticlass",
            "need at least one class"));
    }
    for (const auto &c : classes) {
        if (c.count == 0) {
            throw SolveException(makeError(
                SolveErrorCode::InvalidArgument, "solveMulticlass",
                "class '%s' has zero processors", c.name.c_str()));
        }
        const BusTiming &a = classes.front().inputs.timing;
        const BusTiming &b = c.inputs.timing;
        if (std::fabs(a.tWrite - b.tWrite) > 1e-12 ||
            std::fabs(a.tSupply - b.tSupply) > 1e-12 ||
            std::fabs(a.dMem - b.dMem) > 1e-12 ||
            a.numModules != b.numModules) {
            throw SolveException(makeError(
                SolveErrorCode::InvalidArgument, "solveMulticlass",
                "classes disagree on bus timing"));
        }
    }

    metricAdd("mva.multiclass.solves");
    ScopedMetricTimer solve_timer("mva.multiclass.solve_us");
    TraceSpan solve_span(TraceLevel::Phase, "mva.multiclass.solve",
                         classes.size());

    MulticlassResult res;
    MulticlassStep step(classes, res);
    FixedPointLadder ladder =
        solveFixedPoint(step, options, kMulticlassSite, [&] {
            return strprintf("%zu classes", classes.size());
        }).orThrow();
    step.finish();
    res.iterations = ladder.last().iterations;
    res.converged = ladder.last().converged;
    res.budgetExhausted = ladder.budgetExhausted();
    res.attempts = ladder.takeAttempts();

    NumericGuard guard("solveMulticlass",
                       strprintf("%zu classes", classes.size()));
    guard.positive("totalSpeedup", res.totalSpeedup)
        .utilization("busUtil", res.busUtil)
        .utilization("memUtil", res.memUtil)
        .nonNegative("wBus", res.wBus)
        .nonNegative("wMem", res.wMem);
    for (const auto &c : res.classes) {
        guard.positive("class.responseTime", c.responseTime)
            .positive("class.speedup", c.speedup)
            .probability("class.busDemandShare", c.busDemandShare);
    }
    return res;
}

} // namespace snoop
