#include "mva/hierarchical.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "mva/fixed_point.hh"
#include "mva/kernel.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/expected.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

void
HierarchicalConfig::validate() const
{
    if (clusters == 0 || processorsPerCluster == 0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "need at least one cluster and one processor per cluster"));
    }
    if (tau < 0.0 || tSupply <= 0.0 || tLocalBus <= 0.0 ||
        tGlobalBus <= 0.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "times must be positive (tau may be zero)"));
    }
    if (pLocal < 0.0 || pLocal > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "pLocal = %g is not a probability", pLocal));
    }
    if (pRemote < 0.0 || pRemote > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "pRemote = %g is not a probability", pRemote));
    }
}

std::string
HierarchicalResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f R=%.3f U_local=%.3f U_global=%.3f "
        "w_l=%.3f w_g=%.3f (%d iterations%s)",
        totalProcessors, speedup, responseTime, localBusUtil,
        globalBusUtil, wLocalBus, wGlobalBus, iterations,
        converged ? "" : ", NOT converged");
}

namespace {

constexpr FixedPointSite kHierarchicalSite = SNOOP_FIXED_POINT_SITE(
    "mva.hierarchical", "solveHierarchical", "solveHierarchical");

/**
 * The two-level step for the fixed-point driver. The proposal is
 * [local-bus wait, global-bus wait, R].
 */
class HierarchicalStep
{
  public:
    HierarchicalStep(const HierarchicalConfig &c, HierarchicalResult &res)
        : c_(c), res_(res),
          procTotal_(static_cast<double>(c.totalProcessors())),
          procCluster_(static_cast<double>(c.processorsPerCluster)),
          pBus_(1.0 - c.pLocal)
    {
    }

    void restart()
    {
        wL_ = 0.0;
        wG_ = 0.0;
        rTotal_ = c_.tau + c_.tSupply;
        res_.localBusUtil = res_.globalBusUtil = 0.0;
    }

    std::span<double> propose()
    {
        // Local-bus holding time: the local phase plus, for remote
        // transactions, the global-bus wait and transfer (the local
        // bus is held through the remote phase).
        double remote_leg = wG_ + c_.tGlobalBus;
        double t_hold = c_.tLocalBus + c_.pRemote * remote_leg;
        // Residual life of the holding-time mixture.
        double short_leg = c_.tLocalBus;
        double long_leg = c_.tLocalBus + remote_leg;
        double second_moment = (1.0 - c_.pRemote) * short_leg * short_leg
            + c_.pRemote * long_leg * long_leg;
        double t_res_l =
            t_hold > 0.0 ? second_moment / (2.0 * t_hold) : 0.0;

        // Response time (eq. (1) analogue).
        double r_new =
            c_.tau + c_.tSupply + pBus_ * (wL_ + t_hold);

        // Local bus: contention from the P-1 cluster peers.
        double q_l = (procCluster_ - 1.0) * pBus_ * (wL_ + t_hold) /
            r_new;
        q_l = std::clamp(q_l, 0.0, procCluster_ - 1.0);
        uL_ = procCluster_ * pBus_ * t_hold / r_new;
        double p_busy_l =
            mvaPBusyFromUtilization(uL_, c_.processorsPerCluster);
        double w_l_new = std::max(0.0, q_l - p_busy_l) * t_hold +
            p_busy_l * t_res_l;

        // Global bus: only a request holding its local bus can compete
        // for the global bus, so at most one per cluster - the
        // effective population at the global bus is the cluster count.
        double competitors =
            std::min(procTotal_, static_cast<double>(c_.clusters));
        double q_g = (procTotal_ - 1.0) * pBus_ * c_.pRemote *
            (wG_ + c_.tGlobalBus) / r_new;
        q_g = std::clamp(q_g, 0.0, competitors - 1.0);
        uG_ = procTotal_ * pBus_ * c_.pRemote * c_.tGlobalBus / r_new;
        double p_busy_g = mvaPBusyFromUtilization(
            uG_, static_cast<unsigned>(competitors));
        double w_g_new = std::max(0.0, q_g - p_busy_g) * c_.tGlobalBus +
            p_busy_g * c_.tGlobalBus / 2.0;

        next_ = {w_l_new, w_g_new, r_new};
        return next_;
    }

    FixedPointDelta commit(double damping)
    {
        const double delta = std::fabs(next_[2] - rTotal_);
        wL_ = damping * next_[0] + (1.0 - damping) * wL_;
        wG_ = damping * next_[1] + (1.0 - damping) * wG_;
        rTotal_ = next_[2];
        res_.localBusUtil = std::min(uL_, 1.0);
        res_.globalBusUtil = std::min(uG_, 1.0);
        return {delta, std::max(1.0, std::fabs(rTotal_))};
    }

    /** The waits, R and speedup of the final iterate. */
    void finish()
    {
        res_.totalProcessors = c_.totalProcessors();
        res_.wLocalBus = wL_;
        res_.wGlobalBus = wG_;
        res_.responseTime = rTotal_;
        res_.speedup = procTotal_ * (c_.tau + c_.tSupply) / rTotal_;
    }

  private:
    const HierarchicalConfig &c_;
    HierarchicalResult &res_;
    const double procTotal_, procCluster_, pBus_;
    double wL_ = 0.0, wG_ = 0.0, rTotal_ = 0.0;
    double uL_ = 0.0, uG_ = 0.0;
    std::array<double, 3> next_{};
};

} // namespace

HierarchicalResult
solveHierarchical(const HierarchicalConfig &config,
                  const MvaOptions &options)
{
    config.validate();
    metricAdd("mva.hierarchical.solves");
    ScopedMetricTimer solve_timer("mva.hierarchical.solve_us");
    TraceSpan solve_span(TraceLevel::Phase, "mva.hierarchical.solve",
                         config.totalProcessors());

    HierarchicalResult res;
    HierarchicalStep step(config, res);
    FixedPointLadder ladder =
        solveFixedPoint(step, options, kHierarchicalSite, [&] {
            return strprintf("C=%u, P=%u", config.clusters,
                             config.processorsPerCluster);
        }).orThrow();
    step.finish();
    res.iterations = ladder.last().iterations;
    res.converged = ladder.last().converged;
    res.budgetExhausted = ladder.budgetExhausted();
    res.attempts = ladder.takeAttempts();

    NumericGuard("solveHierarchical",
                 strprintf("C=%u P=%u", config.clusters,
                           config.processorsPerCluster))
        .positive("responseTime", res.responseTime)
        .positive("speedup", res.speedup)
        .nonNegative("wLocalBus", res.wLocalBus)
        .nonNegative("wGlobalBus", res.wGlobalBus)
        .utilization("localBusUtil", res.localBusUtil)
        .utilization("globalBusUtil", res.globalBusUtil);
    return res;
}

HierarchicalConfig
hierarchicalFromFlat(const DerivedInputs &d, unsigned clusters,
                     unsigned processors_per_cluster,
                     double cluster_share)
{
    if (cluster_share < 0.0 || cluster_share > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "hierarchicalFromFlat",
            "cluster_share = %g is not a probability", cluster_share));
    }

    HierarchicalConfig c;
    c.clusters = clusters;
    c.processorsPerCluster = processors_per_cluster;
    c.tau = d.tau;
    c.tSupply = d.timing.tSupply;
    c.pLocal = d.pLocal;

    double p_bus = d.pBc + d.pRr;
    if (p_bus <= 0.0) {
        c.pRemote = 0.0;
        return c;
    }

    // Local phase: broadcasts snoop the local bus for the word time;
    // reads move a block over the local bus.
    c.tLocalBus = (d.pBc * d.timing.tWrite +
                   d.pRr * d.timing.tReadCache) / p_bus;

    // Remote phase: broadcasts that update memory, and reads not
    // satisfied within the cluster, traverse the global bus.
    double bc_remote =
        d.protocol.broadcastUpdatesMemory() ? (1.0 - cluster_share) : 0.0;
    double rr_remote = 1.0 - cluster_share;
    double remote_bc = d.pBc * bc_remote;
    double remote_rr = d.pRr * rr_remote;
    double remote_total = remote_bc + remote_rr;
    c.pRemote = remote_total / p_bus;
    c.tGlobalBus = remote_total > 0.0
        ? (remote_bc * d.timing.tWrite +
           remote_rr * d.timing.tReadMem) / remote_total
        : d.timing.tReadMem;
    return c;
}

} // namespace snoop
