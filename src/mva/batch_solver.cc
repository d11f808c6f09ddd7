#include "mva/batch_solver.hh"

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>

#include "mva/fixed_point.hh"
#include "mva/kernel.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/parallel.hh"
#include "util/strutil.hh"

namespace snoop {

namespace {

/**
 * SoA widths per parallelFor work item. A work item is the unit of
 * pool parallelism AND the refill pool for one lockstep SoA: wider
 * items keep the SIMD tick fuller (more lanes to backfill retiring
 * slots), narrower items expose more parallelism to the thread pool.
 * Eight widths (128 lanes at the default blockSize) keeps the tick
 * >95% occupied on Table 4-1-shaped grids while still splitting a
 * full sweep into plenty of work items.
 */
constexpr size_t kBlocksPerItem = 8;

/**
 * Structure-of-arrays state for one block of lanes: one contiguous
 * array per model variable, indexed by lane. This is the cold side -
 * ladder state, measures, traces; the iterate and step constants are
 * mirrored into the dense HotSoA below for the vectorized tick, and
 * lanes that finish (or fail admission) simply leave the active mask.
 * Each lane's ladder is the fixed-point driver's FixedPointLadder, so
 * rungs, budgets, fault arming, attempt records and the disposition
 * are the scalar solver's own.
 */
struct LaneBlock
{
    size_t lanes;
    std::vector<MvaStepConstants> consts;
    // Iterate state (the damped fixed-point variables).
    std::vector<double> wBus, wMem, rTotal;
    // Submodel measures of the last completed iteration.
    std::vector<double> rLocal, rBc, rRr, qBus, busUtil, pBusyBus,
        tBus, tResBus, memUtil, pBusyMem, nInt, tInt;
    std::vector<double> residual;
    std::vector<int> iterations;  ///< iterations of the current attempt
    std::vector<std::optional<FixedPointLadder>> ladder;
    std::vector<uint8_t> active, converged, nonFinite, warm;
    std::vector<std::vector<double>> convTrace;
    /** Per lane, per attempt: iteration deltas buffered for replay. */
    std::vector<std::vector<std::vector<double>>> replay;

    explicit LaneBlock(size_t m)
        : lanes(m), consts(m), wBus(m, 0.0), wMem(m, 0.0),
          rTotal(m, 0.0), rLocal(m, 0.0), rBc(m, 0.0), rRr(m, 0.0),
          qBus(m, 0.0), busUtil(m, 0.0), pBusyBus(m, 0.0),
          tBus(m, 0.0), tResBus(m, 0.0), memUtil(m, 0.0),
          pBusyMem(m, 0.0), nInt(m, 0.0), tInt(m, 0.0),
          residual(m, 0.0), iterations(m, 0), ladder(m), active(m, 0),
          converged(m, 0), nonFinite(m, 0), warm(m, 0),
          convTrace(m), replay(m)
    {
    }

    /** Reset lane @p i's per-attempt state to its seed (the ladder
     * restarts every attempt from the original seed, exactly like a
     * fresh scalar solveOnce). */
    void restartAttempt(size_t i, const MvaJob &job, bool record_iters)
    {
        wBus[i] = job.seed.wBus;
        wMem[i] = job.seed.wMem;
        rTotal[i] = job.seed.rTotal > 0.0 ? job.seed.rTotal
                                          : job.inputs.tau +
                consts[i].tSupply;
        rLocal[i] = rBc[i] = rRr[i] = qBus[i] = busUtil[i] = 0.0;
        pBusyBus[i] = tBus[i] = tResBus[i] = memUtil[i] = 0.0;
        pBusyMem[i] = nInt[i] = tInt[i] = 0.0;
        residual[i] = 0.0;
        iterations[i] = 0;
        converged[i] = 0;
        nonFinite[i] = 0;
        convTrace[i].clear();
        if (record_iters)
            replay[i].emplace_back();
    }
};

/**
 * Replay lane @p i's buffered trace events under its task scope, in
 * the same shape the scalar solver records live: one mva.solve Phase
 * span over the whole solve, per-attempt mva.iteration instants
 * (Iteration level) followed by the attempt's mva.attempt instant.
 */
void
replayLaneTrace(const MvaJob &job, const LaneBlock &blk, size_t i)
{
    std::optional<TraceTaskScope> scope;
    if (job.traceKey != 0)
        scope.emplace(job.traceKey);
    TraceSpan span(TraceLevel::Phase, "mva.solve", job.n);
    if (span.active()) {
        span.setArgs(strprintf("\"protocol\":\"%s\",\"warm\":%s",
                               job.inputs.protocol.name().c_str(),
                               blk.warm[i] ? "true" : "false"));
    }
    const bool iter_trace = traceEnabled(TraceLevel::Iteration);
    const std::vector<SolveAttempt> &attempts = blk.ladder[i]->attempts();
    for (size_t k = 0; k < attempts.size(); ++k) {
        const SolveAttempt &a = attempts[k];
        if (iter_trace && k < blk.replay[i].size()) {
            const std::vector<double> &deltas = blk.replay[i][k];
            for (size_t t = 0; t < deltas.size(); ++t) {
                traceFixedPointIteration(kMvaSite, static_cast<int>(t + 1),
                                         deltas[t], a.damping);
            }
        }
        traceFixedPointAttempt(kMvaSite, k, a);
    }
}

/** Store the step measures for lane @p i exactly as the tick loop
 * does when it commits an iteration (the two raw utilizations are
 * capped at 1 for reporting; the uncapped values still feed the
 * p-busy corrections inside the step itself). */
void
commitMeasures(LaneBlock &blk, size_t i, const MvaStepValues &o)
{
    blk.rLocal[i] = o.rLocal;
    blk.rBc[i] = o.rBc;
    blk.rRr[i] = o.rRr;
    blk.qBus[i] = o.qBus;
    blk.busUtil[i] = std::min(o.uBus, 1.0);
    blk.pBusyBus[i] = o.pBusyBus;
    blk.tBus[i] = o.tBus;
    blk.tResBus[i] = o.tResBus;
    blk.memUtil[i] = std::min(o.uMem, 1.0);
    blk.pBusyMem[i] = o.pBusyMem;
    blk.nInt[i] = o.nInt;
    blk.tInt[i] = blk.consts[i].tInt;
}

/**
 * The hot structure-of-arrays the vectorized tick runs over: one
 * contiguous array per step constant and per iterate variable,
 * indexed by *slot*. Slots are kept dense by swap-compaction as lanes
 * retire, so fusedTick below is a branch-free loop over [0, n) the
 * compiler can turn into SIMD lanes - no masked-off dead work, no
 * gather through an index array.
 *
 * Only the per-tick arithmetic lives here. Everything the epilogue
 * needs (attempt records, measures, traces) stays in LaneBlock,
 * indexed by the original lane id (`lane[slot]`), and is synced once
 * at attempt boundaries rather than every tick. To rebuild the
 * last-committed measures at retirement without storing them per
 * tick, the tick keeps a two-deep history ring of the iterate
 * (prev* = one tick back, pprev* = two ticks back): the retirement
 * path replays the shared scalar mvaStep on the saved state, which by
 * the bit-identity contract reproduces exactly what the fused loop
 * computed.
 */
struct HotSoA
{
    // Step constants (mvaStepConstants fields, plus the precomputed
    // forms the branchless tick consumes; invModules mirrors the
    // scalar step's per-iteration `1.0 / c.modules` subexpression,
    // same operands so the same bits).
    std::vector<double> numProc, tau, pLocal, pBc, pRr, tRead,
        memFactor, tWrite, tSupply, dMem, invModules, p, pPrime,
        log2PPrime, tInt, nMinus1, gt1;
    // Iterate, its two-tick history ring, and per-slot control. The
    // iteration counter and cap live as doubles so the fused tick can
    // count and compare them in SIMD lanes (both are integer-valued
    // and far below 2^53, so the comparisons are exact).
    std::vector<double> wb, wm, rt;
    std::vector<double> prevWb, prevWm, prevRt;
    std::vector<double> pprevWb, pprevWm, pprevRt;
    std::vector<double> damp, tol, delta, iterD, capD, done;
    std::vector<size_t> lane; ///< slot -> LaneBlock lane id
    size_t n = 0;             ///< live slot count (dense prefix)

    void push(const LaneBlock &blk, const MvaJob &job, size_t i)
    {
        const MvaStepConstants &c = blk.consts[i];
        numProc.push_back(c.numProc);
        tau.push_back(c.tau);
        pLocal.push_back(c.pLocal);
        pBc.push_back(c.pBc);
        pRr.push_back(c.pRr);
        tRead.push_back(c.tRead);
        memFactor.push_back(c.memFactor);
        tWrite.push_back(c.tWrite);
        tSupply.push_back(c.tSupply);
        dMem.push_back(c.dMem);
        invModules.push_back(1.0 / c.modules);
        p.push_back(c.p);
        pPrime.push_back(c.pPrime);
        log2PPrime.push_back(c.log2PPrime);
        tInt.push_back(c.tInt);
        nMinus1.push_back(c.numProc - 1.0);
        gt1.push_back(c.n > 1 ? 1.0 : 0.0);
        wb.push_back(blk.wBus[i]);
        wm.push_back(blk.wMem[i]);
        rt.push_back(blk.rTotal[i]);
        prevWb.push_back(0.0);
        prevWm.push_back(0.0);
        prevRt.push_back(0.0);
        pprevWb.push_back(0.0);
        pprevWm.push_back(0.0);
        pprevRt.push_back(0.0);
        const FixedPointLadder &lad = *blk.ladder[i];
        damp.push_back(lad.damping());
        tol.push_back(tolerance(lad, job));
        delta.push_back(0.0);
        iterD.push_back(0.0);
        capD.push_back(static_cast<double>(lad.tickLimit()));
        done.push_back(0.0);
        lane.push_back(i);
        ++n;
    }

    /** Advance the history ring before a tick: the buffers swap so
     * pprev* takes over prev*'s contents, and the tick itself stores
     * each slot's pre-tick iterate into prev* as it reads it. */
    void rotateHistory()
    {
        std::swap(pprevWb, prevWb);
        std::swap(pprevWm, prevWm);
        std::swap(pprevRt, prevRt);
    }

    /** The tick's convergence tolerance for a lane's current
     * attempt: zero - never passed - while a fault forces the attempt
     * to fail. */
    static double tolerance(const FixedPointLadder &lad, const MvaJob &job)
    {
        return lad.forced() ? 0.0 : job.opts.tolerance;
    }

    /** Re-seed slot @p s after LaneBlock::restartAttempt reset lane
     * @p i for the next ladder rung. */
    void restartSlot(size_t s, const LaneBlock &blk, const MvaJob &job,
                     size_t i)
    {
        const FixedPointLadder &lad = *blk.ladder[i];
        wb[s] = blk.wBus[i];
        wm[s] = blk.wMem[i];
        rt[s] = blk.rTotal[i];
        damp[s] = lad.damping();
        tol[s] = tolerance(lad, job);
        capD[s] = static_cast<double>(lad.tickLimit());
        iterD[s] = 0.0;
        done[s] = 0.0;
    }

    /** Retire slot @p s: move the last live slot into it (every
     * per-slot array, history ring included - the moved lane's saved
     * states travel with it) and shrink the dense prefix. */
    void removeSlot(size_t s)
    {
        static constexpr std::vector<double> HotSoA::*kColumns[] = {
            &HotSoA::numProc, &HotSoA::tau, &HotSoA::pLocal, &HotSoA::pBc,
            &HotSoA::pRr, &HotSoA::tRead, &HotSoA::memFactor,
            &HotSoA::tWrite, &HotSoA::tSupply, &HotSoA::dMem,
            &HotSoA::invModules, &HotSoA::p, &HotSoA::pPrime,
            &HotSoA::log2PPrime, &HotSoA::tInt, &HotSoA::nMinus1,
            &HotSoA::gt1, &HotSoA::wb, &HotSoA::wm, &HotSoA::rt,
            &HotSoA::prevWb, &HotSoA::prevWm, &HotSoA::prevRt,
            &HotSoA::pprevWb, &HotSoA::pprevWm, &HotSoA::pprevRt,
            &HotSoA::damp, &HotSoA::tol, &HotSoA::delta, &HotSoA::iterD,
            &HotSoA::capD, &HotSoA::done,
        };
        const size_t b = n - 1;
        // Shrink every array with the live count so push() appends at
        // slot n again - a refilled lane must land inside the dense
        // prefix the tick iterates, not past it.
        for (std::vector<double> HotSoA::*column : kColumns) {
            std::vector<double> &v = this->*column;
            v[s] = v[b];
            v.pop_back();
        }
        lane[s] = lane[b];
        lane.pop_back();
        n = b;
    }
};

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
/** Compile the fused tick once per x86 SIMD level and dispatch at
 * load time, so one portable binary still gets 4- or 8-wide lanes on
 * AVX2/AVX-512 hosts. Every clone performs the same IEEE operations
 * in the same order, so the selected clone never changes the bits. */
#define SNOOP_MVA_TICK_CLONES \
    __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define SNOOP_MVA_TICK_CLONES
#endif

/**
 * One lockstep iteration of eqs. (1)-(13) for every live slot: the
 * mvaStep arithmetic plus the damped update, rewritten branch-free
 * (every conditional becomes compute-then-select, which commits the
 * same value the scalar branch commits - discarded paths may form
 * NaNs, selects drop them) so the whole body if-converts and
 * vectorizes. The value sequence per slot is exactly the shared
 * scalar kernel's: same association, true divisions kept as
 * divisions, std::min/max/clamp with the scalar NaN semantics, and
 * the same mvaExp2 for the eq. (13) power - that is what makes batch
 * results bit-identical to per-cell trySolve.
 *
 * Writes back wb/wm/rt, the convergence delta, the pre-tick iterate
 * (into prev*, completing the caller's history-ring rotation), the
 * advanced iteration count, and a per-slot `done` flag that goes
 * nonzero when the lane hit convergence, its iteration cap, or a
 * non-finite iterate. The flag is what lets the caller skip its
 * scalar post-pass on the (vast majority of) ticks where no lane
 * retires; the post-pass re-derives the exact disposition from the
 * same stored values, so the flag only gates work, never decides it.
 *
 * The arrays arrive as restrict-qualified raw pointer parameters
 * (not a HotSoA reference) deliberately: GCC tracks restrict
 * guarantees on parameters but discards them on locals initialized
 * from vector::data(), and without them the loop fails to if-convert
 * and stays scalar.
 */
SNOOP_MVA_TICK_CLONES void
fusedTick(size_t cnt, const double *__restrict numProc,
          const double *__restrict tau, const double *__restrict pLocal,
          const double *__restrict pBc, const double *__restrict pRr,
          const double *__restrict tRead,
          const double *__restrict memFactor,
          const double *__restrict tWrite,
          const double *__restrict tSupply,
          const double *__restrict dMem,
          const double *__restrict invModules,
          const double *__restrict p, const double *__restrict pPrime,
          const double *__restrict lgPP, const double *__restrict tInt,
          const double *__restrict nM1, const double *__restrict gt1,
          const double *__restrict damp, const double *__restrict tol,
          const double *__restrict capD, double *__restrict iterD,
          double *__restrict prevWb, double *__restrict prevWm,
          double *__restrict prevRt, double *__restrict wb,
          double *__restrict wm, double *__restrict rt,
          double *__restrict delta, double *__restrict done)
{
    for (size_t s = 0; s < cnt; ++s) {
        const double wbv = wb[s];
        const double wmv = wm[s];
        const double rtv = rt[s];
        prevWb[s] = wbv;
        prevWm[s] = wmv;
        prevRt[s] = rtv;

        // eq. (6)
        const double rBc = pBc[s] * (wbv + wmv + tWrite[s]);
        const double rRr = pRr[s] * (wbv + tRead[s]);
        double q = nM1[s] * (rBc + rRr) / rtv;
        q = (gt1[s] != 0.0) ? q : 0.0;
        const double qB = std::min(q, nM1[s]);

        // eq. (13): interior branch via the hoisted log2; boundary
        // branches override it, the outer guard zeroes it.
        const double e = mvaExp2(qB * lgPP[s]);
        double nI = p[s] * (1.0 - e) / (1.0 - pPrime[s]);
        nI = (pPrime[s] >= 1.0) ? p[s] * qB : nI;
        nI = (pPrime[s] <= 0.0) ? p[s] : nI;
        nI = (gt1[s] != 0.0 && qB > 0.0 && p[s] > 0.0) ? nI : 0.0;

        // eqs. (1)-(4)
        const double rLocal = pLocal[s] * nI * tInt[s];
        const double rN = tau[s] + rLocal + rBc + rRr + tSupply[s];

        // eqs. (7)-(8): bus utilization and p-busy correction
        const double busDemand =
            pBc[s] * (wmv + tWrite[s]) + pRr[s] * tRead[s];
        const double uBus = numProc[s] * busDemand / rN;
        double ub = std::clamp(uBus, 0.0, 1.0);
        const double denB = 1.0 - ub / numProc[s];
        double pBB = std::clamp((ub - ub / numProc[s]) / denB, 0.0, 1.0);
        pBB = (denB <= 0.0) ? 1.0 : pBB;
        pBB = (gt1[s] != 0.0) ? pBB : 0.0;

        // eqs. (9)-(10)
        const double pt = pBc[s] + pRr[s];
        double tB =
            (pBc[s] * (tWrite[s] + wmv) + pRr[s] * tRead[s]) / pt;
        tB = (pt > 0.0) ? tB : 0.0;
        const double wBcW = pBc[s] * (tWrite[s] + wmv);
        const double wRrW = pRr[s] * tRead[s];
        const double wT = wBcW + wRrW;
        double tRB = wBcW / wT * (tWrite[s] + wmv) / 2.0 +
            wRrW / wT * tRead[s] / 2.0;
        tRB = (pt > 0.0 && wT > 0.0) ? tRB : 0.0;

        // eq. (5)
        double wbN = std::max(0.0, qB - pBB) * tB + pBB * tRB;
        wbN = (gt1[s] != 0.0) ? wbN : 0.0;

        // eqs. (11)-(12)
        const double uMem =
            numProc[s] * invModules[s] * memFactor[s] * dMem[s] / rN;
        double um = std::clamp(uMem, 0.0, 1.0);
        const double denM = 1.0 - um / numProc[s];
        double pBM = std::clamp((um - um / numProc[s]) / denM, 0.0, 1.0);
        pBM = (denM <= 0.0) ? 1.0 : pBM;
        pBM = (gt1[s] != 0.0) ? pBM : 0.0;
        const double wmN = pBM * dMem[s] / 2.0;

        // damped update + convergence delta (same expressions as the
        // scalar driver)
        const double d = damp[s];
        const double wbNext = d * wbN + (1.0 - d) * wbv;
        const double wmNext = d * wmN + (1.0 - d) * wmv;
        const double dl = std::fabs(rN - rtv);
        wb[s] = wbNext;
        wm[s] = wmNext;
        delta[s] = dl;
        rt[s] = rN;

        // Retirement detection (the post-pass re-checks the same
        // expressions on the same stored values). |x| <= DBL_MAX is
        // isfinite in select form - false for both infinities and
        // NaN - and the flag is chained selects rather than
        // short-circuit bools so the whole body stays branch-free.
        const double itv = iterD[s] + 1.0;
        iterD[s] = itv;
        double dn = (std::fabs(rN) <= DBL_MAX) ? 0.0 : 1.0;
        dn = (std::fabs(wbNext) <= DBL_MAX) ? dn : 1.0;
        dn = (std::fabs(wmNext) <= DBL_MAX) ? dn : 1.0;
        dn = (dl < tol[s] * std::max(1.0, std::fabs(rN))) ? 1.0 : dn;
        dn = (itv >= capD[s]) ? 1.0 : dn;
        done[s] = dn;
    }
}

} // namespace

BatchMvaSolver::BatchMvaSolver(BatchOptions opts) : opts_(opts)
{
    if (opts_.blockSize == 0)
        opts_.blockSize = 1;
}

void
BatchMvaSolver::solveBlock(const MvaJob *jobs, const size_t *idx,
                           Expected<MvaResult> *out,
                           size_t lanes) const
{
    using clock = FixedPointLadder::clock;
    ScopedMetricTimer block_timer("mva.batch.block_us");
    const bool record_iters = traceEnabled(TraceLevel::Iteration);

    LaneBlock blk(lanes);
    bool any_timed = false;

    // --- Admission: mirror the scalar trySolve prologue per lane ----
    for (size_t i = 0; i < lanes; ++i) {
        const MvaJob &job = jobs[idx[i]];
        if (auto err = checkMvaOptions(job.opts)) {
            out[idx[i]] = std::move(*err);
            continue;
        }
        if (job.n == 0) {
            out[idx[i]] = makeError(SolveErrorCode::InvalidArgument,
                                    "MvaSolver::solve",
                                    "need at least one processor");
            continue;
        }
        if (auto err = checkMvaSeed(job.seed)) {
            out[idx[i]] = std::move(*err);
            continue;
        }
        metricAdd("mva.solves");
        blk.warm[i] = job.seed.wBus != 0.0 || job.seed.wMem != 0.0 ||
            job.seed.rTotal != 0.0;
        if (blk.warm[i])
            metricAdd("mva.warm_solves");

        blk.consts[i] = mvaStepConstants(job.inputs, job.n);
        FixedPointLadder &lad = blk.ladder[i].emplace(job.opts, kMvaSite);
        lad.next(); // the first rung always runs
        any_timed = any_timed || lad.timed();
        blk.restartAttempt(i, job, record_iters);
        blk.active[i] = 1;
    }

    // --- Lane finalization: the scalar epilogue + disposition -------
    auto finishLane = [&](size_t i) {
        const MvaJob &job = jobs[idx[i]];
        const MvaStepConstants &c = blk.consts[i];
        FixedPointLadder &lad = *blk.ladder[i];
        blk.active[i] = 0;
        if (traceEnabled(TraceLevel::Phase))
            replayLaneTrace(job, blk, i);
        if (auto err = lad.dispose(
                [&] { return mvaInstance(job.n, job.inputs); })) {
            out[idx[i]] = std::move(*err);
            return;
        }

        MvaResult r;
        r.numProcessors = job.n;
        r.inputs = job.inputs;
        r.warmStarted = blk.warm[i] != 0;
        r.iterations = blk.iterations[i];
        r.converged = blk.converged[i] != 0;
        r.residual = blk.residual[i];
        r.nonFinite = blk.nonFinite[i] != 0;
        r.budgetExhausted = lad.budgetExhausted();
        r.rLocal = blk.rLocal[i];
        r.rBroadcast = blk.rBc[i];
        r.rRemoteRead = blk.rRr[i];
        r.qBus = blk.qBus[i];
        r.busUtil = blk.busUtil[i];
        r.pBusyBus = blk.pBusyBus[i];
        r.tBus = blk.tBus[i];
        r.tResBus = blk.tResBus[i];
        r.memUtil = blk.memUtil[i];
        r.pBusyMem = blk.pBusyMem[i];
        r.nInterference = blk.nInt[i];
        r.tInterference = blk.tInt[i];
        r.wBus = blk.wBus[i];
        r.wMem = blk.wMem[i];
        r.responseTime = blk.rTotal[i];
        r.speedup = c.numProc * (job.inputs.tau + c.tSupply) /
            blk.rTotal[i];
        r.processingPower = c.numProc * job.inputs.tau / blk.rTotal[i];
        r.attempts = lad.takeAttempts();
        if (job.opts.recordTrace)
            r.convergenceTrace = std::move(blk.convTrace[i]);
        if (auto err = validateMvaResult(r))
            out[idx[i]] = std::move(*err);
        else
            out[idx[i]] = std::move(r);
    };

    // --- Attempt disposition: the lane's ladder picks the next rung --
    auto endAttempt = [&](size_t i) {
        FixedPointLadder &lad = *blk.ladder[i];
        SolveAttempt a;
        a.damping = lad.damping();
        a.iterations = blk.iterations[i];
        a.residual = blk.residual[i];
        a.converged = blk.converged[i] != 0;
        a.nonFinite = blk.nonFinite[i] != 0;
        lad.record(a);
        if (lad.next())
            blk.restartAttempt(i, jobs[idx[i]], record_iters);
        else
            finishLane(i);
    };

    // --- The lockstep tick loop -------------------------------------
    // The fused SoA tick advances every live slot one iteration of
    // eqs. (1)-(13) in SIMD lanes, and a scalar post-pass retires
    // lanes through endAttempt: converged, at the attempt's cap, with
    // a non-finite (or fault-poisoned) iterate, or past their
    // deadline. Forced lanes simply carry a zero tolerance. Every
    // lane executes the same value sequence as the scalar driver, so
    // the batch is bit-identical to per-cell trySolve.
    //
    // The SoA runs opts_.blockSize lanes wide; the rest of the work
    // item queues behind it and refills slots as lanes retire, so the
    // SIMD tick stays near-full even when lane iteration counts
    // differ by an order of magnitude. Refill order is the
    // (deterministic) work-item order, and a lane's arithmetic is
    // independent of when its slot opens, so this changes scheduling
    // only, never per-lane values.
    HotSoA hot;
    // Per-iteration traces and deadlines need the post-pass on every
    // tick, not only on ticks where the fused tick flagged a lane.
    bool scan_every_tick = record_iters || any_timed;
    std::vector<size_t> pending;
    for (size_t i = 0; i < lanes; ++i) {
        if (!blk.active[i])
            continue;
        if (hot.n < opts_.blockSize)
            hot.push(blk, jobs[idx[i]], i);
        else
            pending.push_back(i);
        scan_every_tick = scan_every_tick || jobs[idx[i]].opts.recordTrace;
    }
    size_t next = 0;

    while (hot.n > 0) {
        // One clock read per tick, before it: a timed lane already
        // past its deadline retires below as if this tick never ran
        // (the scalar driver checks the deadline before every
        // iteration).
        const clock::time_point tick_start =
            any_timed ? clock::now() : clock::time_point{};
        hot.rotateHistory();
        fusedTick(hot.n, hot.numProc.data(), hot.tau.data(),
                  hot.pLocal.data(), hot.pBc.data(), hot.pRr.data(),
                  hot.tRead.data(), hot.memFactor.data(),
                  hot.tWrite.data(), hot.tSupply.data(),
                  hot.dMem.data(), hot.invModules.data(), hot.p.data(),
                  hot.pPrime.data(), hot.log2PPrime.data(),
                  hot.tInt.data(), hot.nMinus1.data(), hot.gt1.data(),
                  hot.damp.data(), hot.tol.data(), hot.capD.data(),
                  hot.iterD.data(), hot.prevWb.data(), hot.prevWm.data(),
                  hot.prevRt.data(), hot.wb.data(), hot.wm.data(),
                  hot.rt.data(), hot.delta.data(), hot.done.data());

        // Most ticks retire nothing: one cheap scan of the done
        // flags and the next tick starts.
        if (!scan_every_tick) {
            bool any = false;
            for (size_t s = 0; s < hot.n; ++s)
                any = any || hot.done[s] != 0.0;
            if (!any)
                continue;
        }

        // Post-pass: bookkeeping and retirement per slot. A retired
        // slot is refilled by swap-compaction and the moved lane
        // (already ticked, not yet post-processed) is handled at the
        // same index, so every live lane gets exactly one pass per
        // tick.
        size_t s = 0;
        while (s < hot.n) {
            const size_t i = hot.lane[s];
            const MvaJob &job = jobs[idx[i]];
            FixedPointLadder &lad = *blk.ladder[i];
            const int it = static_cast<int>(hot.iterD[s]);
            const bool expired = lad.expiredAt(tick_start);

            if (expired || lad.poisons(it) || !std::isfinite(hot.rt[s]) ||
                !std::isfinite(hot.wb[s]) || !std::isfinite(hot.wm[s])) {
                // This tick's iterate is never committed: past the
                // deadline the scalar driver would not have run it,
                // and a non-finite (or poisoned) proposal aborts the
                // attempt. The lane keeps the last committed state,
                // with the measures and residual of iteration it-1
                // (zeros when that is the start - restartAttempt left
                // them there).
                blk.iterations[i] = expired ? it - 1 : it;
                blk.nonFinite[i] = expired ? 0 : 1;
                blk.wBus[i] = hot.prevWb[s];
                blk.wMem[i] = hot.prevWm[s];
                blk.rTotal[i] = hot.prevRt[s];
                if (it >= 2) {
                    commitMeasures(
                        blk, i,
                        mvaStep(blk.consts[i], hot.pprevWb[s],
                                hot.pprevWm[s], hot.pprevRt[s]));
                    blk.residual[i] =
                        std::fabs(hot.prevRt[s] - hot.pprevRt[s]);
                }
                if (expired)
                    lad.outOfTime();
            } else {
                const double delta = hot.delta[s];
                if (job.opts.recordTrace)
                    blk.convTrace[i].push_back(delta);
                if (record_iters)
                    blk.replay[i].back().push_back(delta);

                const bool conv = delta <
                    hot.tol[s] * std::max(1.0, std::fabs(hot.rt[s]));
                if (!conv && static_cast<double>(it) < hot.capD[s]) {
                    ++s;
                    continue;
                }
                blk.iterations[i] = it;
                blk.residual[i] = delta;
                blk.converged[i] = conv ? 1 : 0;
                blk.wBus[i] = hot.wb[s];
                blk.wMem[i] = hot.wm[s];
                blk.rTotal[i] = hot.rt[s];
                // Rebuild this iteration's measures from the pre-tick
                // state via the shared scalar step - same inputs,
                // same kernel, same bits as the fused computation
                // that just ran.
                commitMeasures(blk, i,
                               mvaStep(blk.consts[i], hot.prevWb[s],
                                       hot.prevWm[s], hot.prevRt[s]));
            }
            endAttempt(i);
            if (blk.active[i]) {
                hot.restartSlot(s, blk, job, i);
                ++s;
            } else {
                hot.removeSlot(s);
            }
        }

        // Top up freed slots from the pending queue. Deferred to after
        // the post-pass so a fresh lane (zero iterations, zero delta)
        // is never mistaken for a converged one; it takes its first
        // step on the next tick.
        while (hot.n < opts_.blockSize && next < pending.size()) {
            const size_t i = pending[next++];
            hot.push(blk, jobs[idx[i]], i);
        }
    }
}

std::vector<Expected<MvaResult>>
BatchMvaSolver::solveBatch(const std::vector<MvaJob> &jobs) const
{
    metricAdd("mva.batch.calls");
    ScopedMetricTimer batch_timer("mva.batch.solve_us");

    std::vector<Expected<MvaResult>> out;
    out.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        out.emplace_back(makeError(SolveErrorCode::Internal,
                                   "BatchMvaSolver::solveBatch",
                                   "lane %zu was never solved", i));
    }
    if (jobs.empty())
        return out;

    // Cost-sorted lane schedule: iteration count grows with the
    // processor count n, so blocks formed from batch order mix lanes
    // that converge in a handful of ticks with lanes that need
    // hundreds - the light lanes retire early and the heavy remainder
    // runs the SIMD tick nearly empty. Grouping lanes by descending n
    // keeps block occupancy high for the whole solve. Legal because
    // lanes are independent and each result scatters back to its
    // original slot; deterministic because the order is a stable sort
    // on batch contents alone, so the block partition remains a pure
    // function of the batch, never of the pool configuration.
    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return jobs[a].n > jobs[b].n; });

    // One work item spans several SoA widths of lanes: solveBlock
    // runs blockSize lanes in lockstep and refills retired slots
    // from the rest of its span, so lanes that converge in a handful
    // of iterations don't leave SIMD lanes idle while a slow
    // neighbor finishes. The chunk size - like the order above - is
    // a pure function of the batch, never the pool configuration.
    const size_t bs = opts_.blockSize * kBlocksPerItem;
    const size_t blocks = (jobs.size() + bs - 1) / bs;
    parallelFor(blocks, [&](size_t b) {
        const size_t begin = b * bs;
        const size_t lanes = std::min(bs, jobs.size() - begin);
        try {
            solveBlock(jobs.data(), order.data() + begin, out.data(), lanes);
        } catch (const std::exception &e) {
            for (size_t k = begin; k < begin + lanes; ++k) {
                out[order[k]] = makeError(
                    SolveErrorCode::Internal,
                    "BatchMvaSolver::solveBatch",
                    "unexpected exception in lane block %zu: %s", b,
                    e.what());
            }
        }
    });
    return out;
}

} // namespace snoop
