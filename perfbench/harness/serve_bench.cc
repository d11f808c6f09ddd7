/**
 * @file
 * serve_fill and serve_hot: one closed-loop client drives the real
 * snoop_serve daemon, one analyze request line at a time.
 *
 * serve_fill fills the default 4096-entry cache, then sends fresh
 * neighbours of earlier queries: every one misses, finds a warm seed
 * through the full-cache nearest() scan, and evicts an entry.
 * serve_hot runs a 512-entry cache and revisits resident keys with
 * Zipf popularity; one request in ten is a new neighbour that evicts.
 * The two share every layer but stress opposite ends of the cache.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "core/paper_data.hh"
#include "daemon.hh"
#include "random/rng.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench {

using namespace snoop;

namespace {

const char *const kPresets[] = {"appendixA1", "appendixA5",
                                "appendixA20"};

/** One generated analyze query; the fields a request line carries. */
struct Query
{
    unsigned protocol = 0; ///< ProtocolConfig::fromIndex
    unsigned preset = 0;   ///< index into kPresets
    unsigned n = 1;
    double hSw = 0.5;
    double hPrivate = 0.95;
};

struct Shape
{
    size_t capacity;     ///< daemon --cache-capacity
    double newFraction;  ///< share of stream requests that are new keys
    double maxPerSecond; ///< stream length generated per measured second
};

const Shape kFill{4096, 1.0, 15000.0};
const Shape kHot{512, 0.1, 100000.0};

/** Measured slices per window; see runServe. */
constexpr size_t kSlices = 8;

/**
 * The generated session: distinct query bodies, the prefill order and
 * the stream order (indices into bodies). Request ids are positions
 * in prefill-then-stream order, so every replay sends the same bytes.
 */
struct Session
{
    std::vector<std::string> bodies;
    std::vector<uint32_t> order; // prefill first, then the stream
    size_t prefill = 0;

    std::string line(size_t pos) const
    {
        return "{\"id\":" + std::to_string(pos + 1) + bodies[order[pos]];
    }
};

std::string
protocolName(unsigned index)
{
    return index == 0 ? "WriteOnce"
                      : ProtocolConfig::fromIndex(index).modString();
}

std::string
body(const Query &q)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  ",\"op\":\"analyze\",\"protocol\":\"%s\",\"preset\":"
                  "\"%s\",\"n\":%u,\"workload\":{\"hPrivate\":%.17g,"
                  "\"hSw\":%.17g}}",
                  protocolName(q.protocol).c_str(), kPresets[q.preset],
                  q.n, q.hPrivate, q.hSw);
    return buf;
}

Session
generate(const Shape &shape, uint64_t seed, double seconds)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + shape.capacity);
    const std::vector<unsigned> &ns = table41Ns();
    // Canonical identity at the daemon's 1e-9 key quantum: generated
    // keys are distinct to the cache, not only as doubles.
    std::set<std::tuple<unsigned, unsigned, unsigned, long long,
                        long long>>
        seen;
    std::vector<Query> queries;
    auto add = [&](const Query &q) {
        auto id = std::make_tuple(q.protocol, q.preset, q.n,
                                  std::llround(q.hSw / 1e-9),
                                  std::llround(q.hPrivate / 1e-9));
        if (!seen.insert(id).second)
            return false;
        queries.push_back(q);
        return true;
    };
    auto fresh = [&] {
        Query q;
        q.protocol = static_cast<unsigned>(rng.uniformInt(16));
        q.preset = static_cast<unsigned>(rng.uniformInt(3));
        q.n = ns[rng.uniformInt(ns.size())];
        q.hSw = rng.uniform(0.3, 0.7);
        q.hPrivate = rng.uniform(0.90, 0.98);
        return q;
    };
    auto neighbour = [&](const Query &base) {
        Query q = base;
        q.hSw = std::clamp(base.hSw + rng.uniform(-2e-3, 2e-3), 0.3, 0.7);
        q.hPrivate = std::clamp(base.hPrivate + rng.uniform(-1e-3, 1e-3),
                                0.90, 0.98);
        return q;
    };

    Session s;
    s.prefill = shape.capacity;
    while (queries.size() < s.prefill) {
        if (add(fresh()))
            s.order.push_back(static_cast<uint32_t>(queries.size() - 1));
    }

    // Zipf(1) popularity over the prefilled keys, rank = prefill order.
    std::vector<double> cdf(s.prefill);
    double total = 0.0;
    for (size_t r = 0; r < s.prefill; ++r)
        cdf[r] = total += 1.0 / static_cast<double>(r + 1);
    auto zipf = [&] {
        double u = rng.uniform() * total;
        size_t r = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return std::min(r, s.prefill - 1);
    };

    const size_t stream = static_cast<size_t>(
        std::max(1000.0, shape.maxPerSecond * seconds));
    while (s.order.size() < s.prefill + stream) {
        if (rng.uniform() < shape.newFraction) {
            // serve_fill: a neighbour of any earlier query; serve_hot:
            // of a popular resident one.
            size_t base = shape.newFraction >= 1.0
                ? rng.uniformInt(queries.size())
                : zipf();
            while (!add(neighbour(queries[base]))) {
            }
            s.order.push_back(static_cast<uint32_t>(queries.size() - 1));
        } else {
            s.order.push_back(static_cast<uint32_t>(zipf()));
        }
    }
    s.bodies.reserve(queries.size());
    for (const Query &q : queries)
        s.bodies.push_back(body(q));
    return s;
}

struct Loop
{
    std::vector<std::string> responses;
    std::vector<double> latencyUs;
    int64_t begin = 0, end = 0;
    bool broken = false;
};

/**
 * The closed loop: send line @p first + i, wait for its response,
 * repeat until @p count lines or the deadline (0 = none). One sample
 * is one line, from the write to the end of its response line.
 */
Loop
closedLoop(Daemon &daemon, const Session &s, size_t first, size_t count,
           int64_t deadline, SpanLog *spans)
{
    Loop out;
    out.responses.reserve(std::min<size_t>(count, 1u << 20));
    out.latencyUs.reserve(out.responses.capacity());
    std::string response;
    out.begin = nowNs();
    for (size_t i = 0; i < count; ++i) {
        if (deadline != 0 && nowNs() >= deadline)
            break;
        std::string line = s.line(first + i);
        int64_t t0 = nowNs();
        if (!daemon.send(line) || !daemon.recv(response)) {
            out.broken = true;
            break;
        }
        int64_t t1 = nowNs();
        out.latencyUs.push_back(static_cast<double>(t1 - t0) / 1e3);
        out.responses.push_back(response);
        if (spans != nullptr)
            spans->add("serve.request", first + i + 1, 0, t0, t1);
    }
    out.end = nowNs();
    return out;
}

double
resultField(const JsonValue &response, const char *name)
{
    const JsonValue *result = response.get("result");
    const JsonValue *v = result ? result->get(name) : nullptr;
    return v != nullptr && v->isNumber() ? v->asNumber() : std::nan("");
}

bool
resultFlag(const JsonValue &response, const char *name)
{
    const JsonValue *result = response.get("result");
    const JsonValue *v = result ? result->get(name) : nullptr;
    return v != nullptr && v->isBool() && v->asBool();
}

/** The counter @p name from a stats response's metrics map. */
double
statsCounter(const JsonValue &stats, const char *name)
{
    const JsonValue *result = stats.get("result");
    const JsonValue *metrics = result ? result->get("metrics") : nullptr;
    const JsonValue *m = metrics ? metrics->get(name) : nullptr;
    const JsonValue *total = m ? m->get("total") : nullptr;
    return total != nullptr && total->isNumber() ? total->asNumber()
                                                 : 0.0;
}

/** Bitwise equality, the standard the batch engine's contract sets. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A response's result object with "cached" cleared, serialized. */
std::string
storedForm(const JsonValue &response)
{
    const JsonValue *result = response.get("result");
    if (result == nullptr || !result->isObject())
        return "";
    JsonValue copy = *result;
    copy.set("cached", JsonValue(false));
    return serializeJson(copy);
}

/**
 * Oracle: replay the session's cache outside the daemon - a standalone
 * SolutionCache fed the daemon's own answers - so that every response
 * can be checked against what the daemon had to compute:
 *  - a hit repeats, field for field, the answer first stored for its
 *    key (exact hits replay the stored solve bit for bit);
 *  - a sampled miss equals, bit for bit, MvaSolver::trySolve of its
 *    query from the seed nearest() yields at that point, or from the
 *    cold start when there is none (a batch lane equals the scalar
 *    solve, warm seeds included);
 *  - a sampled warm answer agrees with the cold scalar solve of its
 *    query within 1e-5 relative on responseTime, speedup and busUtil,
 *    the envelope tests/serve/test_service.cc asserts.
 */
class AnswerCheck
{
  public:
    /** @p responses grows as the daemon answers; check() reads it. */
    AnswerCheck(const RunConfig &cfg, const Session &s, size_t capacity,
                const std::vector<std::string> &responses)
        : cfg_(cfg), s_(s), responses_(responses),
          quantum_(ServeOptions().quantum), cache_(capacity, quantum_),
          solver_(defaultServeSolverOptions()),
          planted_(cfg.plant != "serve-answer"),
          plantedCold_(cfg.plant != "serve-cold")
    {
        Rng rng(cfg.seed ^ 0x5eedc01dull);
        // The sampled positions depend on the seed alone: they are drawn
        // over the prefill and the first 16384 stream lines, which a
        // full-length window sends, so a failure at a seed repeats.
        while (sampled_.size() < 256)
            sampled_.insert(rng.uniformInt(s.prefill + 16384));
    }

    /** Check the response at @p pos; positions come in order. */
    void check(size_t pos, Result &res)
    {
        auto requests = parseRequestLine(s_.line(pos));
        auto response = parseJson(responses_[pos]);
        if (!requests || !response) {
            res.fail(pos, "unparseable request or response line");
            return;
        }
        const Request &req = requests.value().front();
        JsonValue resp = response.value();
        auto key = canonicalKey(req.protocol, req.workload, req.n, quantum_);
        if (!key) {
            res.fail(pos, "canonicalKey rejected a generated query");
            return;
        }
        const bool cached = resultFlag(resp, "cached");
        if (cache_.find(key.value()) != nullptr) {
            ++hits_;
            auto first = parseJson(responses_[stored_[key.value()]]);
            if (!cached || !first ||
                storedForm(resp) != storedForm(first.value()))
                res.fail(pos, "response " + std::to_string(pos + 1) +
                                  " is not the stored answer of its key");
            return;
        }
        if (cached) {
            res.fail(pos, "response " + std::to_string(pos + 1) +
                              " claims a hit on a key not in the cache");
            return;
        }
        std::optional<MvaSeed> seed = cache_.nearest(key.value());
        if (sampled_.count(pos) != 0) {
            ++missesSolved_;
            const DerivedInputs inputs =
                DerivedInputs::compute(req.workload, req.protocol);
            auto expect =
                solver_.trySolve(inputs, req.n, seed.value_or(MvaSeed{}));
            if (!planted_) {
                JsonValue::Object result = resp.get("result")->asObject();
                result["speedup"] = JsonValue(
                    resultField(resp, "speedup") * (1.0 + 1e-4));
                resp.set("result", JsonValue(std::move(result)));
                planted_ = true;
            }
            if (!expect) {
                res.fail(pos, "reference solve failed: " +
                                  expect.error().describe());
            } else {
                const MvaResult &e = expect.value();
                bool same =
                    sameBits(e.speedup, resultField(resp, "speedup")) &&
                    sameBits(e.responseTime,
                             resultField(resp, "responseTime")) &&
                    sameBits(e.busUtil, resultField(resp, "busUtil")) &&
                    sameBits(e.wBus, resultField(resp, "wBus")) &&
                    sameBits(e.wMem, resultField(resp, "wMem")) &&
                    e.iterations == resultField(resp, "iterations") &&
                    e.warmStarted == resultFlag(resp, "warmStarted");
                if (!same) {
                    ++exactMismatches_;
                    res.fail(pos, "response " + std::to_string(pos + 1) +
                                      " differs from the scalar solve "
                                      "of its query and seed");
                }
            }
            if (seed) {
                ++warmSampled_;
                auto cold = solver_.trySolve(inputs, req.n);
                if (!cold) {
                    res.fail(pos, "cold reference solve failed: " +
                                      cold.error().describe());
                } else {
                    const MvaResult &c = cold.value();
                    double gap = 0.0;
                    for (auto [name, want] :
                         {std::pair{"responseTime", c.responseTime},
                          std::pair{"speedup", c.speedup},
                          std::pair{"busUtil", c.busUtil}}) {
                        double got = resultField(resp, name);
                        if (!plantedCold_) {
                            got *= 1.0 + 1e-2;
                            plantedCold_ = true;
                        }
                        gap = std::max(gap, std::fabs(got - want) /
                                                std::fabs(want));
                    }
                    warmColdGap_ = std::max(warmColdGap_, gap);
                    if (!(gap <= 1e-5)) {
                        ++coldBreaches_;
                        char buf[160];
                        std::snprintf(buf, sizeof buf,
                                      "warm response %zu is %.3g from the "
                                      "cold solve (busUtil %.4f), over 1e-5",
                                      pos + 1, gap, c.busUtil);
                        res.fail(pos, buf);
                    }
                }
            }
        }
        // The cache keeps what seeds need: the daemon's own answer.
        MvaResult answer;
        answer.wBus = resultField(resp, "wBus");
        answer.wMem = resultField(resp, "wMem");
        answer.responseTime = resultField(resp, "responseTime");
        cache_.insert(key.value(), answer);
        stored_[key.value()] = pos;
    }

    void report(Result &res) const
    {
        res.detail["oracle_hits_checked"] = num(static_cast<double>(hits_));
        res.detail["oracle_misses_solved"] = num(missesSolved_);
        res.detail["oracle_exact_mismatches"] = num(exactMismatches_);
        res.detail["oracle_warm_sampled"] = num(warmSampled_);
        res.detail["oracle_warm_cold_breaches"] = num(coldBreaches_);
        res.detail["oracle_warm_cold_max_gap"] = num(warmColdGap_);
    }

  private:
    const RunConfig &cfg_;
    const Session &s_;
    const std::vector<std::string> &responses_;
    const double quantum_;
    SolutionCache cache_;
    // The position of the response that first stored each key's answer.
    std::unordered_map<CacheKey, size_t, CacheKeyHash> stored_;
    MvaSolver solver_;
    std::set<size_t> sampled_;
    bool planted_, plantedCold_;
    size_t hits_ = 0, missesSolved_ = 0, warmSampled_ = 0;
    size_t exactMismatches_ = 0, coldBreaches_ = 0;
    double warmColdGap_ = 0.0;
};

/** Oracle: two response streams are byte-identical, line by line. */
void
checkIdentical(const std::vector<std::string> &expected,
               const std::vector<std::string> &got, const char *what,
               Result &res)
{
    size_t n = std::max(expected.size(), got.size());
    for (size_t i = 0; i < n; ++i) {
        if (i >= expected.size() || i >= got.size() ||
            expected[i] != got[i])
            res.fail(i, std::string(what) + " differs at line " +
                            std::to_string(i + 1));
    }
}

/** Per-request layer timings of the in-process probe (microseconds). */
struct Probe
{
    std::vector<double> decode, encode, canon, find, nearest, derive,
        solve, insert, self, pipe;
    uint64_t hits = 0, seeded = 0; // prefill and stream, for the stats
    uint64_t streamHits = 0, streamMisses = 0, streamSeeded = 0;
    uint64_t evictionsBefore = 0, evictionsAfter = 0;
    double warmIters = 0, coldIters = 0, iters = 0, solveNs = 0;
};

double
us(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e3;
}

/**
 * Replay the session through the layers in-process, timing each call
 * from outside, in two passes over the lines: first parseRequestLine,
 * SolveService::handle and serializeJson; then, on a standalone
 * SolutionCache plus BatchMvaSolver fed the same keys, canonicalKey,
 * find, nearest, DerivedInputs::compute, solveBatch and insert. Two
 * passes, so that neither cache's scans evict the other's and handle
 * runs with the caches warm as in the daemon. Only the stream part is
 * sampled; the prefill part rebuilds the cache state the daemon had.
 */
Probe
probeLayers(const Session &s, size_t lines,
            size_t capacity, const std::vector<std::string> &daemon,
            const std::vector<double> &e2eUs, SpanLog &spans, Result &res)
{
    ServeOptions so;
    so.cacheCapacity = capacity;
    Probe p;
    std::vector<Request> requests(lines);
    std::vector<double> handleUs(lines, 0.0);
    {
        SolveService service(so);
        for (size_t pos = 0; pos < lines; ++pos) {
            const std::string line = s.line(pos);
            int64_t t0 = nowNs();
            auto parsed = parseRequestLine(line);
            int64_t t1 = nowNs();
            if (!parsed) {
                res.fail(pos, "probe cannot parse its own request line");
                continue;
            }
            requests[pos] = parsed.value().front();
            int64_t t2 = nowNs();
            JsonValue response = service.handle(requests[pos]);
            int64_t t3 = nowNs();
            std::string bytes = serializeJson(response);
            int64_t t4 = nowNs();
            if (pos < daemon.size() && bytes != daemon[pos])
                res.fail(pos, "in-process SolveService response differs "
                              "from the daemon's at line " +
                                  std::to_string(pos + 1));
            if (pos < s.prefill)
                continue;
            handleUs[pos] = us(t2, t3);
            p.decode.push_back(us(t0, t1));
            p.encode.push_back(us(t3, t4));
            const size_t i = pos - s.prefill;
            if (i < e2eUs.size())
                p.pipe.push_back(e2eUs[i] - us(t0, t1) - us(t2, t3) -
                                 us(t3, t4));
            const uint64_t task = pos + 1;
            uint32_t root = spans.add("serve.probe", task, 0, t0, t4);
            spans.add("serve.decode", task, root, t0, t1);
            spans.add("serve.handle", task, root, t2, t3);
            spans.add("serve.encode", task, root, t3, t4);
        }
    }

    SolutionCache cache(capacity, so.quantum);
    BatchMvaSolver batch;
    for (size_t pos = 0; pos < lines; ++pos) {
        const bool sampled = pos >= s.prefill;
        if (pos == s.prefill)
            p.evictionsBefore = cache.evictions();
        const uint64_t task = pos + 1;
        const Request &req = requests[pos];

        int64_t c0 = nowNs();
        auto key = canonicalKey(req.protocol, req.workload, req.n,
                                so.quantum);
        int64_t c1 = nowNs();
        if (!key) {
            res.fail(pos, "canonicalKey rejected a generated query");
            continue;
        }
        const MvaResult *hit = cache.find(key.value());
        int64_t c2 = nowNs();
        int64_t c3 = c2, c4 = c2, s0 = c2, c5 = c2, c6 = c2;
        if (hit != nullptr) {
            ++p.hits;
            p.streamHits += sampled;
        } else {
            p.streamMisses += sampled;
            std::optional<MvaSeed> seed = cache.nearest(key.value());
            c3 = nowNs();
            std::vector<MvaJob> jobs(1);
            jobs[0].inputs = DerivedInputs::compute(
                req.workload, req.protocol, so.timing);
            c4 = nowNs();
            jobs[0].n = req.n;
            jobs[0].opts = so.solver;
            if (seed) {
                jobs[0].seed = *seed;
                ++p.seeded;
                p.streamSeeded += sampled;
            }
            s0 = nowNs();
            auto solved = batch.solveBatch(jobs);
            c5 = nowNs();
            if (!solved.front()) {
                res.fail(pos, "probe solve failed: " +
                                  solved.front().error().describe());
                continue;
            }
            const MvaResult result = solved.front().value();
            cache.insert(key.value(), result);
            c6 = nowNs();
            if (sampled && seed) {
                // The same key solved cold, for the warm/cold
                // iteration ratio (untimed).
                jobs[0].seed = MvaSeed{};
                auto cold = batch.solveBatch(jobs);
                if (cold.front()) {
                    p.warmIters += result.iterations;
                    p.coldIters += cold.front().value().iterations;
                }
            }
            if (sampled) {
                p.iters += result.iterations;
                p.solveNs += static_cast<double>(c5 - s0);
            }
        }
        if (!sampled)
            continue;

        const double children = us(c0, c1) + us(c1, c2) + us(c2, c3) +
            us(c3, c4) + us(s0, c5) + us(c5, c6);
        p.canon.push_back(us(c0, c1));
        p.find.push_back(us(c1, c2));
        if (!hit) {
            p.nearest.push_back(us(c2, c3));
            p.derive.push_back(us(c3, c4));
            p.solve.push_back(us(s0, c5));
            p.insert.push_back(us(c5, c6));
        }
        p.self.push_back(handleUs[pos] - children);

        // The standalone replay of handle's layers, one after another.
        uint32_t layers = spans.add("serve.layers", task, 0, c0, c6);
        spans.add("serve.canon", task, layers, c0, c1);
        spans.add("serve.find", task, layers, c1, c2);
        if (!hit) {
            spans.add("serve.nearest", task, layers, c2, c3);
            spans.add("workload.derive", task, layers, c3, c4);
            spans.add("mva.solve", task, layers, s0, c5);
            spans.add("serve.insert", task, layers, c5, c6);
        }
    }
    p.evictionsAfter = cache.evictions();
    return p;
}

} // namespace

void
runServe(const RunConfig &cfg, Result &res)
{
    const Shape &shape = cfg.workload == "serve_fill" ? kFill : kHot;
    const Session s = generate(shape, cfg.seed, cfg.seconds);
    // While timed, the client and its daemon share one CPU. In the
    // closed loop one of them is always running, so that CPU never idles
    // between a request and its response: the latency is the program's,
    // not the time a shared host takes to wake an idle virtual CPU. The
    // daemon still runs --jobs=N; a one-line batch solves on its own
    // thread. Set-ups and slices of the window take the CPUs in turn,
    // since a shared host slows some of them more than others at any
    // one time. The untimed oracles run on every CPU.
    const std::vector<int> cpus = allowedCpus();
    if (cpus.empty())
        throw std::runtime_error("cannot read the CPU affinity");
    res.detail["pinned_cpus"] = num(static_cast<double>(cpus.size()));
    const std::vector<std::string> args{
        "--cache-capacity=" + std::to_string(shape.capacity),
        "--jobs=" + std::to_string(cfg.jobs)};

    // Set-up, five times: spawn the daemon and prefill its cache. The
    // last daemon serves the measured stream.
    std::vector<double> setup;
    std::vector<std::string> prefill;
    std::unique_ptr<Daemon> daemon;
    for (size_t rep = 0; rep < 5; ++rep) {
        if (daemon)
            daemon->finish();
        CpuPin pin(cpus[rep % cpus.size()]);
        int64_t t0 = nowNs();
        daemon = std::make_unique<Daemon>(cfg.serveBin, args);
        Loop fill = closedLoop(*daemon, s, 0, s.prefill, 0, nullptr);
        setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        if (fill.broken)
            throw std::runtime_error("daemon died during prefill");
        if (rep == 0)
            prefill = std::move(fill.responses);
        else
            checkIdentical(prefill, fill.responses,
                           "prefill of an identical daemon", res);
    }

    // The oracles' own daemon: the same lines at --jobs=1 must give
    // byte-identical responses.
    Daemon serialDaemon(cfg.serveBin,
                        {"--cache-capacity=" + std::to_string(shape.capacity),
                         "--jobs=1"});
    std::vector<std::string> sent(prefill), serial;
    bool serialOk = true;
    AnswerCheck answers(cfg, s, shape.capacity, sent);
    size_t checked = 0;
    // Check every response not yet checked: the replay feeds the serial
    // daemon in a thread of its own while this one checks the answers.
    auto checkSent = [&] {
        std::vector<std::string> lines;
        for (size_t pos = checked; pos < sent.size(); ++pos)
            lines.push_back(s.line(pos));
        std::thread replayer(
            [&] { serialOk = pipeline(serialDaemon, lines, serial) && serialOk; });
        for (; checked < sent.size(); ++checked)
            answers.check(checked, res);
        replayer.join();
    };

    // The measured stream, in slices with the untimed oracle work for
    // each slice after it, so that one run samples the host over about
    // twice its window. A traced run measures half a window untraced,
    // then the same lines again with tracing on.
    const size_t available = s.order.size() - s.prefill;
    const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    Loop timed;
    double seconds = 0.0;
    for (size_t slice = 0; slice < kSlices && !timed.broken; ++slice) {
        checkSent();
        const size_t next = sent.size();
        const int cpu = cpus[slice % cpus.size()];
        Loop part;
        {
            daemon->pinTo(cpu);
            CpuPin pin(cpu);
            part = closedLoop(*daemon, s, next, s.order.size() - next,
                              nowNs() + static_cast<int64_t>(
                                            window / kSlices * 1e9),
                              nullptr);
        }
        seconds += static_cast<double>(part.end - part.begin) / 1e9;
        timed.broken = part.broken;
        timed.latencyUs.insert(timed.latencyUs.end(),
                               part.latencyUs.begin(), part.latencyUs.end());
        sent.insert(sent.end(), part.responses.begin(), part.responses.end());
    }
    const double rss = daemon->peakRssMb();
    if (!daemon->finish() || timed.broken)
        res.fail(sent.size(), "daemon exited abnormally");
    checkSent();
    answers.report(res);
    if (!serialDaemon.finish() || !serialOk)
        res.fail(sent.size(), "the --jobs=1 daemon exited abnormally");
    if (cfg.plant == "serve-jobs" && !serial.empty())
        serial[serial.size() / 2].back() ^= 1;
    checkIdentical(sent, serial, "--jobs=1 replay", res);

    const size_t k = sent.size() - s.prefill;
    if (k == available)
        std::fprintf(stderr, "perfbench: generated stream exhausted "
                             "before the window closed\n");
    res.attempted = sent.size();

    // Every response is ok:true and answers its own id.
    size_t solves = 0; // stream requests the daemon solved
    for (size_t pos = 0; pos < sent.size(); ++pos) {
        auto doc = parseJson(sent[pos]);
        const JsonValue *ok = doc ? doc.value().get("ok") : nullptr;
        const JsonValue *id = doc ? doc.value().get("id") : nullptr;
        if (ok == nullptr || !ok->isBool() || !ok->asBool() ||
            id == nullptr || !id->isNumber() ||
            id->asNumber() != static_cast<double>(pos + 1)) {
            res.fail(pos, "error response: " + sent[pos].substr(0, 200));
            continue;
        }
        if (pos >= s.prefill && !resultFlag(doc.value(), "cached"))
            ++solves;
    }

    res.detail["prefill"] = num(s.prefill);
    res.detail["stream_sent"] = num(k);
    res.detail["stream_generated"] = num(available);
    res.detail["cache_capacity"] = num(shape.capacity);
    res.detail["jobs"] = num(cfg.jobs);

    if (!cfg.trace) {
        res.metric("req_per_s", static_cast<double>(k) / seconds, "1/s");
        res.metric("cells_per_s", static_cast<double>(solves) / seconds,
                   "1/s");
        res.metric("setup_s", quantile(setup, 0.5), "s");
        res.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    // Traced: a second daemon with its metrics registry on, the same
    // prefill and the same k stream lines, with client spans kept.
    SpanLog spans;
    CpuPin pin(cpus.back());
    // One file per workload, overwritten by each traced run.
    const std::string metricsCsv =
        cfg.workDir + "/metrics-" + cfg.workload + ".csv";
    Daemon traced(cfg.serveBin, args, {"SNOOP_METRICS=" + metricsCsv});
    Loop again = closedLoop(traced, s, 0, s.prefill, 0, nullptr);
    Loop tracedLoop = closedLoop(traced, s, s.prefill, k, 0, &spans);
    std::string statsLine;
    traced.send("{\"id\":0,\"op\":\"stats\"}");
    bool gotStats = traced.recv(statsLine);
    if (!traced.finish() || again.broken || tracedLoop.broken ||
        !gotStats)
        res.fail(0, "traced daemon exited abnormally");
    again.responses.insert(again.responses.end(),
                           tracedLoop.responses.begin(),
                           tracedLoop.responses.end());
    checkIdentical(sent, again.responses,
                   "metrics-enabled daemon's stream", res);

    // pipe = untraced end-to-end minus the in-process work, on the
    // same lines against the same cache state.
    Probe p = probeLayers(s, sent.size(), shape.capacity, sent,
                          timed.latencyUs, spans, res);

    // Cross-check the standalone replay against the daemon's counters.
    auto stats = parseJson(statsLine);
    double daemonHits = stats ? statsCounter(stats.value(), "serve.hits")
                              : -1.0;
    double daemonSeeded =
        stats ? statsCounter(stats.value(), "serve.warm_starts") : -1.0;
    double replayHits = static_cast<double>(p.hits) +
        (cfg.plant == "serve-stats" ? 1.0 : 0.0);
    if (daemonHits != replayHits ||
        daemonSeeded != static_cast<double>(p.seeded))
        res.fail(0, "replay counts (hits " + std::to_string(replayHits) +
                        ", seeded " + std::to_string(p.seeded) +
                        ") differ from the daemon's stats (" +
                        std::to_string(daemonHits) + ", " +
                        std::to_string(daemonSeeded) + ")");
    res.detail["stats_hits"] = num(daemonHits);
    res.detail["stats_warm_starts"] = num(daemonSeeded);
    res.detail["replay_hits"] = num(replayHits);
    res.detail["replay_seeded"] = num(static_cast<double>(p.seeded));

    const std::string tracePath =
        cfg.workDir + "/trace-" + cfg.workload + ".json";
    spans.write(tracePath);
    res.detail["trace_file"] = JsonValue(tracePath);
    res.detail["spans"] = num(spans.size());

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    res.metric("serve.decode_us_p50", quantile(p.decode, 0.5), "us");
    res.metric("serve.encode_us_p50", quantile(p.encode, 0.5), "us");
    res.metric("serve.pipe_us_p50", quantile(p.pipe, 0.5), "us");
    res.metric("serve.canon_us_p50", quantile(p.canon, 0.5), "us");
    res.metric("serve.find_us_p50", quantile(p.find, 0.5), "us");
    res.metric("serve.hit_ratio",
               ratio(static_cast<double>(p.streamHits),
                     static_cast<double>(p.streamHits + p.streamMisses)),
               "hits/lookups");
    res.metric("serve.nearest_us_p50", quantile(p.nearest, 0.5), "us");
    res.metric("serve.nearest_us_p99", quantile(p.nearest, 0.99), "us");
    res.metric("serve.seed_ratio",
               ratio(static_cast<double>(p.streamSeeded),
                     static_cast<double>(p.streamMisses)),
               "seeded/misses");
    res.metric("serve.insert_us_p50", quantile(p.insert, 0.5), "us");
    res.metric("serve.evictions",
               static_cast<double>(p.evictionsAfter - p.evictionsBefore),
               "count");
    res.metric("serve.service_self_us_p50", quantile(p.self, 0.5), "us");
    res.metric("mva.solve_us_p50", quantile(p.solve, 0.5), "us");
    res.metric("mva.lane_iters_mean",
               ratio(p.iters, static_cast<double>(p.solve.size())),
               "iterations");
    res.metric("mva.warm_iter_ratio", ratio(p.warmIters, p.coldIters),
               "warm/cold");
    res.metric("mva.ns_per_lane_iter", ratio(p.solveNs, p.iters), "ns");
    res.metric("workload.derive_us_p50", quantile(p.derive, 0.5), "us");
    res.metric("trace.overhead_frac",
               ratio(quantile(tracedLoop.latencyUs, 0.5),
                     quantile(timed.latencyUs, 0.5)) -
                   1.0,
               "ratio");
    res.metric("e2e.lat_p50_us", quantile(timed.latencyUs, 0.5), "us");
    res.metric("e2e.lat_p99_us", quantile(timed.latencyUs, 0.99), "us");
}

} // namespace perfbench
