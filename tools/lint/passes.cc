#include "lint/passes.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "lint/callgraph.hh"
#include "lint/cfg.hh"
#include "lint/dataflow.hh"
#include "lint/symbols.hh"
#include "lint/text.hh"

namespace snoop::lint {

namespace {

/** The default pass scope: the library tree plus the pass's own
 * fixtures (@p stem is the rule id spelled with underscores). */
bool
inScope(const std::string &file, const char *stem)
{
    return startsWith(file, "src/") || isFixtureOf(file, stem);
}

/** Index after the template argument list opening at @p i (toks[i]
 * is '<'); falls back to i+1 when the angles do not balance before
 * a ';'. */
size_t
skipAngles(const std::vector<Token> &toks, size_t i)
{
    int depth = 0;
    for (size_t k = i; k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "<")
            ++depth;
        else if (t.text == ">") {
            if (--depth == 0)
                return k + 1;
        } else if (t.text == ";") {
            break;
        }
    }
    return i + 1;
}

/** Render a witness path as "L10 -> L14 -> L20": the first statement
 * (or condition) line of each block on the shortest entry -> block
 * path. */
std::string
describePath(const Cfg &cfg, size_t target)
{
    std::ostringstream o;
    bool first = true;
    for (size_t b : pathToBlock(cfg, target)) {
        const CfgBlock &blk = cfg.blocks[b];
        size_t line = 0;
        if (!blk.stmts.empty())
            line = blk.stmts.front().line;
        else if (blk.hasCond())
            line = blk.condLine;
        if (line == 0)
            continue;
        if (!first)
            o << " -> ";
        o << "L" << line;
        first = false;
    }
    return o.str();
}

// ====================================================================
// fatal-reachability
// ====================================================================

/** Process-terminating sinks. panic()/SNOOP_ASSERT are not listed:
 * those are internal-invariant idioms with their own rule (R6), and
 * their implementations live in the exempt files below. */
const std::set<std::string> &
fatalSinks()
{
    static const std::set<std::string> kSinks = {
        "fatal", "abort", "exit", "_Exit", "quick_exit",
    };
    return kSinks;
}

/** Files whose bodies implement the sinks (fatal() itself must call
 * _Exit); calls inside them are the mechanism, not a violation. */
bool
sinkExemptFile(const std::string &file)
{
    return file == "src/util/logging.cc" ||
        file == "src/util/contracts.cc";
}

/** Entry-point scope: the library surface the ROADMAP promises never
 * terminates the process. */
bool
fatalEntryScope(const std::string &file)
{
    return startsWith(file, "src/mva/") || startsWith(file, "src/core/") ||
        startsWith(baseName(file), "bad_fatal_reachability");
}

/**
 * Sink scope: the library solver paths whose fault-isolation contract
 * (util/expected.hh) forbids a direct process exit in any function,
 * try* entry or not. csv.* is covered because CSV emission runs inside
 * sweep/bench result paths: a failed write must surface via close(),
 * not exit. The bad_fatal_reachability__<variant> fixtures stand in
 * for such files; the plain bad_fatal_reachability fixture is an
 * entry-scope file outside them.
 */
bool
fatalSinkScope(const std::string &file)
{
    static const char *const kPrefixes[] = {
        "src/mva/", "src/util/csv.", "src/core/analyzer.",
        "src/core/sweep.", "src/core/solve_for.",
    };
    for (const char *prefix : kPrefixes)
        if (startsWith(file, prefix))
            return true;
    return startsWith(baseName(file), "bad_fatal_reachability__");
}

void
checkFatalReachability(const FileSet &files, const SymbolIndex &index,
                       const CallGraph &graph,
                       std::vector<Finding> &out)
{
    const auto &funcs = index.functions();

    // In the sink scope every sink call is a finding where it is
    // made: in a function body, or in a macro a function expands.
    for (const auto &[file, lexed] : files) {
        if (!fatalSinkScope(file))
            continue;
        const std::vector<Token> &toks = lexed.tokens;
        for (size_t k = 0; k + 1 < toks.size(); ++k) {
            if (toks[k].kind != TokenKind::Identifier ||
                !fatalSinks().count(toks[k].text) ||
                !isPunct(toks[k + 1], "(") ||
                markerNearby(lexed, toks[k].line, "fatal-ok"))
                continue;
            out.push_back(
                {file, toks[k].line, "fatal-reachability",
                 toks[k].text +
                     "() exits the process from a library solver path; "
                     "return a SolveError / throw SolveException "
                     "(util/expected.hh), or mark a deliberate boundary "
                     "with 'snoop-lint: fatal-ok'"});
        }
    }

    // A node is a sink carrier when its body directly calls a sink on
    // a line without a fatal-ok marker.
    struct SinkCall {
        bool present = false;
        std::string callee;
        size_t line = 0;
    };
    std::vector<SinkCall> sinks(funcs.size());
    for (size_t i = 0; i < funcs.size(); ++i) {
        if (sinkExemptFile(funcs[i].file))
            continue;
        auto fit = files.find(funcs[i].file);
        if (fit == files.end())
            continue;
        for (const CallSite &site : graph.callsOf(i)) {
            if (!fatalSinks().count(site.callee))
                continue;
            if (markerNearby(fit->second, site.line, "fatal-ok"))
                continue;
            sinks[i] = {true, site.callee, site.line};
            break;
        }
    }

    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!fatalEntryScope(funcs[i].file))
            continue;
        if (!startsWith(funcs[i].def.name, "try"))
            continue;
        auto chain = graph.findPath(
            i, [&sinks](size_t n) { return sinks[n].present; });
        if (chain.empty())
            continue;
        std::string msg = "entry point ";
        for (size_t k = 0; k < chain.size(); ++k) {
            if (k > 0)
                msg += " -> ";
            msg += funcs[chain[k]].def.qualified;
        }
        const SinkCall &sink = sinks[chain.back()];
        msg += " -> " + sink.callee + "() at " +
            funcs[chain.back()].file + ":" + std::to_string(sink.line) +
            " can terminate the process";
        out.push_back({funcs[i].file, funcs[i].def.line,
                       "fatal-reachability", msg});
    }
}

// ====================================================================
// numeric-guard-coverage
// ====================================================================

struct Boundary {
    const char *file;
    const char *name;
};

/** The solver boundary roster: results that cross these functions are
 * the numbers the paper publishes. */
const Boundary kBoundaries[] = {
    {"src/mva/solver.cc", "trySolve"},
    {"src/mva/multiclass.cc", "solveMulticlass"},
    {"src/mva/hierarchical.cc", "solveHierarchical"},
};

bool
isNumericBoundary(const IndexedFunction &fn)
{
    for (const Boundary &b : kBoundaries)
        if (fn.file == b.file && fn.def.name == b.name)
            return true;
    // Fixture opt-in: any try*/solve* definition in the fixture.
    if (startsWith(baseName(fn.file), "bad_numeric_guard_coverage"))
        return startsWith(fn.def.name, "try") ||
            startsWith(fn.def.name, "solve");
    return false;
}

bool
bodyHasGuard(const FileSet &files, const IndexedFunction &fn)
{
    auto fit = files.find(fn.file);
    if (fit == files.end())
        return false;
    const std::vector<Token> &toks = fit->second.tokens;
    for (size_t j = fn.def.bodyBegin;
         j < fn.def.bodyEnd && j < toks.size(); ++j)
        if (isIdent(toks[j], "NumericGuard") ||
            isIdent(toks[j], "SNOOP_NUMERIC_CHECK"))
            return true;
    return false;
}

void
checkNumericGuardCoverage(const FileSet &files, const SymbolIndex &index,
                          const CallGraph &graph,
                          std::vector<Finding> &out)
{
    const auto &funcs = index.functions();
    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!isNumericBoundary(funcs[i]))
            continue;
        if (bodyHasGuard(files, funcs[i]))
            continue;
        // One level of same-file indirection: a helper that either
        // guards itself or returns SolveError (the recoverable
        // validation idiom) satisfies the boundary.
        bool covered = false;
        for (size_t callee : graph.edgesOf(i)) {
            if (funcs[callee].file != funcs[i].file)
                continue;
            if (bodyHasGuard(files, funcs[callee]) ||
                funcs[callee].def.returnText.find("SolveError") !=
                    std::string::npos) {
                covered = true;
                break;
            }
        }
        if (covered)
            continue;
        out.push_back(
            {funcs[i].file, funcs[i].def.line, "numeric-guard-coverage",
             "solver boundary " + funcs[i].def.qualified +
                 " does not route its result through NumericGuard/"
                 "SNOOP_NUMERIC_CHECK (directly or via a same-file "
                 "validator)"});
    }
}

// ====================================================================
// fp-determinism
// ====================================================================

const std::set<std::string> &
transcendentals()
{
    static const std::set<std::string> k = {
        "pow",   "powf",  "powl",   "exp",    "exp2",  "expm1",
        "log",   "log2",  "log10",  "log1p",  "sin",   "cos",
        "tan",   "sinh",  "cosh",   "tanh",   "asin",  "acos",
        "atan",  "atan2", "erf",    "erfc",   "tgamma", "lgamma",
        "cbrt",  "hypot",
    };
    return k;
}

/** Functions that hand bytes to an output stream or serialized
 * form — the point past which iteration order becomes observable. */
const std::set<std::string> &
outputCalls()
{
    static const std::set<std::string> k = {
        "printf",    "fprintf", "fputs",     "fwrite",  "puts",
        "writeLine", "appendLine", "emit",   "print",   "serialize",
        "serializeJson", "toJson", "toCsv",  "jsonLine", "writeRow",
        "cellLine",  "dump",
    };
    return k;
}

/** Stream-ish identifiers that make `<<` an output statement rather
 * than a shift. */
const std::set<std::string> &
streamNames()
{
    static const std::set<std::string> k = {"cout", "cerr", "clog",
                                            "os",   "out",  "stream"};
    return k;
}

bool
fpScope(const std::string &file, const DeterminismRoster &roster)
{
    return roster.memberFile(file) || isFixtureOf(file, "fp_determinism");
}

bool
fpKernel(const std::string &file, const DeterminismRoster &roster)
{
    return roster.kernelFile(file) ||
        (isFixtureOf(file, "fp_determinism") &&
         baseName(file).find("kernel") != std::string::npos);
}

bool
sanctionedName(const std::string &name, const DeterminismRoster &roster)
{
    // mvaExp2 is the repository's deterministic 2^x kernel
    // (src/mva/kernel.hh); it is sanctioned even in fixture runs
    // where no roster file exists.
    return name == "mvaExp2" || roster.sanctioned.count(name) > 0;
}

/** Variable names declared as unordered_{map,set,multimap,multiset}
 * within one function's extent (signature line through body end),
 * plus file-scope globals of unordered type. Scoping the scan to the
 * function keeps a `counts` parameter of unordered type in one
 * function from tainting an ordered `counts` in another. */
std::set<std::string>
unorderedVars(const LexedFile &lexed, const ParsedFile &parsed,
              const FunctionDef &fn)
{
    std::set<std::string> vars;
    const std::vector<Token> &toks = lexed.tokens;
    for (size_t i = 0; i + 1 < toks.size() && i < fn.bodyEnd; ++i) {
        const Token &t = toks[i];
        if (t.line < fn.line || t.kind != TokenKind::Identifier ||
            !startsWith(t.text, "unordered_"))
            continue;
        size_t k = i + 1;
        if (k < toks.size() && isPunct(toks[k], "<"))
            k = skipAngles(toks, k);
        while (k < toks.size() &&
               (isPunct(toks[k], "&") || isPunct(toks[k], "*") ||
                isIdent(toks[k], "const")))
            ++k;
        if (k < toks.size() && toks[k].kind == TokenKind::Identifier)
            vars.insert(toks[k].text);
    }
    for (const GlobalVar &g : parsed.globals)
        if (g.typeText.find("unordered_") != std::string::npos)
            vars.insert(g.name);
    return vars;
}

/** The identifier iterated by a RangeFor header `(decl : expr)`, if
 * the range expression names a known unordered container. */
std::string
unorderedRangeVar(const std::vector<Token> &toks, const CfgStmt &s,
                  const std::set<std::string> &unordered)
{
    // Find the top-level ':' separating decl from range expression.
    int depth = 0;
    size_t colon = s.end;
    for (size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "(" || t.text == "[" || t.text == "{")
            ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}")
            --depth;
        else if (t.text == ":" && depth == 0) {
            bool dbl = (k + 1 < s.end && isPunct(toks[k + 1], ":")) ||
                (k > s.begin && isPunct(toks[k - 1], ":"));
            if (!dbl) {
                colon = k;
                break;
            }
        }
    }
    for (size_t k = colon; k < s.end; ++k)
        if (toks[k].kind == TokenKind::Identifier &&
            unordered.count(toks[k].text))
            return toks[k].text;
    return "";
}

/** Output call (or stream insertion) named by the statement, or ""
 * when it has none. ScopeEnd statements span whole compounds and are
 * never scanned. */
std::string
outputCallIn(const std::vector<Token> &toks, const CfgStmt &s)
{
    if (s.kind == StmtKind::ScopeEnd)
        return "";
    bool hasShift = false;
    std::string stream;
    for (size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind == TokenKind::Identifier) {
            // Free and member spellings both count: x.serialize()
            // makes iteration order just as observable.
            if (k + 1 < s.end && isPunct(toks[k + 1], "(") &&
                outputCalls().count(t.text))
                return t.text;
            if (streamNames().count(t.text))
                stream = t.text;
        } else if (isPunct(t, "<") && k + 1 < s.end &&
                   isPunct(toks[k + 1], "<")) {
            hasShift = true;
            ++k;
        }
    }
    if (hasShift && !stream.empty())
        return stream + " << ...";
    return "";
}

void
checkFpDeterminism(const FileSet &files, const SymbolIndex &index,
                   const DeterminismRoster &roster,
                   std::vector<Finding> &out)
{
    for (const auto &[file, lexed] : files) {
        if (!fpScope(file, roster))
            continue;
        const ParsedFile &parsed = index.parsed(file);
        const std::vector<Token> &toks = lexed.tokens;

        // Token ranges of sanctioned function bodies: the
        // deterministic kernel itself may use libm internally.
        std::vector<std::pair<size_t, size_t>> sanctionedBodies;
        for (const FunctionDef &fn : parsed.functions)
            if (sanctionedName(fn.name, roster))
                sanctionedBodies.push_back({fn.bodyBegin, fn.bodyEnd});
        auto inSanctioned = [&](size_t tok) {
            for (const auto &[b, e] : sanctionedBodies)
                if (tok >= b && tok < e)
                    return true;
            return false;
        };

        // (a) Libm transcendental calls.
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokenKind::Identifier ||
                !transcendentals().count(t.text) ||
                !isPunct(toks[i + 1], "("))
                continue;
            if (i > 0 && (isPunct(toks[i - 1], ".") ||
                          isPunct(toks[i - 1], ">")))
                continue; // member call on some other type
            if (inSanctioned(i))
                continue;
            if (markerNearby(lexed, t.line, "fp-ok"))
                continue;
            out.push_back(
                {file, t.line, "fp-determinism",
                 "libm transcendental '" + t.text +
                     "' in a bit-identity-critical module "
                     "(tools/lint/determinism.txt); results differ "
                     "across libm versions -- use the deterministic "
                     "kernel (mvaExp2) or justify with "
                     "'// snoop-lint: fp-ok'"});
        }

        // (b) Unordered iteration on a path reaching output, and
        // (c) accumulation-order hazards in kernel files.
        bool kernel = fpKernel(file, roster);

        if (kernel) {
            for (size_t i = 0; i + 1 < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.kind != TokenKind::Identifier)
                    continue;
                if ((t.text == "reduce" || t.text == "execution") &&
                    i >= 3 && isPunct(toks[i - 1], ":") &&
                    isPunct(toks[i - 2], ":") &&
                    isIdent(toks[i - 3], "std")) {
                    if (markerNearby(lexed, t.line, "fp-ok"))
                        continue;
                    out.push_back(
                        {file, t.line, "fp-determinism",
                         "'std::" + t.text +
                             "' in a kernel file: accumulation order "
                             "is unspecified, which breaks "
                             "bit-identity (snoop-lint: fp-ok to "
                             "waive)"});
                }
            }
        }

        for (const FunctionDef &fn : parsed.functions) {
            std::set<std::string> unordered =
                unorderedVars(lexed, parsed, fn);
            if (unordered.empty())
                continue;
            Cfg cfg = buildCfg(lexed, fn);
            if (cfg.degraded)
                continue;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                for (const CfgStmt &s : cfg.blocks[b].stmts) {
                    if (s.kind != StmtKind::RangeFor)
                        continue;
                    std::string var =
                        unorderedRangeVar(toks, s, unordered);
                    if (var.empty())
                        continue;
                    if (markerNearby(lexed, s.line, "fp-ok"))
                        continue;
                    // Blocks reachable from the loop header: the
                    // body and everything after the loop.
                    std::vector<char> seen(cfg.blocks.size(), 0);
                    std::vector<size_t> queue{b};
                    seen[b] = 1;
                    std::string sink;
                    size_t sinkBlock = 0, sinkLine = 0;
                    for (size_t h = 0;
                         h < queue.size() && sink.empty(); ++h) {
                        for (const CfgStmt &q :
                             cfg.blocks[queue[h]].stmts) {
                            sink = outputCallIn(toks, q);
                            if (!sink.empty()) {
                                sinkBlock = queue[h];
                                sinkLine = q.line;
                                break;
                            }
                        }
                        for (const CfgEdge &e :
                             cfg.blocks[queue[h]].succs)
                            if (!seen[e.to]) {
                                seen[e.to] = 1;
                                queue.push_back(e.to);
                            }
                    }
                    if (!sink.empty()) {
                        out.push_back(
                            {file, s.line, "fp-determinism",
                             "iteration over unordered container '" +
                                 var +
                                 "' reaches output call '" + sink +
                                 "' (line " +
                                 std::to_string(sinkLine) +
                                 ", path " +
                                 describePath(cfg, sinkBlock) +
                                 "); hash iteration order is not "
                                 "deterministic across "
                                 "runs/platforms"});
                        continue;
                    }
                    if (!kernel)
                        continue;
                    // Kernel accumulation: `+=` folded inside the
                    // loop body (blocks on a cycle through the
                    // header).
                    std::vector<char> back(cfg.blocks.size(), 0);
                    std::vector<size_t> bq{b};
                    back[b] = 1;
                    // reverse reachability to the header
                    std::vector<std::vector<size_t>> preds(
                        cfg.blocks.size());
                    for (size_t p = 0; p < cfg.blocks.size(); ++p)
                        for (const CfgEdge &e : cfg.blocks[p].succs)
                            preds[e.to].push_back(p);
                    for (size_t h = 0; h < bq.size(); ++h)
                        for (size_t p : preds[bq[h]])
                            if (!back[p]) {
                                back[p] = 1;
                                bq.push_back(p);
                            }
                    for (size_t blkId = 0;
                         blkId < cfg.blocks.size(); ++blkId) {
                        if (!seen[blkId] || !back[blkId] ||
                            blkId == b)
                            continue;
                        for (const CfgStmt &q :
                             cfg.blocks[blkId].stmts) {
                            if (q.kind == StmtKind::ScopeEnd)
                                continue;
                            for (size_t k = q.begin;
                                 k + 1 < q.end; ++k)
                                if (isPunct(toks[k], "+") &&
                                    isPunct(toks[k + 1], "=")) {
                                    out.push_back(
                                        {file, q.line,
                                         "fp-determinism",
                                         "accumulation (`+=`) under "
                                         "iteration over unordered "
                                         "container '" + var +
                                         "' in a kernel file: "
                                         "fold order is not "
                                         "deterministic"});
                                    k = q.end;
                                }
                        }
                    }
                }
            }
        }
    }
}

// ====================================================================
// lockset
// ====================================================================

/** Must-hold lockset: top (unreached) or a set of held mutexes plus
 * the live RAII guards that imply them. */
struct LockState {
    bool top = true;
    std::set<std::string> held; //!< via explicit .lock()
    /** declaration token -> (guard variable, mutexes it holds) */
    std::map<size_t, std::pair<std::string, std::set<std::string>>>
        guards;

    bool
    operator==(const LockState &o) const
    {
        return top == o.top && held == o.held && guards == o.guards;
    }

    bool
    holds(const std::string &mutex) const
    {
        if (held.count(mutex))
            return true;
        for (const auto &[tok, g] : guards)
            if (g.second.count(mutex))
                return true;
        return false;
    }
};

class LocksetProblem : public DataflowProblem<LockState>
{
  public:
    explicit LocksetProblem(std::set<std::string> entryHeld)
        : entryHeld_(std::move(entryHeld))
    {
    }

    LockState
    entryState() const override
    {
        LockState s;
        s.top = false;
        s.held = entryHeld_;
        return s;
    }

    LockState
    initialState() const override
    {
        return LockState{};
    }

    LockState
    join(const LockState &a, const LockState &b) const override
    {
        if (a.top)
            return b;
        if (b.top)
            return a;
        LockState j;
        j.top = false;
        std::set_intersection(a.held.begin(), a.held.end(),
                              b.held.begin(), b.held.end(),
                              std::inserter(j.held, j.held.end()));
        for (const auto &[tok, g] : a.guards) {
            auto it = b.guards.find(tok);
            if (it != b.guards.end() && it->second == g)
                j.guards.emplace(tok, g);
        }
        return j;
    }

    void
    transfer(LockState &s, const LexedFile &file,
             const CfgStmt &stmt) const override
    {
        const std::vector<Token> &toks = file.tokens;
        if (stmt.kind == StmtKind::ScopeEnd) {
            // RAII: guards declared inside the closing compound die.
            for (auto it = s.guards.begin(); it != s.guards.end();)
                if (it->first >= stmt.begin && it->first < stmt.end)
                    it = s.guards.erase(it);
                else
                    ++it;
            return;
        }
        for (size_t k = stmt.begin; k < stmt.end; ++k) {
            const Token &t = toks[k];
            if (t.kind != TokenKind::Identifier)
                continue;
            if (t.text == "lock_guard" || t.text == "unique_lock" ||
                t.text == "scoped_lock") {
                applyGuardDecl(s, toks, k, stmt.end);
                continue;
            }
            // X.lock() / X.unlock() — explicit, non-RAII.
            if ((t.text == "lock" || t.text == "unlock") &&
                k >= 2 && isPunct(toks[k - 1], ".") &&
                toks[k - 2].kind == TokenKind::Identifier &&
                k + 1 < stmt.end && isPunct(toks[k + 1], "(")) {
                const std::string &obj = toks[k - 2].text;
                bool isGuardVar = false;
                for (auto it = s.guards.begin();
                     it != s.guards.end();) {
                    if (it->second.first == obj) {
                        isGuardVar = true;
                        if (t.text == "unlock") {
                            it = s.guards.erase(it);
                            continue;
                        }
                    }
                    ++it;
                }
                if (!isGuardVar) {
                    if (t.text == "lock")
                        s.held.insert(obj);
                    else
                        s.held.erase(obj);
                }
            }
        }
    }

  private:
    static void
    applyGuardDecl(LockState &s, const std::vector<Token> &toks,
                   size_t at, size_t end)
    {
        size_t k = at + 1;
        if (k < end && isPunct(toks[k], "<"))
            k = skipAngles(toks, k);
        if (k >= end || toks[k].kind != TokenKind::Identifier)
            return; // temporary guard or unparsed shape: ignore
        std::string var = toks[k].text;
        ++k;
        if (k >= end ||
            !(isPunct(toks[k], "(") || isPunct(toks[k], "{")))
            return;
        size_t close = matchBracket(toks, k);
        if (close >= end)
            return;
        // Split constructor args at top-level ','.
        std::set<std::string> mutexes;
        bool acquire = true;
        int depth = 0;
        std::string cur;
        auto flush = [&]() {
            if (cur.empty())
                return;
            if (cur == "std::defer_lock" || cur == "defer_lock" ||
                cur == "std::try_to_lock" || cur == "try_to_lock")
                acquire = false;
            else if (cur != "std::adopt_lock" && cur != "adopt_lock")
                mutexes.insert(cur);
            cur.clear();
        };
        for (size_t j = k + 1; j < close; ++j) {
            const Token &t = toks[j];
            if (t.kind == TokenKind::Punct) {
                if (t.text == "(" || t.text == "[" || t.text == "{")
                    ++depth;
                else if (t.text == ")" || t.text == "]" ||
                         t.text == "}")
                    --depth;
                else if (t.text == "," && depth == 0) {
                    flush();
                    continue;
                }
            }
            cur += t.text;
        }
        flush();
        if (acquire && !mutexes.empty())
            s.guards.emplace(at,
                             std::make_pair(var, std::move(mutexes)));
    }

    std::set<std::string> entryHeld_;
};

/** Functions a parallelFor worker can run: everything reachable from
 * a function that launches parallelFor (worker lambdas parse as part
 * of the launching function), as a sorted list. */
std::vector<size_t>
workerReachable(const SymbolIndex &index, const CallGraph &graph)
{
    std::vector<size_t> roots;
    for (size_t i = 0; i < index.functions().size(); ++i)
        for (const CallSite &site : graph.callsOf(i))
            if (site.callee == "parallelFor") {
                roots.push_back(i);
                break;
            }
    return graph.reachableFrom(roots);
}

/** Mutable static state of @p file with no SNOOP_GUARDED_BY that a
 * worker-reachable function names. Such state has internal linkage,
 * so only same-file accessors count. */
void
checkUnannotatedState(const std::string &file, const LexedFile &lexed,
                      const ParsedFile &parsed, const SymbolIndex &index,
                      const std::vector<size_t> &worker,
                      std::vector<Finding> &out)
{
    const auto &funcs = index.functions();
    const std::vector<Token> &toks = lexed.tokens;
    for (const GlobalVar &var : parsed.globals) {
        if (var.isConst || var.isThreadLocal || var.selfSynchronizing ||
            !var.guardedBy.empty())
            continue;
        for (size_t i : worker) {
            if (funcs[i].file != file)
                continue;
            const FunctionDef &def = funcs[i].def;
            bool named = false;
            for (size_t k = def.bodyBegin;
                 !named && k < def.bodyEnd && k < toks.size(); ++k)
                named = isIdent(toks[k], var.name.c_str()) &&
                    !(k > 0 && (isPunct(toks[k - 1], ".") ||
                                isPunct(toks[k - 1], ">")));
            if (!named)
                continue;
            if (!markerNearby(lexed, var.line, "lockset-ok"))
                out.push_back(
                    {file, var.line, "lockset",
                     "mutable shared state '" + var.name +
                         "' is reachable from parallelFor workers (via " +
                         def.qualified +
                         ") but has no SNOOP_GUARDED_BY annotation"});
            break;
        }
    }
}

void
checkLockset(const FileSet &files, const SymbolIndex &index,
             const CallGraph &graph, std::vector<Finding> &out)
{
    const std::vector<size_t> worker = workerReachable(index, graph);
    for (const auto &[file, lexed] : files) {
        if (!inScope(file, "lockset"))
            continue;
        const ParsedFile &parsed = index.parsed(file);
        checkUnannotatedState(file, lexed, parsed, index, worker, out);

        std::vector<const GlobalVar *> annotated;
        std::set<std::string> mutexNames;
        for (const GlobalVar &g : parsed.globals)
            if (!g.guardedBy.empty() && g.guardedBy != "internal") {
                annotated.push_back(&g);
                mutexNames.insert(g.guardedBy);
            }
        if (annotated.empty())
            continue;

        const std::vector<Token> &toks = lexed.tokens;
        for (const FunctionDef &fn : parsed.functions) {
            // Only functions that touch an annotated variable.
            bool touches = false;
            for (size_t k = fn.bodyBegin;
                 k < fn.bodyEnd && !touches; ++k)
                if (toks[k].kind == TokenKind::Identifier)
                    for (const GlobalVar *g : annotated)
                        touches = touches || toks[k].text == g->name;
            if (!touches)
                continue;

            Cfg cfg = buildCfg(lexed, fn);
            if (cfg.degraded)
                continue;

            // "Caller holds g_mutex." comment above the signature
            // seeds the entry lockset (the documented idiom).
            std::set<std::string> entryHeld;
            size_t from = fn.line > 4 ? fn.line - 4 : 1;
            for (size_t l = from;
                 l <= fn.line && l <= lexed.lines.size(); ++l) {
                const std::string &raw = lexed.lines[l - 1];
                // Only whole-line comments (// or /** or a block
                // continuation): a trailing comment on a nearby
                // statement must not seed the contract.
                size_t ws = raw.find_first_not_of(" \t");
                if (ws == std::string::npos)
                    continue;
                bool comment = raw.compare(ws, 2, "//") == 0 ||
                    raw.compare(ws, 2, "/*") == 0 || raw[ws] == '*';
                if (!comment)
                    continue;
                if (raw.find("hold") == std::string::npos)
                    continue;
                for (const std::string &m : mutexNames)
                    if (raw.find(m) != std::string::npos)
                        entryHeld.insert(m);
            }

            LocksetProblem problem(entryHeld);
            DataflowResult<LockState> res =
                solveForward(cfg, lexed, problem);
            if (!res.converged)
                continue;

            std::set<std::pair<std::string, size_t>> reported;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                LockState s = res.in[b];
                for (const CfgStmt &stmt : cfg.blocks[b].stmts) {
                    problem.transfer(s, lexed, stmt);
                    if (stmt.kind == StmtKind::ScopeEnd || s.top)
                        continue;
                    for (const GlobalVar *g : annotated) {
                        if (stmt.line == g->line)
                            continue; // the declaration itself
                        bool named = false;
                        for (size_t k = stmt.begin;
                             k < stmt.end && !named; ++k)
                            named = toks[k].kind ==
                                    TokenKind::Identifier &&
                                toks[k].text == g->name;
                        if (!named || s.holds(g->guardedBy))
                            continue;
                        if (!reported
                                 .insert({g->name, stmt.line})
                                 .second)
                            continue;
                        if (markerNearby(lexed, stmt.line,
                                         "lockset-ok"))
                            continue;
                        out.push_back(
                            {file, stmt.line, "lockset",
                             "'" + g->name +
                                 "' (SNOOP_GUARDED_BY(" +
                                 g->guardedBy +
                                 ")) is accessed in " + fn.name +
                                 "() on a path where '" +
                                 g->guardedBy +
                                 "' is not held (path " +
                                 describePath(cfg, b) +
                                 "); lock it, document the "
                                 "caller-holds contract in a "
                                 "comment, or waive with "
                                 "'// snoop-lint: lockset-ok'"});
                    }
                }
            }
        }
    }
}

// ====================================================================
// expected-flow
// ====================================================================

enum class VState { Unchecked, CheckedOk, CheckedErr };

/** Per-variable check state of tracked Expected results. A variable
 * absent from the map is untracked (bound on only some paths, or
 * escaped) — the pass stays silent about it. */
struct EState {
    bool top = true;
    std::map<std::string, VState> vars;

    bool
    operator==(const EState &o) const
    {
        return top == o.top && vars == o.vars;
    }
};

class ExpectedFlowProblem : public DataflowProblem<EState>
{
  public:
    ExpectedFlowProblem(const SymbolIndex &index) : index_(index) {}

    EState
    entryState() const override
    {
        EState s;
        s.top = false;
        return s;
    }

    EState
    initialState() const override
    {
        return EState{};
    }

    EState
    join(const EState &a, const EState &b) const override
    {
        if (a.top)
            return b;
        if (b.top)
            return a;
        EState j;
        j.top = false;
        for (const auto &[name, va] : a.vars) {
            auto it = b.vars.find(name);
            if (it == b.vars.end())
                continue; // tracked on one path only: drop
            VState vb = it->second;
            j.vars[name] =
                va == vb ? va : VState::Unchecked;
        }
        return j;
    }

    void
    transfer(EState &s, const LexedFile &file,
             const CfgStmt &stmt) const override
    {
        applyStmt(s, file, stmt, nullptr);
    }

    void
    edge(EState &s, const LexedFile &file, const CfgBlock &from,
         const CfgEdge &e) const override
    {
        if (!from.hasCond() || e.kind == EdgeKind::Next)
            return;
        const std::vector<Token> &toks = file.tokens;
        size_t b = from.condBegin, cend = from.condEnd;
        bool negated = false;
        while (b < cend && isPunct(toks[b], "!")) {
            negated = !negated;
            ++b;
        }
        if (b >= cend || toks[b].kind != TokenKind::Identifier)
            return;
        const std::string &name = toks[b].text;
        auto it = s.vars.find(name);
        if (it == s.vars.end())
            return;
        // Accept exactly `name`, `name.ok()`, `name.hasValue()`.
        bool atomic = b + 1 == cend;
        if (!atomic && b + 5 == cend && isPunct(toks[b + 1], ".") &&
            (isIdent(toks[b + 2], "ok") ||
             isIdent(toks[b + 2], "hasValue")) &&
            isPunct(toks[b + 3], "(") && isPunct(toks[b + 4], ")"))
            atomic = true;
        if (!atomic) {
            // Complex condition mentioning the variable: assume the
            // author checked it (conservative silence).
            it->second = VState::CheckedOk;
            return;
        }
        bool trueMeansOk = !negated;
        bool ok = (e.kind == EdgeKind::True) == trueMeansOk;
        it->second = ok ? VState::CheckedOk : VState::CheckedErr;
    }

    /** One statement, shared between the solver's transfer and the
     * reporting replay: when @p sink is non-null, `.value()` reads
     * in an unchecked/checked-err state are appended to it as
     * (variable, line). */
    void
    applyStmt(EState &s, const LexedFile &file, const CfgStmt &stmt,
              std::vector<std::pair<std::string, size_t>> *sink) const
    {
        if (stmt.kind == StmtKind::ScopeEnd)
            return; // spans whole compounds; inner stmts own events
        const std::vector<Token> &toks = file.tokens;

        // Binding: `[type] name = ... tryX( ... ) ...;` where every
        // declaration of tryX returns Expected<...>.
        size_t eq = stmt.end;
        int depth = 0;
        for (size_t k = stmt.begin; k < stmt.end; ++k) {
            const Token &t = toks[k];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (t.text == "=" && depth == 0) {
                bool compound =
                    (k > stmt.begin &&
                     toks[k - 1].kind == TokenKind::Punct &&
                     std::string("<>!+-*/%&|^=").find(
                         toks[k - 1].text) != std::string::npos) ||
                    (k + 1 < stmt.end && isPunct(toks[k + 1], "="));
                if (!compound) {
                    eq = k;
                    break;
                }
            }
        }
        if (eq < stmt.end && eq > stmt.begin &&
            toks[eq - 1].kind == TokenKind::Identifier &&
            !(eq >= 2 && (isPunct(toks[eq - 2], ".") ||
                          isPunct(toks[eq - 2], ">")))) {
            const std::string &name = toks[eq - 1].text;
            bool expectedRhs = false;
            for (size_t k = eq + 1; k + 1 < stmt.end; ++k)
                if (toks[k].kind == TokenKind::Identifier &&
                    isPunct(toks[k + 1], "(") &&
                    index_.returnsExpected(toks[k].text))
                    expectedRhs = true;
            if (expectedRhs) {
                if (!s.top)
                    s.vars[name] = VState::Unchecked;
                return;
            }
            // Re-assignment from a non-Expected source: stop
            // tracking the old binding.
            s.vars.erase(name);
        }

        // Event scan, left to right, so `r.ok() ? r.value() : d`
        // counts as checked before the read.
        for (size_t k = stmt.begin; k < stmt.end; ++k) {
            const Token &t = toks[k];
            if (t.kind != TokenKind::Identifier)
                continue;
            auto it = s.vars.find(t.text);
            if (it == s.vars.end())
                continue;
            if (k + 2 < stmt.end && isPunct(toks[k + 1], ".") &&
                toks[k + 2].kind == TokenKind::Identifier) {
                const std::string &m = toks[k + 2].text;
                if (m == "ok" || m == "hasValue" || m == "error" ||
                    m == "orThrow") {
                    it->second = VState::CheckedOk;
                } else if (m == "value") {
                    if (sink && !s.top &&
                        it->second != VState::CheckedOk)
                        sink->push_back({t.text, t.line});
                    it->second = VState::CheckedOk;
                }
                // valueOr and anything else: safe, no change.
                k += 2;
                continue;
            }
            // Bare use (returned, passed along, bool-tested inside a
            // larger expression): assume consumed/checked.
            it->second = VState::CheckedOk;
        }
    }

  private:
    const SymbolIndex &index_;
};

/** Member-call names that collide with std types' members
 * (ofstream::close() vs CsvWriter's Expected-returning close()). A
 * member call through one of these cannot be attributed to the
 * project overload by name alone, so the checks stay silent on it. */
bool
isStdCollidingMember(const std::string &name)
{
    static const std::set<std::string> kStdMembers = {
        "close", "open",  "clear", "reset", "get",
        "swap",  "flush", "erase", "str",
    };
    return kStdMembers.count(name) > 0;
}

/**
 * Walk left from the callee token at @p j to the start of the full
 * call expression: obj.f(), ns::f(), obj->f(), chains thereof.
 * Returns the token index of the expression's first token, or
 * `npos` when the shape is unrecognized (caller stays silent).
 */
size_t
expressionStart(const std::vector<Token> &toks, size_t begin, size_t j)
{
    size_t s = j;
    while (s > begin) {
        if (isPunct(toks[s - 1], ".")) {
            if (s >= begin + 2 &&
                toks[s - 2].kind == TokenKind::Identifier)
                s -= 2;
            else
                return std::string::npos; // (...).f() etc.
        } else if (s >= begin + 2 && isPunct(toks[s - 1], ">") &&
                   isPunct(toks[s - 2], "-")) {
            if (s >= begin + 3 &&
                toks[s - 3].kind == TokenKind::Identifier)
                s -= 3;
            else
                return std::string::npos;
        } else if (s >= begin + 2 && isPunct(toks[s - 1], ":") &&
                   isPunct(toks[s - 2], ":")) {
            if (s >= begin + 3 &&
                toks[s - 3].kind == TokenKind::Identifier)
                s -= 3;
            else
                s -= 2; // ::f() at global scope
        } else {
            break;
        }
    }
    return s;
}

/**
 * Statement-level checks, run on every function in scope whether or
 * not its CFG is degraded: a call to an Expected-returning function
 * discarded as a bare statement, `.value()` read on the call's
 * temporary, and `r = call(...)` with `r` never consulted. A degraded
 * CFG gets no path walk, so there a binding read only via .value() is
 * reported here instead.
 */
void
checkExpectedStatements(const std::string &file, const LexedFile &lexed,
                        const FunctionDef &fn, const SymbolIndex &index,
                        bool degraded, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = lexed.tokens;
    const size_t b = fn.bodyBegin;
    const size_t e = std::min(fn.bodyEnd, toks.size());
    auto report = [&](size_t line, std::string msg) {
        if (!markerNearby(lexed, line, "expected-ok"))
            out.push_back({file, line, "expected-flow", std::move(msg)});
    };

    for (size_t j = b; j + 1 < e; ++j) {
        if (toks[j].kind != TokenKind::Identifier ||
            !isPunct(toks[j + 1], "("))
            continue;
        const std::string &callee = toks[j].text;
        if (!index.returnsExpected(callee))
            continue;
        bool memberCall = j > b &&
            (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], ">"));
        if (memberCall && isStdCollidingMember(callee))
            continue;
        size_t close = matchBracket(toks, j + 1);
        if (close >= e)
            continue;

        // Right context first: a member access on the temporary.
        // ok()/error()/orThrow()/valueOr() consume it; any other
        // member is beyond the model.
        if (close + 2 < e && isPunct(toks[close + 1], ".") &&
            toks[close + 2].kind == TokenKind::Identifier) {
            if (toks[close + 2].text == "value")
                report(toks[j].line,
                       "result of " + callee +
                           "() read via .value() without an ok()/"
                           "error() check");
            continue;
        }

        size_t s = expressionStart(toks, b, j);
        if (s == std::string::npos)
            continue;

        // Left context. A (void) cast, an argument position, negation,
        // return or an if-condition is a use; only a bare statement
        // and a binding are judged here.
        const Token *prev = s > b ? &toks[s - 1] : nullptr;
        if (prev == nullptr || isPunct(*prev, ";") ||
            isPunct(*prev, "{") || isPunct(*prev, "}")) {
            if (close + 1 < e && isPunct(toks[close + 1], ";"))
                report(toks[j].line,
                       "result of " + callee +
                           "() is discarded (Expected must be "
                           "checked, consumed, or (void)-cast)");
            continue;
        }
        if (!isPunct(*prev, "=") || s < b + 2 ||
            toks[s - 2].kind != TokenKind::Identifier)
            continue;
        // var = call(...): track the variable's uses through the rest
        // of the body.
        const std::string &var = toks[s - 2].text;
        bool any_use = false, checked = false, value_only = false;
        for (size_t k = close + 1; k + 1 < e; ++k) {
            if (!isIdent(toks[k], var.c_str()))
                continue;
            // x.var is a member of something else.
            if (isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], ">"))
                continue;
            any_use = true;
            const Token &before = toks[k - 1];
            if (isPunct(toks[k + 1], ".") && k + 2 < e &&
                toks[k + 2].kind == TokenKind::Identifier &&
                !isPunct(before, "!") && !isPunct(before, "(") &&
                !isPunct(before, ",") && !isIdent(before, "return")) {
                if (toks[k + 2].text == "value")
                    value_only = true;
                else
                    checked = true; // consuming or unknown member
            } else {
                checked = true; // tested, passed on, or unknown use
            }
        }
        if (!any_use)
            report(toks[j].line, "result of " + callee + "() bound to '" +
                                     var + "' but never consulted");
        else if (degraded && value_only && !checked)
            report(toks[j].line,
                   "'" + var + "' (result of " + callee +
                       "()) read via .value() without an ok()/error() "
                       "check");
    }
}

void
checkExpectedFlow(const FileSet &files, const SymbolIndex &index,
                  std::vector<Finding> &out)
{
    for (const auto &[file, lexed] : files) {
        if (!inScope(file, "expected_flow"))
            continue;
        const ParsedFile &parsed = index.parsed(file);
        for (const FunctionDef &fn : parsed.functions) {
            Cfg cfg = buildCfg(lexed, fn);
            checkExpectedStatements(file, lexed, fn, index, cfg.degraded,
                                    out);
            if (cfg.degraded)
                continue;
            ExpectedFlowProblem problem(index);
            DataflowResult<EState> res =
                solveForward(cfg, lexed, problem);
            if (!res.converged)
                continue;
            std::set<std::pair<std::string, size_t>> reported;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                EState s = res.in[b];
                std::vector<std::pair<std::string, size_t>> hits;
                for (const CfgStmt &stmt : cfg.blocks[b].stmts)
                    problem.applyStmt(s, lexed, stmt, &hits);
                for (const auto &[var, line] : hits) {
                    if (!reported.insert({var, line}).second)
                        continue;
                    if (markerNearby(lexed, line, "expected-ok"))
                        continue;
                    out.push_back(
                        {file, line, "expected-flow",
                         "'" + var +
                             "' holds an Expected result and is "
                             "read via .value() on a path where it "
                             "was never checked ok (path " +
                             describePath(cfg, b) +
                             " in " + fn.name +
                             "()); test it with ok()/operator bool "
                             "on every path to the read, or waive "
                             "with '// snoop-lint: expected-ok'"});
                }
            }
        }
    }
}

} // namespace

// ====================================================================
// roster + entry point
// ====================================================================

bool
DeterminismRoster::memberFile(const std::string &file) const
{
    for (const std::string &m : modules)
        if (startsWith(file, m))
            return true;
    return kernelFile(file);
}

bool
DeterminismRoster::kernelFile(const std::string &file) const
{
    for (const std::string &k : kernels)
        if (file == k)
            return true;
    return false;
}

DeterminismRoster
DeterminismRoster::load(const std::string &path, std::string *error)
{
    DeterminismRoster r;
    std::ifstream in(path);
    if (!in)
        return r; // no roster: fixture-scope only
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ss(line);
        std::string directive, arg, extra;
        if (!(ss >> directive))
            continue;
        if (!(ss >> arg) || (ss >> extra)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) +
                    ": expected '<directive> <argument>'";
            continue;
        }
        if (directive == "module")
            r.modules.push_back(arg);
        else if (directive == "kernel")
            r.kernels.push_back(arg);
        else if (directive == "sanctioned")
            r.sanctioned.insert(arg);
        else if (error)
            *error = path + ":" + std::to_string(lineno) +
                ": unknown directive '" + directive + "'";
    }
    return r;
}

std::vector<Finding>
runProgramPasses(const FileSet &files, const DeterminismRoster &roster)
{
    const SymbolIndex index = SymbolIndex::build(files);
    const CallGraph graph = CallGraph::build(index, files);
    std::vector<Finding> out;
    checkFatalReachability(files, index, graph, out);
    checkNumericGuardCoverage(files, index, graph, out);
    checkFpDeterminism(files, index, roster, out);
    checkLockset(files, index, graph, out);
    checkExpectedFlow(files, index, out);
    return out;
}

} // namespace snoop::lint
