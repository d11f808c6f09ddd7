#pragma once

/**
 * @file
 * Whole-program passes of snoop_analyze. One entry point parses the
 * file set once into the cross-TU symbol index (lint/symbols.hh),
 * builds the call graph (lint/callgraph.hh) over it, and runs every
 * pass against that one view. Where the per-file rules
 * (lint/rules.hh) check what one line looks like, these passes check
 * what the program can *do*, and the CFG-based ones (lint/cfg.hh,
 * lint/dataflow.hh) what holds *along each path*:
 *
 *  - fatal-reachability: no `fatal()` / `abort()` / `exit()` may be
 *    transitively reachable from a `try*` solver entry point
 *    (src/mva, src/core); the finding carries the whole witness chain
 *    entry -> ... -> sink. Inside the library solver paths (src/mva,
 *    src/util/csv.*, src/core/{analyzer,sweep,solve_for}.*) a sink
 *    call is reported where it is made, whatever function holds it.
 *    Per-line opt-out: `// snoop-lint: fatal-ok` near the sink call.
 *
 *  - numeric-guard-coverage: the solver boundary functions (the
 *    try-/solve-prefixed roster in passes.cc) must route results
 *    through NumericGuard / SNOOP_NUMERIC_CHECK, directly or via a
 *    same-file helper (a helper returning SolveError counts: that is
 *    the recoverable-validation idiom of mva/solver.cc).
 *
 *  - fp-determinism: inside the bit-identity-critical modules named
 *    by tools/lint/determinism.txt, flag libm transcendental calls
 *    outside the sanctioned deterministic kernels (mvaExp2), flag
 *    range-for iteration over unordered_map/unordered_set on any
 *    CFG path that reaches an output/serialization call (hash
 *    iteration order is not part of the bit-identity contract), and
 *    in kernel files flag accumulation-order hazards (std::reduce,
 *    execution policies, `+=` folded under an unordered iteration).
 *    Per-line opt-out: `// snoop-lint: fp-ok`.
 *
 *  - lockset: must-hold analysis over std::lock_guard /
 *    std::unique_lock / std::scoped_lock / bare .lock()/.unlock(),
 *    joined by set intersection at CFG merges. An access to a
 *    SNOOP_GUARDED_BY(m) variable on a path where `m` is provably
 *    not held is reported with the witness path. RAII releases are
 *    modeled through the CFG's synthetic ScopeEnd statements; a
 *    "caller holds m" comment above the function seeds the entry
 *    lockset. Mutable static state with no annotation at all is
 *    reported when a parallelFor worker can reach it (call graph
 *    from every function launching parallelFor; const, thread_local
 *    and self-synchronizing types are exempt, and
 *    SNOOP_GUARDED_BY(internal) asserts the object synchronizes
 *    itself). Per-line opt-out: `// snoop-lint: lockset-ok`.
 *
 *  - expected-flow: Expected<...> results (calls to functions whose
 *    every declaration returns Expected) must be checked. On every
 *    parsed function a statement scan reports a call discarded as a
 *    bare statement, `.value()` read on the call's temporary, and a
 *    binding never consulted afterwards; member calls whose name
 *    collides with a std member (close, clear, ...) and `(void)`
 *    casts are exempt. On the CFG each bound variable walks the
 *    lattice {unchecked, checked-ok, checked-err}; branch edges on
 *    `r` / `r.ok()` refine the state, joins that disagree fall back
 *    to unchecked, and a `.value()` read reachable on an unchecked
 *    or checked-err path is reported with that path.
 *    Per-line opt-out: `// snoop-lint: expected-ok`.
 *
 * All passes are conservative in the same direction: where the
 * parser's view is incomplete, a CFG is degraded or a dataflow solve
 * does not converge they stay silent, except fatal-reachability,
 * which over-approximates call edges by name so a missed path is
 * impossible (a false path is refutable by reading the chain).
 * Fixture opt-in: a basename starting with bad_<rule>/good_<rule>
 * joins that pass's scope regardless of path.
 */

#include <set>
#include <string>
#include <vector>

#include "lint/include_graph.hh"
#include "lint/report.hh"

namespace snoop::lint {

/**
 * The bit-identity roster parsed from tools/lint/determinism.txt.
 * Directives (one per line, '#' comments):
 *
 *     module <path-prefix>   # files under the prefix are in scope
 *     kernel <path>          # in scope + accumulation-order checks
 *     sanctioned <function>  # its body may use libm (it IS the
 *                            # deterministic replacement)
 */
struct DeterminismRoster {
    std::vector<std::string> modules;
    std::vector<std::string> kernels;
    std::set<std::string> sanctioned;

    /** True when @p file is under any module prefix or is a kernel. */
    bool memberFile(const std::string &file) const;
    /** True when @p file is listed as a kernel. */
    bool kernelFile(const std::string &file) const;

    /** Parse @p path. A missing file yields an empty roster (fixture
     * runs have no roster); a malformed directive sets @p error. */
    static DeterminismRoster load(const std::string &path,
                                  std::string *error);
};

/** Run every whole-program pass over @p files (keys are
 * repo-relative paths, or basenames for fixture sets). Findings come
 * back unsorted; the engine orders and baselines them. */
std::vector<Finding> runProgramPasses(const FileSet &files,
                                      const DeterminismRoster &roster);

} // namespace snoop::lint
