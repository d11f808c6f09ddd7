// Negative fixture for fatal-reachability's sink scope: a library
// solver path that exits the process instead of returning a
// SolveError. The __variant name stands in for a solver-path file.

#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

double
solveCell(double x)
{
    if (x < 0.0)
        fatal("negative input %g", x); // must fire: library path exit

    // An allowlisted boundary fatal is fine and must NOT fire:
    // snoop-lint: fatal-ok
    if (x > 1e9)
        fatal("input %g out of supported range", x);

    return x * 2.0;
}

} // namespace snoop
