// Negative fixture for expected-flow's path walk: tryLoad's result is
// read via .value() on one path that never checked it, and on the
// branch where ok() was established to be false -- the two
// path-sensitive cases a statement-level scan cannot see (each
// function also checks on SOME path).

#include "util/expected.hh"

namespace snoop {

Expected<double>
tryLoad(int key)
{
    if (key < 0)
        return makeError(SolveErrorCode::InvalidArgument, "tryLoad",
                         "negative key");
    return 1.0;
}

double
readMixed(int key, bool fast)
{
    auto r = tryLoad(key);
    if (fast)
        return r.value(); // must fire: unchecked on this path
    if (!r.ok())
        return 0.0;
    return r.value(); // checked on this path: silent
}

double
readErrBranch(int key)
{
    auto r = tryLoad(key);
    if (r.ok())
        return r.value(); // checked: silent
    return r.value(); // must fire: reads the not-ok branch
}

} // namespace snoop
