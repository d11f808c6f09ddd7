// Negative fixture for expected-flow's statement checks: tryParse
// returns Expected<double>, one caller discards the result outright,
// another reads .value() on the call's temporary. The basename opts
// this file into the pass scope.

#include "util/expected.hh"

namespace snoop {

Expected<double>
tryParse(const std::string &text)
{
    if (text.empty())
        return makeError(SolveErrorCode::InvalidArgument, "tryParse",
                         "empty input");
    return 1.0;
}

void
consume(const std::string &text)
{
    tryParse(text); // must fire: Expected silently discarded
}

double
readValue(const std::string &text)
{
    return tryParse(text).value(); // must fire: .value() unchecked
}

} // namespace snoop
