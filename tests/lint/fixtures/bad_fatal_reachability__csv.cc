// Negative fixture for fatal-reachability's sink scope covering the
// CSV writer path: result emission runs on library paths (sweep CSVs,
// bench emitters), so a planted fatal() on stream failure must fire
// the rule. The __variant name puts this fixture in the sink scope,
// the way src/util/csv.* is.

#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

void
writeRow(bool stream_ok, const char *path)
{
    if (!stream_ok)
        fatal("CsvWriter: write to '%s' failed", path); // must fire
}

} // namespace snoop
