#pragma once

#include "common.hh"

namespace perfbench {

/** serve_fill / serve_hot: the snoop_serve daemon over a pipe. */
void runServe(const RunConfig &cfg, Result &res);

/** sweep_grid: in-process tryRunSweep with checkpoints. */
void runSweep(const RunConfig &cfg, Result &res);

} // namespace perfbench
