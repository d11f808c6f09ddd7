#pragma once

/**
 * @file
 * A snoop_serve child process driven over its stdin/stdout pipes, one
 * request line and one response line at a time.
 */

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class Daemon
{
  public:
    /**
     * Spawn @p bin with @p args. The child inherits this environment
     * minus every SNOOP_* variable, plus @p env ("NAME=value"), so an
     * ambient SNOOP_JOBS or SNOOP_FAULT cannot change what is measured.
     */
    Daemon(const std::string &bin, const std::vector<std::string> &args,
           const std::vector<std::string> &env = {});
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Write @p line plus a newline; false when the pipe is closed. */
    bool send(const std::string &line);

    /** Read one response line (without the newline); false on EOF. */
    bool recv(std::string &line);

    /** Restrict the child to @p cpu. */
    bool pinTo(int cpu) const;

    /** Peak resident set of the child in MiB (while it runs). */
    double peakRssMb() const;

    /**
     * Close stdin, read and return whatever the daemon still prints,
     * and wait for it to exit. Returns false when it exited non-zero.
     */
    bool finish(std::vector<std::string> *rest = nullptr);

  private:
    pid_t pid_ = -1;
    int in_ = -1;  // daemon's stdin (we write)
    int out_ = -1; // daemon's stdout (we read)
    std::string buf_;
    size_t pos_ = 0;
};

/**
 * Send @p lines to @p daemon without waiting for each reply (a writer
 * thread keeps the pipe full) and append its responses to @p out, in
 * order. False when the daemon stops answering. Used for the
 * byte-identity replays, which are not timed.
 */
bool pipeline(Daemon &daemon, const std::vector<std::string> &lines,
              std::vector<std::string> &out);

} // namespace perfbench
