#include "daemon.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common.hh"

extern char **environ;

namespace perfbench {

namespace {

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace

Daemon::Daemon(const std::string &bin,
               const std::vector<std::string> &args,
               const std::vector<std::string> &env)
{
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0 ||
        ::pipe2(from_child, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);

    std::vector<std::string> argv_s{bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::vector<std::string> env_s;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SNOOP_", 6) != 0)
            env_s.emplace_back(*e);
    }
    env_s.insert(env_s.end(), env.begin(), env.end());
    std::vector<char *> envp;
    for (std::string &e : env_s)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                         argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
    if (rc != 0) {
        pid_ = -1;
        closeFd(in_);
        closeFd(out_);
        throw std::runtime_error("cannot spawn " + bin + ": " +
                                 strerror(rc));
    }
}

Daemon::~Daemon()
{
    finish();
}

bool
Daemon::send(const std::string &line)
{
    std::string msg = line + '\n';
    size_t done = 0;
    while (done < msg.size()) {
        ssize_t n = ::write(in_, msg.data() + done, msg.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

bool
Daemon::recv(std::string &line)
{
    for (;;) {
        size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            line.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            if (pos_ > (1u << 16)) {
                buf_.erase(0, pos_);
                pos_ = 0;
            }
            return true;
        }
        char chunk[1 << 16];
        ssize_t n = ::read(out_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

bool
Daemon::pinTo(int cpu) const
{
    return pid_ >= 0 && perfbench::pinTo(pid_, cpu);
}

double
Daemon::peakRssMb() const
{
    return perfbench::peakRssMb(std::to_string(pid_));
}

bool
Daemon::finish(std::vector<std::string> *rest)
{
    if (pid_ < 0)
        return true;
    closeFd(in_);
    std::string line;
    while (recv(line)) {
        if (rest != nullptr)
            rest->push_back(line);
    }
    closeFd(out_);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool
pipeline(Daemon &daemon, const std::vector<std::string> &lines,
         std::vector<std::string> &out)
{
    bool sent = true;
    std::thread writer([&] {
        for (const std::string &line : lines) {
            if (!daemon.send(line)) {
                sent = false;
                break;
            }
        }
    });
    size_t got = 0;
    std::string line;
    while (got < lines.size() && daemon.recv(line)) {
        out.push_back(line);
        ++got;
    }
    writer.join();
    return sent && got == lines.size();
}

} // namespace perfbench
