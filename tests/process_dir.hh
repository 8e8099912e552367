/**
 * @file
 * A per-process scratch directory for the whole test binary, removed
 * when the process exits, optionally named by one TARTAN_* directory
 * variable.
 *
 * RunEnv snapshots the environment on first use, so the variable must
 * be set before any test (or static simulator state) triggers that
 * parse: define the ProcessDir as a namespace-scope static.
 */

#ifndef TARTAN_TESTS_PROCESS_DIR_HH
#define TARTAN_TESTS_PROCESS_DIR_HH

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace tartan::test {

/**
 * Makes a fresh /tmp/tartan_<tag>_<pid> and removes it at exit. Only
 * the process that made the directory removes it: a forked death-test
 * child inherits this object but has another pid.
 */
class ProcessDir
{
  public:
    explicit ProcessDir(std::string_view tag)
        : dir("/tmp/tartan_" + std::string(tag) + "_" +
              std::to_string(::getpid())),
          owner(::getpid())
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    /** Also points @p env_var at the directory. */
    ProcessDir(const char *env_var, std::string_view tag) : ProcessDir(tag)
    {
        ::setenv(env_var, dir.c_str(), 1);
    }

    ~ProcessDir()
    {
        std::error_code ec;
        if (owner == ::getpid())
            std::filesystem::remove_all(dir, ec);
    }

    ProcessDir(const ProcessDir &) = delete;
    ProcessDir &operator=(const ProcessDir &) = delete;

    /** The directory the variable names. */
    const std::string &path() const { return dir; }

  private:
    std::string dir;
    pid_t owner;  //!< the process that made the directory
};

} // namespace tartan::test

#endif // TARTAN_TESTS_PROCESS_DIR_HH
