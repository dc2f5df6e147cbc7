/**
 * @file
 * lrs_perfbench: the simulator's benchmark (see README.md).
 *
 *   lrs_perfbench --workload W --seed N --seconds S --trace 0|1 --workdir D
 *       run one workload in the scratch directory D/W; the last stdout
 *       line is the summary object
 *   lrs_perfbench --self-test --workdir D
 *       show that the output checker rejects every mutated result
 *   lrs_perfbench --gen-champsim D --seed N
 *       write the seeded ChampSim inputs of champsim_warmfork to
 *       D/inputs and print their census
 */

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "checker.hh"
#include "common/parse.hh"
#include "workloads.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "lrs_perfbench: " << why << "\n"
              << "usage: lrs_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n"
                 "       lrs_perfbench --self-test --workdir DIR\n"
                 "       lrs_perfbench --gen-champsim DIR --seed N\n";
    return 2;
}

/**
 * Run the workload in a forked child and return its exit code. The
 * peak resident set that getrusage() reports survives exec, so a
 * process started from run.py would report the Python interpreter's
 * peak whenever that is the larger one. A forked child's peak starts
 * from this process, still small here, so it is the workload's own.
 */
int
runForked(const perfbench::RunOptions &opts)
{
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        int rc = 1;
        try {
            rc = perfbench::runBenchmark(opts, std::cout);
        } catch (const std::exception &e) {
            std::cerr << "lrs_perfbench: " << e.what() << "\n";
        }
        std::cout.flush();
        std::cerr.flush();
        _exit(rc);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            throw std::runtime_error(std::string("waitpid: ") +
                                     std::strerror(errno));
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    std::cerr << "lrs_perfbench: workload process ended by signal "
              << WTERMSIG(status) << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    std::string genDir;
    bool selfTest = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + a);
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        const bool numeric = lrs::tryParseU64(v, n);
        if (a == "--workload") {
            opts.workload = v;
            haveWorkload = true;
        } else if (a == "--workdir") {
            opts.workDir = v;
        } else if (a == "--gen-champsim") {
            genDir = v;
        } else if (!numeric) {
            return usage("not a whole number: " + a + " " + v);
        } else if (a == "--seed") {
            opts.seed = n;
            haveSeed = true;
        } else if (a == "--seconds") {
            if (n < 1 || n > 3600)
                return usage("--seconds must be 1..3600");
            opts.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (a == "--trace") {
            if (n > 1)
                return usage("--trace must be 0 or 1");
            opts.trace = n == 1;
            haveTrace = true;
        } else {
            return usage("unknown flag " + a);
        }
    }

    try {
        if (!genDir.empty()) {
            std::cout << perfbench::writeChampSimInputs(genDir, opts.seed)
                             .dump(2)
                      << "\n";
            return 0;
        }
        if (opts.workDir.empty())
            return usage("--workdir is required");
        if (selfTest) {
            std::filesystem::create_directories(opts.workDir);
            const auto survivors =
                perfbench::checkerSelfTest(opts.workDir, std::cout);
            for (const std::string &s : survivors)
                std::cout << "FAIL: " << s << "\n";
            std::cout << (survivors.empty() ? "self-test passed: every "
                                              "mutation was rejected\n"
                                            : "self-test FAILED\n");
            return survivors.empty() ? 0 : 1;
        }
        if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
            return usage("--workload, --seed, --seconds and --trace are "
                         "required");
        bool known = false;
        for (const std::string &w : perfbench::workloadNames())
            known = known || w == opts.workload;
        if (!known)
            return usage("unknown workload " + opts.workload);
        opts.workDir += "/" + opts.workload;
        return runForked(opts);
    } catch (const std::exception &e) {
        std::cerr << "lrs_perfbench: " << e.what() << "\n";
        return 1;
    }
}
