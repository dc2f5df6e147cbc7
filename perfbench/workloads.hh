/**
 * @file
 * The benchmark's three workloads and the run that times them.
 *
 * A run repeats whole rounds of one workload's sweep for a fixed
 * number of seconds and reports the median of each end-to-end
 * metric over the rounds; a traced run (kept apart, so the spans
 * never touch the timed figures) reports per-layer metrics instead.
 * Every cell of every round goes through the output checker.
 */

#ifndef LRS_PERFBENCH_WORKLOADS_HH
#define LRS_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

/** Names of the workloads, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds the timed rounds run for (at least 3 rounds). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory for inputs, checkpoints and journals. */
    std::string workDir;
};

/**
 * Write the seeded ChampSim inputs of champsim_warmfork for @p seed
 * into @p dir (exactly the files a run with that seed uses) and
 * return their census as {path: {records, uops, loads, stores,
 * branches}}.
 */
lrs::json::Value writeChampSimInputs(const std::string &dir,
                                     std::uint64_t seed);

/**
 * Run one workload. Prints a detail document (host, per-round
 * samples, check failures) and, as the last line of @p out, the
 * summary object {"correct", "attempted", "failed", "metrics"}.
 * Returns the process exit code: 0 when every check passed.
 */
int runBenchmark(const RunOptions &opts, std::ostream &out);

} // namespace perfbench

#endif // LRS_PERFBENCH_WORKLOADS_HH
