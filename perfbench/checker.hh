/**
 * @file
 * Output checker of the benchmark: holds every sweep cell against a
 * census of its input taken apart from the core, against properties
 * the ordering schemes and predictors guarantee, and against other
 * runs of the same cell. It compares nothing with a saved copy of
 * earlier output, so it stays valid when the simulator's timing
 * model changes.
 */

#ifndef LRS_PERFBENCH_CHECKER_HH
#define LRS_PERFBENCH_CHECKER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "champsim_gen.hh"
#include "core/config.hh"
#include "core/parallel.hh"
#include "core/results.hh"
#include "trace/stream.hh"

namespace perfbench
{

/** Census of a materialised trace: a plain scan of its uops. */
Census scanTrace(const lrs::VecTrace &trace);

class Checker
{
  public:
    /**
     * One completed cell: it finished OK; retired uops, loads,
     * stores and branches equal @p census; the five load classes and
     * the four hit-miss outcomes each sum to the loads; the cycles
     * cover the retire-width bound; and the scheme's and the
     * hit-miss predictor's guarantees hold.
     */
    void cell(const std::string &key, const Census &census,
              const lrs::MachineConfig &cfg, const lrs::JobOutcome &o);

    /** Two runs of one cell agree on every counter and series. */
    void same(const std::string &what, const lrs::SimResult &a,
              const lrs::SimResult &b);

    /**
     * The sweep journal at @p path holds exactly one valid OK record
     * per cell, keyed as @p keys, carrying the cell's result.
     */
    void journal(const std::string &path,
                 const std::vector<std::string> &keys,
                 const std::vector<lrs::JobOutcome> &outcomes);

    /** Record a failure found outside the checks above. */
    void fail(const std::string &what);

    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

/**
 * Feed the checker one real result and mutated copies of it. Returns
 * the mutations it failed to reject (empty = the checker works), and
 * logs one line per mutation to @p log. @p dir receives scratch
 * journals.
 */
std::vector<std::string> checkerSelfTest(const std::string &dir,
                                         std::ostream &log);

} // namespace perfbench

#endif // LRS_PERFBENCH_CHECKER_HH
