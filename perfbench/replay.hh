/**
 * @file
 * Standalone replays for the traced run: each workload's own
 * load/store stream driven through fresh instances of one layer
 * (CHT, hit-miss predictor, bank predictor, cache hierarchy, MOB), so
 * the layer's cost per operation is timed from outside the core with
 * nothing else in the loop.
 */

#ifndef LRS_PERFBENCH_REPLAY_HH
#define LRS_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "trace/stream.hh"

namespace perfbench
{

/** Host time and operation count of one replayed layer. */
struct LayerCost
{
    double seconds = 0.0;
    std::uint64_t ops = 0;

    double
    nsPerOp() const
    {
        return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
    }
};

/** What the replays cost over every trace of a workload. */
struct ReplayCosts
{
    LayerCost cht;       ///< Cht::predict + Cht::update per load
    LayerCost hmp;       ///< predictMiss + update per load
    LayerCost bank;      ///< BankPredictor::predict + update per load
    LayerCost hierarchy; ///< MemoryHierarchy::access per load or STA
    LayerCost mob;       ///< Mob insert / execute / retire / query
};

/**
 * Replay @p traces through the layers @p cfgs instantiate: a
 * predictor is replayed only when some config uses it (its cost
 * stays 0 otherwise); the hierarchy and the MOB always are. Counts
 * are exact and repeat identically; times are host time.
 */
ReplayCosts replayLayers(const std::vector<const lrs::VecTrace *> &traces,
                         const std::vector<lrs::MachineConfig> &cfgs);

} // namespace perfbench

#endif // LRS_PERFBENCH_REPLAY_HH
