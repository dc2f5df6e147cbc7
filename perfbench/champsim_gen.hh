/**
 * @file
 * Seeded ChampSim input generator for the benchmark's
 * champsim_warmfork workload.
 *
 * Writes raw 64-byte `input_instr` records (the layout documented in
 * src/trace/champsim_reader.hh) that pass the reader's plausibility
 * bounds: a non-zero instruction pointer, 0/1 branch flags with
 * branch_taken only on branches, and no memory operand equal to the
 * all-ones address. While it writes, it counts what the documented
 * decode mapping must turn each record into, so the output checker
 * can hold the simulator's retired counts against a census taken
 * without the reader or the core:
 *
 *   loads    = non-zero source_memory slots
 *   stores   = non-zero destination_memory slots (one STA+STD pair
 *              each; the core counts a store once, at its STA)
 *   branches = records with is_branch set
 *   uops     = loads + 2 * stores + branches
 *              + 1 for a record with no memory operand and no branch
 */

#ifndef LRS_PERFBENCH_CHAMPSIM_GEN_HH
#define LRS_PERFBENCH_CHAMPSIM_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Retired-work census of one trace (input scan or generator count). */
struct Census
{
    std::uint64_t uops = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    /** ChampSim records (instructions); 0 for synthetic traces. */
    std::uint64_t records = 0;
};

/** Instruction mixes of the generated traces. */
enum class ChampSimMix
{
    /** Strided and random heap loads, few stores and branches. */
    Loads,
    /** Call frames: register pushes, a body, pops of the same slots. */
    Stack,
    /** Load-compare-branch sequences and serial pointer chases. */
    Branchy,
};

const char *champSimMixName(ChampSimMix mix);

/** Every mix, in the order the workload uses them. */
const std::vector<ChampSimMix> &allChampSimMixes();

/**
 * Write @p records records of @p mix, drawn from @p seed, to @p path
 * and return their census. The same (mix, seed, records) always
 * writes the same bytes. Throws std::runtime_error on an I/O error.
 */
Census writeChampSimTrace(const std::string &path, ChampSimMix mix,
                          std::uint64_t seed, std::uint64_t records);

/** Census of one 64-byte record under the documented decode mapping. */
Census censusOfRecord(const std::uint8_t *rec);

} // namespace perfbench

#endif // LRS_PERFBENCH_CHAMPSIM_GEN_HH
