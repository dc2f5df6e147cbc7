#include "workloads.hh"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

#include "champsim_gen.hh"
#include "checker.hh"
#include "common/buildinfo.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/profiler.hh"
#include "core/core.hh"
#include "core/grid.hh"
#include "core/parallel.hh"
#include "core/runner.hh"
#include "core/snapshot.hh"
#include "core/supervisor.hh"
#include "replay.hh"
#include "trace/library.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using lrs::json::Value;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
processCpuSeconds()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

unsigned
poolWorkers()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

// --- workload definitions --------------------------------------------

/** One grid of a workload; its keys are prefixed with @c label. */
struct GridDef
{
    std::string label;
    std::string text; ///< grid INI (core/grid.hh)
    /**
     * Instances of the grid per round, each with its own trace seeds
     * drawn from the run's seed: more independent inputs per round,
     * so a run's figures depend less on what one seed happens to
     * generate.
     */
    unsigned copies = 1;
};

struct WorkloadDef
{
    std::string name;
    unsigned workers = 1;
    std::vector<GridDef> grids;
    /**
     * Warm-fork sweep: one grid run twice through SweepSupervisor,
     * a cold pass writing warm-up checkpoints and a pass reusing
     * them. Its synthetic trace keeps its library seed, because
     * prepareWarmupSnapshots() rebuilds it by name.
     */
    bool warmfork = false;
};

/** The paper machine's CHT: 2K-entry 4-way Full, 2-bit, distances. */
const char *const kPaperCht = "cht_kind = full\n"
                              "cht_entries = 2048\n"
                              "cht_assoc = 4\n"
                              "cht_counter_bits = 2\n"
                              "cht_track_distance = true\n";

constexpr std::uint64_t kNtLen = 120000;
constexpr std::uint64_t kSparseLen = 40000;
constexpr unsigned kSparseCopies = 8;
constexpr std::uint64_t kChampSimRecords = 40000;
constexpr std::uint64_t kWarmforkLen = 80000;
constexpr std::uint64_t kWarmupCycles = 15000;

std::string
champSimPath(const std::string &dir, ChampSimMix mix)
{
    return dir + "/inputs/cs_" + champSimMixName(mix) + ".champsim";
}

/** Write every ChampSim input of @p seed; their census by path. */
std::map<std::string, Census>
writeChampSimFiles(const std::string &dir, std::uint64_t seed)
{
    fs::create_directories(dir + "/inputs");
    std::map<std::string, Census> out;
    for (ChampSimMix m : allChampSimMixes()) {
        const std::string path = champSimPath(dir, m);
        out[path] = writeChampSimTrace(path, m, seed, kChampSimRecords);
    }
    return out;
}

WorkloadDef
defineWorkload(const std::string &name, const std::string &dir)
{
    WorkloadDef w;
    w.name = name;
    if (name == "nt_grid") {
        // Figure 7: the SysmarkNT traces x allSchemes() (the grid's
        // default scheme list) on the paper machine.
        w.workers = poolWorkers();
        w.grids.push_back(
            {"", "traces = cd ex fl pd pm pp wd wp\nlen = " +
                     std::to_string(kNtLen) + "\n" + kPaperCht});
    } else if (name == "sparse_chase") {
        w.workers = 1;
        w.grids.push_back({"sparse:",
                           "traces = gcmark wd\nschemes = traditional\n"
                           "len = " + std::to_string(kSparseLen) +
                               "\nmem_latency = 2000\nhmp = perfect\n",
                           kSparseCopies});
        w.grids.push_back({"default:",
                           "traces = gcmark\nschemes = traditional\n"
                           "len = " + std::to_string(kSparseLen) + "\n",
                           kSparseCopies});
    } else if (name == "champsim_warmfork") {
        w.workers = poolWorkers();
        w.warmfork = true;
        std::string traces = "traces =";
        for (ChampSimMix m : allChampSimMixes())
            traces += " champsim:" + champSimPath(dir, m);
        w.grids.push_back(
            {"", traces + " gcc\n"
                          "schemes = traditional, inclusive, exclusive\n"
                          "len = " + std::to_string(kWarmforkLen) + "\n" +
                     kPaperCht +
                     "hmp = chooser\nbank_mode = sliced\nnum_banks = 2\n"
                     "bank_pred = A\n"
                     "warmup_snapshot = " + std::to_string(kWarmupCycles) +
                     "\nsnapshot_dir = " + dir + "/snapshots\n"});
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

/**
 * A workload's grids expanded into cells: one block per grid copy,
 * each block in buildGridJobs() (trace-major) order.
 */
struct Cells
{
    std::vector<lrs::BatchGrid> grids;
    std::vector<lrs::SimJob> jobs;
    std::vector<std::string> keys;
    /** (grid index, first cell) of each block. */
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
};

/** Parse, expand, reseed and validate: the sweep's set-up work. */
Cells
buildCells(const WorkloadDef &w, std::uint64_t seed)
{
    Cells c;
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        const GridDef &def = w.grids[g];
        std::istringstream is(def.text);
        c.grids.push_back(lrs::parseBatchGrid(is, w.name));
        std::vector<lrs::SimJob> jobs;
        std::vector<std::string> keys;
        lrs::buildGridJobs(c.grids.back(), jobs, keys);
        for (unsigned copy = 0; copy < def.copies; ++copy) {
            c.blocks.emplace_back(g, c.jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                lrs::SimJob j = jobs[i];
                if (!w.warmfork && j.trace.champsimPath.empty())
                    j.trace.seed =
                        splitmix(j.trace.seed ^ splitmix(splitmix(seed) + copy)) | 1;
                j.cfg.validateOrThrow();
                c.jobs.push_back(std::move(j));
                c.keys.push_back(def.label + keys[i] +
                                 (def.copies > 1
                                      ? "#" + std::to_string(copy)
                                      : ""));
            }
        }
    }
    return c;
}

/** Identity of a cell's input: trace name plus generator seed. */
std::string
inputId(const lrs::TraceParams &tp)
{
    return tp.name + "#" + std::to_string(tp.seed);
}

// --- one round -------------------------------------------------------

/** Per-cell spans of a traced round, around calls into each layer. */
struct CellSpans
{
    double synthGen = 0.0;    ///< TraceLibrary::make, synthetic
    double champDecode = 0.0; ///< TraceLibrary::make -> readChampSimFile
    double core = 0.0;        ///< OooCore construction .. run/finishRun
    double snapLoad = 0.0;    ///< readSnapshot
    std::uint64_t synthUops = 0;
    std::uint64_t champRecords = 0;
    std::uint64_t builds = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mobInserted = 0;
};

struct Pass
{
    Cells cells;
    std::vector<lrs::JobOutcome> outcomes;
    std::string journal; ///< checkpoint journal (warm-fork passes)
};

struct Round
{
    double wall = 0.0;
    double cpu = 0.0;       ///< process CPU time over the round
    double setup = 0.0;
    double sweep = 0.0;     ///< wall - setup: cells and rendering
    double cellPhase = 0.0; ///< pool / supervisor run only
    double render = 0.0;
    std::uint64_t renderBytes = 0;
    std::uint64_t simUops = 0;   ///< retired during the sweep
    std::uint64_t simCycles = 0; ///< simulated during the sweep
    std::vector<double> cellSeconds;
    std::vector<Pass> passes;
    // Traced rounds only.
    std::vector<CellSpans> spans;
    double stage[lrs::prof::kNumStages] = {};
};

class Workload
{
  public:
    explicit Workload(const RunOptions &opts)
        : opts_(opts), def_(defineWorkload(opts.workload, opts.workDir))
    {
    }

    const WorkloadDef &def() const { return def_; }
    const RunOptions &opts() const { return opts_; }

    /**
     * Write the inputs and take their census (before any timing).
     * Each synthetic trace is built, scanned and dropped, so only the
     * census stays in memory and peak_rss_mb is the simulator's.
     */
    void
    prepareInputs()
    {
        fs::remove_all(opts_.workDir);
        fs::create_directories(opts_.workDir);
        if (def_.warmfork)
            champsim_ = writeChampSimFiles(opts_.workDir, opts_.seed);
        const Cells cells = buildCells(def_, opts_.seed);
        for (const lrs::SimJob &j : cells.jobs) {
            const std::string id = inputId(j.trace);
            if (census_.count(id))
                continue;
            inputs_.emplace(id, j.trace);
            census_[id] = j.trace.champsimPath.empty()
                              ? scanTrace(*lrs::TraceLibrary::make(j.trace))
                              : champsim_.at(j.trace.champsimPath);
        }
    }

    const Census &
    census(const lrs::SimJob &j) const
    {
        return census_.at(inputId(j.trace));
    }

    /** Every distinct input of the workload, built anew. */
    std::vector<std::unique_ptr<lrs::VecTrace>>
    buildTraces() const
    {
        std::vector<std::unique_ptr<lrs::VecTrace>> v;
        for (const auto &[id, tp] : inputs_)
            v.push_back(lrs::TraceLibrary::make(tp));
        return v;
    }

    /** One whole round: every pass of the workload's sweep. */
    Round
    runRound(bool traced)
    {
        Round r;
        const double cpu0 = processCpuSeconds();
        const std::size_t passes = def_.warmfork ? 2 : 1;
        for (std::size_t p = 0; p < passes; ++p) {
            if (def_.warmfork && p == 0)
                fs::remove_all(opts_.workDir + "/snapshots");
            runPass(r, p, traced);
        }
        r.sweep = r.wall - r.setup;
        r.cpu = processCpuSeconds() - cpu0;
        countSimulated(r);
        return r;
    }

  private:
    /** Checkpoint uops and cycles of a warm-forked cell's trace. */
    std::pair<std::uint64_t, std::uint64_t>
    checkpointWork(const std::string &snapPath)
    {
        auto it = checkpoints_.find(snapPath);
        if (it == checkpoints_.end()) {
            const lrs::SnapshotImage img = lrs::readSnapshot(snapPath);
            // Retired uops count live in the result section; its
            // cycle count is only closed out by finishRun().
            const std::uint64_t uops =
                img.state.at("result").at("uops").asU64();
            it = checkpoints_
                     .emplace(snapPath, std::make_pair(uops, img.cycle))
                     .first;
        }
        return it->second;
    }

    /**
     * Uops and cycles the sweep simulated: a cell forked from a
     * warm-up checkpoint simulates only what follows it.
     */
    void
    countSimulated(Round &r)
    {
        std::uint64_t uops = 0, cycles = 0;
        for (const Pass &p : r.passes) {
            for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
                const lrs::SimResult &res = p.outcomes[i].result;
                uops += res.uops;
                cycles += res.cycles;
                const std::string &snap = p.cells.jobs[i].fromSnapshot;
                if (!snap.empty()) {
                    const auto [cu, cc] = checkpointWork(snap);
                    uops -= std::min(cu, res.uops);
                    cycles -= std::min(cc, res.cycles);
                }
            }
        }
        r.simUops = uops;
        r.simCycles = cycles;
    }

    /**
     * One cell as lrs::runOneSimJob() runs it, with spans around each
     * layer call. It is a copy of that function's steps, so its
     * trace.builds is one build per cell by construction: a change
     * that makes runOneSimJob() share or cache traces must change this
     * copy too, or the trace.* figures go on showing per-cell builds.
     */
    lrs::JobOutcome
    tracedCell(const lrs::SimJob &job, CellSpans &sp) const
    {
        lrs::JobOutcome o;
        try {
            auto t0 = Clock::now();
            auto trace = lrs::TraceLibrary::make(job.trace);
            const double build = since(t0);
            ++sp.builds;
            if (job.trace.champsimPath.empty()) {
                sp.synthGen += build;
                sp.synthUops += trace->size();
            } else {
                sp.champDecode += build;
                sp.champRecords += census(job).records;
            }
            t0 = Clock::now();
            lrs::OooCore core(job.cfg);
            if (!job.fromSnapshot.empty()) {
                double coreSoFar = since(t0);
                const auto l0 = Clock::now();
                const lrs::SnapshotImage img =
                    lrs::readSnapshot(job.fromSnapshot);
                sp.snapLoad += since(l0);
                t0 = Clock::now();
                lrs::restoreSnapshot(img, core, *trace);
                core.advanceTo(*trace);
                o.result = core.finishRun();
                sp.core += coreSoFar + since(t0);
            } else {
                o.result = core.run(*trace);
                sp.core += since(t0);
            }
            const lrs::StatsRegistry &reg = core.stats();
            const auto count = [&](const char *name) {
                return static_cast<std::uint64_t>(reg.value(name));
            };
            sp.l1Accesses += count("mem.l1.hits") + count("mem.l1.misses") +
                             count("mem.l1.dynamic_misses");
            sp.l1Misses += count("mem.l1.misses");
            sp.l2Misses += count("mem.l2.misses");
            sp.mobInserted += count("mem.mob.inserted");
        } catch (const std::exception &e) {
            lrs::classifyJobException(o, e);
        }
        return o;
    }

    void
    runPass(Round &r, std::size_t p, bool traced)
    {
        Pass pass;
        std::vector<double> cellSec;
        std::vector<CellSpans> spans;
        const auto cell = [&](std::size_t i) {
            const auto c0 = Clock::now();
            lrs::JobOutcome o = traced
                                    ? tracedCell(pass.cells.jobs[i], spans[i])
                                    : lrs::runOneSimJob(pass.cells.jobs[i]);
            cellSec[i] = since(c0);
            return o;
        };

        const auto t0 = Clock::now();
        pass.cells = buildCells(def_, opts_.seed);
        const std::size_t n = pass.cells.jobs.size();
        cellSec.assign(n, 0.0);
        spans.assign(n, CellSpans{});
        std::unique_ptr<lrs::SweepSupervisor> sup;
        std::unique_ptr<lrs::SimJobPool> pool;
        if (def_.warmfork) {
            const lrs::BatchGrid &grid = pass.cells.grids.front();
            lrs::prepareWarmupSnapshots(grid, grid.snapshotDir, def_.workers);
            lrs::attachWarmupSnapshots(grid, grid.snapshotDir,
                                       pass.cells.jobs);
            lrs::SweepOptions so;
            so.journalPath = opts_.workDir + (p == 0 ? "/cold.journal"
                                                     : "/reuse.journal");
            so.workers = def_.workers;
            pass.journal = so.journalPath;
            sup = std::make_unique<lrs::SweepSupervisor>(so);
        } else {
            pool = std::make_unique<lrs::SimJobPool>(def_.workers);
        }
        r.setup += since(t0);

        const auto c0 = Clock::now();
        lrs::prof::resetAll();
        if (sup) {
            pass.outcomes = sup->run(
                n, pass.cells.keys,
                [&](std::size_t i, unsigned) { return cell(i); });
        } else {
            pass.outcomes.assign(n, lrs::JobOutcome{});
            pool->forEach(n,
                          [&](std::size_t i) { pass.outcomes[i] = cell(i); });
        }
        r.cellPhase += since(c0);
        collectStages(r, traced);

        // The supervisor already rendered each OK cell (resultJson);
        // pool cells are rendered here, as a batch report does.
        const auto g0 = Clock::now();
        Value doc = Value::array();
        for (const lrs::JobOutcome &o : pass.outcomes)
            doc.push(sup ? o.resultJson : o.result.toJson());
        const std::string text = doc.dump();
        r.render += since(g0);
        r.renderBytes += text.size();
        r.wall += since(t0);
        r.cellSeconds.insert(r.cellSeconds.end(), cellSec.begin(),
                             cellSec.end());
        r.spans.insert(r.spans.end(), spans.begin(), spans.end());
        r.passes.push_back(std::move(pass));
    }

    static void
    collectStages(Round &r, bool traced)
    {
        if (!traced)
            return;
        const double tps = lrs::prof::ticksPerSecond();
        for (std::size_t s = 0; s < lrs::prof::kNumStages; ++s) {
            r.stage[s] += static_cast<double>(lrs::prof::stageTicks(
                              static_cast<lrs::prof::Stage>(s))) /
                          tps;
        }
    }

    RunOptions opts_;
    WorkloadDef def_;
    std::map<std::string, Census> champsim_; ///< by path
    std::map<std::string, Census> census_;   ///< by inputId
    std::map<std::string, lrs::TraceParams> inputs_; ///< by inputId
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        checkpoints_;
};

// --- checks ----------------------------------------------------------

/** Census, property and repeatability checks of one finished round. */
void
checkRound(Workload &w, const Round &r, const Round *first, Checker &chk)
{
    for (std::size_t p = 0; p < r.passes.size(); ++p) {
        const Pass &pass = r.passes[p];
        for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
            const lrs::SimJob &job = pass.cells.jobs[i];
            const std::string &key = pass.cells.keys[i];
            chk.cell(key, w.census(job), job.cfg, pass.outcomes[i]);
            if (first)
                chk.same(key + " vs the first round",
                         first->passes[p].outcomes[i].result,
                         pass.outcomes[i].result);
        }
        if (!pass.journal.empty())
            chk.journal(pass.journal, pass.cells.keys, pass.outcomes);
    }
    if (w.def().warmfork) {
        const Pass &cold = r.passes[0];
        const Pass &reuse = r.passes[1];
        for (std::size_t i = 0; i < cold.outcomes.size(); ++i)
            chk.same(cold.cells.keys[i] + " reuse vs cold pass",
                     cold.outcomes[i].result, reuse.outcomes[i].result);
    }
}

/**
 * Checks that re-run cells outside the timed rounds: one sampled
 * cell per trace serially outside the pool, one sampled cell with
 * skip-ahead off, and (warm-fork) each trace's base-config cell run
 * cold against its checkpoint-restored result.
 */
void
checkReruns(Workload &w, const Round &r, Checker &chk)
{
    const Pass &pass = r.passes.back();
    const Cells &cells = pass.cells;
    const std::uint64_t seed = w.opts().seed;
    for (const auto &[g, offset] : cells.blocks) {
        const lrs::BatchGrid &grid = cells.grids[g];
        const std::size_t ns = grid.schemes.size();
        for (std::size_t t = 0; t < grid.traces.size(); ++t) {
            const std::size_t i = offset + t * ns + (seed + t) % ns;
            chk.same(cells.keys[i] + " serial vs pool",
                     lrs::runOneSimJob(cells.jobs[i]).result,
                     pass.outcomes[i].result);
            if (!w.def().warmfork)
                continue;
            for (std::size_t s = 0; s < ns; ++s) {
                const std::size_t b = offset + t * ns + s;
                if (grid.schemes[s] != grid.base.scheme)
                    continue;
                lrs::SimJob cold = cells.jobs[b];
                cold.fromSnapshot.clear();
                chk.same(cells.keys[b] + " restored vs cold",
                         lrs::runOneSimJob(cold).result,
                         pass.outcomes[b].result);
            }
        }
    }
    const std::size_t i = seed % cells.jobs.size();
    lrs::setCycleSkipAhead(false);
    const lrs::JobOutcome stepped = lrs::runOneSimJob(cells.jobs[i]);
    lrs::setCycleSkipAhead(true);
    chk.same(cells.keys[i] + " skip-ahead off vs on", stepped.result,
             pass.outcomes[i].result);
}

// --- reporting -------------------------------------------------------

/** CPU brand string from the processor itself (no file is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string m(brand);
    const auto first = m.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : m.substr(first);
#else
    return "unknown";
#endif
}

Value
hostJson()
{
    Value v = lrs::buildProvenanceJson();
    v.set("cpu_model", cpuModel());
    v.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    return v;
}

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Ordered (name, unit, value) metrics of one report. */
struct Metrics
{
    std::vector<std::tuple<std::string, std::string, double>> rows;

    void
    add(const std::string &name, const std::string &unit, double v)
    {
        rows.emplace_back(name, unit, v);
    }

    Value
    json() const
    {
        Value m = Value::object();
        for (const auto &[name, unit, v] : rows) {
            Value e = Value::object();
            e.set("value", v);
            e.set("unit", unit);
            m.set(name, std::move(e));
        }
        return m;
    }
};

Metrics
endToEnd(const std::vector<Round> &rounds, double rssMiB)
{
    std::vector<double> wall, setup, ups, cps, cells;
    for (const Round &r : rounds) {
        wall.push_back(r.wall);
        setup.push_back(r.setup);
        ups.push_back(static_cast<double>(r.simUops) / r.sweep);
        cps.push_back(static_cast<double>(r.simCycles) / r.sweep);
        cells.insert(cells.end(), r.cellSeconds.begin(), r.cellSeconds.end());
    }
    Metrics m;
    m.add("wall_s", "s", median(wall));
    m.add("setup_s", "s", median(setup));
    m.add("sim_uops_per_s", "uops/s", median(ups));
    m.add("sim_cycles_per_s", "cycles/s", median(cps));
    m.add("cell_s_p50", "s", median(cells));
    m.add("peak_rss_mb", "MiB", rssMiB);
    return m;
}

/** Exact per-layer counts of one traced round. */
std::map<std::string, double>
layerCounts(const Round &r, const ReplayCosts &rc, std::uint64_t journalRecs,
            std::uint64_t snapBytes)
{
    CellSpans t;
    for (const CellSpans &s : r.spans) {
        t.synthUops += s.synthUops;
        t.champRecords += s.champRecords;
        t.builds += s.builds;
        t.l1Accesses += s.l1Accesses;
        t.l1Misses += s.l1Misses;
        t.l2Misses += s.l2Misses;
        t.mobInserted += s.mobInserted;
    }
    lrs::SimResult sum;
    for (const Pass &p : r.passes) {
        for (const lrs::JobOutcome &o : p.outcomes) {
            const lrs::SimResult &x = o.result;
            sum.uops += x.uops;
            sum.wastedIssues += x.wastedIssues;
            sum.replayedUops += x.replayedUops;
            sum.ancPc += x.ancPc;
            sum.acPnc += x.acPnc;
            sum.ahPm += x.ahPm;
            sum.amPh += x.amPh;
            sum.bankMispredicts += x.bankMispredicts;
            sum.forwarded += x.forwarded;
            sum.collisionPenalties += x.collisionPenalties;
        }
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"trace.synth.uops", d(t.synthUops)},
        {"trace.champsim.records", d(t.champRecords)},
        {"trace.builds", d(t.builds)},
        {"core.sim_cycles", d(r.simCycles)},
        {"core.uops", d(r.simUops)},
        {"core.wasted_issues", d(sum.wastedIssues)},
        {"core.replayed_uops", d(sum.replayedUops)},
        {"core.issue_useful_ratio",
         sum.uops ? d(sum.uops) / d(sum.uops + sum.wastedIssues) : 0.0},
        {"predictors.cht.mispredicts", d(sum.ancPc + sum.acPnc)},
        {"predictors.hmp.mispredicts", d(sum.ahPm + sum.amPh)},
        {"predictors.bank.mispredicts", d(sum.bankMispredicts)},
        {"memory.hierarchy.accesses", d(t.l1Accesses)},
        {"memory.l1.misses", d(t.l1Misses)},
        {"memory.l2.misses", d(t.l2Misses)},
        {"memory.mob.inserted", d(t.mobInserted)},
        {"memory.forwarded", d(sum.forwarded)},
        {"memory.collision_penalties", d(sum.collisionPenalties)},
        {"harness.journal.records", d(journalRecs)},
        {"harness.snapshot.bytes", d(snapBytes)},
        {"harness.json.bytes", d(static_cast<std::uint64_t>(r.renderBytes))},
        {"replay.ops.cht", d(rc.cht.ops)},
        {"replay.ops.hmp", d(rc.hmp.ops)},
        {"replay.ops.bank", d(rc.bank.ops)},
        {"replay.ops.hierarchy", d(rc.hierarchy.ops)},
        {"replay.ops.mob", d(rc.mob.ops)},
    };
}

/** Host times of one traced round, with its replays. */
struct LayerTimes
{
    double synthGen = 0, champDecode = 0, core = 0, snapLoad = 0;
    double stages[lrs::prof::kNumStages] = {};
    double busy = 0, idle = 0, efficiency = 0;
    double journalAppend = 0, snapSave = 0, render = 0;
    ReplayCosts replay;
};

/**
 * Time the layers of traced round @p r into @p t: the cells' spans,
 * the standalone replays, and (warm-fork) the journal and snapshot
 * replays. Returns the round's exact counts.
 */
std::map<std::string, double>
measureLayers(const Workload &w, const Round &r,
              const std::vector<lrs::MachineConfig> &cfgs, LayerTimes &t)
{
    for (const CellSpans &s : r.spans) {
        t.synthGen += s.synthGen;
        t.champDecode += s.champDecode;
        t.core += s.core;
        t.snapLoad += s.snapLoad;
    }
    std::copy(std::begin(r.stage), std::end(r.stage), t.stages);
    for (double c : r.cellSeconds)
        t.busy += c;
    const double capacity = w.def().workers * r.cellPhase;
    t.idle = capacity - t.busy;
    t.efficiency = capacity > 0 ? t.busy / capacity : 0.0;
    t.render = r.render;
    {
        const auto traces = w.buildTraces();
        std::vector<const lrs::VecTrace *> v;
        for (const auto &tr : traces)
            v.push_back(tr.get());
        t.replay = replayLayers(v, cfgs);
    }

    std::uint64_t journalRecs = 0, snapBytes = 0;
    if (w.def().warmfork) {
        const std::string &dir = w.opts().workDir;
        // Journal: the round's records appended again to a fresh
        // journal, one fsync'd write each.
        std::vector<Value> recs;
        for (const Pass &p : r.passes)
            for (Value &v : lrs::readJournal(p.journal))
                recs.push_back(std::move(v));
        {
            lrs::JournalWriter jw(dir + "/replay.journal", true);
            const auto j0 = Clock::now();
            for (const Value &v : recs)
                jw.append(v);
            t.journalAppend = since(j0);
        }
        journalRecs = recs.size();
        // Snapshots: each warm-up checkpoint saved again from a
        // machine restored out of it.
        const lrs::BatchGrid &grid = r.passes[0].cells.grids[0];
        for (const std::string &name : grid.traces) {
            const std::string snap =
                lrs::warmupSnapshotPath(grid.snapshotDir, name);
            const lrs::SnapshotImage img = lrs::readSnapshot(snap);
            auto trace = lrs::TraceLibrary::make(
                lrs::TraceLibrary::byName(name, grid.len));
            lrs::OooCore core(grid.base);
            lrs::restoreSnapshot(img, core, *trace);
            const auto s0 = Clock::now();
            lrs::writeSnapshot(dir + "/replay.snap", core, *trace,
                               img.target);
            t.snapSave += since(s0);
            snapBytes += fs::file_size(snap);
        }
    }
    return layerCounts(r, t.replay, journalRecs, snapBytes);
}

/**
 * The per-layer metrics, in BENCHMARK.json order: times are the mean
 * over the traced rounds @p lt, counts those of the first round.
 */
Metrics
layerMetrics(const std::vector<LayerTimes> &lt,
             const std::map<std::string, double> &c, double untracedWall,
             double tracedWall)
{
    const auto avg = [&](auto get) {
        double s = 0;
        for (const LayerTimes &t : lt)
            s += get(t);
        return s / static_cast<double>(lt.size());
    };
    const auto per = [](double secs, double n) {
        return n > 0 ? secs * 1e9 / n : 0.0;
    };
    Metrics m;
    const auto count = [&](const std::string &name, const char *unit) {
        m.add(name, unit, c.at(name));
    };

    const double gen = avg([](const LayerTimes &t) { return t.synthGen; });
    const double decode =
        avg([](const LayerTimes &t) { return t.champDecode; });
    m.add("trace.synth.gen_s", "s", gen);
    count("trace.synth.uops", "count");
    m.add("trace.synth.ns_per_uop", "ns", per(gen, c.at("trace.synth.uops")));
    m.add("trace.champsim.decode_s", "s", decode);
    count("trace.champsim.records", "count");
    m.add("trace.champsim.ns_per_record", "ns",
          per(decode, c.at("trace.champsim.records")));
    count("trace.builds", "count");

    const double runS = avg([](const LayerTimes &t) { return t.core; });
    m.add("core.run_s", "s", runS);
    m.add("core.ns_per_uop", "ns", per(runS, c.at("core.uops")));
    m.add("core.ns_per_sim_cycle", "ns", per(runS, c.at("core.sim_cycles")));
    count("core.sim_cycles", "count");
    count("core.uops", "count");
    count("core.wasted_issues", "count");
    count("core.replayed_uops", "count");
    count("core.issue_useful_ratio", "ratio");
    double stageSum = 0;
    for (std::size_t s = 0; s < lrs::prof::kNumStages; ++s) {
        const double v = avg([s](const LayerTimes &t) { return t.stages[s]; });
        stageSum += v;
        m.add(std::string("core.") +
                  lrs::prof::stageName(static_cast<lrs::prof::Stage>(s)) +
                  "_s",
              "s", v);
    }
    m.add("core.unattributed_s", "s", runS - stageSum);

    m.add("predictors.cht.ns_per_op", "ns",
          avg([](const LayerTimes &t) { return t.replay.cht.nsPerOp(); }));
    m.add("predictors.hmp.ns_per_op", "ns",
          avg([](const LayerTimes &t) { return t.replay.hmp.nsPerOp(); }));
    m.add("predictors.bank.ns_per_op", "ns",
          avg([](const LayerTimes &t) { return t.replay.bank.nsPerOp(); }));
    count("predictors.cht.mispredicts", "count");
    count("predictors.hmp.mispredicts", "count");
    count("predictors.bank.mispredicts", "count");

    m.add("memory.hierarchy.ns_per_access", "ns",
          avg([](const LayerTimes &t) {
              return t.replay.hierarchy.nsPerOp();
          }));
    count("memory.hierarchy.accesses", "count");
    count("memory.l1.misses", "count");
    count("memory.l2.misses", "count");
    m.add("memory.mob.ns_per_op", "ns",
          avg([](const LayerTimes &t) { return t.replay.mob.nsPerOp(); }));
    count("memory.mob.inserted", "count");
    count("memory.forwarded", "count");
    count("memory.collision_penalties", "count");

    m.add("harness.pool.busy_s", "s",
          avg([](const LayerTimes &t) { return t.busy; }));
    m.add("harness.pool.idle_s", "s",
          avg([](const LayerTimes &t) { return t.idle; }));
    m.add("harness.pool.efficiency", "ratio",
          avg([](const LayerTimes &t) { return t.efficiency; }));
    m.add("harness.journal.append_s", "s",
          avg([](const LayerTimes &t) { return t.journalAppend; }));
    count("harness.journal.records", "count");
    m.add("harness.snapshot.save_s", "s",
          avg([](const LayerTimes &t) { return t.snapSave; }));
    m.add("harness.snapshot.load_s", "s",
          avg([](const LayerTimes &t) { return t.snapLoad; }));
    count("harness.snapshot.bytes", "bytes");
    m.add("harness.json.render_s", "s",
          avg([](const LayerTimes &t) { return t.render; }));
    count("harness.json.bytes", "bytes");

    m.add("tracing.traced_wall_s", "s", tracedWall);
    m.add("tracing.untraced_wall_s", "s", untracedWall);
    m.add("tracing.overhead_s", "s", tracedWall - untracedWall);
    return m;
}

} // namespace

Value
writeChampSimInputs(const std::string &dir, std::uint64_t seed)
{
    Value doc = Value::object();
    for (const auto &[path, c] : writeChampSimFiles(dir, seed)) {
        Value e = Value::object();
        e.set("records", c.records);
        e.set("uops", c.uops);
        e.set("loads", c.loads);
        e.set("stores", c.stores);
        e.set("branches", c.branches);
        doc.set(path, std::move(e));
    }
    return doc;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "nt_grid", "sparse_chase", "champsim_warmfork"};
    return kNames;
}

int
runBenchmark(const RunOptions &opts, std::ostream &out)
{
    Workload w(opts);
    Checker chk;
    w.prepareInputs();

    // The checker must reject every mutated result before its verdict
    // on the real ones means anything.
    std::ostringstream selfLog;
    for (const std::string &m : checkerSelfTest(opts.workDir, selfLog))
        chk.fail("checker self-test: mutation '" + m + "' not rejected");

    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const Round &r) {
        for (const Pass &p : r.passes) {
            for (const lrs::JobOutcome &o : p.outcomes) {
                ++attempted;
                failed += o.status != lrs::CellStatus::Ok;
            }
        }
    };

    // Warm-up round: caches, allocator and lazy set-up settle; its
    // cells are checked and counted but not timed.
    Round first = w.runRound(false);
    checkRound(w, first, nullptr, chk);
    account(first);

    std::vector<Round> timed;
    const auto keep = [&](Round r) {
        checkRound(w, r, &first, chk);
        account(r);
        // Keep timings; drop outcomes of all but the latest round.
        if (!timed.empty())
            timed.back().passes.clear();
        timed.push_back(std::move(r));
    };

    Value doc = Value::object();
    doc.set("host", hostJson());
    doc.set("workload", opts.workload);
    doc.set("seed", opts.seed);
    doc.set("trace", opts.trace);
    Metrics metrics;

    if (!opts.trace) {
        const auto t0 = Clock::now();
        while (timed.size() < 3 || since(t0) < opts.seconds) {
            keep(w.runRound(false));
        }
        const double rss = peakRssMiB();
        metrics = endToEnd(timed, rss);
    } else {
        // Untraced reference rounds, then two traced rounds whose
        // exact counts must agree.
        for (int i = 0; i < 2; ++i)
            keep(w.runRound(false));
        std::vector<double> untracedWall;
        for (const Round &r : timed)
            untracedWall.push_back(r.wall);

        std::vector<lrs::MachineConfig> cfgs;
        for (const lrs::SimJob &j : timed.back().passes.front().cells.jobs)
            cfgs.push_back(j.cfg);

        std::vector<LayerTimes> lt;
        std::vector<std::map<std::string, double>> counts;
        std::vector<double> tracedWall;
        lrs::prof::setEnabled(true);
        for (int i = 0; i < 2; ++i) {
            Round r = w.runRound(true);
            lt.emplace_back();
            counts.push_back(measureLayers(w, r, cfgs, lt.back()));
            tracedWall.push_back(r.wall);
            keep(std::move(r));
        }
        lrs::prof::setEnabled(false);

        for (const auto &[name, v] : counts[0]) {
            if (counts[1].at(name) != v)
                chk.fail("exact count " + name +
                         " differs between two traced rounds");
        }
        metrics = layerMetrics(lt, counts[0], median(untracedWall),
                               median(tracedWall));
    }

    checkReruns(w, timed.back(), chk);

    Value samples = Value::object();
    Value walls = Value::array(), setups = Value::array(),
          cpus = Value::array();
    for (const Round &r : timed) {
        walls.push(r.wall);
        setups.push(r.setup);
        cpus.push(r.cpu);
    }
    samples.set("wall_s", std::move(walls));
    samples.set("cpu_s", std::move(cpus));
    samples.set("setup_s", std::move(setups));
    doc.set("rounds", static_cast<std::uint64_t>(timed.size()));
    doc.set("round_samples", std::move(samples));
    doc.set("metrics", metrics.json());
    Value fails = Value::array();
    for (const std::string &f : chk.failures())
        fails.push(f);
    doc.set("check_failures", std::move(fails));
    out << doc.dump() << "\n";

    Value summary = Value::object();
    summary.set("correct", chk.ok());
    summary.set("attempted", attempted);
    summary.set("failed", failed);
    summary.set("metrics", metrics.json());
    out << summary.dump() << "\n";
    out.flush();
    fs::remove_all(opts.workDir);
    return chk.ok() ? 0 : 1;
}

} // namespace perfbench
