#include "replay.hh"

#include <chrono>
#include <deque>
#include <memory>

#include "memory/hierarchy.hh"
#include "memory/mob.hh"
#include "predictors/bank_pred.hh"
#include "predictors/cht.hh"
#include "predictors/hitmiss.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps replay results observable so no timed loop is elided. */
volatile std::uint64_t g_sink = 0;

/** One load of the stream with the outcomes its layers train on. */
struct LoadRec
{
    lrs::Addr pc;
    lrs::Addr addr;
    bool collided;     ///< an older store in the last 16 overlaps it
    unsigned distance; ///< store distance of that store (1 = youngest)
    bool l1Miss;       ///< missed in a cold hierarchy run in order
};

std::vector<LoadRec>
loadStream(const lrs::VecTrace &trace, const lrs::HierarchyParams &mem)
{
    constexpr std::size_t kStoreWindow = 16;
    std::deque<const lrs::Uop *> stores; // youngest at the back
    lrs::MemoryHierarchy hier(mem);
    std::vector<LoadRec> out;
    lrs::Cycle now = 0;
    for (const lrs::Uop &u : trace.uops()) {
        ++now;
        if (u.isSta()) {
            hier.access(u.addr, now);
            stores.push_back(&u);
            if (stores.size() > kStoreWindow)
                stores.pop_front();
        } else if (u.isLoad()) {
            LoadRec r{u.pc, u.addr, false, 0, false};
            for (std::size_t d = 1; d <= stores.size(); ++d) {
                const lrs::Uop *s = stores[stores.size() - d];
                if (lrs::rangesOverlap(s->addr, s->memSize, u.addr,
                                       u.memSize)) {
                    r.collided = true;
                    r.distance = static_cast<unsigned>(d);
                    break;
                }
            }
            r.l1Miss = !hier.access(u.addr, now).l1Hit;
            out.push_back(r);
        }
    }
    return out;
}

std::unique_ptr<lrs::HitMissPredictor>
makeHmp(lrs::HmpKind k)
{
    switch (k) {
      case lrs::HmpKind::Local:       return lrs::makeLocalHmp();
      case lrs::HmpKind::Chooser:     return lrs::makeChooserHmp();
      case lrs::HmpKind::LocalTiming: return lrs::makeTimingLocalHmp();
      case lrs::HmpKind::AlwaysHit:
      case lrs::HmpKind::Perfect:     break;
    }
    return nullptr;
}

std::unique_ptr<lrs::BankPredictor>
makeBank(lrs::BankPredKind k)
{
    switch (k) {
      case lrs::BankPredKind::A:    return lrs::makeBankPredictorA();
      case lrs::BankPredKind::B:    return lrs::makeBankPredictorB();
      case lrs::BankPredKind::C:    return lrs::makeBankPredictorC();
      case lrs::BankPredKind::Addr: return lrs::makeAddressBankPredictor();
      case lrs::BankPredKind::None: break;
    }
    return nullptr;
}

} // namespace

ReplayCosts
replayLayers(const std::vector<const lrs::VecTrace *> &traces,
             const std::vector<lrs::MachineConfig> &cfgs)
{
    const lrs::MachineConfig *chtCfg = nullptr;
    const lrs::MachineConfig *hmpCfg = nullptr;
    const lrs::MachineConfig *bankCfg = nullptr;
    for (const lrs::MachineConfig &c : cfgs) {
        if (!chtCfg && (c.usesCht() || c.chtShadow))
            chtCfg = &c;
        if (!hmpCfg && makeHmp(c.hmp))
            hmpCfg = &c;
        if (!bankCfg && c.bankPred != lrs::BankPredKind::None)
            bankCfg = &c;
    }
    const lrs::MachineConfig &base = cfgs.front();

    ReplayCosts rc;
    std::uint64_t sink = 0;
    for (const lrs::VecTrace *trace : traces) {
        const std::vector<LoadRec> loads = loadStream(*trace, base.mem);

        if (chtCfg) {
            lrs::ChtParams p = chtCfg->cht;
            if (chtCfg->scheme == lrs::OrderingScheme::Exclusive)
                p.trackDistance = true;
            lrs::Cht cht(p);
            const auto t0 = Clock::now();
            for (const LoadRec &l : loads) {
                sink += cht.predict(l.pc).colliding;
                cht.update(l.pc, l.collided, l.distance);
            }
            rc.cht.seconds += since(t0);
            rc.cht.ops += loads.size();
        }
        if (hmpCfg) {
            const auto hmp = makeHmp(hmpCfg->hmp);
            const auto t0 = Clock::now();
            for (const LoadRec &l : loads) {
                sink += hmp->predictMiss(l.pc);
                hmp->update(l.pc, l.l1Miss, l.addr);
            }
            rc.hmp.seconds += since(t0);
            rc.hmp.ops += loads.size();
        }
        if (bankCfg) {
            const auto bp = makeBank(bankCfg->bankPred);
            const lrs::Addr line = bankCfg->mem.l1.lineBytes;
            const auto t0 = Clock::now();
            for (const LoadRec &l : loads) {
                sink += bp->predict(l.pc).bank;
                bp->updateAddr(l.pc, l.addr, static_cast<unsigned>(
                                                 l.addr / line %
                                                 bankCfg->numBanks));
            }
            rc.bank.seconds += since(t0);
            rc.bank.ops += loads.size();
        }

        {
            lrs::MemoryHierarchy hier(base.mem);
            const auto t0 = Clock::now();
            lrs::Cycle now = 0;
            for (const lrs::Uop &u : trace->uops()) {
                ++now;
                if (u.isMem()) {
                    sink += hier.access(u.addr, now).readyAt;
                    ++rc.hierarchy.ops;
                }
            }
            rc.hierarchy.seconds += since(t0);
        }

        {
            // Stores enter at their STA, execute one cycle later and
            // retire once a ROB's worth of younger uops followed;
            // each load asks the disambiguation questions the core
            // asks before it issues.
            lrs::Mob mob;
            std::deque<lrs::SeqNum> inFlight;
            const auto robSize = static_cast<lrs::SeqNum>(base.robSize);
            const auto t0 = Clock::now();
            lrs::SeqNum seq = 0;
            lrs::SeqNum lastSta = 0;
            for (const lrs::Uop &u : trace->uops()) {
                ++seq;
                if (u.isSta()) {
                    mob.insert(seq, u.addr, u.memSize, u.pc);
                    mob.staExecuted(seq, seq + 1);
                    inFlight.push_back(seq);
                    lastSta = seq;
                    rc.mob.ops += 2;
                } else if (u.isStd() && lastSta != 0) {
                    mob.stdExecuted(lastSta, seq + 1);
                    ++rc.mob.ops;
                } else if (u.isLoad()) {
                    sink += mob.anyUnknownAddrOlder(seq, seq);
                    sink += mob.youngestOverlapOlder(seq, u.addr,
                                                     u.memSize) != nullptr;
                    rc.mob.ops += 2;
                }
                while (!inFlight.empty() && inFlight.front() + robSize < seq) {
                    mob.retire(inFlight.front());
                    inFlight.pop_front();
                    ++rc.mob.ops;
                }
            }
            rc.mob.seconds += since(t0);
        }
    }
    g_sink = g_sink + sink;
    return rc;
}

} // namespace perfbench
