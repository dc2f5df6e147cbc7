#include "checker.hh"

#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <set>

#include "common/journal.hh"
#include "trace/library.hh"

namespace perfbench
{

using lrs::SimResult;

Census
scanTrace(const lrs::VecTrace &trace)
{
    Census c;
    for (const lrs::Uop &u : trace.uops()) {
        ++c.uops;
        c.loads += u.isLoad();
        c.stores += u.isSta();
        c.branches += u.isBranch();
    }
    return c;
}

void
Checker::fail(const std::string &what)
{
    failures_.push_back(what);
}

void
Checker::cell(const std::string &key, const Census &census,
              const lrs::MachineConfig &cfg, const lrs::JobOutcome &o)
{
    if (o.status != lrs::CellStatus::Ok) {
        fail(key + ": status " + lrs::cellStatusName(o.status) + " " +
             o.code + " " + o.error);
        return;
    }
    const SimResult &r = o.result;
    const auto expect = [&](const char *what, std::uint64_t got,
                            std::uint64_t want) {
        if (got != want) {
            fail(key + ": " + what + " " + std::to_string(got) +
                 " != " + std::to_string(want));
        }
    };
    expect("retired uops vs census", r.uops, census.uops);
    expect("retired loads vs census", r.loads, census.loads);
    expect("retired stores vs census", r.stores, census.stores);
    expect("retired branches vs census", r.branches, census.branches);
    expect("load classes vs loads", r.classifiedLoads(), r.loads);
    expect("hit-miss outcomes vs loads", r.ahPh + r.ahPm + r.amPh + r.amPm,
           r.loads);

    const auto width = static_cast<std::uint64_t>(cfg.retireWidth);
    if (r.cycles < (r.uops + width - 1) / width) {
        fail(key + ": " + std::to_string(r.cycles) + " cycles cannot retire " +
             std::to_string(r.uops) + " uops at width " +
             std::to_string(width));
    }
    if (cfg.scheme == lrs::OrderingScheme::Perfect) {
        expect("perfect ordering collision penalties",
               r.collisionPenalties, 0);
        expect("perfect ordering order violations", r.orderViolations, 0);
    }
    if (cfg.scheme == lrs::OrderingScheme::Traditional ||
        cfg.scheme == lrs::OrderingScheme::Postponing) {
        expect("order violations", r.orderViolations, 0);
    }
    if (cfg.hmp == lrs::HmpKind::Perfect) {
        expect("perfect HMP AH-PM", r.ahPm, 0);
        expect("perfect HMP AM-PH", r.amPh, 0);
    }
}

void
Checker::same(const std::string &what, const SimResult &a,
              const SimResult &b)
{
    const lrs::json::Value sa = a.saveState();
    const lrs::json::Value sb = b.saveState();
    if (sa.dump() == sb.dump())
        return;
    std::string field = "?";
    for (const auto &[k, v] : sa.members()) {
        const lrs::json::Value *w = sb.find(k);
        if (!w || w->dump() != v.dump()) {
            field = k;
            break;
        }
    }
    fail(what + ": results differ (first at '" + field + "')");
}

void
Checker::journal(const std::string &path,
                 const std::vector<std::string> &keys,
                 const std::vector<lrs::JobOutcome> &outcomes)
{
    lrs::JournalReadStats st;
    std::vector<lrs::json::Value> recs;
    try {
        recs = lrs::readJournal(path, &st);
    } catch (const std::exception &e) {
        fail(path + ": unreadable journal: " + e.what());
        return;
    }
    if (st.badLines != 0 || st.truncatedTail)
        fail(path + ": " + std::to_string(st.badLines) +
             " damaged journal lines");
    if (recs.size() != keys.size())
        fail(path + ": " + std::to_string(recs.size()) +
             " journal records for " + std::to_string(keys.size()) +
             " cells");
    std::set<std::uint64_t> seen;
    for (const lrs::json::Value &rec : recs) {
        try {
            const std::uint64_t cell = rec.at("cell").asU64();
            if (cell >= keys.size() || !seen.insert(cell).second) {
                fail(path + ": stray or repeated record for cell " +
                     std::to_string(cell));
                continue;
            }
            if (rec.at("key").asString() != keys[cell] ||
                rec.at("status").asString() != "OK" ||
                rec.at("result").dump() != outcomes[cell].resultJson.dump())
                fail(path + ": record of cell " + std::to_string(cell) +
                     " (" + keys[cell] + ") does not match its result");
        } catch (const std::exception &e) {
            fail(path + ": malformed record: " + e.what());
        }
    }
}

namespace
{

/** One mutation: how to damage a copy, and which check must catch it. */
struct Mutation
{
    std::string name;
    std::function<void(lrs::JobOutcome &, lrs::MachineConfig &)> apply;
};

} // namespace

std::vector<std::string>
checkerSelfTest(const std::string &dir, std::ostream &log)
{
    // A real cell: a short Figure 7 trace under perfect ordering and
    // perfect hit-miss prediction, so every property applies.
    lrs::MachineConfig cfg;
    cfg.scheme = lrs::OrderingScheme::Perfect;
    cfg.hmp = lrs::HmpKind::Perfect;
    const lrs::TraceParams tp = lrs::TraceLibrary::byName("wd", 4000);
    const Census census = scanTrace(*lrs::TraceLibrary::make(tp));
    lrs::JobOutcome good = lrs::runOneSimJob(lrs::SimJob{tp, cfg, {}});
    good.resultJson = good.result.toJson();

    std::vector<std::string> survivors;
    {
        Checker c;
        c.cell("clean", census, cfg, good);
        c.same("clean", good.result, good.result);
        if (!c.ok()) {
            survivors.push_back("clean result rejected: " +
                                c.failures().front());
            return survivors;
        }
    }

    using O = lrs::JobOutcome;
    using C = lrs::MachineConfig;
    const std::vector<Mutation> cellMutations = {
        {"loads off by one", [](O &o, C &) { ++o.result.loads; }},
        {"uops off by one", [](O &o, C &) { --o.result.uops; }},
        {"stores off by one", [](O &o, C &) { ++o.result.stores; }},
        {"branches off by one", [](O &o, C &) { ++o.result.branches; }},
        {"load class lost", [](O &o, C &) { --o.result.notConflicting; }},
        {"hit-miss outcome lost", [](O &o, C &) { --o.result.ahPh; }},
        {"one penalty in a Perfect cell",
         [](O &o, C &) { ++o.result.collisionPenalties; }},
        {"one violation in a Perfect cell",
         [](O &o, C &) { ++o.result.orderViolations; }},
        {"one violation in a Traditional cell",
         [](O &o, C &c) {
             c.scheme = lrs::OrderingScheme::Traditional;
             ++o.result.orderViolations;
         }},
        {"one violation in a Postponing cell",
         [](O &o, C &c) {
             c.scheme = lrs::OrderingScheme::Postponing;
             ++o.result.orderViolations;
         }},
        {"perfect HMP with an AH-PM",
         [](O &o, C &) { --o.result.ahPh; ++o.result.ahPm; }},
        {"perfect HMP with an AM-PH",
         [](O &o, C &) { --o.result.amPm; ++o.result.amPh; }},
        {"cycles below the retire-width bound",
         [](O &o, C &c) {
             o.result.cycles = o.result.uops /
                                   static_cast<std::uint64_t>(c.retireWidth) -
                               1;
         }},
        {"failed cell", [](O &o, C &) { o.status = lrs::CellStatus::Failed; }},
    };
    const auto report = [&](const std::string &name, const Checker &c) {
        log << "self-test: " << name << ": "
            << (c.ok() ? "NOT REJECTED" : "rejected (" + c.failures().front() + ")")
            << "\n";
        if (c.ok())
            survivors.push_back(name);
    };
    for (const Mutation &m : cellMutations) {
        O bad = good;
        C badCfg = cfg;
        m.apply(bad, badCfg);
        Checker c;
        c.cell("mutant", census, badCfg, bad);
        report(m.name, c);
    }

    const std::vector<Mutation> pairMutations = {
        {"reuse cell differs by one counter",
         [](O &o, C &) { ++o.result.forwarded; }},
        {"skip-ahead cell differs by one cycle",
         [](O &o, C &) { ++o.result.cycles; }},
        {"pool cell differs in its trace name",
         [](O &o, C &) { o.result.trace += "'"; }},
    };
    for (const Mutation &m : pairMutations) {
        O bad = good;
        C badCfg = cfg;
        m.apply(bad, badCfg);
        Checker c;
        c.same("mutant", good.result, bad.result);
        report(m.name, c);
    }

    // Journals: a clean two-cell journal passes; a missing record, a
    // damaged line and a record whose result differs are rejected.
    const std::vector<std::string> keys = {"wd/perfect", "wd/perfect#2"};
    const std::vector<O> outcomes = {good, good};
    const auto record = [&](std::size_t cell, const lrs::json::Value &res) {
        lrs::json::Value rec = lrs::json::Value::object();
        rec.set("v", 1);
        rec.set("cell", static_cast<std::uint64_t>(cell));
        rec.set("key", keys[cell]);
        rec.set("status", "OK");
        rec.set("attempts", static_cast<std::uint64_t>(1));
        rec.set("result", res);
        return rec;
    };
    const std::string path = dir + "/selftest.journal";
    const auto journalCase = [&](const std::string &name, bool expectOk,
                                 const std::function<void()> &write) {
        write();
        Checker c;
        c.journal(path, keys, outcomes);
        if (expectOk) {
            if (!c.ok())
                survivors.push_back("clean journal rejected: " +
                                    c.failures().front());
            return;
        }
        report(name, c);
    };
    journalCase("clean journal", true, [&] {
        lrs::JournalWriter w(path, true);
        w.append(record(0, good.resultJson));
        w.append(record(1, good.resultJson));
    });
    journalCase("journal missing a record", false, [&] {
        lrs::JournalWriter w(path, true);
        w.append(record(0, good.resultJson));
    });
    journalCase("journal with a damaged line", false, [&] {
        {
            lrs::JournalWriter w(path, true);
            w.append(record(0, good.resultJson));
        }
        std::string line = lrs::journalLine(record(1, good.resultJson));
        line[line.size() / 2] ^= 0x20;
        std::ofstream(path, std::ios::binary | std::ios::app) << line;
    });
    journalCase("journal record with another result", false, [&] {
        O other = good;
        ++other.result.uops;
        lrs::JournalWriter w(path, true);
        w.append(record(0, good.resultJson));
        w.append(record(1, other.result.toJson()));
    });
    std::remove(path.c_str());
    return survivors;
}

} // namespace perfbench
