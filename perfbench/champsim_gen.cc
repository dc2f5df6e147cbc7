#include "champsim_gen.hh"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/random.hh"

namespace perfbench
{

namespace
{

/** Pin's stack-pointer register number, as ChampSim traces carry it. */
constexpr std::uint8_t kSpReg = 6;
constexpr std::uint64_t kCodeBase = 0x400000;
constexpr std::uint64_t kHeapBase = 0x10000000;
constexpr std::uint64_t kGlobalBase = 0x08000000;
constexpr std::uint64_t kStackTop = 0x7ff00000;
constexpr std::uint64_t kChaseFootprint = 512 * 1024;

/** One instruction before encoding. */
struct Instr
{
    std::uint64_t ip = 0;
    bool branch = false;
    bool taken = false;
    std::array<std::uint8_t, 2> dreg{};
    std::array<std::uint8_t, 4> sreg{};
    std::array<std::uint64_t, 2> dmem{};
    std::array<std::uint64_t, 4> smem{};
};

void
put64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

enum Construct
{
    kArray,
    kChase,
    kAlu,
    kCond,
    kCall,
    kRmw,
    kNumConstructs,
};

/** Relative construct weights of each mix. */
std::array<double, kNumConstructs>
weights(ChampSimMix mix)
{
    switch (mix) {
      case ChampSimMix::Loads:   return {4.0, 2.0, 2.0, 1.0, 0.5, 0.5};
      case ChampSimMix::Stack:   return {1.0, 0.3, 1.0, 0.5, 4.0, 1.0};
      case ChampSimMix::Branchy: return {1.0, 2.0, 1.0, 4.0, 0.5, 0.3};
    }
    throw std::invalid_argument("unknown ChampSim mix");
}

/** Writes records and keeps the census as it goes. */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, std::uint64_t limit)
        : out_(path, std::ios::binary | std::ios::trunc), limit_(limit)
    {
        if (!out_)
            throw std::runtime_error("cannot open for write: " + path);
    }

    bool full() const { return census_.records >= limit_; }

    void
    emit(const Instr &in)
    {
        if (full())
            return;
        std::uint8_t rec[64] = {};
        put64(rec, in.ip);
        rec[8] = in.branch ? 1 : 0;
        rec[9] = in.branch && in.taken ? 1 : 0;
        std::memcpy(rec + 10, in.dreg.data(), 2);
        std::memcpy(rec + 12, in.sreg.data(), 4);
        for (int i = 0; i < 2; ++i)
            put64(rec + 16 + 8 * i, in.dmem[i]);
        for (int i = 0; i < 4; ++i)
            put64(rec + 32 + 8 * i, in.smem[i]);
        const Census c = censusOfRecord(rec);
        census_.records += c.records;
        census_.uops += c.uops;
        census_.loads += c.loads;
        census_.stores += c.stores;
        census_.branches += c.branches;
        buf_.insert(buf_.end(), rec, rec + sizeof(rec));
        if (buf_.size() >= (1u << 16))
            flush();
    }

    Census
    finish(const std::string &path)
    {
        flush();
        out_.close();
        if (!out_)
            throw std::runtime_error("write failed: " + path);
        return census_;
    }

  private:
    void
    flush()
    {
        out_.write(reinterpret_cast<const char *>(buf_.data()),
                   static_cast<std::streamsize>(buf_.size()));
        buf_.clear();
    }

    std::ofstream out_;
    std::uint64_t limit_;
    std::vector<std::uint8_t> buf_;
    Census census_;
};

/** Builds the instruction stream of one mix. */
class Program
{
  public:
    Program(ChampSimMix mix, std::uint64_t seed, TraceWriter &w)
        : w_(w), rng_(seed ^ (0x5bd1e995ULL *
                              (static_cast<std::uint64_t>(mix) + 1))),
          weights_(weights(mix))
    {
        for (double x : weights_)
            total_ += x;
    }

    void
    run()
    {
        while (!w_.full()) {
            double pick = rng_.uniform() * total_;
            int k = 0;
            while (k + 1 < kNumConstructs && pick >= weights_[k]) {
                pick -= weights_[k];
                ++k;
            }
            const unsigned site = static_cast<unsigned>(rng_.below(16));
            switch (k) {
              case kArray: array(site); break;
              case kChase: chase(site); break;
              case kAlu:   alu(site, 0); break;
              case kCond:  cond(site); break;
              case kCall:  call(site); break;
              default:     rmw(site); break;
            }
        }
    }

  private:
    static std::uint64_t
    ip(int construct, unsigned site, unsigned slot)
    {
        return kCodeBase + (static_cast<std::uint64_t>(construct) << 14) +
               (static_cast<std::uint64_t>(site) << 8) + 4 * slot;
    }

    /** A general register other than the stack pointer (1..15). */
    std::uint8_t
    reg()
    {
        const auto r = static_cast<std::uint8_t>(1 + rng_.below(15));
        return r == kSpReg ? 7 : r;
    }

    void
    alu(unsigned site, unsigned slot0)
    {
        const unsigned n = 1 + static_cast<unsigned>(rng_.below(3));
        for (unsigned i = 0; i < n; ++i) {
            Instr in;
            in.ip = ip(kAlu, site, slot0 + i);
            in.sreg = {reg(), reg(), 0, 0};
            // One site in four does vector/x87 work (Pin numbers >= 32).
            in.dreg[0] = site % 4 == 0 ? static_cast<std::uint8_t>(
                                             32 + rng_.below(8))
                                       : reg();
            w_.emit(in);
        }
    }

    void
    array(unsigned site)
    {
        const std::uint64_t base = kHeapBase + (site << 16);
        const std::uint64_t stride = 8u << (site % 3);
        const unsigned iters = 4 + static_cast<unsigned>(rng_.below(9));
        std::uint64_t &idx = arrayIdx_[site];
        for (unsigned i = 0; i < iters; ++i, ++idx) {
            Instr ld;
            ld.ip = ip(kArray, site, 0);
            ld.smem[0] = base + (idx * stride) % 8192;
            ld.sreg[0] = 3;
            ld.dreg[0] = 2;
            w_.emit(ld);
            Instr op;
            op.ip = ip(kArray, site, 1);
            op.sreg = {2, 4, 0, 0};
            op.dreg[0] = 4;
            w_.emit(op);
            if (site % 2 == 0) {
                Instr st;
                st.ip = ip(kArray, site, 2);
                st.dmem[0] = base + 0x8000 + (idx * stride) % 8192;
                st.sreg = {3, 4, 0, 0};
                w_.emit(st);
            }
            Instr br;
            br.ip = ip(kArray, site, 3);
            br.branch = true;
            br.taken = i + 1 < iters;
            br.sreg[0] = 3;
            w_.emit(br);
        }
    }

    void
    chase(unsigned site)
    {
        const unsigned len = 4 + static_cast<unsigned>(rng_.below(9));
        for (unsigned i = 0; i < len; ++i) {
            Instr ld;
            ld.ip = ip(kChase, site, i % 4);
            ld.smem[0] = kHeapBase + 0x100000 +
                         rng_.below(kChaseFootprint / 64) * 64;
            ld.sreg[0] = 5; // the previous node pointer: serial chain
            ld.dreg[0] = 5;
            w_.emit(ld);
        }
    }

    void
    cond(unsigned site)
    {
        Instr ld;
        ld.ip = ip(kCond, site, 0);
        ld.smem[0] = kGlobalBase + 64 * site;
        ld.dreg[0] = 8;
        w_.emit(ld);
        Instr cmp;
        cmp.ip = ip(kCond, site, 1);
        cmp.sreg = {8, reg(), 0, 0};
        cmp.dreg[0] = 25; // flags
        w_.emit(cmp);
        Instr br;
        br.ip = ip(kCond, site, 2);
        br.branch = true;
        // Per-site bias from strongly taken to a coin flip.
        br.taken = rng_.uniform() < 0.5 + 0.03 * site;
        br.sreg[0] = 25;
        w_.emit(br);
    }

    void
    call(unsigned site)
    {
        const unsigned saves = 1 + site % 4;
        std::array<std::uint8_t, 4> saved{};
        for (unsigned k = 0; k < saves; ++k) {
            saved[k] = reg();
            Instr push;
            push.ip = ip(kCall, site, k);
            sp_ -= 8;
            push.dmem[0] = sp_;
            push.sreg = {kSpReg, saved[k], 0, 0};
            push.dreg[0] = kSpReg;
            w_.emit(push);
        }
        // A parameter load from the newest frame slot: the short-
        // distance store-load collision a CHT learns per PC.
        Instr param;
        param.ip = ip(kCall, site, 4);
        param.smem[0] = sp_;
        param.sreg[0] = kSpReg;
        param.dreg[0] = reg();
        w_.emit(param);
        alu(site, 8);
        if (rng_.below(2) == 0) {
            Instr ld;
            ld.ip = ip(kCall, site, 5);
            ld.smem[0] = kGlobalBase + 0x4000 + 64 * rng_.below(64);
            ld.dreg[0] = reg();
            w_.emit(ld);
        }
        for (unsigned k = saves; k-- > 0;) {
            Instr pop;
            pop.ip = ip(kCall, site, 12 + k);
            pop.smem[0] = sp_;
            sp_ += 8;
            pop.sreg[0] = kSpReg;
            pop.dreg = {saved[k], kSpReg};
            w_.emit(pop);
        }
        Instr ret;
        ret.ip = ip(kCall, site, 20);
        ret.branch = true;
        ret.taken = true;
        ret.sreg[0] = kSpReg;
        w_.emit(ret);
    }

    void
    rmw(unsigned site)
    {
        Instr in;
        in.ip = ip(kRmw, site, 0);
        in.smem[0] = kGlobalBase + 0x2000 + 64 * site;
        in.dmem[0] = in.smem[0];
        in.sreg = {reg(), 0, 0, 0};
        in.dreg[0] = reg();
        w_.emit(in);
    }

    TraceWriter &w_;
    lrs::Rng rng_;
    std::array<double, kNumConstructs> weights_;
    double total_ = 0.0;
    std::array<std::uint64_t, 16> arrayIdx_{};
    std::uint64_t sp_ = kStackTop;
};

} // namespace

const char *
champSimMixName(ChampSimMix mix)
{
    switch (mix) {
      case ChampSimMix::Loads:   return "loads";
      case ChampSimMix::Stack:   return "stack";
      case ChampSimMix::Branchy: return "branchy";
    }
    return "?";
}

const std::vector<ChampSimMix> &
allChampSimMixes()
{
    static const std::vector<ChampSimMix> kMixes = {
        ChampSimMix::Loads, ChampSimMix::Stack, ChampSimMix::Branchy};
    return kMixes;
}

Census
censusOfRecord(const std::uint8_t *rec)
{
    Census c;
    c.records = 1;
    for (int i = 0; i < 4; ++i)
        c.loads += get64(rec + 32 + 8 * i) != 0;
    for (int i = 0; i < 2; ++i)
        c.stores += get64(rec + 16 + 8 * i) != 0;
    c.branches = rec[8] != 0;
    c.uops = c.loads + 2 * c.stores + c.branches;
    if (c.uops == 0)
        c.uops = 1; // register-only instruction: one ALU uop
    return c;
}

Census
writeChampSimTrace(const std::string &path, ChampSimMix mix,
                   std::uint64_t seed, std::uint64_t records)
{
    TraceWriter w(path, records);
    Program(mix, seed, w).run();
    return w.finish(path);
}

} // namespace perfbench
