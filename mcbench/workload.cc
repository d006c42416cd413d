#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "check/check_config.h"
#include "common/log.h"
#include "sim/fiber.h"

namespace mcbench {

using namespace mcdsm;

std::string
Spec::label() const
{
    std::string out = app + "/" + protocolName(protocol) + "/" +
                      std::to_string(nprocs) + "/" + netName(net);
    if (checked)
        out += "/checked";
    return out;
}

namespace {

std::vector<Workload>
buildWorkloads()
{
    const ProtocolKind csm_poll = ProtocolKind::CsmPoll;
    const ProtocolKind csm_int = ProtocolKind::CsmInt;
    const ProtocolKind tmk_mc_poll = ProtocolKind::TmkMcPoll;
    const ProtocolKind tmk_udp_int = ProtocolKind::TmkUdpInt;

    // The paper's scope: both protocol families, polling and
    // interrupts, at the paper's largest P on its own network. TSP is
    // left out: ~76% of its host time is its own branch-and-bound
    // search, which no simulator layer moves.
    Workload paper{"paper-p32", {}};
    for (const char* app :
         {"sor", "lu", "water", "gauss", "em3d", "barnes", "ilink"}) {
        for (ProtocolKind k : {csm_poll, csm_int, tmk_mc_poll, tmk_udp_int})
            paper.specs.push_back({app, k, 32, NetKind::Mc, false});
    }

    // Past the paper: KV serving at P=512 on both network eras, where
    // per-processor fixed costs, TreadMarks interval/VT merging, the
    // mailbox and RDMA verbs dominate and the cache model barely runs.
    Workload serve{"serve-p512", {}};
    for (ProtocolKind k : {csm_poll, tmk_mc_poll}) {
        for (NetKind net : {NetKind::Mc, NetKind::Rdma})
            serve.specs.push_back({"kv", k, 512, net, false});
    }

    // What the CI check and fuzz jobs pay for: every analysis on.
    Workload checked{"checked-p8", {}};
    for (const char* app : {"gauss", "water", "kv"}) {
        for (ProtocolKind k : {csm_poll, tmk_mc_poll})
            checked.specs.push_back({app, k, 8, NetKind::Mc, true});
    }

    return {paper, serve, checked};
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = buildWorkloads();
    return all;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

double
checksumTolerance(const std::string& app)
{
    if (app == "tsp")
        return 0.0;
    if (app == "water" || app == "barnes")
        return 1e-4; // force-merge order varies with the lock schedule
    return 1e-9;
}

RunOpts
runOpts(const Spec& s, std::uint64_t seed)
{
    RunOpts opts;
    opts.scale = kScale;
    opts.seed = seed;
    opts.net = s.net;
    if (s.checked)
        opts.checks = CheckConfig::all();
    return opts;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Outcome
runSpec(const Spec& s, std::uint64_t seed, const Expected* expect)
{
    if (!configSupported(s.protocol, s.nprocs))
        mcdsm_fatal("unsupported configuration %s", s.label().c_str());
    const RunOpts opts = runOpts(s, seed);

    Outcome out;
    StepTimes& t = out.times;
    t.start = nowNs();

    // Setup, as runExperiment does it for a non-KvConfig run.
    std::unique_ptr<App> app = makeApp(s.app, opts.scale, opts.seed);
    t.makeAppEnd = nowNs();

    DsmConfig cfg = opts.base.value_or(DsmConfig{});
    cfg.protocol = s.protocol;
    cfg.topo = Topology::standard(s.nprocs);
    cfg.seed = opts.seed;
    cfg.net = opts.net;
    cfg.raceDetect = opts.raceDetect;
    cfg.checks = opts.checks;
    cfg.schedSeed = opts.schedSeed;
    cfg.schedMaxJitter = opts.schedMaxJitter;
    cfg.simThreads = opts.simThreads;
    cfg.fault = opts.fault;
    cfg.memPool = opts.memPool;
    std::size_t need = app->sharedBytes() + (1 << 20);
    std::size_t cap = 1 << 20;
    while (cap < need * 2)
        cap <<= 1;
    cfg.maxSharedBytes = cap;

    const std::uint64_t stacks_allocated = Fiber::stacksAllocated();
    const std::uint64_t stacks_reused = Fiber::stacksReused();
    std::unique_ptr<DsmSystem> sys = DsmSystem::create(cfg);
    t.createEnd = nowNs();
    app->configure(*sys);
    t.setupEnd = nowNs();

    sys->run([&](Proc& p) { app->worker(p); });
    t.runEnd = nowNs();

    out.stats = sys->stats();
    out.result = app->result();
    DsmRuntime& rt = sys->runtime();
    ModuleCounts& c = out.counts;
    c.netTransfers = rt.net().transferCount();
    c.netBytes = rt.net().totalBytes();
    c.netOneSidedBytes = rt.net().oneSidedBytes();
    c.netVerbs = rt.net().readVerbs() + rt.net().writeVerbs() +
                 rt.net().casVerbs() + rt.net().faaVerbs();
    for (ProcId p = 0; p < rt.nprocs(); ++p)
        c.cacheAccesses += rt.procCtx(p).cache.accesses();
    c.yieldSwitches = rt.sched().yieldSwitches();
    c.stacksAllocated = Fiber::stacksAllocated() - stacks_allocated;
    c.stacksReused = Fiber::stacksReused() - stacks_reused;
    if (expect) {
        const double got = out.result.checksum;
        const double want = expect->sequential;
        const double tol = checksumTolerance(s.app);
        const bool near =
            tol == 0 ? got == want
                     : std::abs(got - want) <=
                           std::max(1e-12, std::abs(want)) * tol;
        if (!near) {
            out.failure = strprintf(
                "checksum %.17g differs from the sequential reference "
                "%.17g by more than %g relative",
                got, want, tol);
        } else if (out.stats.checkViolations != 0) {
            out.failure =
                strprintf("%llu check finding(s):\n%s",
                          static_cast<unsigned long long>(
                              out.stats.checkViolations),
                          rt.checks() ? rt.checks()->report().c_str() : "");
        } else if (expect->elapsed != 0 &&
                   (out.stats.elapsed != expect->elapsed ||
                    checksumBits(got) != expect->checksumBits)) {
            out.failure = strprintf(
                "pass not reproduced: elapsed %lld ns, checksum 0x%016llx; "
                "first pass %lld ns, 0x%016llx",
                static_cast<long long>(out.stats.elapsed),
                static_cast<unsigned long long>(checksumBits(got)),
                static_cast<long long>(expect->elapsed),
                static_cast<unsigned long long>(expect->checksumBits));
        }
    }
    t.verifyEnd = nowNs();

    sys.reset();
    app.reset();
    t.end = nowNs();
    return out;
}

std::uint64_t
simEvents(const RunStats& s)
{
    std::uint64_t n = s.messages;
    for (const auto& p : s.procs) {
        n += p.cacheAccesses + p.readFaults + p.writeFaults +
             p.requestsServiced + p.lockAcquires + p.barriers +
             p.flagOps;
    }
    return n;
}

std::uint64_t
checksumBits(double checksum)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(checksum));
    std::memcpy(&bits, &checksum, sizeof(bits));
    return bits;
}

} // namespace mcbench
