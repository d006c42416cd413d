/**
 * @file
 * mcbench: run one workload for a fixed host-time window and report
 * its metrics as one JSON line (see README.md in this directory).
 *
 *   mcbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *
 * The window is filled with passes; a pass runs every experiment of
 * the workload once, from this single thread. A host time is the sum
 * over the experiments of each experiment's median over the passes,
 * so one disturbed experiment does not move a whole pass. Simulated metrics
 * and counts come from the first pass, and every later pass must
 * reproduce its checksums and simulated elapsed times exactly.
 *
 * With --trace 1 passes alternate between the SIGPROF sampler off and
 * on; spans (Chrome-trace JSON) and samples are written to DIR, and
 * the per-layer metrics are reported instead of the end-to-end ones.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "common/log.h"
#include "sampler.h"
#include "workload.h"

#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

using namespace mcdsm;
using namespace mcbench;

namespace {

constexpr int kSampleIntervalUs = 1000;
constexpr std::size_t kSampleCapacity = 1 << 17;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string out = ".";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "mcbench: %s\nusage: mcbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR]\nworkloads:",
                 why);
    for (const Workload& w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    mcdsm_assert(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One pass: an Outcome per spec, in workload order. */
struct Pass
{
    bool sampled = false;
    std::vector<Outcome> runs;
};

/**
 * Per-experiment medians over the passes selected by @p pick, summed
 * over the workload's experiments.
 */
template <typename Pick, typename Field>
double
sumOfMedians(const std::vector<Pass>& passes, std::size_t nspecs,
             Pick pick, Field field)
{
    double sum = 0;
    for (std::size_t i = 0; i < nspecs; ++i) {
        std::vector<double> v;
        for (const Pass& p : passes) {
            if (pick(p))
                v.push_back(field(p.runs[i].times));
        }
        sum += median(v);
    }
    return sum;
}

/** Metrics in insertion order, printed as {"name": {"value", "unit"}}. */
class Metrics
{
  public:
    void
    add(const std::string& name, double value, const char* unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i ? ", " : "", items_[i].name.c_str(),
                             items_[i].value, items_[i].unit);
        }
        return out + "}";
    }

    void
    print() const
    {
        for (const Item& m : items_)
            std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit);
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Item> items_;
};

/** Simulated metrics and counts of one pass (they repeat exactly). */
void
addLayerCounts(Metrics& m, const Workload& w, const Pass& pass)
{
    double read_faults = 0, write_faults = 0, lock_acquires = 0;
    double barriers = 0, serviced = 0;
    double sim_cat[kTimeCatCount] = {};
    double stacks_alloc = 0, stacks_reused = 0, yields = 0;
    double accesses = 0, l1 = 0, l2 = 0, prot_ops = 0;
    double twins = 0, diffs_created = 0, diffs_applied = 0;
    double diff_bytes = 0, notices = 0;
    double page_transfers = 0, dir_updates = 0, csm_notices = 0;
    double messages = 0, bytes = 0, stream_bytes = 0, one_sided = 0;
    double verbs = 0, doorbells = 0, transfers = 0;
    double heap_allocs = 0, pool_hits = 0, findings = 0;
    double contended = 0;
    std::map<std::string, LatencyHistogram> phase_latency;
    LatencyHistogram all_latency;

    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const ProtocolKind k = w.specs[i].protocol;
        const RunStats& s = pass.runs[i].stats;
        const ModuleCounts& c = pass.runs[i].counts;
        for (const ProcStats& p : s.procs) {
            read_faults += p.readFaults;
            write_faults += p.writeFaults;
            lock_acquires += p.lockAcquires;
            barriers += p.barriers;
            serviced += p.requestsServiced;
            accesses += p.cacheAccesses;
            l1 += p.l1Misses;
            l2 += p.l2Misses;
            prot_ops += p.vmProtOps;
            if (isTreadMarks(k)) {
                twins += p.twins;
                diffs_created += p.diffsCreated;
                diffs_applied += p.diffsApplied;
                diff_bytes += p.diffBytes;
                notices += p.writeNoticesSent;
            }
            if (isCashmere(k)) {
                page_transfers += p.pageTransfers;
                dir_updates += p.dirUpdates;
                csm_notices += p.writeNoticesSent;
            }
        }
        for (int cat = 0; cat < kTimeCatCount; ++cat)
            sim_cat[cat] += static_cast<double>(
                                s.totalTime(static_cast<TimeCat>(cat))) /
                            kSecond;
        stacks_alloc += c.stacksAllocated;
        stacks_reused += c.stacksReused;
        yields += c.yieldSwitches;
        transfers += c.netTransfers;
        messages += s.messages;
        bytes += s.mcBytes;
        stream_bytes += s.mcStreamBytes;
        one_sided += s.netOneSidedBytes;
        verbs += s.rdmaReads + s.rdmaWrites + s.rdmaCasOps + s.rdmaFaaOps;
        doorbells += s.rdmaDoorbells;
        heap_allocs += s.mem.heapAllocs();
        pool_hits += s.mem.poolHits();
        findings += s.checkViolations;
        for (const PhaseServiceStats& ph : s.service.phases) {
            phase_latency[ph.name].merge(ph.latency);
            all_latency.merge(ph.latency);
        }
        for (const ShardStats& sh : s.service.overallShards())
            contended += sh.contendedAcquires;
    }

    const double us = 1.0 / kMicrosecond;
    for (const char* phase : {"read_heavy", "write_heavy", "mixed_churn"}) {
        const auto it = phase_latency.find(phase);
        m.add(std::string("kv.") + phase + ".p99_us",
              it == phase_latency.end() ? 0.0 : it->second.p99() * us,
              "sim_us");
    }
    m.add("kv.contended_acquires", contended, "count");
    m.add("req_p50_us", all_latency.p50() * us, "sim_us");
    m.add("req_p99_us", all_latency.p99() * us, "sim_us");
    m.add("req_count", static_cast<double>(all_latency.count()), "count");

    m.add("dsm.read_faults", read_faults, "count");
    m.add("dsm.write_faults", write_faults, "count");
    m.add("dsm.lock_acquires", lock_acquires, "count");
    m.add("dsm.barriers", barriers, "count");
    m.add("dsm.requests_serviced", serviced, "count");
    m.add("dsm.sim_user_s", sim_cat[int(TimeCat::User)], "sim_s");
    m.add("dsm.sim_poll_s", sim_cat[int(TimeCat::Poll)], "sim_s");
    m.add("dsm.sim_doubling_s", sim_cat[int(TimeCat::Doubling)], "sim_s");
    m.add("dsm.sim_protocol_s", sim_cat[int(TimeCat::Protocol)], "sim_s");
    m.add("dsm.sim_commwait_s", sim_cat[int(TimeCat::CommWait)], "sim_s");

    m.add("sim.fiber_stacks_allocated", stacks_alloc, "count");
    m.add("sim.fiber_stacks_reused", stacks_reused, "count");
    m.add("sim.stack_reuse_ratio",
          ratio(stacks_reused, stacks_alloc + stacks_reused), "ratio");
    m.add("sim.yield_switches", yields, "count");

    m.add("cache.accesses", accesses, "count");
    m.add("cache.l1_miss_ratio", ratio(l1, accesses), "ratio");
    m.add("cache.l2_miss_ratio", ratio(l2, l1), "ratio");

    m.add("vm.prot_ops", prot_ops, "count");

    m.add("treadmarks.twins", twins, "count");
    m.add("treadmarks.diffs_created", diffs_created, "count");
    m.add("treadmarks.diffs_applied", diffs_applied, "count");
    m.add("treadmarks.diff_bytes", diff_bytes, "bytes");
    m.add("treadmarks.write_notices", notices, "count");

    m.add("cashmere.page_transfers", page_transfers, "count");
    m.add("cashmere.dir_updates", dir_updates, "count");
    m.add("cashmere.write_notices", csm_notices, "count");

    m.add("net.messages", messages, "count");
    m.add("net.transfers", transfers, "count");
    m.add("net.bytes", bytes, "bytes");
    m.add("net.stream_bytes", stream_bytes, "bytes");
    m.add("net.one_sided_bytes", one_sided, "bytes");
    m.add("net.rdma_verbs", verbs, "count");
    m.add("net.doorbells", doorbells, "count");

    m.add("mem.heap_allocs", heap_allocs, "count");
    m.add("mem.pool_hits", pool_hits, "count");
    m.add("mem.pool_hit_ratio", ratio(pool_hits, pool_hits + heap_allocs),
          "ratio");
    m.add("mem.heap_allocs_per_fault",
          ratio(heap_allocs, read_faults + write_faults), "ratio");

    m.add("check.findings", findings, "count");
}

/** Chrome-trace JSON array: one complete ("X") event per span. */
std::string
spansJson(const Workload& w, const std::vector<Pass>& passes,
          std::uint64_t origin_ns)
{
    auto us = [origin_ns](std::uint64_t ns) {
        return static_cast<double>(ns - origin_ns) * 1e-3;
    };
    std::string out = strprintf(
        "[\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"mcbench %s\"}}",
        w.name);
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < w.specs.size(); ++i) {
            const StepTimes& t = passes[p].runs[i].times;
            const std::string id = strprintf("%zu.%zu", p, i);
            auto span = [&](const char* name, const char* parent,
                            std::uint64_t b, std::uint64_t e) {
                out += strprintf(
                    ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"exp\":\"%s\","
                    "\"spec\":\"%s\",\"parent\":\"%s\",\"sampled\":%s}}",
                    name, us(b), us(e) - us(b), id.c_str(),
                    w.specs[i].label().c_str(), parent,
                    passes[p].sampled ? "true" : "false");
            };
            span("setup", "", t.start, t.setupEnd);
            span("make_app", "setup", t.start, t.makeAppEnd);
            span("create", "setup", t.makeAppEnd, t.createEnd);
            span("configure", "setup", t.createEnd, t.setupEnd);
            span("run", "", t.setupEnd, t.runEnd);
            span("verify", "", t.runEnd, t.verifyEnd);
            span("teardown", "", t.verifyEnd, t.end);
        }
    }
    return out + "\n]\n";
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0)
        mcdsm_fatal("cannot write %s", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload* w = findWorkload(args.workload);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());
    for (const Spec& s : w->specs) {
        if (!configSupported(s.protocol, s.nprocs)) {
            std::fprintf(stderr, "mcbench: unsupported configuration %s\n",
                         s.label().c_str());
            return 2;
        }
    }

    // Sequential references, outside the timed window.
    std::map<std::string, double> reference;
    for (const Spec& s : w->specs) {
        if (reference.count(s.app))
            continue;
        RunOpts ref;
        ref.scale = kScale;
        ref.seed = args.seed;
        reference[s.app] = runSequential(s.app, ref).appResult.checksum;
    }

    std::unique_ptr<Sampler> sampler;
    if (args.trace)
        sampler = std::make_unique<Sampler>(kSampleCapacity);

    std::vector<Pass> passes;
    std::uint64_t attempted = 0, failed = 0;
    const std::uint64_t origin = nowNs();
    double pass_cpu = cpuSeconds();
    // Start another pass while it is expected to end no later than
    // half a pass past the window, so a run lasts about --seconds
    // whatever the pass length.
    const double window_ns = args.seconds * 1e9;
    const std::size_t min_passes = args.trace ? 2 : 1;
    auto another_pass = [&]() {
        if (passes.size() < min_passes)
            return true;
        const double spent = static_cast<double>(nowNs() - origin);
        return spent + 0.5 * spent / passes.size() <= window_ns;
    };
    while (another_pass()) {
        Pass pass;
        pass.sampled = args.trace && passes.size() % 2 == 1;
        if (pass.sampled)
            sampler->start(kSampleIntervalUs);
        for (std::size_t i = 0; i < w->specs.size(); ++i) {
            const Spec& s = w->specs[i];
            Expected expect;
            expect.sequential = reference[s.app];
            if (!passes.empty()) {
                const Outcome& first = passes.front().runs[i];
                expect.checksumBits = checksumBits(first.result.checksum);
                expect.elapsed = first.stats.elapsed;
            }
            pass.runs.push_back(runSpec(s, args.seed, &expect));
            ++attempted;
            if (!pass.runs.back().failure.empty()) {
                ++failed;
                std::printf("FAILED %s (pass %zu): %s\n", s.label().c_str(),
                            passes.size(), pass.runs.back().failure.c_str());
            }
        }
        if (pass.sampled)
            sampler->stop();
        double pass_wall = 0;
        for (const Outcome& o : pass.runs)
            pass_wall += o.times.wall();
        const double cpu = cpuSeconds();
        std::printf("pass %zu%s: wall %.3f s, process cpu %.3f s\n",
                    passes.size(), pass.sampled ? " (sampled)" : "",
                    pass_wall, cpu - pass_cpu);
        pass_cpu = cpu;
        passes.push_back(std::move(pass));
    }

    const std::size_t n = w->specs.size();
    auto unsampled = [](const Pass& p) { return !p.sampled; };
    auto sampled = [](const Pass& p) { return p.sampled; };
    auto wall = [](const StepTimes& t) { return t.wall(); };

    const Pass& first = passes.front();
    double sim_s = 0, events = 0, seq_bit_exact = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (checksumBits(first.runs[i].result.checksum) ==
            checksumBits(reference[w->specs[i].app]))
            ++seq_bit_exact;
        sim_s += static_cast<double>(first.runs[i].stats.elapsed) / kSecond;
        events += static_cast<double>(simEvents(first.runs[i].stats));
    }
    const double wall_s = sumOfMedians(passes, n, unsampled, wall);

    std::printf("mcbench %s seed %llu: %zu passes of %zu experiments, "
                "%llu failed\n",
                w->name, static_cast<unsigned long long>(args.seed),
                passes.size(), n, static_cast<unsigned long long>(failed));
    Metrics m;
    if (!args.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        m.add("wall_s", wall_s, "s");
        m.add("setup_s",
              sumOfMedians(passes, n, unsampled,
                           [](const StepTimes& t) { return t.setup(); }),
              "s");
        m.add("events_per_host_s",
              events / sumOfMedians(passes, n, unsampled,
                                    [](const StepTimes& t) { return t.run(); }),
              "events/s");
        m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
              "MB");
        m.add("sim_s", sim_s, "sim_s");
    } else {
        const double traced_wall_s = sumOfMedians(passes, n, sampled, wall);
        m.add("trace.sampled_wall_s", traced_wall_s, "s");
        m.add("trace.overhead_s", traced_wall_s - wall_s, "s");
        m.add("trace.samples", static_cast<double>(sampler->samples()),
              "count");
        m.add("apps.seq_bit_exact", seq_bit_exact, "count");
        m.add("apps.configure_s",
              sumOfMedians(passes, n, sampled,
                           [](const StepTimes& t) { return t.configure(); }),
              "s");
        m.add("dsm.create_s",
              sumOfMedians(passes, n, sampled,
                           [](const StepTimes& t) { return t.create(); }),
              "s");
        m.add("dsm.teardown_s",
              sumOfMedians(passes, n, sampled,
                           [](const StepTimes& t) { return t.teardown(); }),
              "s");
        addLayerCounts(m, *w, first);

        const std::string stem = args.out + "/" + w->name + "-seed" +
                                 std::to_string(args.seed);
        writeFile(stem + ".spans.json", spansJson(*w, passes, origin));
        if (!sampler->write(stem + ".samples"))
            mcdsm_fatal("cannot write %s.samples", stem.c_str());
        sampler.reset();
    }
    m.print();

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"host\": {\"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}, \"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                MCBENCH_BUILD_TYPE, m.json().c_str());
    return 0;
}
