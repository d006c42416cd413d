/**
 * @file
 * The benchmark's workloads and the call sequence it times.
 *
 * A workload is a fixed list of experiments (app x protocol x P x
 * net x checks). One experiment is driven through the library's
 * public entry points — makeApp, DsmSystem::create, App::configure,
 * DsmSystem::run, DsmSystem::stats, App::result — configured exactly
 * as harness/runner.cc's runExperiment configures them, so that the
 * host time measured here is the host time the bench binaries pay.
 * test_mcbench.cc holds the two paths bit-identical.
 */

#ifndef MCBENCH_WORKLOAD_H
#define MCBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.h"
#include "dsm/stats.h"
#include "harness/runner.h"

namespace mcbench {

/** One experiment of a workload. */
struct Spec
{
    std::string app;
    mcdsm::ProtocolKind protocol = mcdsm::ProtocolKind::None;
    int nprocs = 1;
    mcdsm::NetKind net = mcdsm::NetKind::Mc;
    /** Run under --check=all. */
    bool checked = false;

    /** "app/protocol/P/net[/checked]". */
    std::string label() const;
};

struct Workload
{
    const char* name;
    std::vector<Spec> specs;
};

/** All workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload>& workloads();

/** The workload called @p name, or nullptr. */
const Workload* findWorkload(const std::string& name);

/** Seed the benchmark uses when none is given. */
constexpr std::uint64_t kDefaultSeed = 1;
/**
 * Seed kept back from tuning: a later performance claim must also
 * hold on it (choosing-metrics guide, section 6.3).
 */
constexpr std::uint64_t kHeldOutSeed = 7919;

/** Problem size of every experiment (EXPERIMENTS.md's default). */
constexpr mcdsm::AppScale kScale = mcdsm::AppScale::Small;

/** The RunOpts a bench binary builds for @p s with `--seed=seed`. */
mcdsm::RunOpts runOpts(const Spec& s, std::uint64_t seed);

/** Steady-clock nanoseconds. */
std::uint64_t nowNs();

/**
 * Steady-clock boundaries (ns) of the steps of one experiment; the
 * spans of the traced run and every host time are taken from them.
 */
struct StepTimes
{
    std::uint64_t start = 0, makeAppEnd = 0, createEnd = 0, setupEnd = 0,
                  runEnd = 0, verifyEnd = 0, end = 0;

    static double
    seconds(std::uint64_t from, std::uint64_t to)
    {
        return static_cast<double>(to - from) * 1e-9;
    }

    double create() const { return seconds(makeAppEnd, createEnd); }
    double configure() const { return seconds(createEnd, setupEnd); }
    double setup() const { return seconds(start, setupEnd); }
    double run() const { return seconds(setupEnd, runEnd); }
    double teardown() const { return seconds(verifyEnd, end); }
    double wall() const { return seconds(start, end); }
};

/** Counters read from module getters while the system is alive. */
struct ModuleCounts
{
    std::uint64_t netTransfers = 0; ///< backend operations of any kind
    std::uint64_t netBytes = 0;
    std::uint64_t netOneSidedBytes = 0;
    std::uint64_t netVerbs = 0; ///< one-sided read/write/CAS/FAA verbs
    std::uint64_t cacheAccesses = 0;
    std::uint64_t yieldSwitches = 0;
    std::uint64_t stacksAllocated = 0; ///< Fiber::stacksAllocated delta
    std::uint64_t stacksReused = 0;    ///< Fiber::stacksReused delta
};

/**
 * Relative tolerance between an app's parallel and sequential
 * checksums, as tests/test_apps.cc allows it: parallel reductions sum
 * in another order than the sequential run, so only TSP's integer
 * optimum is bit-exact by construction.
 */
double checksumTolerance(const std::string& app);

/** What a correct run of a spec must reproduce. */
struct Expected
{
    /** The app's sequential-reference checksum. */
    double sequential = 0;
    /** Bits of this spec's checksum in an earlier pass (with elapsed). */
    std::uint64_t checksumBits = 0;
    /** Simulated elapsed time of an earlier pass (0: none yet). */
    mcdsm::Time elapsed = 0;
};

/** Everything one experiment produced. */
struct Outcome
{
    mcdsm::AppResult result;
    mcdsm::RunStats stats;
    ModuleCounts counts;
    StepTimes times;
    /** Why verification failed; empty when it passed or was skipped. */
    std::string failure;
};

/**
 * Run one experiment through the explicit call sequence: set up, run,
 * collect stats and result, verify against @p expect (skipped when
 * null), tear down. Dies (mcdsm_fatal) on a spec that
 * configSupported() refuses.
 */
Outcome runSpec(const Spec& s, std::uint64_t seed,
                const Expected* expect);

/**
 * Simulator work proxy, counted exactly as bench_scale's simEvents so
 * the figures line up with BENCH_8/BENCH_10 and ci/perf_baseline.json.
 */
std::uint64_t simEvents(const mcdsm::RunStats& s);

/** The bit pattern of a checksum, for bit-exact comparison. */
std::uint64_t checksumBits(double checksum);

} // namespace mcbench

#endif // MCBENCH_WORKLOAD_H
