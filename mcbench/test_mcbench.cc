/**
 * @file
 * The benchmark measures what the bench binaries run: its explicit
 * call sequence reproduces runExperiment bit for bit, and the counts
 * it reads from module getters agree with RunStats.
 */

#include <gtest/gtest.h>

#include "workload.h"

namespace mcbench {
namespace {

using namespace mcdsm;

/** The cheapest experiment of each workload. */
const Spec&
specOf(const char* workload, const std::string& label)
{
    const Workload* w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    for (const Spec& s : w->specs) {
        if (s.label() == label)
            return s;
    }
    ADD_FAILURE() << label << " is not in " << workload;
    return w->specs.front();
}

std::vector<Spec>
oneSpecPerWorkload()
{
    return {specOf("paper-p32", "lu/csm_poll/32/mc"),
            specOf("serve-p512", "kv/tmk_mc_poll/512/rdma"),
            specOf("checked-p8", "kv/tmk_mc_poll/8/mc/checked")};
}

TEST(McBench, WorkloadsAreSupportedConfigs)
{
    ASSERT_EQ(workloads().size(), 3u);
    for (const Workload& w : workloads()) {
        EXPECT_FALSE(w.specs.empty()) << w.name;
        for (const Spec& s : w.specs)
            EXPECT_TRUE(configSupported(s.protocol, s.nprocs)) << s.label();
    }
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(McBench, ExplicitSequenceMatchesRunExperiment)
{
    for (const Spec& s : oneSpecPerWorkload()) {
        const Outcome o = runSpec(s, kDefaultSeed, nullptr);
        const ExpResult r = runExperiment(s.app, s.protocol, s.nprocs,
                                          runOpts(s, kDefaultSeed));
        EXPECT_EQ(checksumBits(o.result.checksum),
                  checksumBits(r.appResult.checksum))
            << s.label();
        EXPECT_EQ(o.stats.elapsed, r.elapsed) << s.label();
        EXPECT_EQ(o.stats.messages, r.stats.messages) << s.label();
        EXPECT_EQ(o.stats.checkViolations, r.checkViolations) << s.label();
        EXPECT_EQ(o.stats.service, r.stats.service) << s.label();
    }
}

TEST(McBench, ModuleGettersAgreeWithRunStats)
{
    for (const Spec& s : oneSpecPerWorkload()) {
        const Outcome o = runSpec(s, kDefaultSeed, nullptr);
        const RunStats& st = o.stats;
        const ModuleCounts& c = o.counts;
        EXPECT_EQ(c.netBytes, st.mcBytes) << s.label();
        EXPECT_EQ(c.netOneSidedBytes, st.netOneSidedBytes) << s.label();
        EXPECT_EQ(c.netVerbs, st.rdmaReads + st.rdmaWrites +
                                  st.rdmaCasOps + st.rdmaFaaOps)
            << s.label();
        // Every message crossing nodes and every verb is one backend
        // transfer; broadcasts and write-through stores add more.
        EXPECT_GE(c.netTransfers, c.netVerbs) << s.label();
        EXPECT_GT(c.netTransfers, 0u) << s.label();
        EXPECT_EQ(c.cacheAccesses,
                  st.total([](const ProcStats& p) { return p.cacheAccesses; }))
            << s.label();
        // One fiber per simulated processor, taken from the stack cache
        // or freshly allocated.
        EXPECT_EQ(c.stacksAllocated + c.stacksReused, st.procs.size())
            << s.label();
        EXPECT_GT(c.yieldSwitches, 0u) << s.label();
    }
}

TEST(McBench, RunSpecVerifiesAgainstExpectations)
{
    const Spec& s = specOf("checked-p8", "kv/tmk_mc_poll/8/mc/checked");
    const Outcome good = runSpec(s, kDefaultSeed, nullptr);

    Expected expect;
    expect.sequential = good.result.checksum;
    expect.checksumBits = checksumBits(good.result.checksum);
    expect.elapsed = good.stats.elapsed;
    EXPECT_EQ(runSpec(s, kDefaultSeed, &expect).failure, "");

    Expected wrong_sum = expect;
    wrong_sum.sequential += 1;
    EXPECT_NE(runSpec(s, kDefaultSeed, &wrong_sum).failure, "");

    Expected wrong_bits = expect;
    wrong_bits.checksumBits ^= 1;
    EXPECT_NE(runSpec(s, kDefaultSeed, &wrong_bits).failure, "");

    Expected wrong_time = expect;
    wrong_time.elapsed += 1;
    EXPECT_NE(runSpec(s, kDefaultSeed, &wrong_time).failure, "");
}

TEST(McBench, SeedReachesTheKvStreams)
{
    const Spec& s = specOf("checked-p8", "kv/tmk_mc_poll/8/mc/checked");
    const Outcome a = runSpec(s, kDefaultSeed, nullptr);
    const Outcome b = runSpec(s, kHeldOutSeed, nullptr);
    EXPECT_NE(checksumBits(a.result.checksum),
              checksumBits(b.result.checksum));
}

TEST(McBench, UnsupportedConfigIsRejected)
{
    Spec s{"lu", ProtocolKind::CsmPp, 32, NetKind::Mc, false};
    ASSERT_FALSE(configSupported(s.protocol, s.nprocs));
    EXPECT_DEATH(runSpec(s, kDefaultSeed, nullptr), "unsupported");
}

} // namespace
} // namespace mcbench
