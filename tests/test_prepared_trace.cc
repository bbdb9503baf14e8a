/**
 * @file
 * Tests for the sweep-optimised trace representation: every precomputed
 * stream must agree with a hand-maintained online reference.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "predictor/bht.hh"
#include "sim/prepared_trace.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace
smallWorkload(std::uint64_t seed = 3, std::uint64_t target = 5'000)
{
    WorkloadParams p;
    p.name = "prepared-unit";
    p.seed = seed;
    p.staticBranches = 80;
    p.functionCount = 8;
    p.targetConditionals = target;
    return generateTrace(p);
}

} // namespace

TEST(PreparedTrace, ExtractsOnlyConditionals)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    EXPECT_EQ(t.size(), raw.conditionalCount());
    EXPECT_EQ(t.name(), raw.name());
}

TEST(PreparedTrace, ColumnsMatchSourceRecords)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::size_t j = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (!raw[i].isConditional())
            continue;
        ASSERT_EQ(t.pc(j), raw[i].pc) << "conditional " << j;
        ASSERT_EQ(t.taken(j), raw[i].taken) << "conditional " << j;
        ++j;
    }
    EXPECT_EQ(j, t.size());
}

TEST(PreparedTrace, GlobalHistoryMatchesOnlineShiftRegister)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::uint64_t ref = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.globalHistory(i), ref) << "instance " << i;
        ref = (ref << 1) | (t.taken(i) ? 1 : 0);
    }
}

TEST(PreparedTrace, SelfHistoryMatchesPerBranchRegisters)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::unordered_map<Addr, std::uint64_t> ref;
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.selfHistory(i), ref[t.pc(i)]) << "instance " << i;
        auto &h = ref[t.pc(i)];
        h = (h << 1) | (t.taken(i) ? 1 : 0);
    }
}

TEST(PreparedTrace, PathStreamMatchesOnlineRegister)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);

    // Online reference: rebuild from the raw conditional stream.
    std::vector<std::uint64_t> ref;
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const BranchRecord &rec = raw[i];
        if (!rec.isConditional())
            continue;
        ref.push_back(reg);
        Addr successor = rec.taken ? rec.target : rec.pc + 4;
        reg = (reg << 2) | bits(wordIndex(successor), 2);
    }

    auto stream = t.pathHistoryStream(2);
    ASSERT_EQ(stream.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(stream[i], ref[i]) << "instance " << i;
}

TEST(PreparedTrace, BhtStreamMatchesOnlineBht)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);

    const std::size_t entries = 64;
    const unsigned assoc = 4;
    const unsigned bits_ = 7;
    SetAssocBht ref(entries, assoc, bits_);
    const BhtHistory hist =
        t.bhtHistory(entries, assoc, BhtResetPolicy::C3ffPrefix);
    const BhtNarrowing width(BhtResetPolicy::C3ffPrefix, bits_);
    ASSERT_EQ(hist.reg.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(hist.at(i, width), ref.visit(t.pc(i)).history)
            << "instance " << i;
        ref.recordOutcome(t.pc(i), t.taken(i));
    }
    EXPECT_DOUBLE_EQ(hist.missRate, ref.missRate());
}

TEST(PreparedTrace, BhtStreamsDifferByHistoryWidth)
{
    // The 0xC3FF reset prefix depends on the register width, so the
    // registers derived for different widths are NOT suffixes of one
    // another: the age column is what makes the derivation exact.
    MemoryTrace raw = smallWorkload(7);
    PreparedTrace t(raw);
    const BhtHistory hist = t.bhtHistory(32, 2, BhtResetPolicy::C3ffPrefix);
    const BhtNarrowing narrow(BhtResetPolicy::C3ffPrefix, 4);
    const BhtNarrowing wide(BhtResetPolicy::C3ffPrefix, 12);
    bool low_bits_differ = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if ((hist.at(i, wide) & mask(4)) != hist.at(i, narrow)) {
            low_bits_differ = true;
            break;
        }
    }
    EXPECT_TRUE(low_bits_differ);
}

TEST(PreparedTrace, OneBhtPassMatchesPerWidthBhtForEveryPolicy)
{
    // One 64-bit BHT pass serves every register width: for each
    // geometry and reset policy, the register BhtNarrowing derives
    // for width w must equal an online SetAssocBht built at width w
    // (its own reset prefix), and the miss rate must match exactly.
    MemoryTrace raw = smallWorkload(7);
    PreparedTrace t(raw);
    struct Geometry
    {
        std::size_t entries;
        unsigned assoc;
    };
    std::vector<unsigned> widths;
    for (unsigned w = 0; w <= 20; ++w)
        widths.push_back(w);
    for (unsigned w : {31u, 32u, 63u, 64u})
        widths.push_back(w);
    for (const Geometry g : {Geometry{64, 1}, Geometry{64, 4},
                             Geometry{32, 2}}) {
        for (BhtResetPolicy policy :
             {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
              BhtResetPolicy::Ones, BhtResetPolicy::Hold}) {
            const BhtHistory hist = t.bhtHistory(g.entries, g.assoc, policy);
            ASSERT_EQ(hist.reg.size(), t.size());
            ASSERT_EQ(hist.age.size(), t.size());
            for (unsigned w : widths) {
                const BhtNarrowing width(policy, w);
                SetAssocBht ref(g.entries, g.assoc, w, policy);
                for (std::size_t i = 0; i < t.size(); ++i) {
                    ASSERT_EQ(hist.at(i, width),
                              ref.visit(t.pc(i)).history)
                        << bhtResetPolicyName(policy) << " " << g.entries
                        << "/" << g.assoc << " width " << w
                        << " instance " << i;
                    ref.recordOutcome(t.pc(i), t.taken(i));
                }
                EXPECT_EQ(hist.missRate, ref.missRate())
                    << bhtResetPolicyName(policy) << " " << g.entries
                    << "/" << g.assoc << " width " << w;
            }
        }
    }
}

TEST(PreparedTrace, EmptyTrace)
{
    MemoryTrace raw("empty");
    PreparedTrace t(raw);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.pathHistoryStream(2).empty());
    const BhtHistory bht = t.bhtHistory(16, 4, BhtResetPolicy::C3ffPrefix);
    EXPECT_TRUE(bht.reg.empty());
    EXPECT_TRUE(bht.age.empty());
    EXPECT_DOUBLE_EQ(bht.missRate, 0.0);
    EXPECT_DOUBLE_EQ(t.bytesPerBranch(), 0.0);
}

TEST(PreparedTrace, TakenWordsPackOutcomesSixtyFourPerWord)
{
    MemoryTrace raw = smallWorkload(11);
    PreparedTrace t(raw);
    ASSERT_EQ(t.takenWordCount(), (t.size() + 63) / 64);
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ((t.takenWord(i >> 6) >> (i & 63)) & 1u,
                  t.taken(i) ? 1u : 0u)
            << "instance " << i;
    }
    // Bits past the last branch stay zero (the fused kernel consumes
    // whole words).
    const std::uint64_t last = t.takenWord(t.takenWordCount() - 1);
    for (std::size_t b = t.size() & 63; b != 0 && b < 64; ++b)
        EXPECT_EQ((last >> b) & 1u, 0u) << "tail bit " << b;
}

TEST(PreparedTrace, BytesPerBranchReflectsPackedColumns)
{
    // pc (8) + word bits (2) + branch id (4) + ghist (8) + shist (8)
    // + one outcome BIT + 2 bytes of successor path bits: ~32.13, not
    // the 37 of a layout with byte-wide outcomes and 8-byte targets.
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    EXPECT_GE(t.bytesPerBranch(), 32.125);
    EXPECT_LT(t.bytesPerBranch(), 32.2);
}

TEST(PreparedTrace, BranchIdsAreDenseInFirstAppearanceOrder)
{
    MemoryTrace raw = smallWorkload();
    PreparedTrace t(raw);
    std::unordered_map<Addr, std::uint32_t> ids;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const auto [it, fresh] = ids.try_emplace(
            t.pc(i), static_cast<std::uint32_t>(ids.size()));
        ASSERT_EQ(t.branchId(i), it->second) << "instance " << i;
    }
    EXPECT_EQ(t.staticBranches(), ids.size());
    EXPECT_GT(t.staticBranches(), 1u);
}

TEST(PreparedTrace, PathStreamSurvivesSuccessorBitNarrowing)
{
    // The path column keeps only the low 16 successor word-index bits;
    // pathHistoryStream asserts bits_per_target <= 16, so the widest
    // legal request must still see every bit it can shift in.
    MemoryTrace raw = smallWorkload(13);
    PreparedTrace t(raw);
    std::vector<std::uint64_t> ref;
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const BranchRecord &rec = raw[i];
        if (!rec.isConditional())
            continue;
        ref.push_back(reg);
        Addr successor = rec.taken ? rec.target : rec.pc + 4;
        reg = (reg << 16) | bits(wordIndex(successor), 16);
    }
    auto stream = t.pathHistoryStream(16);
    ASSERT_EQ(stream.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(stream[i], ref[i]) << "instance " << i;
}
