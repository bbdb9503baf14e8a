#include "sim/prepared_trace.hh"

#include <unordered_map>

#include "common/history_register.hh"
#include "common/logging.hh"

namespace bpsim {

PreparedTrace::PreparedTrace(const MemoryTrace &trace)
    : name_(trace.name())
{
    std::size_t n = trace.conditionalCount();
    pcs.reserve(n);
    wordBits_.reserve(n);
    succBits_.reserve(n);
    takenBits_.reserve(n / 64 + 1);
    ghist.reserve(n);
    shist.reserve(n);
    branchIds_.reserve(n);

    std::uint64_t global = 0;
    // pc -> dense branch id in first-appearance order; each id's
    // self-history register lives at self[id].
    std::unordered_map<Addr, std::uint32_t> ids;
    ids.reserve(n / 64 + 16);
    std::vector<std::uint64_t> self;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &rec = trace[i];
        if (!rec.isConditional())
            continue;
        const std::size_t k = pcs.size();
        pcs.push_back(rec.pc);
        wordBits_.push_back(static_cast<std::uint16_t>(
            bits(wordIndex(rec.pc), 16)));
        // The successor already folds in the outcome, so the path
        // column replaces the full 8-byte target address with the only
        // bits pathHistoryStream can ever shift in.
        const Addr successor = rec.taken ? rec.target : rec.pc + 4;
        succBits_.push_back(static_cast<std::uint16_t>(
            bits(wordIndex(successor), 16)));
        if ((k & 63) == 0)
            takenBits_.push_back(0);
        if (rec.taken)
            takenBits_.back() |= std::uint64_t{1} << (k & 63);

        ghist.push_back(global);
        global = (global << 1) | (rec.taken ? 1u : 0u);

        const auto [it, fresh] = ids.try_emplace(
            rec.pc, static_cast<std::uint32_t>(self.size()));
        if (fresh)
            self.push_back(0);
        branchIds_.push_back(it->second);
        std::uint64_t &h = self[it->second];
        shist.push_back(h);
        h = (h << 1) | (rec.taken ? 1u : 0u);
    }
    staticBranches_ = self.size();
}

double
PreparedTrace::bytesPerBranch() const
{
    if (size() == 0)
        return 0.0;
    const std::size_t bytes = pcs.size() * sizeof(Addr) +
        wordBits_.size() * sizeof(std::uint16_t) +
        branchIds_.size() * sizeof(std::uint32_t) +
        succBits_.size() * sizeof(std::uint16_t) +
        takenBits_.size() * sizeof(std::uint64_t) +
        ghist.size() * sizeof(std::uint64_t) +
        shist.size() * sizeof(std::uint64_t);
    return static_cast<double>(bytes) / static_cast<double>(size());
}

std::vector<std::uint64_t>
PreparedTrace::pathHistoryStream(unsigned bits_per_target) const
{
    bpsim_assert(bits_per_target >= 1 && bits_per_target <= 16,
                 "bits per target out of range");
    std::vector<std::uint64_t> out;
    out.reserve(size());
    std::uint64_t reg = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        out.push_back(reg);
        reg = (reg << bits_per_target) |
            bits(succBits_[i], bits_per_target);
    }
    return out;
}

BhtHistory
PreparedTrace::bhtHistory(std::size_t entries, unsigned assoc,
                          BhtResetPolicy policy) const
{
    SetAssocBht bht(entries, assoc, 64, policy);
    BhtHistory out;
    out.reg.reserve(size());
    out.age.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
        const BhtLookup hit = bht.visit(pcs[i]);
        out.reg.push_back(hit.history);
        out.age.push_back(static_cast<std::uint8_t>(hit.age));
        bht.recordOutcome(pcs[i], taken(i));
    }
    out.missRate = bht.missRate();
    return out;
}

} // namespace bpsim
