#include "harness/tally.hh"

namespace perfbench {

namespace {
constexpr std::size_t kMaxProblems = 8;
}

void
Tally::check(bool ok, const std::string &what)
{
    if (ok)
        pass();
    else
        mismatch(what);
}

void
Tally::fail(std::string what)
{
    ++attempted_;
    ++failed_;
    if (problems_.size() < kMaxProblems)
        problems_.push_back(std::move(what));
}

} // namespace perfbench
