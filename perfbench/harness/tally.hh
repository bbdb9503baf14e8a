/**
 * @file
 * Failure accounting: every operation the benchmark attempts, and the
 * ones that failed -- a Result error, an unexpected structured error
 * reply, or an output that does not match its check.
 */

#ifndef PERFBENCH_HARNESS_TALLY_HH
#define PERFBENCH_HARNESS_TALLY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tally
{
  public:
    /** An operation that succeeded and matched its check. */
    void pass() { ++attempted_; }
    /** An operation that returned an error. */
    void error(const std::string &what) { fail("error: " + what); }
    /** An operation whose output disagreed with its check. */
    void mismatch(const std::string &what) { fail("mismatch: " + what); }
    /** pass() when @p ok, else mismatch(@p what). */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first few failure descriptions. */
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    void fail(std::string what);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_TALLY_HH
