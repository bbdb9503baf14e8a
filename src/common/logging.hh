/**
 * @file
 * Error and status reporting, modelled on the gem5 logging conventions.
 *
 * panic()  -- an internal invariant is broken (a bug in bpsim itself);
 *             aborts so a core dump / debugger is useful.
 * fatal()  -- the simulation cannot continue because of user input
 *             (bad configuration, unreadable trace file); exits cleanly.
 * warn()   -- something suspicious but survivable.
 * inform() -- plain status output.
 */

#ifndef BPSIM_COMMON_LOGGING_HH
#define BPSIM_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace bpsim {

namespace detail {

/** Shared implementation: format, print with a severity prefix. */
void logMessage(const char *prefix, const std::string &msg,
                const char *file, int line);

/** Stream-concatenate a parameter pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace detail

/** Abort the process: internal invariant violated. */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

/** Exit the process: unrecoverable user-level error. */
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);

/** Print a warning; execution continues. */
void warnImpl(const std::string &msg, const char *file, int line);

/** Print an informational message. */
void informImpl(const std::string &msg);

/**
 * Suppress all non-fatal log output (used by tests and by benches that
 * must keep their stdout machine-readable).
 */
void setQuiet(bool quiet);

/** @return whether non-fatal output is currently suppressed. */
bool quiet();

} // namespace bpsim

#define bpsim_panic(...) \
    ::bpsim::panicImpl(::bpsim::detail::concat(__VA_ARGS__), __FILE__, \
                       __LINE__)
#define bpsim_fatal(...) \
    ::bpsim::fatalImpl(::bpsim::detail::concat(__VA_ARGS__), __FILE__, \
                       __LINE__)
#define bpsim_warn(...) \
    ::bpsim::warnImpl(::bpsim::detail::concat(__VA_ARGS__), __FILE__, \
                      __LINE__)
#define bpsim_inform(...) \
    ::bpsim::informImpl(::bpsim::detail::concat(__VA_ARGS__))

/** panic() unless the stated internal invariant holds. */
#define bpsim_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::bpsim::panicImpl( \
                ::bpsim::detail::concat("assertion '", #cond, \
                                        "' failed: ", ##__VA_ARGS__), \
                __FILE__, __LINE__); \
        } \
    } while (0)

#endif // BPSIM_COMMON_LOGGING_HH
