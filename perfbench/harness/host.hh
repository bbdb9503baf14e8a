/**
 * @file
 * Host fingerprint and process resource readings, attached to every
 * benchmark result so a number can be traced to the machine and build
 * that produced it.
 */

#ifndef PERFBENCH_HARNESS_HOST_HH
#define PERFBENCH_HARNESS_HOST_HH

#include <cstdint>
#include <string>

#include "service/json.hh"

namespace perfbench {

/** CPU model, hardware threads, compiler, build type and the SIMD
 *  target detectSimdTarget() picks on this host. */
bpsim::service::JsonValue hostFingerprint();

/**
 * Host-speed control: milliseconds one thread takes for eight fixed,
 * interleaved chains of integer hashing steps, median of three
 * repetitions.  The chains keep the core's execution ports busy, so a
 * hyperthread sibling that another tenant keeps busy slows them as it
 * slows the program.  They do not depend on the code under test: when
 * the control rises, the host, not the program, slowed down.
 */
double hostControlMs();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Total bytes of the regular files under @p dir (0 if absent). */
std::uint64_t directoryBytes(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HOST_HH
