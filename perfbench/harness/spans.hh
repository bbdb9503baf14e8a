/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call the benchmark makes into a module's public API:
 * a name (the layer, e.g. "trace.intern"), a start and an end on the
 * monotonic clock, the id of the span that caused it, and the id of
 * the request it belongs to.  Spans are recorded from the benchmark's
 * own code around each call -- nothing inside src/ is instrumented --
 * kept in memory, and written out once when the pass ends.
 *
 * A disabled recorder records nothing, so untraced passes pay only a
 * branch per call site.
 */

#ifndef PERFBENCH_HARNESS_SPANS_HH
#define PERFBENCH_HARNESS_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock (CLOCK_MONOTONIC on Linux), the
 *  same clock Python's time.monotonic() reads. */
double monotonicSeconds();

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    /** Id of the enclosing span; 0 for a root. */
    std::uint64_t parent = 0;
    /** Request the span served; 0 when it served none. */
    std::uint64_t request = 0;

    double duration() const { return end - start; }
};

/** Thread-safe span store.  Ids start at 1. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Store a finished span (nothing when disabled). */
    void add(Span span);

    /** Reserve an id for a span that will be added later, so its
     *  children can name it as their parent. */
    std::uint64_t reserveId();

    std::vector<Span> spans() const;

    /** Write every span as a JSON array to @p path. */
    bool writeJson(const std::string &path) const;

  private:
    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

/**
 * Times one call: opens at construction, records at finish() or
 * destruction.  The name may be set after the call returns, when the
 * outcome (hit or miss, replay path) decides which layer it was.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, std::string name,
               std::uint64_t parent = 0, std::uint64_t request = 0);
    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }
    void rename(std::string name) { span_.name = std::move(name); }

    /** Record the span now; later calls do nothing.  Returns its
     *  duration in seconds, measured whether or not tracing is on. */
    double finish();

  private:
    SpanRecorder &recorder_;
    Span span_;
    bool done_ = false;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children (spans naming it as parent) cover.
 * Overlapping children are counted once, and child time outside the
 * parent's interval is ignored.  Keyed by span id.
 */
std::map<std::uint64_t, double> selfSeconds(const std::vector<Span> &spans);

/** selfSeconds() summed per span name. */
std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_SPANS_HH
