#include "harness/spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "service/json.hh"

namespace perfbench {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (span.id == 0)
        span.id = nextId_++;
    spans_.push_back(std::move(span));
}

std::uint64_t
SpanRecorder::reserveId()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char times[96];
        std::snprintf(times, sizeof(times),
                      "\"start\": %.9f, \"end\": %.9f", s.start, s.end);
        out << "  {\"name\": \""
            << bpsim::service::jsonEscape(s.name) << "\", " << times
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder &recorder, std::string name,
                       std::uint64_t parent, std::uint64_t request)
    : recorder_(recorder)
{
    span_.name = std::move(name);
    span_.parent = parent;
    span_.request = request;
    span_.id = recorder_.reserveId();
    span_.start = monotonicSeconds();
}

double
ScopedSpan::finish()
{
    if (done_)
        return span_.duration();
    done_ = true;
    span_.end = monotonicSeconds();
    recorder_.add(span_);
    return span_.duration();
}

std::map<std::uint64_t, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::uint64_t, double> self;
    for (const Span &s : spans) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the parent.
            std::vector<std::pair<double, double>> iv = it->second;
            std::sort(iv.begin(), iv.end());
            double run_start = 0.0, run_end = 0.0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (open && a <= run_end) {
                    run_end = std::max(run_end, b);
                    continue;
                }
                if (open)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
                open = true;
            }
            if (open)
                covered += run_end - run_start;
        }
        self[s.id] = s.duration() - covered;
    }
    return self;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans)
{
    const std::map<std::uint64_t, double> self = selfSeconds(spans);
    std::map<std::string, double> byName;
    for (const Span &s : spans)
        byName[s.name] += self.at(s.id);
    return byName;
}

} // namespace perfbench
