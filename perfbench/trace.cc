#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

Tracer::Span
Tracer::span(const char *name)
{
    if (!enabled_)
        return Span(nullptr, -1);
    spans_.push_back(SpanRecord{name, open_, now(), -1.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return Span(this, open_);
}

void
Tracer::close(int index)
{
    SpanRecord &s = spans_[static_cast<std::size_t>(index)];
    s.end = now();
    open_ = s.parent;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    // Children close before their parent, so summing every closed
    // child's duration into its parent gives the covered time.
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0 && s.end >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (s.name == name && s.end >= 0)
            total += s.end - s.start - child[i];
    }
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_) {
        if (s.name == name && s.end >= 0)
            out.push_back(s.end - s.start);
    }
    return out;
}

void
Tracer::writeJson(std::ostream &os) const
{
    char buf[64];
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        os << (i ? ",\n " : "") << "{\"name\": \"" << s.name
           << "\", \"parent\": " << s.parent;
        std::snprintf(buf, sizeof buf, ", \"start\": %.9f, \"end\": %.9f}",
                      s.start, s.end);
        os << buf;
    }
    os << "]\n";
}

}  // namespace perfbench
