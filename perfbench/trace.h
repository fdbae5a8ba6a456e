/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. The benchmark
 * opens a span around each public layer call it makes; spans nest by
 * construction order, are kept in memory and are written out once the
 * run ends. A disabled tracer records nothing and reads no clock.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One closed (or still open) span. Times are host seconds. */
struct SpanRecord
{
    std::string name;
    int parent = -1;     ///< Index of the enclosing span, -1 at the root.
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = -1.0;   ///< Negative while the span is open.
};

/** Records spans when enabled; every call is a no-op otherwise. */
class Tracer
{
  public:
    /** RAII handle: the span ends when the handle is destroyed. */
    class Span
    {
      public:
        Span(Span &&other) noexcept
            : tracer_(other.tracer_), index_(other.index_)
        {
            other.tracer_ = nullptr;
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        Span &operator=(Span &&) = delete;
        ~Span()
        {
            if (tracer_ != nullptr)
                tracer_->close(index_);
        }

      private:
        friend class Tracer;
        Span(Tracer *tracer, int index) : tracer_(tracer), index_(index) {}
        Tracer *tracer_;
        int index_;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span named @p name under the innermost open span. */
    Span span(const char *name);

    /** Every span recorded so far, in opening order. */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Summed self time of every closed span named @p name: each span's
     * duration minus the time its direct children cover.
     */
    double selfSeconds(const std::string &name) const;

    /** Durations of the closed spans named @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write the spans as a JSON array of {name,parent,start,end}. */
    void writeJson(std::ostream &os) const;

  private:
    double now() const;
    void close(int index);

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    int open_ = -1;  ///< Innermost open span.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
