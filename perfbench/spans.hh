/**
 * @file
 * Host-time spans recorded by the benchmark around each call it makes
 * into the simulator: name, start, end and parent. Spans stay in memory
 * and are written out once, when the benchmark ends, so recording them
 * costs two clock reads and a vector append per call.
 */

#ifndef TARTAN_PERFBENCH_SPANS_HH
#define TARTAN_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace tartan::perfbench {

/** Monotonic host time in nanoseconds (CLOCK_MONOTONIC on Linux). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span log. A disabled log times calls but keeps nothing. */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;  //!< index of the enclosing span, -1 at top
    };

    explicit SpanLog(bool enabled) : on(enabled) {}

    /** Open a span under the innermost open one; returns its handle. */
    int
    open(std::string name)
    {
        if (!on)
            return -1;
        Span s;
        s.name = std::move(name);
        s.parent = stack.empty() ? -1 : stack.back();
        s.start = nowNs();
        spans.push_back(std::move(s));
        stack.push_back(int(spans.size()) - 1);
        return stack.back();
    }

    /** Close span @p idx (must be the innermost open one). */
    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans[std::size_t(idx)].end = nowNs();
        stack.pop_back();
    }

    /** Sum of the durations (seconds) of spans named @p prefix*. */
    double
    seconds(const std::string &prefix) const
    {
        std::int64_t ns = 0;
        for (const Span &s : spans)
            if (s.name.rfind(prefix, 0) == 0)
                ns += s.end - s.start;
        return double(ns) * 1e-9;
    }

    /**
     * Self time (seconds) of the spans named @p prefix*: their duration
     * minus the part of it that their direct children cover.
     */
    double
    selfSeconds(const std::string &prefix) const
    {
        std::vector<std::int64_t> child(spans.size(), 0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[std::size_t(s.parent)] += s.end - s.start;
        std::int64_t ns = 0;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].name.rfind(prefix, 0) == 0)
                ns += spans[i].end - spans[i].start - child[i];
        return double(ns) * 1e-9;
    }

    /** Write every span as one JSON document to @p path. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"unit\":\"ns\",\"spans\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":"
               << s.parent << ",\"name\":\"" << s.name
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << "}";
        }
        os << "\n]}\n";
        return bool(os);
    }

  private:
    bool on;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/**
 * Times one call: stop() always returns the elapsed time; the span is recorded
 * only when the log is enabled.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name)
        : logRef(log), idx(log.open(std::move(name))), start(nowNs())
    {
    }

    ~ScopedSpan() { stop(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** End the span now (idempotent); returns its length in seconds. */
    double
    stop()
    {
        if (!done) {
            finish = nowNs();
            logRef.close(idx);
            done = true;
        }
        return double(finish - start) * 1e-9;
    }

  private:
    SpanLog &logRef;
    int idx;
    std::int64_t start;
    std::int64_t finish = 0;
    bool done = false;
};

} // namespace tartan::perfbench

#endif // TARTAN_PERFBENCH_SPANS_HH
