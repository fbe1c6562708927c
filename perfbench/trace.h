// In-memory span recorder for the traced benchmark run.
//
// Spans sit in the benchmark's own code, around its calls into the
// library's public functions; nothing inside the library is
// instrumented. Each thread appends to its own buffer (no lock on the
// recording path); a span's parent is the innermost open span of the
// same thread, and spans of one request share a request id. A layer's
// self time is its span's duration minus the time its child spans
// cover. Spans stay in memory and are written out as Chrome trace-event
// JSON when the run ends.
#ifndef QUORUM_PERFBENCH_TRACE_H
#define QUORUM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace {

struct span_record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Time covered by direct children (for self time).
    std::int64_t child_ns = 0;
    /// Index of the parent span in the same thread's buffer, or -1.
    std::int32_t parent = -1;
    std::uint64_t request = 0;
};

/// Per-name aggregate over every recorded span of that name.
struct span_totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::size_t count = 0;
};

class recorder {
public:
    static recorder& instance() {
        static recorder r;
        return r;
    }

    recorder(const recorder&) = delete;
    recorder& operator=(const recorder&) = delete;

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }
    [[nodiscard]] std::int64_t to_ns(
        std::chrono::steady_clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    /// Opens a span on the calling thread; returns its index.
    std::int32_t open(const char* name, std::uint64_t request) {
        thread_buffer& b = local();
        span_record s;
        s.name = name;
        s.request = request;
        s.parent = b.stack.empty() ? -1 : b.stack.back();
        const auto index = static_cast<std::int32_t>(b.spans.size());
        b.spans.push_back(s);
        b.stack.push_back(index);
        b.spans.back().start_ns = now_ns();
        return index;
    }

    void close(std::int32_t index) {
        const std::int64_t end = now_ns();
        thread_buffer& b = local();
        span_record& s = b.spans[static_cast<std::size_t>(index)];
        s.end_ns = end;
        b.stack.pop_back();
        if (s.parent >= 0) {
            b.spans[static_cast<std::size_t>(s.parent)].child_ns +=
                end - s.start_ns;
        }
    }

    /// Records an already-finished span with explicit times (used for
    /// intervals measured elsewhere, such as a request's queue wait).
    /// Returns its index; `parent` indexes the calling thread's buffer.
    std::int32_t add(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int32_t parent,
                     std::uint64_t request) {
        thread_buffer& b = local();
        span_record s;
        s.name = name;
        s.start_ns = start_ns;
        s.end_ns = end_ns;
        s.parent = parent;
        s.request = request;
        if (parent >= 0) {
            b.spans[static_cast<std::size_t>(parent)].child_ns +=
                end_ns - start_ns;
        }
        b.spans.push_back(s);
        return static_cast<std::int32_t>(b.spans.size() - 1);
    }

    /// Aggregates every recorded span by name.
    [[nodiscard]] std::map<std::string, span_totals> summarize() const {
        std::map<std::string, span_totals> out;
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& b : buffers_) {
            for (const span_record& s : b->spans) {
                span_totals& t = out[s.name];
                const auto dur = static_cast<double>(s.end_ns - s.start_ns);
                t.total_ns += dur;
                t.self_ns += dur - static_cast<double>(s.child_ns);
                ++t.count;
            }
        }
        return out;
    }

    [[nodiscard]] std::size_t span_count() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::size_t n = 0;
        for (const auto& b : buffers_) {
            n += b->spans.size();
        }
        return n;
    }

    /// Writes at most `max_events` spans (in thread, then record order)
    /// as Chrome trace-event JSON. Returns the number written.
    std::size_t write_chrome(const std::string& path,
                             std::size_t max_events) const;

private:
    struct thread_buffer {
        int tid = 0;
        std::vector<span_record> spans;
        std::vector<std::int32_t> stack;
    };

    recorder() : origin_(std::chrono::steady_clock::now()) {}

    thread_buffer& local() {
        // Buffers live as long as the recorder, so the cached pointer
        // stays valid after its thread exits.
        thread_local thread_buffer* mine = nullptr;
        if (mine == nullptr) {
            const std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<thread_buffer>());
            buffers_.back()->tid = static_cast<int>(buffers_.size());
            mine = buffers_.back().get();
        }
        return *mine;
    }

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<thread_buffer>> buffers_;
};

/// RAII span on the calling thread.
class span {
public:
    explicit span(const char* name, std::uint64_t request = 0)
        : index_(recorder::instance().open(name, request)) {}
    ~span() { recorder::instance().close(index_); }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    std::int32_t index_;
};

} // namespace perfbench::trace

#endif // QUORUM_PERFBENCH_TRACE_H
