#include "support/trace.hpp"

#if APGRE_TRACE_ENABLED

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace apgre {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

double now_seconds() {
  return std::chrono::duration<double>(Clock::now() - trace_epoch()).count();
}

/// Per-thread span buffer. The owning thread appends finished spans and the
/// collector drains them; `mu` arbitrates only that hand-off. depth and
/// next_sequence are touched by the owning thread alone.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanRecord> done;
  int thread_index = 0;
  int depth = 0;
  std::uint64_t next_sequence = 0;
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

BufferRegistry& registry() {
  // Leaked on purpose: worker threads (e.g. the scheduler pool) may still close
  // spans during static destruction, after a function-local static registry
  // would have been torn down.
  static BufferRegistry* r = new BufferRegistry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    BufferRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    fresh->thread_index = static_cast<int>(r.buffers.size());
    // The registry keeps the buffer alive past thread exit so spans closed
    // just before the thread died still reach the next collect_spans().
    r.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

}  // namespace

TraceSpan::TraceSpan(std::string name) : name_(std::move(name)) {
  ThreadBuffer& buffer = local_buffer();
  depth_ = buffer.depth++;
  sequence_ = buffer.next_sequence++;
  start_seconds_ = now_seconds();
}

TraceSpan::~TraceSpan() {
  const double end = now_seconds();
  ThreadBuffer& buffer = local_buffer();
  --buffer.depth;
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.done.push_back(SpanRecord{std::move(name_), start_seconds_, end,
                                   buffer.thread_index, depth_, sequence_});
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> out;
  BufferRegistry& r = registry();
  std::lock_guard<std::mutex> registry_lock(r.mu);
  for (auto& buffer : r.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), std::make_move_iterator(buffer->done.begin()),
               std::make_move_iterator(buffer->done.end()));
    buffer->done.clear();
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_seconds < b.start_seconds;
                   });
  return out;
}

void clear_spans() { (void)collect_spans(); }

}  // namespace apgre

#endif  // APGRE_TRACE_ENABLED
