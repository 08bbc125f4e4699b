#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace fedbench {
namespace {

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Span> open;
  std::vector<Span> closed;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mutex
  std::atomic<std::uint64_t> next_id{0};
  bool enabled = false;  // set before any worker thread starts
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = r.buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(r.buffers.size());
  }
  return *buffer;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() { registry().enabled = true; }
bool Tracer::enabled() const { return registry().enabled; }

std::uint64_t Tracer::begin(const char* name, std::int64_t round) {
  if (!registry().enabled) return 0;
  ThreadBuffer& buffer = local_buffer();
  Span span;
  span.name = name;
  span.id = registry().next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  span.parent = buffer.open.empty() ? 0 : buffer.open.back().id;
  span.tid = buffer.tid;
  span.round = round;
  span.start_ns = now_ns();
  buffer.open.push_back(span);
  return span.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  ThreadBuffer& buffer = local_buffer();
  // Spans on one thread close in LIFO order (ScopedSpan guarantees it).
  Span span = buffer.open.back();
  buffer.open.pop_back();
  span.end_ns = t;
  buffer.closed.push_back(span);
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t round) {
  if (!registry().enabled) return;
  ThreadBuffer& buffer = local_buffer();
  Span span;
  span.name = name;
  span.id = registry().next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  span.parent = buffer.open.empty() ? 0 : buffer.open.back().id;
  span.tid = buffer.tid;
  span.round = round;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buffer.closed.push_back(span);
}

std::vector<Span> Tracer::collect() const {
  Registry& r = registry();
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buffer : r.buffers)
    all.insert(all.end(), buffer->closed.begin(), buffer->closed.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::int64_t round_limit) const {
  std::vector<Span> spans = collect();
  std::erase_if(spans, [&](const Span& s) { return s.round >= round_limit; });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"fedbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"round\":%lld}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.round),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanIndex::SpanIndex(std::vector<Span> all) : spans(std::move(all)) {
  std::unordered_map<std::uint64_t, std::size_t> position;
  position.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;
  child_ns.assign(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = position.find(s.parent);
    if (it != position.end()) child_ns[it->second] += s.duration_ns();
  }
}

std::vector<const Span*> SpanIndex::named(const char* name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans)
    if (std::string_view(s.name) == name) out.push_back(&s);
  return out;
}

std::int64_t SpanIndex::self_ns(const Span& span) const {
  const auto index = static_cast<std::size_t>(&span - spans.data());
  return span.duration_ns() - child_ns[index];
}

std::vector<double> SpanIndex::per_round_total_ms(const char* name) const {
  std::map<std::int64_t, double> totals;
  for (const Span* s : named(name))
    totals[s->round] += static_cast<double>(s->duration_ns()) / 1e6;
  std::vector<double> out;
  out.reserve(totals.size());
  for (const auto& [round, ms] : totals) out.push_back(ms);
  return out;
}

std::vector<double> SpanIndex::durations_us(
    std::initializer_list<const char*> names) const {
  std::vector<double> out;
  for (const char* name : names)
    for (const Span* s : named(name))
      out.push_back(static_cast<double>(s->duration_ns()) / 1e3);
  return out;
}

double SpanIndex::accounted_pct() const {
  double round_ns = 0.0;
  double child = 0.0;
  for (const Span* s : named("round")) {
    round_ns += static_cast<double>(s->duration_ns());
    child += static_cast<double>(s->duration_ns() - self_ns(*s));
  }
  return round_ns > 0.0 ? 100.0 * child / round_ns : 0.0;
}

}  // namespace fedbench
