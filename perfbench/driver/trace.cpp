#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
}  // namespace

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

void count_allocations(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }

void Tracer::open(const char* name) {
  std::int32_t kept_index = -1;
  if (kept_.size() < keep_limit_) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept_index = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(Span{name, 0, 0, parent, op_});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, 0, 0, allocations(), kept_index});
  // Read the clock last so the bookkeeping above is outside the span.
  stack_.back().start_ns = host_ns();
}

void Tracer::close() {
  const std::int64_t end = host_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  auto it = stats_.find(std::string_view{o.name});
  if (it == stats_.end()) it = stats_.emplace(o.name, SpanStats{}).first;
  SpanStats& s = it->second;
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - o.child_ns;
  s.allocs += allocations() - o.allocs0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept_index >= 0) {
    kept_[static_cast<std::size_t>(o.kept_index)].start_ns = o.start_ns;
    kept_[static_cast<std::size_t>(o.kept_index)].end_ns = end;
  }
}

void Tracer::add(std::string_view counter, double v) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) it = counters_.emplace(std::string{counter}, 0.0).first;
  it->second += v;
}

void Tracer::write(std::FILE* out) const {
  for (const Span& s : kept_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.op);
  }
}

pathload::core::StreamOutcome TimingChannel::run_stream(
    const pathload::core::StreamSpec& spec) {
  const std::uint64_t ev0 = events();
  const std::uint64_t al0 = allocations();
  pathload::core::StreamOutcome out;
  {
    Tracer::Scope span{&tr_, "sim.stream"};
    out = inner_.run_stream(spec);
  }
  const std::uint64_t allocs = allocations() - al0;
  tr_.add("sim.stream_pkts", out.sent_count);
  tr_.add("sim.stream_events", static_cast<double>(events() - ev0));
  tr_.add("sim.stream_allocs", static_cast<double>(allocs));
  return out;
}

void TimingChannel::idle(pathload::Duration d) {
  const std::uint64_t ev0 = events();
  {
    Tracer::Scope span{&tr_, "sim.idle"};
    inner_.idle(d);
  }
  tr_.add("sim.idle_events", static_cast<double>(events() - ev0));
}

pathload::core::BulkTransferOutcome TimingChannel::run_bulk_transfer(
    const pathload::core::BulkTransferSpec& spec) {
  pathload::core::BulkTransferOutcome out;
  {
    Tracer::Scope span{&tr_, "tcp.bulk"};
    out = inner_.bulk()->run_bulk_transfer(spec);
  }
  tr_.add("tcp.bytes_acked", static_cast<double>(out.bytes_acked.byte_count()));
  tr_.add("tcp.fast_retransmits", static_cast<double>(out.fast_retransmits));
  tr_.add("tcp.timeouts", static_cast<double>(out.timeouts));
  tr_.add("tcp.rate_samples", static_cast<double>(out.rate_samples.size()));
  return out;
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

void Digest::add_str(const std::string& s) {
  for (const unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  add_u64(s.size());
}

}  // namespace perfbench

// The driver's counting allocator: every global allocation goes through
// counted_alloc, which tallies it only while a traced op is running.
void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
