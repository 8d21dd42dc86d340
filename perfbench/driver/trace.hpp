// Host-side tracing for the benchmark driver.
//
// Everything here observes the library from outside: spans are opened in
// the driver around calls into each layer, the channel decorator times the
// calls an estimator makes into the simulator, and the allocation counter
// is the driver binary's own replacement operator new. Nothing schedules an
// event or draws from an RNG, so a traced run is bit-identical to an
// untraced one (checked before timing, see main.cpp).

#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/channel.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Host time in nanoseconds (steady clock).
std::int64_t host_ns();

/// Number of operator new calls since start, counted only while enabled.
std::uint64_t allocations();
void count_allocations(bool on);

/// One closed span: a timed call into a layer.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into Tracer::kept(), -1 for an op root
  std::int32_t op;
};

/// Totals of every span closed under one name.
struct SpanStats {
  std::uint64_t count{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};  ///< total minus the time its child spans cover
  std::uint64_t allocs{0};  ///< allocations inside the span, children included
};

/// Spans kept in memory (up to a cap) and folded into per-name totals as
/// they close, plus named counters the channel decorator feeds.
class Tracer {
 public:
  /// Reserves room for `keep_limit` spans up front, so recording a span
  /// allocates nothing inside the ops it measures.
  explicit Tracer(std::size_t keep_limit) : keep_limit_{keep_limit} {
    kept_.reserve(keep_limit);
    stack_.reserve(16);
  }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tr, const char* name) : tr_{tr} {
      if (tr_ != nullptr) tr_->open(name);
    }
    ~Scope() {
      if (tr_ != nullptr) tr_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tr_;
  };

  /// `name` must outlive the tracer: kept spans hold the pointer.
  void open(const char* name);
  void close();

  void add(std::string_view counter, double v);

  void set_op(std::int32_t op) { op_ = op; }

  /// Keyed by name; the transparent comparator lets a lookup by
  /// string_view find an existing entry without allocating.
  using StatsMap = std::map<std::string, SpanStats, std::less<>>;
  using CounterMap = std::map<std::string, double, std::less<>>;

  const StatsMap& stats() const { return stats_; }
  const CounterMap& counters() const { return counters_; }
  const std::vector<Span>& kept() const { return kept_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Write the kept spans as JSON lines.
  void write(std::FILE* out) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t allocs0;
    std::int32_t kept_index;
  };

  std::size_t keep_limit_;
  std::int32_t op_{0};
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::uint64_t dropped_{0};
  StatsMap stats_;
  CounterMap counters_;
};

/// Forwarding decorator over a probe channel (and its bulk-TCP capability),
/// in the manner of core::MeteredChannel: every call goes to the inner
/// channel unchanged and is timed as a `sim.stream`, `sim.idle` or
/// `tcp.bulk` span. When the caller owns the Simulator it passes it in, so
/// the events each call processes are counted too.
class TimingChannel final : public pathload::core::ProbeChannel,
                            public pathload::core::BulkChannel {
 public:
  TimingChannel(pathload::core::ProbeChannel& inner, Tracer& tr,
                const pathload::sim::Simulator* sim)
      : inner_{inner}, tr_{tr}, sim_{sim} {}

  pathload::core::StreamOutcome run_stream(
      const pathload::core::StreamSpec& spec) override;
  void idle(pathload::Duration d) override;
  pathload::TimePoint now() override { return inner_.now(); }
  pathload::Duration rtt() const override { return inner_.rtt(); }
  pathload::core::BulkChannel* bulk() override {
    return inner_.bulk() != nullptr ? this : nullptr;
  }
  pathload::core::BulkTransferOutcome run_bulk_transfer(
      const pathload::core::BulkTransferSpec& spec) override;

 private:
  std::uint64_t events() const { return sim_ != nullptr ? sim_->events_processed() : 0; }

  pathload::core::ProbeChannel& inner_;
  Tracer& tr_;
  const pathload::sim::Simulator* sim_;
};

/// FNV-1a accumulator for the per-op correctness digest.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);
  void add_str(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};
};

}  // namespace perfbench
