#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/channel.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

namespace pathload::scenario {

/// ProbeChannel backend that sends periodic streams through the simulator.
///
/// The sender and receiver are modelled as hosts with *independent clocks*
/// (configurable constant offsets): probe packets carry sender-clock
/// timestamps, the receiver stamps arrivals with its own clock, and the
/// SLoPS analysis must work on the resulting relative OWDs alone —
/// faithfully reproducing the real tool's "no clock synchronization
/// required" property (Section IV).
class SimProbeChannel final : public core::ProbeChannel, public core::BulkChannel {
 public:
  SimProbeChannel(sim::Simulator& sim, sim::Path& path);
  ~SimProbeChannel() override;

  core::StreamOutcome run_stream(const core::StreamSpec& spec) override;
  void idle(Duration d) override { sim_.run_for(d); }
  TimePoint now() override { return sim_.now(); }
  Duration rtt() const override;

  /// Bulk-TCP capability: a simulated path can always host a greedy Reno
  /// connection (tcp::run_bulk_transfer), so BTC runs over this channel.
  core::BulkChannel* bulk() override { return this; }
  core::BulkTransferOutcome run_bulk_transfer(
      const core::BulkTransferSpec& spec) override;

  /// Clock offsets of the two hosts relative to the simulation clock.
  void set_sender_clock_offset(Duration d) { sender_offset_ = d; }
  void set_receiver_clock_offset(Duration d) { receiver_offset_ = d; }

  /// Test hook: extra transmission delay injected before packet `seq` of
  /// every stream (models a sender-side context switch; the anomaly shifts
  /// both the actual send time and the sender timestamp).
  using SendGapInjector = std::function<Duration(std::uint32_t seq)>;
  void set_send_gap_injector(SendGapInjector f) { gap_injector_ = std::move(f); }

  std::uint32_t flow() const { return flow_; }

  /// The three ways a stream is resolved (docs/ENGINE.md), fastest last.
  enum class BurstPath {
    /// One scheduled send per probe and one delivery per hop.
    kEventDriven,
    /// All-fluid unimpaired path: closed-form transit, then K accounting
    /// events in time order, fired by one timer that re-arms itself with
    /// the next of K tickets reserved at once.
    kKeyedBatch,
    /// All-fluid path, empty event queue: one closed-form pass and
    /// Simulator::fast_forward, no events scheduled.
    kClosedForm,
  };

  /// Test and microbenchmark hook: the fastest path a stream may take
  /// (default kClosedForm). Capped at kKeyedBatch, a channel counts events
  /// and tickets exactly as the closed form must; kEventDriven is the
  /// referee for every fast path's outcomes. Change it only between streams.
  void set_fastest_burst_path(BurstPath p) { fastest_ = p; }

  /// How streams were resolved. A pure observer: counting draws nothing
  /// and schedules nothing.
  struct StreamPaths {
    std::uint64_t closed_form{0};
    std::uint64_t keyed_batch{0};
    std::uint64_t event_driven{0};
    // Why a stream missed the closed form; each such stream counts once.
    std::uint64_t queue_busy{0};  ///< other events were pending at its start
    std::uint64_t not_fluid{0};   ///< a link of the path serves packets
    std::uint64_t capped{0};      ///< set_fastest_burst_path ruled it out
  };
  const StreamPaths& stream_paths() const { return paths_; }

 private:
  class Receiver final : public sim::PacketHandler {
   public:
    void handle(const sim::Packet& p) override;
    SimProbeChannel* channel{nullptr};
  };

  std::uint64_t probe_drops() const;
  std::uint64_t probe_dups() const;
  std::uint64_t path_drops() const;  // every flow's, summed over the hops
  std::uint64_t path_dups() const;
  bool path_impaired() const;
  bool path_all_fluid() const;
  sim::Packet probe_packet(const core::StreamSpec& spec) const;
  TimePoint transit_burst(const core::StreamSpec& spec);
  void resolve_closed_form(const core::StreamSpec& spec, bool impaired);
  void run_stream_batched();
  void account_next();
  void run_event_driven(const core::StreamSpec& spec, bool impaired);
  void send_next();

  sim::Simulator& sim_;
  sim::Path& path_;
  std::uint32_t flow_;
  Receiver receiver_;

  Duration sender_offset_{Duration::zero()};
  Duration receiver_offset_{Duration::zero()};
  SendGapInjector gap_injector_;

  // State of the stream currently in flight. The K transmissions are one
  // reusable timer re-armed after each send; the departure times and FIFO
  // tickets are fixed upfront so equal-timestamp ordering is identical to
  // scheduling all K sends at stream start.
  std::uint32_t current_stream_{0};
  const core::StreamSpec* spec_{nullptr};
  std::vector<TimePoint> send_times_;
  std::uint32_t send_idx_{0};
  std::uint64_t ticket_base_{0};
  sim::Simulator::TimerHandle send_timer_;
  std::vector<core::ProbeRecord> records_;
  // Closed-form passes (transit_burst): the copies arriving at the current
  // hop and those it launches, swapped hop by hop, and each packet's last
  // arrival (its delivery or its drop). Reused across streams.
  std::vector<sim::Link::BurstHop> arrivals_;
  std::vector<sim::Link::BurstHop> launched_;
  std::vector<TimePoint> settled_;
  std::uint64_t launches_{0};
  // Keyed batch: each packet's accounting point (its delivery, or its
  // drop) in time order, and the next to fire. The timer fires entry j
  // with ticket batch_base_ + j, as if all K had been scheduled at once;
  // the completion loop runs until the last has fired, which lands the
  // clock on the same instant as the event-driven path.
  struct Accounting {
    TimePoint at;
    std::uint32_t seq;
    bool received;
  };
  std::vector<Accounting> batch_;
  std::size_t batch_next_{0};
  std::uint64_t batch_base_{0};
  sim::Simulator::TimerHandle batch_timer_;

  BurstPath fastest_{BurstPath::kClosedForm};
  StreamPaths paths_;
};

}  // namespace pathload::scenario
