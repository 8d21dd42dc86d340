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

  /// Process-wide toggle for the batched probe-burst fast path (engine v2,
  /// docs/ENGINE.md). On a fully fluid, unimpaired path run_stream computes
  /// the whole burst's transit closed-form and bulk-inserts one delivery
  /// event per packet (Simulator::schedule_batch) instead of simulating
  /// 2K scheduled events. Default on; switching it off forces the
  /// event-driven per-packet path (A/B benches and the batched-vs-unbatched
  /// identity tests). Flip it only between streams.
  static void set_burst_batching(bool on);
  static bool burst_batching();

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
  void run_stream_batched(const core::StreamSpec& spec);
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
  // Batched mode: deliveries (and drop accounting points) still pending in
  // the event queue for the stream in flight; the completion loop runs
  // until it hits zero, which lands the clock on the same instant as the
  // event-driven path.
  std::uint64_t batch_pending_{0};
};

}  // namespace pathload::scenario
