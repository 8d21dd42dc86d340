#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pathload::sim {

/// Optional stochastic impairments of a link, off by default.
///
/// Each enabled knob draws from the link's *own* seeded RNG stream (never
/// from the scenario's traffic RNG), and a knob left at zero consumes no
/// draws at all — so an unimpaired link is bit-identical to a link built
/// before impairments existed, and enabling one knob does not perturb the
/// draw sequence of another. Draw order per packet: loss, then duplication
/// (both at arrival), then reorder jitter (at delivery, per forwarded copy).
struct LinkImpairments {
  /// Probability in [0, 1) that an arriving packet is dropped outright
  /// (non-congestive random loss, e.g. a noisy wireless hop).
  double loss{0.0};
  /// Probability in [0, 1) that an arriving packet is accepted twice.
  double dup{0.0};
  /// Upper bound of a uniform [0, reorder) extra propagation delay applied
  /// per delivered packet; enough jitter reorders back-to-back packets.
  Duration reorder{};
  /// Seed of the link's private impairment RNG stream.
  std::uint64_t seed{1};

  bool any() const {
    return loss > 0.0 || dup > 0.0 || reorder > Duration::zero();
  }
};

/// A store-and-forward link with an FCFS drop-tail queue, matching the
/// queueing model of the paper (Section III-A assumes FCFS; Section VII
/// notes drop-tail is "the common practice today").
///
/// A packet arriving at a busy link waits in a byte-limited buffer; when it
/// reaches the head it is serialized for size/capacity and then experiences
/// the link's propagation delay before being delivered downstream.
///
/// Packets in propagation wait in the link's delay line (docs/ENGINE.md):
/// a time-ordered buffer served by one re-armed timer, so a packet in
/// flight costs no closure and no allocation. Destroying the link discards
/// them.
class Link final : public PacketHandler {
 public:
  Link(Simulator& sim, std::string name, Rate capacity, Duration prop_delay,
       DataSize buffer_limit);

  /// Downstream receiver of everything this link forwards (not owned).
  /// A packet already in flight still reaches the receiver that was set
  /// when it left the link.
  void set_downstream(PacketHandler* downstream) { downstream_ = downstream; }

  /// Packet arrival at the tail of the queue (drop-tail if over buffer).
  void handle(const Packet& p) override;

  /// Install (or clear, with an all-zero struct) stochastic impairments.
  /// Safe to call between runs; resets the impairment RNG to `imp.seed`.
  void set_impairments(const LinkImpairments& imp);
  bool impaired() const { return impair_rng_ != nullptr; }
  const LinkImpairments& impairments() const { return impair_; }

  /// Switch the link to hybrid fluid/packet service (engine v2, see
  /// docs/ENGINE.md). Cross traffic becomes a fluid rate `add_fluid_rate`
  /// feeds in; packets stay individually visible but are served against a
  /// FIFO virtual-workload variable instead of a simulated queue: one
  /// scheduled event per packet (delivery) rather than two, and fluid
  /// cross traffic costs no packet events at all. Must be called before
  /// any packet arrives; there is no way back to packet service.
  void enable_fluid_mode();
  bool fluid_mode() const { return fluid_mode_; }

  /// Add (negative delta: remove) fluid cross-traffic rate. The workload
  /// and the fluid byte account are settled to now first, so piecewise-
  /// constant rate profiles integrate exactly.
  void add_fluid_rate(Rate delta);
  Rate fluid_rate() const { return Rate::bps(fluid_rate_bps_); }

  /// Closed-form fluid-mode transit: settle the workload to `arrival`,
  /// account the packet exactly as accept_fluid would at that instant, and
  /// return its delivery time at the downstream node (arrival + wait +
  /// prop_delay), or nullopt if the packet is drop-tailed. No impairment
  /// draws, nothing scheduled, nothing handed downstream. `arrival` may be
  /// in the future; later event-driven settles before that point then no-op
  /// (the workload is already integrated past them). Requires fluid mode.
  std::optional<TimePoint> fluid_transit(const Packet& p, TimePoint arrival);

  /// One packet of a closed-form burst pass (serve_fluid_burst): the
  /// instant it reaches the next node, and its index in the burst.
  struct BurstHop {
    TimePoint at;
    std::uint32_t seq;
  };

  /// Closed-form service of a burst (docs/ENGINE.md, "Probe bursts"): the
  /// code handle() runs — loss, duplication (the copy first), fluid service,
  /// reorder jitter — applied to `arrivals`, which must come in event-driven
  /// order (by time, ties in launch order). Every packet is `proto` but for
  /// its index. Each copy handle() would launch is appended to `launched`,
  /// in launch order, at its delivery time downstream; nothing is scheduled
  /// or handed on. Requires fluid mode.
  void serve_fluid_burst(const Packet& proto, const std::vector<BurstHop>& arrivals,
                         std::vector<BurstHop>& launched);

  const std::string& name() const { return name_; }
  Rate capacity() const { return capacity_; }
  Duration prop_delay() const { return prop_delay_; }
  DataSize buffer_limit() const { return buffer_limit_; }

  /// Bytes currently queued, excluding the packet being serialized.
  DataSize queued_bytes() const { return queued_bytes_; }
  std::size_t queue_length() const { return queue_.size(); }
  bool busy() const { return busy_; }
  /// Packets in propagation towards the downstream receiver.
  std::size_t in_flight() const { return delay_line_.size(); }

  /// Cumulative bytes fully serialized onto the wire (utilization counter —
  /// the quantity an MRTG-style monitor reads, Eq. (2)). In fluid mode this
  /// includes the fluid cross traffic, integrated up to the current virtual
  /// time, so UtilizationMonitor reads the same truth under both engines.
  DataSize bytes_forwarded() const;
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t drops() const { return drops_; }

  /// Packets dropped by the random-loss impairment (subset of drops()).
  std::uint64_t impaired_drops() const { return impaired_drops_; }
  /// Extra copies created by the duplication impairment.
  std::uint64_t duplicates() const { return duplicates_; }

  /// Drops of a specific flow (probe-loss accounting; cheap because the
  /// per-flow map is only touched on the rare drop path).
  std::uint64_t drops_for_flow(std::uint32_t flow) const;

  /// Duplicate copies created for a specific flow. Probe accounting needs
  /// this: every copy a stream's sender is owed (original or duplicate)
  /// eventually shows up as either a record or a per-flow drop.
  std::uint64_t dups_for_flow(std::uint32_t flow) const;

  /// Queueing + serialization delay a hypothetical arrival right now would
  /// see before reaching the wire (diagnostics / tests).
  Duration backlog_delay() const;

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

 private:
  template <typename Accept>
  void admit(const Packet& p, Accept&& accept);
  void accept(const Packet& p);
  std::optional<Duration> serve_fluid(const Packet& p, TimePoint now);
  void accept_fluid(const Packet& p);
  void settle_fluid();
  void settle_fluid_at(TimePoint now);
  void begin_service();
  void finish_service();
  void launch(const Packet& p, Duration delay);
  void deliver_head();

  Simulator& sim_;
  std::string name_;
  Rate capacity_;
  Duration prop_delay_;
  DataSize buffer_limit_;

  RingBuffer<Packet> queue_;
  Packet in_service_{};
  // End-of-serialization is one reusable timer re-armed per packet: the
  // per-packet drain event costs no closure construction and no allocation.
  Simulator::TimerHandle service_timer_;
  bool busy_{false};
  DataSize queued_bytes_{};

  // Fluid-mode state (engine v2). fluid_work_secs_ is the FIFO virtual
  // workload W: the time a packet arriving now waits before its own
  // serialization starts. Between settle points W drains at (1 - lambda/C)
  // while positive (lambda = fluid rate, C = capacity); a packet arrival
  // adds its own transmission time. This reproduces the fluid FIFO delay
  // recursion of the paper's Appendix (fluid::FluidPath::owd_delta_per_packet)
  // exactly for constant lambda. fluid_bytes_ integrates min(lambda, C)
  // up to fluid_last_ for the utilization counter.
  bool fluid_mode_{false};
  double fluid_rate_bps_{0.0};
  double fluid_work_secs_{0.0};
  double fluid_bytes_{0.0};
  TimePoint fluid_last_{};

  PacketHandler* downstream_{nullptr};

  // The delay line: packets in propagation, ordered by (at, ticket) with
  // the earliest at the front. Each entry reserves its FIFO ticket when it
  // enters, the moment a per-packet delivery event would have been
  // scheduled, and binds its receiver then too. delivery_timer_ is armed
  // for the front entry only, with that entry's own time and ticket, so
  // deliveries pop in exactly the order, and count exactly the events, that
  // one scheduled event per packet would.
  struct InFlight {
    std::int64_t at;  // delivery time, ns
    std::uint64_t ticket;
    PacketHandler* target;
    Packet pkt;
  };
  RingBuffer<InFlight> delay_line_;
  Simulator::TimerHandle delivery_timer_;

  DataSize bytes_forwarded_{};
  std::uint64_t packets_forwarded_{0};
  std::uint64_t drops_{0};
  std::unordered_map<std::uint32_t, std::uint64_t> flow_drops_;

  // Impairment state. The RNG exists only while impairments are enabled,
  // so unimpaired links never allocate it nor draw from it.
  LinkImpairments impair_{};
  std::unique_ptr<Rng> impair_rng_;
  std::uint64_t impaired_drops_{0};
  std::uint64_t duplicates_{0};
  std::unordered_map<std::uint32_t, std::uint64_t> flow_dups_;
};

}  // namespace pathload::sim
