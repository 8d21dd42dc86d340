#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/link.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {

/// Per-flow dispatcher at the receiving end of a path.
///
/// Several agents (pathload receiver, TCP sink, ping reflector) coexist at
/// the egress host; packets are routed to them by flow id.
class FlowDemux final : public PacketHandler {
 public:
  void register_flow(std::uint32_t flow, PacketHandler* handler);
  void unregister_flow(std::uint32_t flow);
  void handle(const Packet& p) override;

  std::uint64_t unclaimed_packets() const { return unclaimed_; }

 private:
  std::unordered_map<std::uint32_t, PacketHandler*> handlers_;
  std::uint64_t unclaimed_{0};
};

/// Parameters of one hop of a path.
struct HopSpec {
  Rate capacity;
  Duration prop_delay{Duration::zero()};
  DataSize buffer_limit{DataSize::bytes(1'000'000)};
};

/// A contiguous range of hops [first, last] that a flow traverses: the flow
/// enters the path just before link `first` and leaves right after link
/// `last`. The defaults name the whole path; `last == kPathEnd` always
/// resolves to the final hop. A one-hop segment (first == last) is the
/// hop-local special case of Fig. 4's cross-traffic topology.
struct Segment {
  static constexpr std::size_t kPathEnd = static_cast<std::size_t>(-1);

  std::size_t first{0};
  std::size_t last{kPathEnd};
};

/// A fixed, unidirectional multi-hop path: a chain of store-and-forward
/// links (the paper's Section I model). Transit packets injected at the
/// ingress traverse every link and surface at the egress demux; hop-local
/// cross traffic injected directly into a link leaves the path right after
/// that link (Fig. 4's topology).
///
/// Flows may also attach to a *segment* [i, j] of the chain: their packets
/// enter at segment_entry, carry exit_hop_value(segment) in
/// Packet::exit_hop, and surface at segment_exit's demux right after hop j
/// — the partial-overlap topology responsive cross workloads need. The
/// default exit_hop (kExitAtEgress) reproduces end-to-end routing exactly,
/// so pre-segment code paths are bit-identical.
class Path {
 public:
  Path(Simulator& sim, std::vector<HopSpec> hops);

  /// Entry point of the first link; inject end-to-end packets here.
  PacketHandler& ingress() { return *links_.front(); }

  /// Dispatcher for packets that exit the last link.
  FlowDemux& egress() { return egress_; }

  /// Resolve kPathEnd and bounds-check; throws std::out_of_range naming the
  /// offending segment on first > last or last >= hop_count().
  Segment normalized(Segment s) const;

  /// Entry point of a flow attached to `s`: the head of link s.first.
  PacketHandler& segment_entry(Segment s) { return *links_.at(normalized(s).first); }

  /// Dispatcher where packets of a flow attached to `s` surface after hop
  /// s.last. For segments ending at the final hop this is egress() itself,
  /// so whole-path flows keep their one demux.
  FlowDemux& segment_exit(Segment s);

  /// The Packet::exit_hop value packets of a flow attached to `s` must
  /// carry (kExitAtEgress for segments ending at the final hop).
  std::uint32_t exit_hop_value(Segment s) const;

  Link& link(std::size_t i) { return *links_.at(i); }
  const Link& link(std::size_t i) const { return *links_.at(i); }
  std::size_t hop_count() const { return links_.size(); }

  /// End-to-end capacity: min link capacity (Eq. (1), the narrow link).
  Rate capacity() const;

  /// Index of the narrow link (first minimum-capacity hop). Distinct from
  /// the *tight* link (min avail-bw) on heterogeneous paths — the paper's
  /// Section II distinction that the tight≠narrow scenarios exercise.
  std::size_t narrow_index() const;

  /// Sum of propagation delays (no queueing).
  Duration base_delay() const;

  /// Minimum end-to-end latency of a packet of `size`: propagation plus
  /// serialization at every hop with empty queues.
  Duration unloaded_transit_time(DataSize size) const;

 private:
  /// Routes transit packets from link i to link i+1 (or egress), hands
  /// segment flows that end at hop i to the hop's exit demux, and absorbs
  /// exiting hop-local cross traffic (link i does not even hand it over:
  /// Link::set_downstream's `drops_hop_local`).
  class Junction final : public PacketHandler {
   public:
    Junction(std::uint32_t hop, PacketHandler* next_for_transit)
        : hop_{hop}, next_{next_for_transit} {}
    void handle(const Packet& p) override {
      if (!p.transit) return;            // hop-local cross traffic leaves here
      if (p.exit_hop == hop_) {
        exits_.handle(p);                // segment flow ends after this hop
      } else {
        next_->handle(p);
      }
    }
    FlowDemux& exits() { return exits_; }

   private:
    std::uint32_t hop_;
    PacketHandler* next_;
    FlowDemux exits_;
  };

  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Junction>> junctions_;
  FlowDemux egress_;
};

}  // namespace pathload::sim
