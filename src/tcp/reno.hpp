#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "tcp/rate_sampler.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace pathload::tcp {

class CongestionOps;

/// TCP parameters. Sequence numbers are counted in MSS-sized segments
/// (the simulator never fragments), so cwnd is in segments too.
struct TcpConfig {
  std::int32_t mss_bytes{1460};     ///< payload per segment
  std::int32_t header_bytes{40};    ///< IP+TCP header on the wire
  double initial_cwnd{2.0};
  double initial_ssthresh{64.0};
  /// Receiver advertised window in segments. A *BTC* connection (Section
  /// VII) leaves this unset: "arbitrarily large advertised window". Cross
  /// TCP flows set it to model application/receiver-limited transfers.
  std::optional<double> advertised_window{};
  int dupack_threshold{3};
  Duration min_rto{Duration::milliseconds(200)};
  Duration max_rto{Duration::seconds(60)};
  Duration initial_rto{Duration::seconds(1)};
  /// Congestion-control policy (see tcp/cong.hpp): "reno" (the bit-frozen
  /// historical policy), "reno-rfc" (RFC 5681-conformant ssthresh and
  /// slow-start boundary), "cubic", or "bbr".
  std::string cc{"reno"};
};

/// Receiving endpoint: cumulative ACKs with out-of-order buffering. ACKs
/// return to the sender over an uncongested fixed-delay reverse path,
/// matching the paper's experiments where congestion was on the forward
/// direction.
///
/// ACKs in flight wait in the receiver's ACK delay line, served by one
/// counted timer (Simulator::make_counted_timer) armed for the front entry
/// with that entry's own time and FIFO ticket: the events and their order
/// are those of one scheduled event per ACK, and the timer is a simulator
/// entry, so no ACK enters the calendar queue. Safe to tear down
/// mid-flight: destroying the receiver leaves every ACK still in flight to
/// the simulator as an event that runs nothing, at its own time and
/// ticket.
class TcpReceiver final : public sim::PacketHandler {
 public:
  TcpReceiver(sim::Simulator& sim, Duration reverse_delay);
  ~TcpReceiver();

  /// The sender ACKs are delivered to (set once during connection wiring).
  /// ACKs reach it until the receiver is destroyed, so no event may run
  /// between the sender's destruction and the receiver's; TcpConnection
  /// destroys the two together.
  void connect(sim::PacketHandler* sender) { sender_ = sender; }

  void handle(const sim::Packet& data) override;

  /// Next expected segment = total in-order segments received.
  std::uint64_t cumulative_ack() const { return rcv_next_; }
  DataSize bytes_received() const { return bytes_received_; }
  /// ACKs on the reverse path towards the sender.
  std::size_t acks_in_flight() const { return ack_line_.size(); }

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

 private:
  void deliver_ack();
  void buffer_out_of_order(std::uint64_t seq);
  bool take_out_of_order(std::uint64_t seq);

  sim::Simulator& sim_;
  Duration reverse_delay_;
  sim::PacketHandler* sender_{nullptr};
  std::uint64_t rcv_next_{0};
  // Segments received above rcv_next_, as a bitmap ring: bit (seq mod
  // size()) is set for each buffered seq, and every buffered seq lies in
  // (rcv_next_, rcv_next_ + size()). The size is zero or a power of two
  // and only grows, so buffering a segment does not allocate.
  std::vector<bool> out_of_order_;
  DataSize bytes_received_{};

  // The ACK delay line. Each entry reserves its FIFO ticket and draws its
  // packet id on data arrival, when a per-ACK event would have been
  // scheduled. The reverse delay is constant, so entries only append.
  struct AckInFlight {
    std::int64_t at;  // arrival at the sender, ns
    std::uint64_t ticket;
    std::uint64_t id;
    std::uint64_t seq;  // cumulative ACK
    std::uint32_t flow;
  };
  RingBuffer<AckInFlight> ack_line_;
  sim::Simulator::CountedTimer ack_timer_;
};

/// Sending endpoint implementing the TCP loss-recovery *mechanism*: fast
/// retransmit / fast recovery (with NewReno-style partial-ACK
/// retransmission so multi-drop windows recover without RTO),
/// Jacobson/Karels RTO with Karn's rule and exponential backoff. The
/// cwnd/ssthresh *policy* is pluggable (tcp/cong.hpp, selected by
/// TcpConfig::cc; the default "reno" reproduces the historical monolithic
/// sender bit-exactly), and every transmission/ACK feeds a RateSampler
/// whose delivery-rate samples drive the model-based policies.
///
/// The sender attaches to a path *segment* [first, last]: data enters just
/// before link `first` and leaves the path right after link `last`. The
/// default segment is the whole path, which routes bit-identically to the
/// pre-segment sender.
///
/// The retransmission timer is a counted timer re-armed per ACK: every arm
/// counts as one event, the superseded ones running nothing, as one
/// scheduled RTO event per arm would. The superseded arms wait in the
/// timer's own line in the simulator, which counts them in bulk, not in
/// the calendar queue. Destroying the sender leaves its pending arms to
/// the simulator as such no-ops.
class TcpSender final : public sim::PacketHandler {
 public:
  TcpSender(sim::Simulator& sim, sim::Path& path, TcpConfig cfg,
            sim::Segment segment = {});
  ~TcpSender();

  /// Begin the (greedy) transfer: the application always has data.
  void start();
  /// Stop offering new data (in-flight data still completes).
  void stop() { running_ = false; }

  std::uint32_t flow() const { return flow_; }
  const sim::Segment& segment() const { return segment_; }

  // --- observability ---------------------------------------------------
  double cwnd_segments() const;
  double ssthresh_segments() const;
  /// The connection's per-ACK delivery-rate sampler (recording off by
  /// default; bulk transfers switch it on to export the sample series).
  RateSampler& rate_sampler() { return sampler_; }
  const RateSampler& rate_sampler() const { return sampler_; }
  /// The active congestion-control policy (TcpConfig::cc).
  const CongestionOps& congestion_ops() const { return *ops_; }
  std::uint64_t segments_acked() const { return highest_acked_; }
  DataSize bytes_acked() const;
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  /// Smoothed RTT estimate (zero until the first sample).
  Duration srtt() const { return srtt_; }
  /// Every RTT sample taken (for jitter analysis in tests/benches).
  const std::vector<double>& rtt_samples_secs() const { return rtt_samples_; }

  /// Receives ACK packets.
  void handle(const sim::Packet& ack) override;

  /// Average goodput of the whole connection so far.
  Rate average_throughput() const;

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

 private:
  void try_send();
  void transmit(std::uint64_t seq);
  void on_new_ack(std::uint64_t cum_ack);
  void on_dup_ack();
  void enter_fast_recovery();
  void on_rto();
  void arm_rto();
  void take_rtt_sample(Duration sample);
  double effective_window() const;

  sim::Simulator& sim_;
  sim::Path& path_;
  TcpConfig cfg_;
  sim::Segment segment_;                 ///< normalized hop range [first, last]
  sim::PacketHandler* entry_{nullptr};   ///< head of link segment_.first
  std::uint32_t exit_hop_;               ///< Packet::exit_hop for this segment
  std::uint32_t flow_;
  bool running_{false};
  TimePoint started_{};

  // Transport state (segments). cwnd/ssthresh live in the policy object.
  std::uint64_t next_seq_{0};       ///< next *new* segment to send
  std::uint64_t highest_acked_{0};  ///< cumulative ACK
  std::unique_ptr<CongestionOps> ops_;
  RateSampler sampler_;
  int dup_acks_{0};
  bool in_recovery_{false};
  std::uint64_t recover_point_{0};

  // RTO machinery; rto_timer_ is the counted timer described above.
  Duration srtt_{Duration::zero()};
  Duration rttvar_{Duration::zero()};
  Duration rto_;
  sim::Simulator::CountedTimer rto_timer_;
  std::optional<std::uint64_t> timed_seq_{};  ///< Karn: one clean sample at a time
  TimePoint timed_sent_{};

  // Counters.
  std::uint64_t segments_sent_{0};
  std::uint64_t fast_retransmits_{0};
  std::uint64_t timeouts_{0};
  std::vector<double> rtt_samples_;
};

/// A fully wired TCP connection over a simulated path: sender at the
/// segment entry, receiver at the segment exit (registered on that demux),
/// ACKs over a fixed-delay reverse path. The default segment is the whole
/// path — sender at the ingress, receiver on the egress demux, exactly the
/// pre-segment wiring.
class TcpConnection {
 public:
  TcpConnection(sim::Simulator& sim, sim::Path& path, TcpConfig cfg,
                Duration reverse_delay, sim::Segment segment = {});
  ~TcpConnection();

  TcpSender& sender() { return sender_; }
  TcpReceiver& receiver() { return receiver_; }
  std::uint32_t flow() const { return sender_.flow(); }
  const sim::Segment& segment() const { return sender_.segment(); }

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

 private:
  sim::Path& path_;
  TcpReceiver receiver_;
  TcpSender sender_;
};

}  // namespace pathload::tcp
