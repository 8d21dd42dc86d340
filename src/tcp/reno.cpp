#include "tcp/reno.hpp"

#include <algorithm>
#include <bit>

#include "tcp/cong.hpp"

namespace pathload::tcp {

// --- TcpReceiver -----------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Simulator& sim, Duration reverse_delay)
    : sim_{sim},
      reverse_delay_{reverse_delay},
      ack_timer_{sim.make_counted_timer([this] { deliver_ack(); })} {}

TcpReceiver::~TcpReceiver() {
  // The timer is armed for the front ACK. Arming it for each later one in
  // turn leaves every earlier arm queued as a counted no-op, and releasing
  // the handle does the same for the last: each ACK still in flight stays
  // one event at its own (time, ticket), as a per-ACK event would.
  for (std::size_t i = 1; i < ack_line_.size(); ++i) {
    ack_timer_.schedule_at(TimePoint::from_nanos(ack_line_[i].at), ack_line_[i].ticket);
  }
}

void TcpReceiver::buffer_out_of_order(std::uint64_t seq) {
  const std::size_t size = out_of_order_.size();
  if (seq - rcv_next_ >= size) {
    // Re-lay the buffered seqs, all in (rcv_next_, rcv_next_ + size), over
    // a ring large enough for `seq`.
    std::vector<bool> grown(std::bit_ceil(std::max<std::uint64_t>(seq - rcv_next_ + 1, 64)));
    for (std::uint64_t s = rcv_next_ + 1; s < rcv_next_ + size; ++s) {
      grown[s & (grown.size() - 1)] = out_of_order_[s & (size - 1)];
    }
    out_of_order_ = std::move(grown);
  }
  out_of_order_[seq & (out_of_order_.size() - 1)] = true;
}

bool TcpReceiver::take_out_of_order(std::uint64_t seq) {
  if (out_of_order_.empty()) return false;
  auto bit = out_of_order_[seq & (out_of_order_.size() - 1)];
  const bool buffered = bit;
  bit = false;
  return buffered;
}

void TcpReceiver::handle(const sim::Packet& data) {
  bytes_received_ += data.size();
  const std::uint64_t seq = data.tcp_seq;
  if (seq == rcv_next_) {
    ++rcv_next_;
    // Drain any contiguous out-of-order segments.
    while (take_out_of_order(rcv_next_)) ++rcv_next_;
  } else if (seq > rcv_next_) {
    buffer_out_of_order(seq);
  }
  // Immediate ACK (no delayed ACKs): dup ACKs drive fast retransmit.
  if (sender_ != nullptr) {
    const AckInFlight e{(sim_.now() + reverse_delay_).nanos(),
                        sim_.reserve_fifo_tickets(1), sim_.next_packet_id(), rcv_next_,
                        data.flow};
    ack_line_.push_back(e);
    if (ack_line_.size() == 1) {
      ack_timer_.schedule_at(TimePoint::from_nanos(e.at), e.ticket);
    }
  }
}

void TcpReceiver::deliver_ack() {
  // Copy the entry out and re-arm before delivering, as Link::deliver_head
  // does: the sender's reaction must find the timer armed for the front.
  const AckInFlight head = ack_line_.front();
  ack_line_.pop_front();
  if (!ack_line_.empty()) {
    const AckInFlight& next = ack_line_.front();
    ack_timer_.schedule_at(TimePoint::from_nanos(next.at), next.ticket);
  }
  sim::Packet ack;
  ack.id = head.id;
  ack.flow = head.flow;
  ack.kind = sim::PacketKind::kTcpAck;
  ack.size_bytes = 40;
  ack.tcp_seq = head.seq;
  sender_->handle(ack);
}

// --- TcpSender --------------------------------------------------------------

TcpSender::TcpSender(sim::Simulator& sim, sim::Path& path, TcpConfig cfg,
                     sim::Segment segment)
    : sim_{sim},
      path_{path},
      cfg_{cfg},
      segment_{path.normalized(segment)},
      entry_{&path.segment_entry(segment_)},
      exit_hop_{path.exit_hop_value(segment_)},
      flow_{sim.next_flow_id()},
      ops_{make_congestion_ops(cfg.cc, cfg)},
      sampler_{cfg.mss_bytes},
      rto_{cfg.initial_rto},
      rto_timer_{sim.make_counted_timer([this] { on_rto(); })} {}

TcpSender::~TcpSender() = default;

double TcpSender::cwnd_segments() const { return ops_->cwnd(); }
double TcpSender::ssthresh_segments() const { return ops_->ssthresh(); }

void TcpSender::start() {
  if (running_) return;
  running_ = true;
  started_ = sim_.now();
  try_send();
}

double TcpSender::effective_window() const {
  double w = ops_->cwnd();
  if (cfg_.advertised_window.has_value()) w = std::min(w, *cfg_.advertised_window);
  return std::max(w, 1.0);
}

void TcpSender::try_send() {
  if (!running_) return;
  while (static_cast<double>(next_seq_ - highest_acked_) < effective_window()) {
    transmit(next_seq_);
    ++next_seq_;
  }
}

void TcpSender::transmit(std::uint64_t seq) {
  sim::Packet p;
  p.id = sim_.next_packet_id();
  p.flow = flow_;
  p.kind = sim::PacketKind::kTcpData;
  p.size_bytes = cfg_.mss_bytes + cfg_.header_bytes;
  p.transit = true;
  p.exit_hop = exit_hop_;
  p.tcp_seq = seq;
  p.entered = sim_.now();
  entry_->handle(p);
  ++segments_sent_;
  // A stopped sender still retransmitting its tail has no data waiting:
  // those windows are application-limited, not network-limited.
  sampler_.on_sent(seq, sim_.now(), !running_);
  // Karn's rule: time one un-retransmitted segment at a time. A segment is
  // "clean" here when it is the first transmission of a new sequence.
  if (!timed_seq_.has_value() && seq == next_seq_) {
    timed_seq_ = seq;
    timed_sent_ = sim_.now();
  }
  if (!rto_timer_.pending()) arm_rto();
}

void TcpSender::handle(const sim::Packet& ack) {
  const std::uint64_t cum = ack.tcp_seq;
  if (cum > highest_acked_) {
    on_new_ack(cum);
  } else if (cum == highest_acked_ && next_seq_ > highest_acked_) {
    on_dup_ack();
  }
  try_send();
}

void TcpSender::on_new_ack(std::uint64_t cum_ack) {
  const auto newly_acked = static_cast<double>(cum_ack - highest_acked_);
  // FlightSize (RFC 5681) at ACK arrival, before any bookkeeping: what the
  // conformant policies halve on loss and this ACK's context carries.
  const auto flight = static_cast<double>(next_seq_ - highest_acked_);
  // RTT sample (Karn: only if the timed segment was covered and never
  // retransmitted — retransmission clears timed_seq_).
  if (timed_seq_.has_value() && cum_ack > *timed_seq_) {
    take_rtt_sample(sim_.now() - timed_sent_);
    timed_seq_.reset();
  }
  highest_acked_ = cum_ack;
  dup_acks_ = 0;
  const std::optional<RateSample> sample = sampler_.on_ack(cum_ack, sim_.now());
  const CongestionOps::Context ctx{flight, srtt_, sim_.now(),
                                   sample.has_value() ? &*sample : nullptr};

  if (in_recovery_) {
    if (cum_ack >= recover_point_) {
      // Full recovery: the policy deflates (Reno: cwnd = ssthresh).
      in_recovery_ = false;
      ops_->on_recovery_exit(ctx);
    } else {
      // Partial ACK (NewReno): the next hole is also lost; retransmit it
      // immediately and stay in recovery.
      transmit(highest_acked_);
      ops_->on_partial_ack(newly_acked, ctx);
      arm_rto();
      return;
    }
  } else {
    ops_->on_ack(newly_acked, ctx);
  }
  arm_rto();
}

void TcpSender::on_dup_ack() {
  if (in_recovery_) {
    const CongestionOps::Context ctx{
        static_cast<double>(next_seq_ - highest_acked_), srtt_, sim_.now(),
        nullptr};
    ops_->on_dup_ack_inflate(ctx);
    return;
  }
  if (++dup_acks_ == cfg_.dupack_threshold) {
    enter_fast_recovery();
  }
}

void TcpSender::enter_fast_recovery() {
  const CongestionOps::Context ctx{
      static_cast<double>(next_seq_ - highest_acked_), srtt_, sim_.now(),
      nullptr};
  // The policy sets ssthresh and the inflated recovery window together.
  // (The historical sender set ssthresh before the fast retransmit and
  // cwnd after; neither value is read in between, so the combined hook is
  // trace-identical.)
  ops_->on_enter_recovery(cfg_.dupack_threshold, ctx);
  recover_point_ = next_seq_;
  in_recovery_ = true;
  ++fast_retransmits_;
  timed_seq_.reset();            // Karn: retransmitted segment is not timed
  transmit(highest_acked_);      // fast retransmit of the missing segment
  arm_rto();
}

void TcpSender::on_rto() {
  // Nothing outstanding: let the timer lapse; the next transmission re-arms
  // it.
  if (next_seq_ == highest_acked_) return;
  ++timeouts_;
  const CongestionOps::Context ctx{
      static_cast<double>(next_seq_ - highest_acked_), srtt_, sim_.now(),
      nullptr};
  ops_->on_rto(ctx);
  dup_acks_ = 0;
  in_recovery_ = false;
  timed_seq_.reset();
  next_seq_ = highest_acked_;  // go-back-N from the hole
  rto_ = std::min(rto_ * 2.0, cfg_.max_rto);  // exponential backoff
  arm_rto();
  try_send();
}

void TcpSender::arm_rto() { rto_timer_.schedule_in(rto_); }

void TcpSender::take_rtt_sample(Duration sample) {
  rtt_samples_.push_back(sample.secs());
  if (srtt_ == Duration::zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    const Duration err = Duration::seconds(std::abs((sample - srtt_).secs()));
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + sample * 0.125;
  }
  rto_ = std::clamp(srtt_ + rttvar_ * 4.0, cfg_.min_rto, cfg_.max_rto);
}

DataSize TcpSender::bytes_acked() const {
  return DataSize::bytes(static_cast<std::int64_t>(highest_acked_) * cfg_.mss_bytes);
}

Rate TcpSender::average_throughput() const {
  const Duration elapsed = sim_.now() - started_;
  if (elapsed <= Duration::zero()) return Rate::zero();
  return rate_of(bytes_acked(), elapsed);
}

// --- TcpConnection -----------------------------------------------------------

TcpConnection::TcpConnection(sim::Simulator& sim, sim::Path& path, TcpConfig cfg,
                             Duration reverse_delay, sim::Segment segment)
    : path_{path},
      receiver_{sim, reverse_delay},
      sender_{sim, path, cfg, segment} {
  receiver_.connect(&sender_);
  path_.segment_exit(sender_.segment()).register_flow(sender_.flow(), &receiver_);
}

TcpConnection::~TcpConnection() {
  path_.segment_exit(sender_.segment()).unregister_flow(sender_.flow());
}

}  // namespace pathload::tcp
