// Per-ACK delivery-rate sampling, after Linux tcp_rate.c (SNIPPETS.md
// Snippet 2 / the BBR measurement substrate).
//
// A delivery-rate sample estimates the goodput the network actually
// sustained over the flight of one acknowledged packet:
//
//   send_rate = delivered / (P.sent_at   - P.first_tx_at_send)
//   ack_rate  = delivered / (ack_time    - P.delivered_at_send)
//   rate      = delivered / max(send_interval, ack_interval)
//             = min(send_rate, ack_rate)
//
// where `delivered` is the payload newly acknowledged since packet P was
// transmitted. Taking the *slower* of the two clocks guards against ACK
// compression/decimation: a burst of compressed ACKs can make the ack
// interval arbitrarily small, but it cannot shrink the send interval, so
// the min never overestimates the path. (The design deliberately avoids
// inter-packet-spacing estimators — per-packet gaps through routers are
// far too noisy; whole-flight ratios are robust.)
//
// Samples taken while the sender was application-limited (no data waiting
// when the sampled window opened) measure the application, not the
// network; they carry `app_limited = true` and consumers must not let
// them *raise* a bandwidth estimate.
//
// The sampler is an observer: it never perturbs the sender's float
// sequence, so attaching one to a golden-anchored connection keeps the
// trace bit-identical.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ring_buffer.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pathload::tcp {

/// One per-ACK delivery-rate sample.
struct RateSample {
  Rate delivery_rate{};   ///< min(send_rate, ack_rate)
  Duration interval{};    ///< the max(send, ack) interval the rate is over
  DataSize delivered{};   ///< payload newly delivered over the interval
  bool app_limited{false};  ///< the window opened with no data waiting
  TimePoint at{};         ///< ACK arrival that produced the sample
};

/// Tracks per-segment transmit snapshots and turns cumulative ACKs into
/// RateSamples. Sequence numbers are in MSS-sized segments, matching
/// TcpSender. Recording of the full sample history is opt-in (bulk
/// transfers turn it on; long-lived cross flows only feed the latest
/// sample to their congestion control).
class RateSampler {
 public:
  explicit RateSampler(std::int32_t mss_bytes) : mss_bytes_{mss_bytes} {}

  /// Snapshot the delivery state at the transmission of segment `seq`
  /// (first transmissions and retransmissions alike — the retransmit's
  /// snapshot supersedes the original's, as it was sent later).
  void on_sent(std::uint64_t seq, TimePoint now, bool app_limited);

  /// The cumulative ACK advanced to `cum_ack` at `now`. Returns the
  /// delivery-rate sample over the most recently sent acknowledged
  /// segment's window, or nullopt when no rate is computable (nothing
  /// newly covered, or a zero-width interval).
  std::optional<RateSample> on_ack(std::uint64_t cum_ack, TimePoint now);

  /// Keep every sample in samples() (off by default: long-lived flows
  /// would otherwise accumulate history nobody reads).
  void set_recording(bool on) { recording_ = on; }
  const std::vector<RateSample>& samples() const { return samples_; }

  /// Cumulative segments delivered (== the highest cumulative ACK seen).
  std::uint64_t delivered_segments() const { return delivered_; }

 private:
  /// Per-transmission snapshot (the scb->tx block of tcp_rate.c).
  struct TxRecord {
    std::uint64_t seq;
    TimePoint sent_at;
    TimePoint first_tx;     ///< start of the send-rate window at send time
    std::uint64_t delivered;  ///< segments delivered when this was sent
    TimePoint delivered_at;   ///< time of the last delivery event at send
    bool app_limited;
  };

  std::int32_t mss_bytes_;
  RingBuffer<TxRecord> inflight_;  ///< append order == send order
  std::uint64_t delivered_{0};
  TimePoint delivered_time_{};
  TimePoint first_tx_{};
  bool started_{false};
  bool recording_{false};
  std::vector<RateSample> samples_;
};

}  // namespace pathload::tcp
