#include "scenario/sim_channel.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>

#include "tcp/bulk.hpp"

namespace pathload::scenario {

namespace {
// Process-wide so A/B benches and identity tests can flip every channel at
// once; relaxed because it is only written between streams.
std::atomic<bool> g_burst_batching{true};
}  // namespace

void SimProbeChannel::set_burst_batching(bool on) {
  g_burst_batching.store(on, std::memory_order_relaxed);
}

bool SimProbeChannel::burst_batching() {
  return g_burst_batching.load(std::memory_order_relaxed);
}

SimProbeChannel::SimProbeChannel(sim::Simulator& sim, sim::Path& path)
    : sim_{sim},
      path_{path},
      flow_{sim.next_flow_id()},
      send_timer_{sim.make_timer([this] { send_next(); })} {
  receiver_.channel = this;
  path_.egress().register_flow(flow_, &receiver_);
}

SimProbeChannel::~SimProbeChannel() { path_.egress().unregister_flow(flow_); }

Duration SimProbeChannel::rtt() const {
  // Unloaded forward transit of a small packet plus the reverse path; the
  // session only uses this as a floor for the inter-stream idle.
  return path_.unloaded_transit_time(DataSize::bytes(200)) +
         path_.base_delay();
}

std::uint64_t SimProbeChannel::probe_drops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < path_.hop_count(); ++i) {
    total += path_.link(i).drops_for_flow(flow_);
  }
  return total;
}

std::uint64_t SimProbeChannel::probe_dups() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < path_.hop_count(); ++i) {
    total += path_.link(i).dups_for_flow(flow_);
  }
  return total;
}

std::uint64_t SimProbeChannel::path_drops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < path_.hop_count(); ++i) total += path_.link(i).drops();
  return total;
}

std::uint64_t SimProbeChannel::path_dups() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < path_.hop_count(); ++i) total += path_.link(i).duplicates();
  return total;
}

bool SimProbeChannel::path_impaired() const {
  for (std::size_t i = 0; i < path_.hop_count(); ++i) {
    if (path_.link(i).impaired()) return true;
  }
  return false;
}

bool SimProbeChannel::path_all_fluid() const {
  for (std::size_t i = 0; i < path_.hop_count(); ++i) {
    if (!path_.link(i).fluid_mode()) return false;
  }
  return path_.hop_count() > 0;
}

void SimProbeChannel::Receiver::handle(const sim::Packet& p) {
  if (p.stream_id != channel->current_stream_) return;  // stale straggler
  core::ProbeRecord rec;
  rec.seq = p.seq;
  rec.sent = p.sender_ts;
  rec.received = channel->sim_.now() + channel->receiver_offset_;
  channel->records_.push_back(rec);
}

void SimProbeChannel::run_stream_batched(const core::StreamSpec& spec) {
  // The batched probe-burst fast path (docs/ENGINE.md): every link is in
  // fluid mode, so the whole burst's transit is a closed-form pass over the
  // piecewise-constant workload of each hop — Link::fluid_transit performs
  // the same state updates in the same floating-point order as the
  // event-driven chain, so the delivery times (and therefore Eq. 22's OWD
  // slope and packet-on-packet FIFO spacing) come out byte-identical. Only
  // the final accounting points are scheduled: one bulk insert of K events
  // instead of K send timers plus K per-hop delivery closures.
  std::vector<sim::Simulator::BatchEvent> batch;
  batch.reserve(send_times_.size());
  for (std::size_t i = 0; i < send_times_.size(); ++i) {
    sim::Packet p;
    p.id = sim_.next_packet_id();
    p.flow = flow_;
    p.kind = sim::PacketKind::kProbe;
    p.size_bytes = spec.packet_size;
    p.transit = true;
    p.stream_id = spec.stream_id;
    p.seq = static_cast<std::uint32_t>(i);
    p.sender_ts = send_times_[i] + sender_offset_;
    p.entered = send_times_[i];
    TimePoint t = send_times_[i];
    bool dropped = false;
    for (std::size_t h = 0; h < path_.hop_count(); ++h) {
      const std::optional<TimePoint> delivery = path_.link(h).fluid_transit(p, t);
      if (!delivery.has_value()) {
        dropped = true;
        break;
      }
      t = *delivery;
    }
    if (dropped) {
      // The drop is already on the link counters; the placeholder event
      // makes the completion loop end at the same instant as the
      // event-driven path, where the drop is accounted during the arrival
      // event at the dropping hop (`t` still holds that arrival time).
      batch.push_back({t, sim::Simulator::Callback{[this] { --batch_pending_; }}});
    } else {
      core::ProbeRecord rec;
      rec.seq = p.seq;
      rec.sent = p.sender_ts;
      rec.received = t + receiver_offset_;
      batch.push_back({t, sim::Simulator::Callback{[this, rec] {
                         records_.push_back(rec);
                         --batch_pending_;
                       }}});
    }
  }
  // FIFO keeps survivor deliveries in send order, but a drop's accounting
  // point (arrival at the dropping hop) can precede an earlier packet's
  // egress delivery; restore the time order schedule_batch requires. Stable,
  // so equal-timestamp entries keep packet order.
  const auto by_time = [](const sim::Simulator::BatchEvent& a,
                          const sim::Simulator::BatchEvent& b) { return a.at < b.at; };
  if (!std::is_sorted(batch.begin(), batch.end(), by_time)) {
    std::stable_sort(batch.begin(), batch.end(), by_time);
  }
  batch_pending_ = batch.size();
  sim_.schedule_batch(std::move(batch));
  // Run up to (and including) the stream's last accounting point. Foreign
  // events before it are processed exactly as the event-driven completion
  // loop would have processed them.
  while (batch_pending_ > 0) {
    if (!sim_.run_next()) break;  // unreachable: pending events are queued
  }
}

void SimProbeChannel::send_next() {
  const core::StreamSpec& spec = *spec_;
  sim::Packet p;
  p.id = sim_.next_packet_id();
  p.flow = flow_;
  p.kind = sim::PacketKind::kProbe;
  p.size_bytes = spec.packet_size;
  p.transit = true;
  p.stream_id = spec.stream_id;
  p.seq = send_idx_;
  p.sender_ts = sim_.now() + sender_offset_;
  p.entered = sim_.now();
  path_.ingress().handle(p);
  ++send_idx_;
  if (send_idx_ < send_times_.size()) {
    send_timer_.schedule_at(send_times_[send_idx_], ticket_base_ + send_idx_);
  }
}

core::StreamOutcome SimProbeChannel::run_stream(const core::StreamSpec& spec) {
  // Validate before any state is touched: packet_count feeds a vector
  // resize and a uint32 FIFO-ticket reservation, so a negative or absurd
  // count must fail loudly instead of wrapping.
  if (spec.packet_count < 1 || spec.packet_count > 1'000'000) {
    throw std::invalid_argument{
        "StreamSpec.packet_count must be in [1, 1000000], got " +
        std::to_string(spec.packet_count)};
  }
  if (!spec.periodic() &&
      spec.gaps.size() + 1 != static_cast<std::size_t>(spec.packet_count)) {
    throw std::invalid_argument{
        "StreamSpec.gaps must carry packet_count - 1 entries"};
  }
  current_stream_ = spec.stream_id;
  records_.clear();
  records_.reserve(static_cast<std::size_t>(spec.packet_count));

  // Impairment bookkeeping engages only on an impaired path; pristine paths
  // take the exact pre-impairment accounting (bit-identical runs).
  const bool impaired = path_impaired();
  const std::uint64_t drops_before = probe_drops();
  const std::uint64_t dups_before = impaired ? probe_dups() : 0;
  const TimePoint start = sim_.now();

  // Fix the K departure times upfront — periodic multiples of T, or the
  // spec's explicit gap schedule (chirps). A send-gap injection (context
  // switch) delays a packet's actual departure; subsequent packets keep
  // their nominal schedule unless they too are delayed, which matches a
  // sender that falls behind and immediately catches up.
  send_times_.resize(static_cast<std::size_t>(spec.packet_count));
  Duration accumulated_gap = Duration::zero();
  Duration nominal_offset = Duration::zero();
  for (int i = 0; i < spec.packet_count; ++i) {
    if (gap_injector_) accumulated_gap += gap_injector_(static_cast<std::uint32_t>(i));
    if (i > 0) {
      nominal_offset += spec.periodic()
                            ? spec.period
                            : spec.gaps[static_cast<std::size_t>(i - 1)];
    }
    send_times_[static_cast<std::size_t>(i)] = start + nominal_offset + accumulated_gap;
  }
  if (burst_batching() && !impaired && path_all_fluid()) {
    run_stream_batched(spec);
  } else {
    spec_ = &spec;
    send_idx_ = 0;
    ticket_base_ =
        sim_.reserve_fifo_tickets(static_cast<std::uint32_t>(spec.packet_count));
    if (!send_times_.empty()) send_timer_.schedule_at(send_times_[0], ticket_base_);

    // Run until every probe copy is accounted for: received or dropped. On
    // an impaired path the accounting includes link-made duplicates — every
    // copy created (original K plus dups so far) ends as either a record or
    // a per-flow drop, so the loop still terminates exactly. Cross-traffic
    // sources always have future events pending, so the guard against an
    // empty queue is purely defensive. The per-flow sums cost a hash lookup
    // per hop, so they are re-read only when a link total moved (every
    // per-flow drop or duplicate also counts in its link's total).
    const auto target = static_cast<std::uint64_t>(spec.packet_count);
    std::uint64_t link_drops = path_drops();
    std::uint64_t link_dups = impaired ? path_dups() : 0;
    std::uint64_t drops = 0;  // this flow's, since the stream started
    std::uint64_t dups = 0;
    while (static_cast<std::uint64_t>(records_.size()) + drops < target + dups) {
      if (!sim_.run_next()) break;
      if (const std::uint64_t d = path_drops(); d != link_drops) {
        link_drops = d;
        drops = probe_drops() - drops_before;
      }
      if (impaired) {
        if (const std::uint64_t d = path_dups(); d != link_dups) {
          link_dups = d;
          dups = probe_dups() - dups_before;
        }
      }
    }
    send_timer_.cancel();  // defensive: only armed if the loop exited early
    spec_ = nullptr;
  }

  core::StreamOutcome outcome;
  outcome.sent_count = spec.packet_count;
  outcome.records = std::move(records_);
  records_ = {};
  if (impaired) {
    // Present what the real receiver logic reports: per-seq first arrival,
    // in seq order (duplicates discarded, reordering resolved). Pristine
    // paths deliver in seq order already, so this block never runs for
    // them and their outcomes stay bit-identical.
    std::stable_sort(outcome.records.begin(), outcome.records.end(),
                     [](const core::ProbeRecord& a, const core::ProbeRecord& b) {
                       return a.seq != b.seq ? a.seq < b.seq
                                             : a.received < b.received;
                     });
    outcome.records.erase(
        std::unique(outcome.records.begin(), outcome.records.end(),
                    [](const core::ProbeRecord& a, const core::ProbeRecord& b) {
                      return a.seq == b.seq;
                    }),
        outcome.records.end());
  }
  return outcome;
}

core::BulkTransferOutcome SimProbeChannel::run_bulk_transfer(
    const core::BulkTransferSpec& spec) {
  return tcp::run_bulk_transfer(sim_, path_, spec);
}

}  // namespace pathload::scenario
