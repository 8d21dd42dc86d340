#include "scenario/sim_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tcp/bulk.hpp"

namespace pathload::scenario {

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

TimePoint SimProbeChannel::transit_burst(const core::StreamSpec& spec) {
  // Hop-major closed-form transit (docs/ENGINE.md). A fluid link's state
  // moves only at packet arrivals, so feeding each link its arrivals in the
  // order the event-driven path delivers them makes the same state updates
  // and impairment draws in the same order. Hop 0's arrivals are the sends,
  // in send (ticket) order; every later hop takes the previous one's
  // launches. Leaves the egress arrivals in arrivals_, each packet's last
  // arrival in settled_ and the launch count in launches_; returns the
  // latest arrival anywhere, the replaced path's last event.
  const std::size_t k = send_times_.size();
  arrivals_.clear();
  settled_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    sim_.next_packet_id();  // the id its send would draw
    arrivals_.push_back(sim::Link::BurstHop{send_times_[i], static_cast<std::uint32_t>(i)});
  }
  // Loss, duplication and service read only the flow and size of a packet.
  const sim::Packet proto = probe_packet(spec);
  launches_ = 0;
  TimePoint last = sim_.now();
  const auto by_time = [](const sim::Link::BurstHop& a, const sim::Link::BurstHop& b) {
    return a.at < b.at;
  };
  for (std::size_t h = 0;; ++h) {
    for (const sim::Link::BurstHop& a : arrivals_) {
      settled_[a.seq] = a.at;
      last = std::max(last, a.at);
    }
    if (h == path_.hop_count()) return last;
    launched_.clear();
    path_.link(h).serve_fluid_burst(proto, arrivals_, launched_);
    launches_ += launched_.size();
    // A delay line delivers by (time, ticket), and its tickets follow launch
    // order. Jitter is the only way a later launch lands earlier.
    if (!std::is_sorted(launched_.begin(), launched_.end(), by_time)) {
      std::stable_sort(launched_.begin(), launched_.end(), by_time);
    }
    arrivals_.swap(launched_);
  }
}

void SimProbeChannel::resolve_closed_form(const core::StreamSpec& spec, bool impaired) {
  // Nothing else is queued, so nothing but this burst's own events could
  // run until its last one. Account the events and tickets of the path this
  // replaces, so every later event and tie-break is unchanged: the keyed
  // batch (one per packet) unimpaired, else the event-driven path (one per
  // send and one per launch).
  const TimePoint last = transit_burst(spec);
  for (const sim::Link::BurstHop& a : arrivals_) {
    records_.push_back(core::ProbeRecord{a.seq, send_times_[a.seq] + sender_offset_,
                                         a.at + receiver_offset_});
  }
  const std::uint64_t n = send_times_.size() + (impaired ? launches_ : 0);
  sim_.reserve_fifo_tickets(static_cast<std::uint32_t>(n));
  sim_.fast_forward(last, n);
}

void SimProbeChannel::run_stream_batched() {
  // Other events are queued, so only the accounting points are scheduled:
  // one bulk insert of K events under one ticket block, as if they had all
  // been scheduled now. Foreign events before the last of them then run
  // exactly as the event-driven completion loop would run them. The
  // transit itself used the links' rates at burst start (docs/ENGINE.md).
  const std::size_t k = send_times_.size();
  std::vector<bool> received(k, false);
  for (const sim::Link::BurstHop& a : arrivals_) received[a.seq] = true;
  std::vector<sim::Simulator::BatchEvent> batch;
  batch.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (received[i]) {
      const core::ProbeRecord rec{static_cast<std::uint32_t>(i),
                                  send_times_[i] + sender_offset_,
                                  settled_[i] + receiver_offset_};
      batch.push_back({settled_[i], sim::Simulator::Callback{[this, rec] {
                         records_.push_back(rec);
                         --batch_pending_;
                       }}});
    } else {
      // The drop is already on the link counters; the placeholder sits at
      // the arrival at the dropping hop, where the event-driven path
      // accounts it, so the completion loop ends at the same instant.
      batch.push_back({settled_[i], sim::Simulator::Callback{[this] { --batch_pending_; }}});
    }
  }
  // A drop's accounting point can precede an earlier packet's delivery;
  // restore the time order schedule_batch requires. Stable, so
  // equal-timestamp entries keep packet order.
  const auto by_time = [](const sim::Simulator::BatchEvent& a,
                          const sim::Simulator::BatchEvent& b) { return a.at < b.at; };
  if (!std::is_sorted(batch.begin(), batch.end(), by_time)) {
    std::stable_sort(batch.begin(), batch.end(), by_time);
  }
  batch_pending_ = batch.size();
  sim_.schedule_batch(std::move(batch));
  while (batch_pending_ > 0) {
    if (!sim_.run_next()) break;  // unreachable: pending events are queued
  }
}

sim::Packet SimProbeChannel::probe_packet(const core::StreamSpec& spec) const {
  sim::Packet p;
  p.flow = flow_;
  p.kind = sim::PacketKind::kProbe;
  p.size_bytes = spec.packet_size;
  p.transit = true;
  p.stream_id = spec.stream_id;
  return p;
}

void SimProbeChannel::send_next() {
  sim::Packet p = probe_packet(*spec_);
  p.id = sim_.next_packet_id();
  p.seq = send_idx_;
  p.sender_ts = sim_.now() + sender_offset_;
  p.entered = sim_.now();
  path_.ingress().handle(p);
  ++send_idx_;
  if (send_idx_ < send_times_.size()) {
    send_timer_.schedule_at(send_times_[send_idx_], ticket_base_ + send_idx_);
  }
}

void SimProbeChannel::run_event_driven(const core::StreamSpec& spec, bool impaired) {
  // Impairment bookkeeping engages only on an impaired path; pristine paths
  // take the exact pre-impairment accounting (bit-identical runs).
  const std::uint64_t drops_before = probe_drops();
  const std::uint64_t dups_before = impaired ? probe_dups() : 0;
  spec_ = &spec;
  send_idx_ = 0;
  ticket_base_ = sim_.reserve_fifo_tickets(static_cast<std::uint32_t>(spec.packet_count));
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

  const bool impaired = path_impaired();
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
  const bool fluid = path_all_fluid();
  const bool quiescent = sim_.pending_events() == 0;
  if (fluid && quiescent && fastest_ == BurstPath::kClosedForm) {
    ++paths_.closed_form;
    resolve_closed_form(spec, impaired);
  } else {
    ++(!fluid ? paths_.not_fluid : !quiescent ? paths_.queue_busy : paths_.capped);
    if (fluid && !impaired && fastest_ != BurstPath::kEventDriven) {
      ++paths_.keyed_batch;
      transit_burst(spec);
      run_stream_batched();
    } else {
      ++paths_.event_driven;
      run_event_driven(spec, impaired);
    }
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
