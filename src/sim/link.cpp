#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/traffic.hpp"

namespace pathload::sim {

Link::Link(Simulator& sim, std::string name, Rate capacity, Duration prop_delay,
           DataSize buffer_limit)
    : sim_{sim},
      name_{std::move(name)},
      capacity_{capacity},
      prop_delay_{prop_delay},
      buffer_limit_{buffer_limit} {
  if (capacity <= Rate::zero()) {
    throw std::invalid_argument{"Link capacity must be positive"};
  }
  fluid_drift_ = fluid_rate_bps_ / capacity_.bits_per_sec() - 1.0;
  fluid_ceiling_secs_ = capacity_.transmission_time(buffer_limit_).secs();
  entry_.link = this;
  sim_.register_entry(entry_);
}

Link::~Link() {
  for (CrossTrafficSource* s : sources_) s->detach();
  sim_.unregister_entry(entry_);
}

template <typename Accept>
void Link::admit(const Packet& p, Accept&& accept) {
  if (impair_rng_ != nullptr) {
    // Draw order is part of the determinism contract (see LinkImpairments):
    // loss first, then duplication; a disabled knob draws nothing.
    if (impair_.loss > 0.0 && impair_rng_->uniform() < impair_.loss) {
      ++drops_;
      ++impaired_drops_;
      if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
      return;
    }
    if (impair_.dup > 0.0 && impair_rng_->uniform() < impair_.dup) {
      // The extra copy is counted *before* it is accepted so that per-flow
      // accounting (records + drops == sent + dups) balances even when the
      // copy is immediately drop-tailed.
      ++duplicates_;
      if (p.flow != kCrossTrafficFlow) ++flow_dups_[p.flow];
      accept(p);
    }
  }
  accept(p);
}

void Link::handle(const Packet& p) {
  admit(p, [this](const Packet& q) { accept(q); });
  sim_.refresh(entry_);
}

void Link::emit() {
  // The top emission's source stays on top while the link takes its packet:
  // accepting a packet touches the service and delivery keys only.
  Simulator::LinkEntry::Emission& top = entry_.emissions.front();
  CrossTrafficSource& s = *top.source;
  const Packet p = s.make_packet();
  admit(p, [this](const Packet& q) { accept(q); });
  s.sent(p);
  top.key = Simulator::event_key(s.next_at_, s.next_ticket_);
  entry_.sift_top();
  sim_.refresh(entry_);
}

void Link::accept(const Packet& p) {
  if (fluid_mode_) {
    accept_fluid(p);
  } else if (busy()) {
    if (queued_bytes_ + p.size() > buffer_limit_) {
      count_drop(p);
      return;
    }
    queue_.push_back(p);
    queued_bytes_ += p.size();
    if (p.transit) ++transit_held_;
  } else {
    in_service_ = p;
    if (p.transit) ++transit_held_;
    start_service();
  }
}

void Link::set_impairments(const LinkImpairments& imp) {
  impair_ = imp;
  impair_rng_ = imp.any() ? std::make_unique<Rng>(imp.seed) : nullptr;
}

void Link::enable_fluid_mode() {
  fluid_mode_ = true;
  fluid_.last = sim_.now();
}

inline void Link::settle(FluidState& s, TimePoint now) const {
  const double dt = (now - s.last).secs();
  if (dt <= 0.0) return;
  s.bytes += std::min(fluid_rate_bps_, capacity_.bits_per_sec()) * dt / 8.0;
  // W drifts at lambda/C - 1: drains while under-loaded, grows while the
  // fluid alone oversubscribes the link (transient on/off peaks). The
  // max() clamps at the instant the queue empties; the min() is drop-tail
  // for the fluid itself (overflow fluid vanishes, as v1's drop-tail
  // discards the packets it stood for).
  s.work_secs += dt * fluid_drift_;
  s.work_secs = std::max(0.0, s.work_secs);
  s.work_secs = std::min(s.work_secs, fluid_ceiling_secs_);
  s.last = now;
}

void Link::add_fluid_rate(Rate delta) {
  settle(fluid_, sim_.now());
  // Cancel tiny negative residue when the last of several sources removes
  // its share (the adds and removes are floating-point sums).
  fluid_rate_bps_ = std::max(0.0, fluid_rate_bps_ + delta.bits_per_sec());
  fluid_drift_ = fluid_rate_bps_ / capacity_.bits_per_sec() - 1.0;
}

inline std::optional<TimePoint> Link::fluid_step(FluidState& s, Duration tx, DataSize size,
                                                 TimePoint arrival) const {
  settle(s, arrival);
  const Duration work = Duration::seconds(s.work_secs);
  if (capacity_.bytes_in(work) + size > buffer_limit_) return std::nullopt;
  // FIFO: the packet waits out the whole current workload, then serializes.
  // Its own transmission time joins the workload seen by later arrivals, so
  // packet-on-packet queueing (a SLoPS stream overrunning the link) stays
  // exact; only the cross traffic is fluid.
  s.work_secs += tx.secs();
  return arrival + ((work + tx) + prop_delay_);
}

std::optional<TimePoint> Link::fluid_transit(const Packet& p, TimePoint arrival) {
  const std::optional<TimePoint> delivery =
      fluid_step(fluid_, tx_time(p.size()), p.size(), arrival);
  if (!delivery.has_value()) {
    count_drop(p);
    return std::nullopt;
  }
  bytes_forwarded_ += p.size();
  ++packets_forwarded_;
  return delivery;
}

std::optional<Duration> Link::serve_fluid(const Packet& p, TimePoint now) {
  const std::optional<TimePoint> delivery = fluid_transit(p, now);
  // Drop-tailed (already accounted), or forwarded to nobody.
  if (!delivery.has_value() || downstream_ == nullptr) return std::nullopt;
  Duration delay = *delivery - now;
  if (impair_rng_ != nullptr && impair_.reorder > Duration::zero()) {
    delay += impair_.reorder * impair_rng_->uniform();
  }
  return delay;
}

void Link::accept_fluid(const Packet& p) {
  if (const std::optional<Duration> delay = serve_fluid(p, sim_.now())) {
    launch(p, *delay);
  }
}

void Link::serve_fluid_burst(const Packet& proto, const std::vector<BurstHop>& arrivals,
                             std::vector<BurstHop>& launched) {
  if (impair_rng_ != nullptr) {
    for (const BurstHop& a : arrivals) {
      admit(proto, [&](const Packet& q) {
        if (const std::optional<Duration> delay = serve_fluid(q, a.at)) {
          launched.push_back(BurstHop{a.at + *delay, a.seq});
        }
      });
    }
    return;
  }
  // Unimpaired: no draws, so fluid_transit's steps run back to back on a
  // copy of the state held in registers, and the counters are written once.
  const Duration tx = tx_time(proto.size());
  FluidState s = fluid_;
  std::int64_t forwarded = 0;
  for (const BurstHop& a : arrivals) {
    const std::optional<TimePoint> delivery = fluid_step(s, tx, proto.size(), a.at);
    if (!delivery.has_value()) {
      count_drop(proto);
      continue;
    }
    ++forwarded;
    if (downstream_ != nullptr) launched.push_back(BurstHop{*delivery, a.seq});
  }
  fluid_ = s;
  packets_forwarded_ += static_cast<std::uint64_t>(forwarded);
  bytes_forwarded_ += DataSize::bytes(forwarded * proto.size().byte_count());
}

DataSize Link::bytes_forwarded() const {
  if (!fluid_mode_) return bytes_forwarded_;
  // Settle-free read: integrate the fluid since the last settle point
  // without mutating (the accessor is const and monitors poll it often).
  const double dt = std::max(0.0, (sim_.now() - fluid_.last).secs());
  const double fluid =
      fluid_.bytes + std::min(fluid_rate_bps_, capacity_.bits_per_sec()) * dt / 8.0;
  return bytes_forwarded_ + DataSize::bytes(static_cast<std::int64_t>(fluid));
}

void Link::start_service() {
  entry_.service = Simulator::event_key(
      sim_.now() + capacity_.transmission_time(in_service_.size()),
      sim_.reserve_fifo_tickets(1));
}

void Link::finish_service() {
  bytes_forwarded_ += in_service_.size();
  ++packets_forwarded_;
  if (in_service_.transit) --transit_held_;
  if (downstream_ != nullptr) {
    // Propagation: the packet appears at the downstream node prop_delay
    // after its last bit leaves this link. Reorder jitter stretches the
    // propagation of individual packets, so a lucky later packet can
    // overtake an unlucky earlier one downstream.
    Duration delay = prop_delay_;
    if (impair_rng_ != nullptr && impair_.reorder > Duration::zero()) {
      delay += impair_.reorder * impair_rng_->uniform();
    }
    launch(in_service_, delay);
  }
  if (!queue_.empty()) {
    in_service_ = queue_.front();
    queue_.pop_front();
    queued_bytes_ -= in_service_.size();
    start_service();
  } else {
    entry_.service = Simulator::kNoEvent;
  }
  sim_.refresh(entry_);
}

void Link::launch(const Packet& p, Duration delay) {
  const std::int64_t at = (sim_.now() + delay).nanos();
  const std::uint64_t ticket = sim_.reserve_fifo_tickets(1);
  // Without jitter every delay is the same, so the entry is the latest and
  // this is an append. Jitter can place it earlier: insertion-sort it back
  // by (at, ticket). Its ticket is the newest, so it stays behind entries
  // with the same time.
  if (drops_hop_local_ && !p.transit) {
    const Simulator::EventKey key = Simulator::event_key(TimePoint::from_nanos(at), ticket);
    if (key < sim_.count_locals_before_) {
      sim_.count_local();
      return;
    }
    entry_.add_local(key);
    return;
  }
  const InFlight e{at, ticket, downstream_, p};
  delay_line_.push_back(e);
  std::size_t i = delay_line_.size() - 1;
  for (; i > 0 && e.at < delay_line_[i - 1].at; --i) delay_line_[i] = delay_line_[i - 1];
  if (i + 1 < delay_line_.size()) delay_line_[i] = e;
  if (i == 0) entry_.delivery = Simulator::event_key(TimePoint::from_nanos(e.at), e.ticket);
}

void Link::deliver_head() {
  // Copy the entry out and move the key to the next front before
  // delivering: the receiver may hand a packet straight back to this link,
  // which can grow the delay line.
  const InFlight head = delay_line_.front();
  delay_line_.pop_front();
  entry_.delivery = delay_line_.empty()
                        ? Simulator::kNoEvent
                        : Simulator::event_key(TimePoint::from_nanos(delay_line_.front().at),
                                               delay_line_.front().ticket);
  sim_.refresh(entry_);
  head.target->handle(head.pkt);
}

std::vector<std::uint64_t> Link::held_packet_ids() const {
  std::vector<std::uint64_t> ids;
  if (busy()) ids.push_back(in_service_.id);
  for (std::size_t i = 0; i < queue_.size(); ++i) ids.push_back(queue_[i].id);
  return ids;
}

std::uint64_t Link::drops_for_flow(std::uint32_t flow) const {
  auto it = flow_drops_.find(flow);
  return it != flow_drops_.end() ? it->second : 0;
}

std::uint64_t Link::dups_for_flow(std::uint32_t flow) const {
  auto it = flow_dups_.find(flow);
  return it != flow_dups_.end() ? it->second : 0;
}

Duration Link::backlog_delay() const {
  if (fluid_mode_) {
    // The virtual workload *is* the backlog delay; project it to now
    // without mutating.
    const double dt = std::max(0.0, (sim_.now() - fluid_.last).secs());
    return Duration::seconds(std::max(0.0, fluid_.work_secs + dt * fluid_drift_));
  }
  // Residual service of the in-flight packet is not tracked exactly; the
  // upper bound (full serialization) is fine for tests and diagnostics.
  DataSize backlog = queued_bytes_;
  if (busy()) backlog += in_service_.size();
  return capacity_.transmission_time(backlog);
}

}  // namespace pathload::sim
