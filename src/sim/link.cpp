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
      buffer_limit_{buffer_limit},
      service_timer_{sim.make_timer([this] { finish_service(); })},
      delivery_timer_{sim.make_timer([this] { deliver_head(); })} {
  if (capacity <= Rate::zero()) {
    throw std::invalid_argument{"Link capacity must be positive"};
  }
}

Link::~Link() {
  for (CrossTrafficSource* s : sources_) s->link_ = nullptr;
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
}

void Link::accept(const Packet& p) {
  if (fluid_mode_) {
    accept_fluid(p);
    return;
  }
  if (enqueue(p)) arm_service();
}

bool Link::enqueue(const Packet& p) {
  if (busy_) {
    if (queued_bytes_ + p.size() > buffer_limit_) {
      ++drops_;
      if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
      return false;
    }
    queue_.push_back(p);
    queued_bytes_ += p.size();
    return false;
  }
  in_service_ = p;
  start_service();
  return true;
}

void Link::set_impairments(const LinkImpairments& imp) {
  impair_ = imp;
  impair_rng_ = imp.any() ? std::make_unique<Rng>(imp.seed) : nullptr;
}

void Link::enable_fluid_mode() {
  fluid_mode_ = true;
  fluid_last_ = sim_.now();
}

void Link::add_fluid_rate(Rate delta) {
  settle_fluid();
  // Cancel tiny negative residue when the last of several sources removes
  // its share (the adds and removes are floating-point sums).
  fluid_rate_bps_ = std::max(0.0, fluid_rate_bps_ + delta.bits_per_sec());
}

void Link::settle_fluid() { settle_fluid_at(sim_.now()); }

void Link::settle_fluid_at(TimePoint now) {
  const double dt = (now - fluid_last_).secs();
  if (dt <= 0.0) return;
  const double cap = capacity_.bits_per_sec();
  fluid_bytes_ += std::min(fluid_rate_bps_, cap) * dt / 8.0;
  // W drifts at lambda/C - 1: drains while under-loaded, grows while the
  // fluid alone oversubscribes the link (transient on/off peaks). The
  // max() clamps at the instant the queue empties; the min() is drop-tail
  // for the fluid itself (overflow fluid vanishes, as v1's drop-tail
  // discards the packets it stood for).
  fluid_work_secs_ += dt * (fluid_rate_bps_ / cap - 1.0);
  fluid_work_secs_ = std::max(0.0, fluid_work_secs_);
  fluid_work_secs_ =
      std::min(fluid_work_secs_, capacity_.transmission_time(buffer_limit_).secs());
  fluid_last_ = now;
}

std::optional<TimePoint> Link::fluid_transit(const Packet& p, TimePoint arrival) {
  settle_fluid_at(arrival);
  const Duration tx = capacity_.transmission_time(p.size());
  if (capacity_.bytes_in(Duration::seconds(fluid_work_secs_)) + p.size() >
      buffer_limit_) {
    ++drops_;
    if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
    return std::nullopt;
  }
  // FIFO: the packet waits out the whole current workload, then serializes.
  // Its own transmission time joins the workload seen by later arrivals, so
  // packet-on-packet queueing (a SLoPS stream overrunning the link) stays
  // exact; only the cross traffic is fluid.
  const Duration wait = Duration::seconds(fluid_work_secs_) + tx;
  fluid_work_secs_ += tx.secs();
  bytes_forwarded_ += p.size();
  ++packets_forwarded_;
  return arrival + (wait + prop_delay_);
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
  for (const BurstHop& a : arrivals) {
    admit(proto, [&](const Packet& q) {
      if (const std::optional<Duration> delay = serve_fluid(q, a.at)) {
        launched.push_back(BurstHop{a.at + *delay, a.seq});
      }
    });
  }
}

DataSize Link::bytes_forwarded() const {
  if (!fluid_mode_) return bytes_forwarded_;
  // Settle-free read: integrate the fluid since the last settle point
  // without mutating (the accessor is const and monitors poll it often).
  const double dt = std::max(0.0, (sim_.now() - fluid_last_).secs());
  const double fluid =
      fluid_bytes_ + std::min(fluid_rate_bps_, capacity_.bits_per_sec()) * dt / 8.0;
  return bytes_forwarded_ + DataSize::bytes(static_cast<std::int64_t>(fluid));
}

void Link::start_service() {
  busy_ = true;
  service_at_ = sim_.now() + capacity_.transmission_time(in_service_.size());
  service_ticket_ = sim_.reserve_fifo_tickets(1);
}

void Link::arm_service() { service_timer_.schedule_at(service_at_, service_ticket_); }

void Link::finish_service() {
  if (complete_service()) arm_delivery();
  if (busy_) arm_service();
}

bool Link::complete_service() {
  bytes_forwarded_ += in_service_.size();
  ++packets_forwarded_;
  bool new_front = false;
  if (downstream_ != nullptr) {
    // Propagation: the packet appears at the downstream node prop_delay
    // after its last bit leaves this link. Reorder jitter stretches the
    // propagation of individual packets, so a lucky later packet can
    // overtake an unlucky earlier one downstream.
    Duration delay = prop_delay_;
    if (impair_rng_ != nullptr && impair_.reorder > Duration::zero()) {
      delay += impair_.reorder * impair_rng_->uniform();
    }
    new_front = enter_delay_line(in_service_, delay);
  }
  if (!queue_.empty()) {
    in_service_ = queue_.front();
    queue_.pop_front();
    queued_bytes_ -= in_service_.size();
    start_service();
  } else {
    busy_ = false;
  }
  return new_front;
}

void Link::launch(const Packet& p, Duration delay) {
  if (enter_delay_line(p, delay)) arm_delivery();
}

bool Link::enter_delay_line(const Packet& p, Duration delay) {
  const InFlight e{(sim_.now() + delay).nanos(), sim_.reserve_fifo_tickets(1),
                   downstream_, p};
  // Without jitter every delay is the same, so the entry is the latest and
  // this is an append. Jitter can place it earlier: insertion-sort it back
  // by (at, ticket). Its ticket is the newest, so it stays behind entries
  // with the same time.
  delay_line_.push_back(e);
  std::size_t i = delay_line_.size() - 1;
  for (; i > 0 && e.at < delay_line_[i - 1].at; --i) {
    delay_line_[i] = delay_line_[i - 1];
  }
  if (i + 1 < delay_line_.size()) delay_line_[i] = e;
  // A new front needs the timer re-armed (by the caller); the key armed
  // for the old front goes stale and is skipped without counting as an
  // event.
  return i == 0;
}

void Link::arm_delivery() {
  const InFlight& front = delay_line_.front();
  delivery_timer_.schedule_at(TimePoint::from_nanos(front.at), front.ticket);
}

void Link::deliver_head() {
  // Copy the entry out and re-arm before delivering: the receiver may hand
  // a packet straight back to this link, which can grow the delay line and
  // must find the timer armed for the current front.
  const InFlight head = delay_line_.front();
  delay_line_.pop_front();
  if (!delay_line_.empty()) arm_delivery();
  head.target->handle(head.pkt);
}

bool Link::holds_only_local(const PacketHandler* junction) const {
  if (fluid_mode_ || impair_rng_ != nullptr || downstream_ != junction) return false;
  if (busy_ && in_service_.transit) return false;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].transit) return false;
  }
  for (std::size_t i = 0; i < delay_line_.size(); ++i) {
    const InFlight& e = delay_line_[i];
    if (e.pkt.transit || e.target != junction) return false;
  }
  return true;
}

std::size_t Link::armed_timers() const {
  return (service_timer_.pending() ? 1 : 0) + (delivery_timer_.pending() ? 1 : 0);
}

void Link::hold_timers() {
  service_timer_.cancel();
  delivery_timer_.cancel();
}

void Link::rearm_timers() {
  if (busy_) arm_service();
  if (!delay_line_.empty()) arm_delivery();
}

std::uint64_t Link::retire_deliveries(std::int64_t upto) {
  std::uint64_t n = 0;
  while (!delay_line_.empty() && delay_line_.front().at <= upto) {
    delay_line_.pop_front();
    ++n;
  }
  return n;
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
    const double dt = std::max(0.0, (sim_.now() - fluid_last_).secs());
    const double w = std::max(
        0.0,
        fluid_work_secs_ + dt * (fluid_rate_bps_ / capacity_.bits_per_sec() - 1.0));
    return Duration::seconds(w);
  }
  // Residual service of the in-flight packet is not tracked exactly; the
  // upper bound (full serialization) is fine for tests and diagnostics.
  DataSize backlog = queued_bytes_;
  if (busy_) backlog += in_service_.size();
  return capacity_.transmission_time(backlog);
}

}  // namespace pathload::sim
