#include "sim/traffic.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/link.hpp"

namespace pathload::sim {

PacketSizeMix::PacketSizeMix(std::vector<Bin> bins) : bins_{std::move(bins)} {
  std::vector<double> weights;
  weights.reserve(bins_.size());
  for (const auto& b : bins_) weights.push_back(b.weight);
  sampler_ = AliasSampler{weights};
}

PacketSizeMix PacketSizeMix::paper_mix() {
  return PacketSizeMix{{{40, 0.4}, {550, 0.5}, {1500, 0.1}}};
}

PacketSizeMix PacketSizeMix::fixed(std::int32_t size_bytes) {
  return PacketSizeMix{{{size_bytes, 1.0}}};
}

double PacketSizeMix::mean_bytes() const {
  double total_w = 0.0;
  double sum = 0.0;
  for (const auto& b : bins_) {
    total_w += b.weight;
    sum += b.weight * b.size_bytes;
  }
  return total_w > 0.0 ? sum / total_w : 0.0;
}

CrossTrafficSource::CrossTrafficSource(Simulator& sim, PacketHandler& target,
                                       Rate mean_rate, Interarrival model,
                                       PacketSizeMix mix, Rng rng, double pareto_alpha)
    : CrossTrafficSource(sim, target, nullptr, mean_rate, model, std::move(mix), rng,
                         pareto_alpha) {}

CrossTrafficSource::CrossTrafficSource(Simulator& sim, Link& target, Rate mean_rate,
                                       Interarrival model, PacketSizeMix mix, Rng rng,
                                       double pareto_alpha)
    : CrossTrafficSource(sim, target, &target, mean_rate, model, std::move(mix), rng,
                         pareto_alpha) {}

CrossTrafficSource::CrossTrafficSource(Simulator& sim, PacketHandler& target, Link* link,
                                       Rate mean_rate, Interarrival model, PacketSizeMix mix,
                                       Rng rng, double pareto_alpha)
    : sim_{sim},
      target_{target},
      link_{link},
      mean_rate_{mean_rate},
      model_{model},
      mix_{std::move(mix)},
      rng_{rng},
      pareto_alpha_{pareto_alpha} {
  if (mean_rate <= Rate::zero()) {
    throw std::invalid_argument{"cross traffic rate must be positive"};
  }
  if (model_ == Interarrival::kPareto && pareto_alpha_ <= 1.0) {
    // Rng::pareto used to reject this on the first draw; with the constants
    // hoisted below, reject it up front instead of livelocking on a
    // zero-or-negative interarrival.
    throw std::invalid_argument{"Pareto mean is infinite for alpha <= 1"};
  }
  mean_gap_secs_ = mix_.mean_bytes() * 8.0 / mean_rate.bits_per_sec();
  // Constants of Rng::pareto hoisted out of the per-packet path. The
  // expressions match that function operation-for-operation, so the drawn
  // sequence is bit-identical to calling it.
  pareto_xm_secs_ = mean_gap_secs_ * (pareto_alpha_ - 1.0) / pareto_alpha_;
  pareto_inv_alpha_ = 1.0 / pareto_alpha_;
  if (link_ != nullptr) {
    entry_ = &link_->entry_;
    link_->sources_.push_back(this);
  } else {
    entry_ = &sim.loose_entry();
  }
}

CrossTrafficSource::~CrossTrafficSource() {
  stop();
  if (link_ != nullptr) std::erase(link_->sources_, this);
}

void CrossTrafficSource::start() {
  if (running_) return;
  running_ = true;
  plan_next();
  arm();
}

void CrossTrafficSource::stop() {
  running_ = false;
  if (!armed_) return;
  armed_ = false;
  entry_->remove(this);
  sim_.refresh(*entry_);
}

void CrossTrafficSource::arm() {
  if (entry_ == nullptr) return;
  entry_->push({Simulator::event_key(next_at_, next_ticket_), this});
  armed_ = true;
  sim_.refresh(*entry_);
}

void CrossTrafficSource::detach() {
  link_ = nullptr;
  entry_ = nullptr;
  armed_ = false;
}

void CrossTrafficSource::plan_next() {
  // The gap is drawn before the ticket is taken, as the timer arm took it.
  next_at_ = sim_.now() + next_interarrival();
  next_ticket_ = sim_.reserve_fifo_tickets(1);
}

Duration CrossTrafficSource::next_interarrival() {
  switch (model_) {
    case Interarrival::kExponential:
      return Duration::seconds(rng_.exponential(mean_gap_secs_));
    case Interarrival::kPareto:
      return Duration::seconds(
          Rng::pareto_from_uniform(rng_.uniform(), pareto_xm_secs_, pareto_inv_alpha_));
    case Interarrival::kConstant:
      return Duration::seconds(mean_gap_secs_);
  }
  return Duration::seconds(mean_gap_secs_);
}

void CrossTrafficSource::emit_to_target() {
  // Off the heap while the packet is handed off, as a fired timer is
  // disarmed: the handler may observe pending_events(), or stop and start
  // sources.
  armed_ = false;
  entry_->remove(this);
  sim_.refresh(*entry_);
  const Packet p = make_packet();
  target_.handle(p);
  sent(p);
  if (running_ && !armed_) arm();
}

Packet CrossTrafficSource::make_packet() {
  Packet p;
  p.id = sim_.next_packet_id();
  p.flow = kCrossTrafficFlow;
  p.kind = PacketKind::kCrossTraffic;
  p.size_bytes = mix_.sample(rng_);
  p.transit = false;
  p.entered = sim_.now();
  return p;
}

void CrossTrafficSource::sent(const Packet& p) {
  ++packets_sent_;
  bytes_sent_ += p.size();
  plan_next();
}

TrafficAggregate::TrafficAggregate(Simulator& sim, PacketHandler& target,
                                   Rate aggregate_rate, int num_sources,
                                   Interarrival model, PacketSizeMix mix, Rng rng,
                                   double pareto_alpha) {
  build(sim, target, aggregate_rate, num_sources, model, mix, rng, pareto_alpha);
}

TrafficAggregate::TrafficAggregate(Simulator& sim, Link& target, Rate aggregate_rate,
                                   int num_sources, Interarrival model, PacketSizeMix mix,
                                   Rng rng, double pareto_alpha) {
  build(sim, target, aggregate_rate, num_sources, model, mix, rng, pareto_alpha);
}

template <typename Target>
void TrafficAggregate::build(Simulator& sim, Target& target, Rate aggregate_rate,
                             int num_sources, Interarrival model, const PacketSizeMix& mix,
                             Rng& rng, double pareto_alpha) {
  if (num_sources <= 0) {
    throw std::invalid_argument{"TrafficAggregate needs at least one source"};
  }
  const Rate per_source = aggregate_rate / static_cast<double>(num_sources);
  sources_.reserve(static_cast<std::size_t>(num_sources));
  if constexpr (std::is_same_v<Target, Link>) {
    target.reserve_sources(target.sources().size() + static_cast<std::size_t>(num_sources));
  }
  for (int i = 0; i < num_sources; ++i) {
    sources_.push_back(std::make_unique<CrossTrafficSource>(
        sim, target, per_source, model, mix, rng.fork(), pareto_alpha));
  }
}

void TrafficAggregate::start() {
  for (auto& s : sources_) s->start();
}

void TrafficAggregate::stop() {
  for (auto& s : sources_) s->stop();
}

DataSize TrafficAggregate::bytes_sent() const {
  DataSize total{};
  for (const auto& s : sources_) total += s->bytes_sent();
  return total;
}

OnOffSource::OnOffSource(Simulator& sim, PacketHandler& target, Rate mean_rate,
                         OnOffParams params, PacketSizeMix mix, Rng rng)
    : sim_{sim},
      target_{target},
      mean_rate_{mean_rate},
      params_{params},
      mix_{std::move(mix)},
      rng_{rng},
      timer_{sim.make_timer([this] { on_timer(); })} {
  if (mean_rate <= Rate::zero()) {
    throw std::invalid_argument{"on/off traffic mean rate must be positive"};
  }
  if (params_.peak_rate <= mean_rate) {
    throw std::invalid_argument{
        "on/off peak rate must exceed the mean rate (duty cycle < 1)"};
  }
  if (params_.burst_alpha <= 1.0) {
    throw std::invalid_argument{"on/off burst sizes need Pareto alpha > 1"};
  }
  if (params_.mean_burst.byte_count() <= 0) {
    throw std::invalid_argument{"on/off mean burst size must be positive"};
  }
  const double mean_burst_bits = params_.mean_burst.bits();
  mean_off_secs_ = mean_burst_bits * (1.0 / mean_rate_.bits_per_sec() -
                                      1.0 / params_.peak_rate.bits_per_sec());
  burst_xm_bytes_ = static_cast<double>(params_.mean_burst.byte_count()) *
                    (params_.burst_alpha - 1.0) / params_.burst_alpha;
  burst_inv_alpha_ = 1.0 / params_.burst_alpha;
}

void OnOffSource::start() {
  if (running_) return;
  running_ = true;
  in_burst_ = false;
  timer_.schedule_in(off_gap());
}

Duration OnOffSource::off_gap() {
  return Duration::seconds(rng_.exponential(mean_off_secs_));
}

void OnOffSource::on_timer() {
  if (!running_) return;
  if (!in_burst_) {
    // A new burst begins now: draw its size and fall through to emit the
    // first packet immediately.
    in_burst_ = true;
    burst_remaining_bytes_ =
        Rng::pareto_from_uniform(rng_.uniform(), burst_xm_bytes_, burst_inv_alpha_);
    ++bursts_started_;
  }
  Packet p;
  p.id = sim_.next_packet_id();
  p.flow = kCrossTrafficFlow;
  p.kind = PacketKind::kCrossTraffic;
  p.size_bytes = mix_.sample(rng_);
  p.transit = false;
  p.entered = sim_.now();
  target_.handle(p);
  ++packets_sent_;
  bytes_sent_ += p.size();
  burst_remaining_bytes_ -= static_cast<double>(p.size_bytes);
  // Pace the burst at the peak rate: the next event is one serialization
  // time away, either the burst's next packet or (burst exhausted) the end
  // of the ON period, from which the exponential OFF gap runs.
  const Duration tx = params_.peak_rate.transmission_time(p.size());
  if (burst_remaining_bytes_ > 0.0) {
    timer_.schedule_in(tx);
  } else {
    in_burst_ = false;
    timer_.schedule_in(tx + off_gap());
  }
}

RampLoadSource::RampLoadSource(Simulator& sim, PacketHandler& target,
                               RampParams params, PacketSizeMix mix, Rng rng)
    : sim_{sim},
      target_{target},
      params_{params},
      mix_{std::move(mix)},
      rng_{rng},
      timer_{sim.make_timer([this] { emit_and_reschedule(); })} {
  if (params_.start_rate <= Rate::zero() || params_.end_rate <= Rate::zero()) {
    throw std::invalid_argument{"ramp traffic rates must be positive"};
  }
  if (params_.ramp_end < params_.ramp_start) {
    throw std::invalid_argument{"ramp_end must not precede ramp_start"};
  }
  if (params_.ramp_start < Duration::zero()) {
    throw std::invalid_argument{"ramp_start must not be negative"};
  }
  if (params_.back_rate) {
    if (*params_.back_rate <= Rate::zero()) {
      throw std::invalid_argument{"ramp back_rate must be positive"};
    }
    if (params_.back_start < params_.ramp_end) {
      throw std::invalid_argument{"ramp back_start must not precede ramp_end"};
    }
    if (params_.back_end < params_.back_start) {
      throw std::invalid_argument{"ramp back_end must not precede back_start"};
    }
  }
  mean_bytes_ = mix_.mean_bytes();
}

Rate RampLoadSource::rate_at(Duration elapsed) const {
  if (elapsed <= params_.ramp_start) return params_.start_rate;
  if (elapsed < params_.ramp_end) {
    const double frac = (elapsed - params_.ramp_start) /
                        (params_.ramp_end - params_.ramp_start);
    return params_.start_rate + (params_.end_rate - params_.start_rate) * frac;
  }
  if (!params_.back_rate || elapsed <= params_.back_start) return params_.end_rate;
  if (elapsed >= params_.back_end) return *params_.back_rate;
  const double frac = (elapsed - params_.back_start) /
                      (params_.back_end - params_.back_start);
  return params_.end_rate + (*params_.back_rate - params_.end_rate) * frac;
}

void RampLoadSource::start() {
  if (running_) return;
  running_ = true;
  epoch_ = sim_.now();
  timer_.schedule_in(next_gap());
}

Duration RampLoadSource::next_gap() {
  const Rate now_rate = rate_at(sim_.now() - epoch_);
  const double mean_gap = mean_bytes_ * 8.0 / now_rate.bits_per_sec();
  return Duration::seconds(rng_.exponential(mean_gap));
}

void RampLoadSource::emit_and_reschedule() {
  if (!running_) return;
  Packet p;
  p.id = sim_.next_packet_id();
  p.flow = kCrossTrafficFlow;
  p.kind = PacketKind::kCrossTraffic;
  p.size_bytes = mix_.sample(rng_);
  p.transit = false;
  p.entered = sim_.now();
  target_.handle(p);
  ++packets_sent_;
  bytes_sent_ += p.size();
  timer_.schedule_in(next_gap());
}

}  // namespace pathload::sim
