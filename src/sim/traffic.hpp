// Cross-traffic models for the simulated paths.
//
// Four generator families live here, all hop-local (their packets contend
// for exactly one link and then leave the path, Fig. 4's topology) and all
// seeded, so a run is reproducible bit-for-bit:
//
//  * CrossTrafficSource / TrafficAggregate — renewal arrivals (Poisson,
//    Pareto alpha = 1.9, or CBR) with i.i.d. packet sizes. The paper's
//    Section V-A models.
//  * OnOffSource — exponential ON/OFF bursts with Pareto burst *sizes*:
//    heavier short-timescale burstiness than Pareto interarrivals alone.
//  * RampLoadSource — a non-stationary Poisson process whose offered rate
//    follows a piecewise-linear ramp (or instantaneous step), for load-change
//    and dynamics scenarios.
//
// Units convention: rates are link-layer payload `Rate`s (bits/second),
// sizes are `DataSize` bytes, times are `Duration`s. Dimensionless shape
// parameters (Pareto alpha) are plain doubles.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/alias_sampler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pathload::sim {

class Link;

/// Interarrival process of a cross-traffic source.
enum class Interarrival {
  kExponential,  ///< Poisson arrivals (the paper's "smooth" traffic model)
  kPareto,       ///< Pareto interarrivals, infinite variance (alpha = 1.9)
  kConstant,     ///< CBR; useful for deterministic tests
};

/// Common control surface of every background-load generator, so scenario
/// code can hold heterogeneous per-hop traffic behind one pointer type.
class TrafficGen {
 public:
  virtual ~TrafficGen() = default;
  /// Begin emitting (first event is one gap from now; see each model).
  virtual void start() = 0;
  /// Stop emitting (in-flight packets are unaffected).
  virtual void stop() = 0;
  /// Cumulative bytes offered to the target link since start().
  virtual DataSize bytes_sent() const = 0;
};

/// Packet size distribution of cross traffic.
///
/// Sampling is O(1) and allocation-free: the weighted choice is an alias
/// table precomputed at construction (CDF-aligned, so it picks exactly the
/// sizes a linear scan of the weights would -- see AliasSampler). One
/// uniform variate is consumed per packet regardless of bin count, so the
/// RNG stream is identical for every mix shape.
class PacketSizeMix {
 public:
  struct Bin {
    std::int32_t size_bytes;
    double weight;
  };

  PacketSizeMix() = default;
  explicit PacketSizeMix(std::vector<Bin> bins);

  /// The paper's Section V-A mix: 40% 40 B, 50% 550 B, 10% 1500 B.
  static PacketSizeMix paper_mix();
  /// Degenerate single-size mix.
  static PacketSizeMix fixed(std::int32_t size_bytes);

  std::int32_t sample(Rng& rng) const {
    return bins_[sampler_.sample(rng)].size_bytes;
  }
  double mean_bytes() const;

  const std::vector<Bin>& bins() const { return bins_; }

 private:
  std::vector<Bin> bins_;
  AliasSampler sampler_;
};

/// One background traffic source feeding a specific link.
///
/// The source offers `mean_rate` on average: interarrival times are drawn
/// from the chosen process with mean E[size] / rate, and packet sizes are
/// drawn independently from the mix. Cross-traffic packets are hop-local
/// (transit = false): they contend for exactly one link and then leave the
/// path, matching the simulation topology of Fig. 4.
///
/// The source arms no timer: its pending emission is a key in a
/// Simulator::LinkEntry. Built on a Link, the source attaches to it
/// (Link::sources()) until it is destroyed, and its emissions are the
/// link's; built on another handler, it shares the Simulator's entry for
/// sources that feed no link.
class CrossTrafficSource {
 public:
  CrossTrafficSource(Simulator& sim, PacketHandler& target, Rate mean_rate,
                     Interarrival model, PacketSizeMix mix, Rng rng,
                     double pareto_alpha = 1.9);
  CrossTrafficSource(Simulator& sim, Link& target, Rate mean_rate, Interarrival model,
                     PacketSizeMix mix, Rng rng, double pareto_alpha = 1.9);
  ~CrossTrafficSource();

  /// Begin emitting packets (first arrival is one interarrival from now).
  void start();
  /// Stop emitting (in-flight packets are unaffected).
  void stop();

  Rate mean_rate() const { return mean_rate_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  DataSize bytes_sent() const { return bytes_sent_; }

  CrossTrafficSource(const CrossTrafficSource&) = delete;
  CrossTrafficSource& operator=(const CrossTrafficSource&) = delete;

 private:
  // An emission is make_packet, the hand-off to the target, then sent.
  // Link::emit runs them for a source on a link, emit_to_target otherwise.
  /// The emission of a source that feeds no link.
  void emit_to_target();
  /// The next packet: draws its id and its size.
  Packet make_packet();
  /// Count `p` as sent and plan the next emission.
  void sent(const Packet& p);
  /// Draw the next gap and reserve the FIFO ticket of the next emission.
  void plan_next();
  /// Put the planned emission in the entry.
  void arm();
  /// The link went first: nothing is scheduled for the source any more.
  void detach();
  Duration next_interarrival();

  CrossTrafficSource(Simulator& sim, PacketHandler& target, Link* link, Rate mean_rate,
                     Interarrival model, PacketSizeMix mix, Rng rng, double pareto_alpha);

  friend class Link;
  friend class Simulator;

  Simulator& sim_;
  PacketHandler& target_;
  Link* link_{nullptr};  // the link attached to, if built on one
  // Where the pending emission is scheduled; null once the link is gone.
  Simulator::LinkEntry* entry_{nullptr};
  Rate mean_rate_;
  Interarrival model_;
  PacketSizeMix mix_;
  Rng rng_;
  double pareto_alpha_;
  double mean_gap_secs_;
  double pareto_xm_secs_{0.0};
  double pareto_inv_alpha_{0.0};

  bool running_{false};
  bool armed_{false};  // the pending emission is in entry_
  // The planned emission.
  TimePoint next_at_{};
  std::uint64_t next_ticket_{0};
  std::uint64_t packets_sent_{0};
  DataSize bytes_sent_{};
};

/// A fixed-size pool of independent sources sharing one aggregate rate.
///
/// The number of sources `n` models the *degree of statistical multiplexing*
/// (Section VI-B): more sources at the same aggregate utilization yield a
/// smoother arrival process, fewer sources a burstier one.
class TrafficAggregate final : public TrafficGen {
 public:
  TrafficAggregate(Simulator& sim, PacketHandler& target, Rate aggregate_rate,
                   int num_sources, Interarrival model, PacketSizeMix mix, Rng rng,
                   double pareto_alpha = 1.9);
  /// The sources attach to `target` (see CrossTrafficSource).
  TrafficAggregate(Simulator& sim, Link& target, Rate aggregate_rate, int num_sources,
                   Interarrival model, PacketSizeMix mix, Rng rng,
                   double pareto_alpha = 1.9);

  void start() override;
  void stop() override;

  DataSize bytes_sent() const override;
  int source_count() const { return static_cast<int>(sources_.size()); }

 private:
  template <typename Target>
  void build(Simulator& sim, Target& target, Rate aggregate_rate, int num_sources,
             Interarrival model, const PacketSizeMix& mix, Rng& rng, double pareto_alpha);

  std::vector<std::unique_ptr<CrossTrafficSource>> sources_;
};

/// Parameters of one on/off bursty source. All three shape knobs have
/// model-level meaning:
///
///  * `peak_rate` — emission rate *during* a burst (bits/s). Must exceed the
///    source's long-run mean rate; the ratio mean/peak is the duty cycle.
///  * `mean_burst` — mean burst size in bytes. Burst sizes are Pareto with
///    shape `burst_alpha`, so for 1 < alpha <= 2 burst sizes have infinite
///    variance: occasional very long bursts, the classic heavy-tailed
///    ON/OFF picture behind self-similar traffic.
///  * `burst_alpha` — Pareto shape of the burst-size distribution
///    (dimensionless, must be > 1 for the mean to exist).
struct OnOffParams {
  Rate peak_rate{Rate::mbps(10)};
  DataSize mean_burst{DataSize::bytes(30'000)};
  double burst_alpha{1.5};
};

/// Bursty on/off background load: exponential OFF periods alternating with
/// ON bursts of Pareto-distributed size emitted back-to-back at `peak_rate`.
///
/// During ON, packets (sizes drawn i.i.d. from the mix) are paced at the
/// burst peak rate until the drawn burst size is exhausted; the source then
/// sleeps for an exponential OFF gap whose mean is derived so the long-run
/// offered load equals `mean_rate`:
///
///   E[on]  = E[burst] * 8 / peak_rate
///   E[off] = E[burst] * 8 * (1/mean_rate - 1/peak_rate)
///
/// The source starts in OFF (first burst begins one OFF gap after start()),
/// mirroring CrossTrafficSource's "first arrival is one interarrival away".
class OnOffSource final : public TrafficGen {
 public:
  OnOffSource(Simulator& sim, PacketHandler& target, Rate mean_rate,
              OnOffParams params, PacketSizeMix mix, Rng rng);

  void start() override;
  void stop() override {
    running_ = false;
    timer_.cancel();
  }

  Rate mean_rate() const { return mean_rate_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bursts_started() const { return bursts_started_; }
  DataSize bytes_sent() const override { return bytes_sent_; }

  OnOffSource(const OnOffSource&) = delete;
  OnOffSource& operator=(const OnOffSource&) = delete;

 private:
  void on_timer();
  Duration off_gap();

  Simulator& sim_;
  PacketHandler& target_;
  Rate mean_rate_;
  OnOffParams params_;
  PacketSizeMix mix_;
  Rng rng_;
  double mean_off_secs_{0.0};
  double burst_xm_bytes_{0.0};   // Pareto scale of burst sizes
  double burst_inv_alpha_{0.0};
  Simulator::TimerHandle timer_;

  bool running_{false};
  bool in_burst_{false};
  double burst_remaining_bytes_{0.0};
  std::uint64_t packets_sent_{0};
  std::uint64_t bursts_started_{0};
  DataSize bytes_sent_{};
};

/// Offered-load profile of a RampLoadSource: the rate is `start_rate` until
/// `ramp_start` (measured from start()), then moves linearly to `end_rate`
/// by `ramp_end`, and holds `end_rate` afterwards. `ramp_start == ramp_end`
/// degenerates to an instantaneous load *step*. Both rates must be positive
/// (a source that should be silent is simply not constructed).
struct RampParams {
  Rate start_rate{Rate::mbps(1)};
  Rate end_rate{Rate::mbps(1)};
  Duration ramp_start{Duration::zero()};
  Duration ramp_end{Duration::zero()};

  /// Optional return segment (a load *wave*): after holding `end_rate`,
  /// the rate moves linearly to `back_rate` over [back_start, back_end]
  /// (both measured from start(), like ramp_start/ramp_end) and holds it
  /// afterwards. Disabled while `back_rate` is unset — the profile then
  /// matches the original single-segment ramp exactly.
  std::optional<Rate> back_rate{};
  Duration back_start{Duration::zero()};
  Duration back_end{Duration::zero()};
};

/// Non-stationary Poisson background load for load-change scenarios.
///
/// Arrivals are exponential with a mean gap of E[size] * 8 / rate_now,
/// where rate_now is the profile evaluated at the instant the gap is drawn;
/// a rate change therefore takes effect at the next arrival (gaps are not
/// re-drawn mid-flight, which keeps the process deterministic and cheap).
class RampLoadSource final : public TrafficGen {
 public:
  RampLoadSource(Simulator& sim, PacketHandler& target, RampParams params,
                 PacketSizeMix mix, Rng rng);

  void start() override;
  void stop() override {
    running_ = false;
    timer_.cancel();
  }

  /// The profile's offered rate at `elapsed` time after start().
  Rate rate_at(Duration elapsed) const;

  std::uint64_t packets_sent() const { return packets_sent_; }
  DataSize bytes_sent() const override { return bytes_sent_; }

  RampLoadSource(const RampLoadSource&) = delete;
  RampLoadSource& operator=(const RampLoadSource&) = delete;

 private:
  void emit_and_reschedule();
  Duration next_gap();

  Simulator& sim_;
  PacketHandler& target_;
  RampParams params_;
  PacketSizeMix mix_;
  Rng rng_;
  double mean_bytes_{0.0};
  TimePoint epoch_{};
  Simulator::TimerHandle timer_;

  bool running_{false};
  std::uint64_t packets_sent_{0};
  DataSize bytes_sent_{};
};

/// A pool of independent generators sharing one aggregate rate, the
/// TrafficGen-polymorphic analogue of TrafficAggregate (used by scenario
/// instantiation when a hop wants several on/off or ramp sources).
class GenGroup final : public TrafficGen {
 public:
  explicit GenGroup(std::vector<std::unique_ptr<TrafficGen>> members)
      : members_{std::move(members)} {}

  void start() override {
    for (auto& m : members_) m->start();
  }
  void stop() override {
    for (auto& m : members_) m->stop();
  }
  DataSize bytes_sent() const override {
    DataSize total{};
    for (const auto& m : members_) total += m->bytes_sent();
    return total;
  }

 private:
  std::vector<std::unique_ptr<TrafficGen>> members_;
};

}  // namespace pathload::sim
