#include "tcp/bulk.hpp"

#include <vector>

#include "sim/monitor.hpp"

namespace pathload::tcp {

core::BulkTransferOutcome run_bulk_transfer(sim::Simulator& sim, sim::Path& path,
                                            const core::BulkTransferSpec& spec,
                                            const TcpConfig& tcp) {
  TcpConnection conn{sim, path, tcp, spec.reverse_delay};

  // Interpose a throughput monitor between the path egress and the
  // receiver so the per-bucket series reflects arrivals at the receiver.
  sim::ThroughputMonitor monitor{sim, spec.throughput_bucket};
  monitor.set_downstream(&conn.receiver());
  path.egress().register_flow(conn.flow(), &monitor);

  const DataSize acked_before = conn.sender().bytes_acked();
  const TimePoint start = sim.now();
  conn.sender().rate_sampler().set_recording(true);
  conn.sender().start();
  sim.run_for(spec.duration);
  conn.sender().stop();

  core::BulkTransferOutcome outcome;
  outcome.bytes_acked = conn.sender().bytes_acked() - acked_before;
  outcome.elapsed = sim.now() - start;
  for (const auto& bucket : monitor.finish()) {
    outcome.per_bucket.push_back(bucket.rate());
  }
  outcome.fast_retransmits = conn.sender().fast_retransmits();
  outcome.timeouts = conn.sender().timeouts();
  outcome.rtt_samples_secs = conn.sender().rtt_samples_secs();
  const std::vector<RateSample>& samples = conn.sender().rate_sampler().samples();
  outcome.rate_samples.reserve(samples.size());
  for (const auto& s : samples) {
    core::DeliveryRateSample out;
    out.rate_mbps = s.delivery_rate.mbits_per_sec();
    out.interval_s = s.interval.secs();
    out.delivered_bytes = s.delivered.byte_count();
    out.app_limited = s.app_limited;
    out.at_s = (s.at - start).secs();
    outcome.rate_samples.push_back(out);
  }

  // Restore the receiver as the direct egress handler before the monitor
  // goes out of scope (the connection is destroyed right after anyway).
  path.egress().register_flow(conn.flow(), &conn.receiver());
  return outcome;
}

}  // namespace pathload::tcp
