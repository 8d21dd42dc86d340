// Referee for counted timers (sim::Simulator::make_counted_timer), the
// timers behind TCP's ACK line and retransmission timer, whose every arm
// counts as one event: re-armed, cancelled and released arms run nothing
// but still count, each at its own (time, ticket).
//
// counted_timer_table.inc holds what the engine produced when every arm
// was a calendar key, for the procedures of referee.hpp: btc and
// delivery-rate on every preset of the bulk half of --compare under v1 and
// v2, each observed when the tool has torn its connection down and twice
// after; the duel presets with their flow on the packet backend, torn down
// and restarted by their on/off cycle; cc_recovery_test's impaired cubic
// and bbr runs, whose RTO fires live and backs off; fuzz tuning cases 3
// and 4; and arms that tie to the nanosecond, observed between them. Seeds
// {1, 2, 77}. Each observation (clock, event, ticket and packet-id
// counters, pending events and keys, TCP counters and per-link forwards)
// must replay the table exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "tests/integration/referee.hpp"

namespace pathload::scenario {
namespace {

struct TimerRow {
  const char* key;
  std::int64_t clock_ns;
  std::uint64_t events;
  std::uint64_t next_ticket;
  std::uint64_t next_packet_id;
  std::uint64_t pending_events;
  std::uint64_t pending_keys;
  std::uint64_t pending_keys_hash;
  std::uint64_t acked_bytes;
  std::uint64_t fast_retransmits;
  std::uint64_t timeouts;
  std::uint64_t rate_samples;
  const char* forwards;
};

#include "tests/integration/counted_timer_table.inc"

/// Compares every observation with the table's row of the same key.
class TableSink final : public referee::TimerSink {
 public:
  TableSink() {
    for (const TimerRow& row : kTimerRows) rows_[row.key] = &row;
  }

  void observe(const std::string& key, const referee::TimerObservation& got) override {
    ++checked_;
    const auto it = rows_.find(key);
    ASSERT_NE(it, rows_.end()) << "no table row " << key;
    const TimerRow& want = *it->second;
    EXPECT_EQ(got.clock_ns, want.clock_ns) << key;
    EXPECT_EQ(got.events, want.events) << key;
    EXPECT_EQ(got.next_ticket, want.next_ticket) << key;
    EXPECT_EQ(got.next_packet_id, want.next_packet_id) << key;
    EXPECT_EQ(got.pending_events, want.pending_events) << key;
    EXPECT_EQ(got.pending_keys, want.pending_keys) << key;
    EXPECT_EQ(got.pending_keys_hash, want.pending_keys_hash) << key;
    EXPECT_EQ(got.acked_bytes, want.acked_bytes) << key;
    EXPECT_EQ(got.fast_retransmits, want.fast_retransmits) << key;
    EXPECT_EQ(got.timeouts, want.timeouts) << key;
    EXPECT_EQ(got.rate_samples, want.rate_samples) << key;
    EXPECT_EQ(got.forwards, std::string{want.forwards}) << key;
  }

  int checked() const { return checked_; }

 private:
  std::map<std::string, const TimerRow*> rows_;
  int checked_{0};
};

TEST(CountedTimerTable, BulkToolsUnderV2) {
  TableSink sink;
  for (const std::string& preset : referee::bulk_presets()) {
    referee::bulk_timer_cases(sink, preset, EngineVersion::kV2);
  }
  EXPECT_EQ(sink.checked(), 6 * 18);
}

TEST(CountedTimerTable, BulkToolsUnderV1) {
  TableSink sink;
  for (const std::string& preset : referee::bulk_presets()) {
    referee::bulk_timer_cases(sink, preset, EngineVersion::kV1);
  }
  EXPECT_EQ(sink.checked(), 6 * 18);
}

TEST(CountedTimerTable, PacketDuelsTearDownMidFlight) {
  TableSink sink;
  for (const EngineVersion engine : {EngineVersion::kV1, EngineVersion::kV2}) {
    for (const char* preset : {"tcp-vs-probe-duel", "bbr-vs-probe-duel"}) {
      referee::packet_duel_timer_cases(sink, preset, engine);
    }
  }
  EXPECT_EQ(sink.checked(), 4 * 57);
}

TEST(CountedTimerTable, ImpairedRecoveryFiresTheRto) {
  TableSink sink;
  referee::recovery_timer_cases(sink, "tcp-vs-probe-duel", "cubic");
  referee::recovery_timer_cases(sink, "bbr-vs-probe-duel", "bbr");
  EXPECT_EQ(sink.checked(), 2 * 12);
}

TEST(CountedTimerTable, FuzzTuningCases) {
  TableSink sink;
  referee::fuzz_timer_cases(sink);
  EXPECT_EQ(sink.checked(), 18);
}

TEST(CountedTimerTable, ArmsTiedToTheNanosecond) {
  TableSink sink;
  referee::tied_arm_cases(sink);
  EXPECT_EQ(sink.checked(), 69);
}

TEST(CountedTimerTable, TableHasOneRowPerObservation) {
  EXPECT_EQ(std::size(kTimerRows), 2u * 6 * 18 + 4 * 57 + 2 * 12 + 18 + 69);
}

}  // namespace
}  // namespace pathload::scenario
