// Referee for the link entries (sim::Simulator::LinkEntry), which schedule
// every link and renewal-source event outside the calendar queue.
//
// run_ahead_table.inc holds what the timer-driven engine produced, one
// timer per link event and per source, for the procedures of referee.hpp:
// the clock, the event, packet-id and ticket counters, the pending events
// and every link and source counter after each step, and each pathload
// session's report with its rates as hex floats. Every renewal-only v1
// preset at two loads and three seeds, a spec whose sources tie to the
// nanosecond, an aggregate added to a running path, TCP, on/off, ramp,
// impaired, fluid and RTT-prober neighbours, a transit packet at each
// position on the path, and fuzz tuning cases 3 and 4 must replay the
// table bit for bit. The suites keep the names of the cross-traffic
// run-ahead's referee, whose twin comparisons the table records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tests/integration/referee.hpp"

namespace pathload::scenario {
namespace {

struct SnapshotRow {
  const char* key;
  std::vector<std::int64_t> values;
};

struct ReportRow {
  const char* key;
  referee::Report report;
};

#include "tests/integration/run_ahead_table.inc"

/// Compares every observation with the table's row of the same key.
class TableSink final : public referee::Sink {
 public:
  TableSink() {
    for (const SnapshotRow& row : kSnapshots) snapshots_[row.key] = &row;
    for (const ReportRow& row : kReports) reports_[row.key] = &row;
  }

  void snapshot(const std::string& key, ScenarioInstance& inst) override {
    ++checked_;
    const auto it = snapshots_.find(key);
    ASSERT_NE(it, snapshots_.end()) << "no table row " << key;
    const std::vector<std::int64_t>& want = it->second->values;
    const referee::Snapshot got = referee::snapshot(inst);
    ASSERT_EQ(got.size(), want.size()) << key;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].second, want[i]) << key << ": " << got[i].first;
    }
  }

  void report(const std::string& key, const referee::Report& got) override {
    ++checked_;
    const auto it = reports_.find(key);
    ASSERT_NE(it, reports_.end()) << "no table row " << key;
    const referee::Report& want = it->second->report;
    EXPECT_EQ(got.outcome, want.outcome) << key;
    EXPECT_TRUE(referee::same_bits(got.low_bps, want.low_bps))
        << key << ": low " << got.low_bps << " vs " << want.low_bps;
    EXPECT_TRUE(referee::same_bits(got.high_bps, want.high_bps))
        << key << ": high " << got.high_bps << " vs " << want.high_bps;
    EXPECT_EQ(got.elapsed_ns, want.elapsed_ns) << key;
    EXPECT_EQ(got.packets_sent, want.packets_sent) << key;
    EXPECT_EQ(got.packets_lost, want.packets_lost) << key;
    EXPECT_EQ(got.iterations, want.iterations) << key;
  }

  int checked() const { return checked_; }

 private:
  std::map<std::string, const SnapshotRow*> snapshots_;
  std::map<std::string, const ReportRow*> reports_;
  int checked_{0};
};

TEST(RunAhead, CoversThePaperPresets) {
  const std::vector<std::string> names = referee::renewal_presets();
  for (const char* want : {"paper-path", "paper-path-poisson", "hetero-5hop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
  }
  // Every renewal preset has its rows: three per load and seed.
  for (const std::string& preset : names) {
    int rows = 0;
    for (const SnapshotRow& row : kSnapshots) {
      rows += std::string{row.key}.starts_with(preset + " load ") ? 1 : 0;
    }
    for (const ReportRow& row : kReports) {
      rows += std::string{row.key}.starts_with(preset + " load ") ? 1 : 0;
    }
    EXPECT_EQ(rows, 2 * 3 * 3) << preset;
  }
}

class RunAheadPreset : public ::testing::TestWithParam<std::string> {};

TEST_P(RunAheadPreset, MatchesRunUntilAcrossLoadsAndSeeds) {
  TableSink sink;
  referee::preset_cases(sink, GetParam());
  EXPECT_EQ(sink.checked(), 2 * 3 * 3);
}

INSTANTIATE_TEST_SUITE_P(Registry, RunAheadPreset,
                         ::testing::ValuesIn(referee::renewal_presets()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunAhead, EqualRateConstantSourcesTieAndTicketsDecide) {
  // All nine sources emit at the same nanoseconds on every hop: only the
  // tickets order the emissions and the ids they draw, within each link
  // entry and across them.
  TableSink sink;
  referee::tied_cases(sink);
  EXPECT_EQ(sink.checked(), 3 * 3 + 40);
}

TEST(RunAhead, SecondAggregateOnTheTightLink) {
  // An aggregate added to a running path attaches to its link, and its
  // sources join the link's entry beside the preset's.
  TableSink sink;
  referee::second_aggregate_case(sink);
  EXPECT_EQ(sink.checked(), 3);
}

TEST(RunAheadDeclines, EachReasonLeavesTheStateUntouched) {
  // What the run-ahead declined on runs through the link entries like the
  // rest: a TCP flow, on/off and ramp neighbours, an impaired hop, the
  // delay lines of fluid links, and an RTT prober's pings.
  TableSink sink;
  referee::mixed_cases(sink);
  EXPECT_EQ(sink.checked(), 6 * 3);
}

TEST(RunAheadDeclines, TransitPacketAnywhereOnThePath) {
  // A transit packet queued, in service or in a delay line, then gone.
  TableSink sink;
  referee::transit_packet_case(sink);
  EXPECT_EQ(sink.checked(), 10);
}

TEST(RunAhead, FuzzTuningCasesThreeAndFour) {
  // Case 3 carries a v1 TCP flow, case 4 on/off and ramp neighbours.
  for (const int index : {3, 4}) {
    const ScenarioSpec spec = referee::fuzz_tuning_spec(index);
    EXPECT_EQ(spec.engine, EngineVersion::kV1) << index;
  }
  TableSink sink;
  referee::fuzz_cases(sink);
  EXPECT_EQ(sink.checked(), 2 * 3);
}

}  // namespace
}  // namespace pathload::scenario
