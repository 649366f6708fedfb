#include "runner/journaled_run.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pi2::runner {
namespace {

using durable::ShutdownController;

// A toy unit: unit i produces 10 * i. Its encoding is "v<n>"; decode also
// accepts trailing bytes after a ';', so a replayed payload can differ from
// the fresh encoding of the same value and the test can tell which bytes
// the journal received.
std::string encode_value(const int& v) { return "v" + std::to_string(v); }

bool decode_value(const std::string& payload, int& v) {
  if (payload.size() < 2 || payload[0] != 'v') return false;
  v = std::stoi(payload.substr(1, payload.find(';') - 1));
  return true;
}

std::uint64_t unit_key(std::size_t i) { return 0x1000 + i; }

class JournaledRun : public ::testing::Test {
 protected:
  void SetUp() override { ShutdownController::reset(); }
  void TearDown() override {
    ShutdownController::reset();
    std::remove(path_.c_str());
  }

  JournalTarget target(bool with_shard = false) const {
    JournalTarget t{.path = path_, .key = 0xC0FFEE};
    if (with_shard) {
      t.shard = durable::ShardInfo{.present = true, .campaign = "toy",
                                   .digest = 0xC0FFEE, .hi = 8};
    }
    return t;
  }

  /// Units producing 10 * i; `produced` and `consumed` log the indices.
  JournaledUnits<int> units(std::size_t count) {
    return {.count = count,
            .key = unit_key,
            .produce =
                [this](std::size_t i) {
                  const std::lock_guard<std::mutex> lock{mutex_};
                  produced_.push_back(i);
                  return static_cast<int>(i) * 10;
                },
            .encode = encode_value,
            .decode = decode_value,
            .consume = [this](std::size_t, TaskStatus, int* v) {
              consumed_.push_back(v == nullptr ? -1 : *v);
            }};
  }

  durable::ShardJournalData read() const {
    durable::ShardJournalData data;
    EXPECT_TRUE(durable::load_shard_journal(path_, data).ok());
    return data;
  }

  std::string bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  const std::string path_ = std::string(::testing::TempDir()) +
                            "pi2_journaled_run_" +
                            ::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name() +
                            ".journal";
  std::mutex mutex_;  ///< guards produced_ (produce runs on workers)
  std::vector<std::size_t> produced_;
  std::vector<int> consumed_;
};

TEST_F(JournaledRun, ReplayedUnitIsNeverProducedAndItsBytesAreReappended) {
  Replays replays(4);
  replays[1] = "v10;original";
  replays[3] = "v30;original";
  const JournaledReport report = run_journaled(
      ParallelRunner{1}, target(), units(4), std::move(replays), {});
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(produced_, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(consumed_, (std::vector<int>{0, 10, 20, 30}));
  const auto data = read();
  ASSERT_EQ(data.points.size(), 4u);
  EXPECT_EQ(data.points[0].second, "v0");
  EXPECT_EQ(data.points[1].second, "v10;original");
  EXPECT_EQ(data.points[2].second, "v20");
  EXPECT_EQ(data.points[3].second, "v30;original");
}

TEST_F(JournaledRun, RecordsLandInIndexOrderAndBeforeConsume) {
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<std::size_t> seen;
    JournaledUnits<int> u{
        .count = 16,
        .key = unit_key,
        // Later units finish first, so completion order is scrambled.
        .produce =
            [](std::size_t i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
              return static_cast<int>(i);
            },
        .encode = encode_value,
        .decode = decode_value,
        .consume = [&](std::size_t i, TaskStatus, int*) {
          seen.push_back(i);
          EXPECT_EQ(read().points.size(), i + 1)
              << "unit " << i << " consumed before its record, jobs=" << jobs;
        }};
    const JournaledReport report =
        run_journaled(ParallelRunner{jobs}, target(true), u, {}, {});
    EXPECT_TRUE(report.run.all_ok());
    const auto data = read();
    EXPECT_TRUE(data.shard.present);
    EXPECT_EQ(data.shard.hi, 8u);
    ASSERT_EQ(data.points.size(), 16u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(data.points[i].first, unit_key(i)) << "jobs=" << jobs;
      EXPECT_EQ(data.points[i].second, encode_value(static_cast<int>(i)));
    }
    EXPECT_EQ(seen.size(), 16u);
  }
}

TEST_F(JournaledRun, FailedAndTimedOutUnitsGetNoRecord) {
  std::vector<TaskStatus> statuses;
  JournaledUnits<int> u{
      .count = 6,
      .key = unit_key,
      .produce =
          [](std::size_t i) {
            if (i == 2) throw std::runtime_error("boom");
            if (i == 4) {
              std::this_thread::sleep_for(std::chrono::milliseconds(300));
            }
            return static_cast<int>(i);
          },
      .encode = encode_value,
      .decode = decode_value,
      .consume = [&](std::size_t, TaskStatus status, int*) {
        statuses.push_back(status);
      }};
  const JournaledReport report = run_journaled(
      ParallelRunner{2}, target(), u, {},
      GuardOptions{.max_attempts = 1,
                   .attempt_deadline = std::chrono::milliseconds{50}});
  ASSERT_EQ(statuses.size(), 6u);
  EXPECT_EQ(statuses[2], TaskStatus::kFailed);
  EXPECT_EQ(statuses[4], TaskStatus::kTimeout);
  EXPECT_EQ(report.run.ok_count(), 4u);
  const auto data = read();
  ASSERT_EQ(data.points.size(), 4u);
  const std::vector<std::uint64_t> keys{unit_key(0), unit_key(1), unit_key(3),
                                        unit_key(5)};
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(data.points[k].first, keys[k]);
  }
}

TEST_F(JournaledRun, UndecodablePayloadRunsAgain) {
  {
    durable::JournalWriter writer{path_, 0xC0FFEE, /*keep_existing=*/false};
    ASSERT_TRUE(writer.append_point(unit_key(0), "v0;kept").ok());
    ASSERT_TRUE(writer.append_point(unit_key(1), "garbage").ok());
  }
  Replays replays = load_replays(target(), 3, unit_key);
  ASSERT_EQ(replays.size(), 3u);
  EXPECT_EQ(replays[0], "v0;kept");
  EXPECT_EQ(replays[1], "garbage");
  EXPECT_FALSE(replays[2].has_value());
  const JournaledReport report = run_journaled(
      ParallelRunner{1}, target(), units(3), std::move(replays), {});
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(produced_, (std::vector<std::size_t>{1, 2}));
  const auto data = read();
  ASSERT_EQ(data.points.size(), 3u);
  EXPECT_EQ(data.points[0].second, "v0;kept");
  EXPECT_EQ(data.points[1].second, "v10");
  EXPECT_EQ(data.points[2].second, "v20");
}

TEST_F(JournaledRun, ForeignJournalReplaysNothing) {
  {
    durable::JournalWriter writer{path_, 0xBAD, /*keep_existing=*/false};
    ASSERT_TRUE(writer.append_point(unit_key(0), "v0").ok());
  }
  const Replays replays = load_replays(target(), 2, unit_key);
  ASSERT_EQ(replays.size(), 2u);
  EXPECT_FALSE(replays[0].has_value());
  EXPECT_FALSE(replays[1].has_value());
}

TEST_F(JournaledRun, ResumeAfterTornTailCompactsToTheUninterruptedBytes) {
  (void)run_journaled(ParallelRunner{2}, target(true), units(8), {}, {});
  const std::string reference = bytes();
  // Cut the file partway through the fifth point record (line 7).
  std::size_t cut = 0;
  for (int line = 0; line < 6; ++line) cut = reference.find('\n', cut) + 1;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << reference.substr(0, cut + 20);
  }
  for (int resume = 0; resume < 2; ++resume) {
    const JournaledReport report = run_journaled(
        ParallelRunner{2}, target(true), units(8),
        load_replays(target(true), 8, unit_key), {});
    EXPECT_EQ(report.replayed, resume == 0 ? 4u : 8u);
    EXPECT_EQ(bytes(), reference) << "resume " << resume;
  }
}

TEST_F(JournaledRun, CancelWritesTheMarkerAndReportsTheInterruption) {
  JournaledUnits<int> u = units(8);
  u.produce = [this](std::size_t i) {
    produced_.push_back(i);
    if (i == 3) ShutdownController::request(SIGTERM);
    return static_cast<int>(i) * 10;
  };
  const JournaledReport report =
      run_journaled(ParallelRunner{1}, target(), u, {}, {});
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.run.ok_count(), 4u);
  // Units 0..3 finished (the one that raised the flag included) and are
  // journaled; the rest are consumed as interrupted, with no record.
  EXPECT_EQ(consumed_, (std::vector<int>{0, 10, 20, 30, -1, -1, -1, -1}));
  const auto data = read();
  EXPECT_EQ(data.points.size(), 4u);
  EXPECT_EQ(data.interrupted, 1u);
  const std::string all = bytes();
  const std::string last = all.substr(all.rfind('\n', all.size() - 2) + 1);
  durable::JournalRecord marker;
  ASSERT_TRUE(durable::parse_record(last, marker).ok());
  EXPECT_EQ(marker.kind, "interrupted");
  EXPECT_EQ(marker.payload, "signal " + std::to_string(SIGTERM));
}

TEST_F(JournaledRun, UnwritableJournalStillRunsAndReportsTheFailure) {
  JournalTarget t = target();
  t.path = std::string(::testing::TempDir()) + "no_such_dir/x.journal";
  const JournaledReport report =
      run_journaled(ParallelRunner{1}, t, units(3), {}, {});
  EXPECT_FALSE(report.journal.ok());
  EXPECT_TRUE(report.run.all_ok());
  EXPECT_EQ(consumed_, (std::vector<int>{0, 10, 20}));
}

}  // namespace
}  // namespace pi2::runner
