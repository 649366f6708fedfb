// Run journal: every record that load_journal() hands back must be exactly
// what was appended — torn or corrupted lines are dropped (the point re-runs)
// and a journal from a different campaign is refused wholesale.
#include "durable/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "durable/atomic_file.hpp"

namespace pi2::durable {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kCampaign = 0xfeedfacecafebeefull;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "pi2_journal_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(JournalRecord, EncodeParseRoundtrip) {
  JournalRecord record;
  record.kind = "point";
  record.key = 0x0123456789abcdefull;
  record.payload = "tokens with \"quotes\"\nnewlines\tand \\ backslashes \x01";
  const std::string line = encode_record(record);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "record must be one line";

  JournalRecord parsed;
  ASSERT_TRUE(parse_record(line, parsed).ok());
  EXPECT_EQ(parsed.kind, record.kind);
  EXPECT_EQ(parsed.key, record.key);
  EXPECT_EQ(parsed.payload, record.payload);
}

TEST(JournalRecord, CrcMismatchIsCorrupt) {
  JournalRecord record;
  record.kind = "point";
  record.key = 7;
  record.payload = "payload";
  std::string line = encode_record(record);
  const auto pos = line.find("payload");
  line[pos] = 'q';  // flip one payload byte; crc no longer matches
  JournalRecord parsed;
  const Status status = parse_record(line, parsed);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
}

TEST(JournalRecord, StructuralDamageIsCorrupt) {
  JournalRecord parsed;
  EXPECT_EQ(parse_record("", parsed).code(), StatusCode::kCorrupt);
  EXPECT_EQ(parse_record("{\"kind\":\"point\"}", parsed).code(),
            StatusCode::kCorrupt);
  EXPECT_EQ(parse_record("not json at all", parsed).code(),
            StatusCode::kCorrupt);
}

TEST(JournalRecord, TornAndRottenRecordsAreToldApart) {
  JournalRecord record;
  record.kind = "point";
  record.key = 7;
  record.payload = "payload";
  const std::string line = encode_record(record);
  JournalRecord parsed;
  // Every truncation is structural damage (a torn tail), never a crc
  // mismatch: load_shard_journal and the merge's exit 15 split on that.
  for (std::size_t n = 0; n + 2 < line.size(); ++n) {
    const Status status = parse_record(line.substr(0, n), parsed);
    EXPECT_EQ(status.code(), StatusCode::kCorrupt) << n;
    EXPECT_EQ(status.message().find("crc mismatch"), std::string::npos) << n;
  }
  std::string rotten = line;
  rotten[rotten.find("payload\",\"crc")] = 'q';
  EXPECT_NE(parse_record(rotten, parsed).message().find(
                "crc mismatch (torn write)"),
            std::string::npos);
  // The four string fields, in the order encode_record writes them.
  for (const char* text :
       {R"({"kind":"point","key":"0000000000000007","payload":"p"})",
        R"({"key":"0000000000000007","kind":"point","payload":"p","crc":"0000000000000000"})",
        R"({"kind":"point","key":7,"payload":"p","crc":"0000000000000000"})",
        R"({"kind":"point","key":"7","payload":"p","crc":"0000000000000000"})",
        R"(["point","0000000000000007","p","0000000000000000"])"}) {
    const Status status = parse_record(text, parsed);
    EXPECT_EQ(status.code(), StatusCode::kCorrupt) << text;
    EXPECT_EQ(status.message().find("crc mismatch"), std::string::npos) << text;
  }
}

TEST(Journal, WriteThenLoadRoundtrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, /*keep_existing=*/false};
    ASSERT_TRUE(writer.healthy());
    EXPECT_TRUE(writer.append_point(1, "alpha").ok());
    EXPECT_TRUE(writer.append_point(2, "beta").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_TRUE(loaded.exists);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_EQ(loaded.header_key, kCampaign);
  EXPECT_EQ(loaded.dropped, 0u);
  ASSERT_EQ(loaded.points.size(), 2u);
  EXPECT_EQ(loaded.points.at(1), "alpha");
  EXPECT_EQ(loaded.points.at(2), "beta");
  EXPECT_TRUE(loaded.has(1));
  EXPECT_FALSE(loaded.has(3));
  fs::remove(path);
}

TEST(Journal, MissingFileLoadsEmpty) {
  const LoadedJournal loaded = load_journal(temp_path("nope.jsonl"), kCampaign);
  EXPECT_FALSE(loaded.exists);
  EXPECT_FALSE(loaded.header_ok);
  EXPECT_TRUE(loaded.points.empty());
}

TEST(Journal, ForeignCampaignIsRefused) {
  const std::string path = temp_path("foreign.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "alpha").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign + 1);
  EXPECT_TRUE(loaded.exists);
  EXPECT_FALSE(loaded.header_ok);
  EXPECT_EQ(loaded.header_key, kCampaign);
  EXPECT_TRUE(loaded.points.empty()) << "stale points must never leak";
  fs::remove(path);
}

TEST(Journal, TornFinalLineIsDroppedNotReused) {
  const std::string path = temp_path("torn.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "complete-point").ok());
    EXPECT_TRUE(writer.append_point(2, "about-to-be-torn").ok());
  }
  // SIGKILL mid-append: truncate the file inside the last record.
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 25);
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes; }

  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_EQ(loaded.dropped, 1u) << "the torn record is counted, not reused";
  ASSERT_EQ(loaded.points.size(), 1u);
  EXPECT_EQ(loaded.points.at(1), "complete-point");
  EXPECT_FALSE(loaded.has(2)) << "point 2 must re-run";
  fs::remove(path);
}

TEST(Journal, RecordsAfterAGarbageLineAreStillRecovered) {
  const std::string path = temp_path("midgarbage.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "before").ok());
  }
  { std::ofstream(path, std::ios::app) << "garbage interlude\n"; }
  {
    JournalWriter writer{path, kCampaign, /*keep_existing=*/true};
    EXPECT_TRUE(writer.append_point(2, "after").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_EQ(loaded.dropped, 1u);
  EXPECT_EQ(loaded.points.size(), 2u);
  EXPECT_EQ(loaded.points.at(2), "after");
  fs::remove(path);
}

TEST(Journal, KeepExistingAppendsWithoutTruncating) {
  const std::string path = temp_path("keep.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "first-run").ok());
  }
  {
    JournalWriter writer{path, kCampaign, /*keep_existing=*/true};
    EXPECT_TRUE(writer.append_point(2, "resumed-run").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_TRUE(loaded.header_ok) << "keep_existing must not write a 2nd header";
  EXPECT_EQ(loaded.points.size(), 2u);
  fs::remove(path);
}

TEST(Journal, FreshWriterTruncatesAForeignJournal) {
  const std::string path = temp_path("truncate.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "old").ok());
  }
  { JournalWriter writer{path, kCampaign + 1, false}; }
  const LoadedJournal loaded = load_journal(path, kCampaign + 1);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_TRUE(loaded.points.empty());
  fs::remove(path);
}

TEST(Journal, InterruptedMarkerIsSurfaced) {
  const std::string path = temp_path("interrupted.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "done").ok());
    EXPECT_TRUE(writer.append_interrupted("signal 15").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_EQ(loaded.interrupted, 1u);
  EXPECT_EQ(loaded.points.size(), 1u);
  fs::remove(path);
}

TEST(Journal, LastRecordWinsForDuplicateKeys) {
  const std::string path = temp_path("dupes.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    EXPECT_TRUE(writer.append_point(1, "first").ok());
    EXPECT_TRUE(writer.append_point(1, "second").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_EQ(loaded.points.at(1), "second");
  fs::remove(path);
}

TEST(Journal, InjectedDiskFullLatchesIoError) {
  const std::string path = temp_path("enospc.jsonl");
  fs::remove(path);
  JournalWriter writer{path, kCampaign, false};
  ASSERT_TRUE(writer.healthy());
  AtomicFile::Faults faults;
  faults.fail_write_after_bytes = 0;  // every further durable write fails
  AtomicFile::set_faults(faults);
  const Status status = writer.append_point(1, "doomed");
  AtomicFile::clear_faults();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(writer.healthy());
  EXPECT_NE(writer.status().message().find(path), std::string::npos);
  fs::remove(path);
}

TEST(ShardInfoCodec, EncodeParseRoundtrip) {
  ShardInfo shard;
  shard.present = true;
  shard.campaign = "fig15 with spaces=and&punct";
  shard.index = 2;
  shard.count = 3;
  shard.lo = 12;
  shard.hi = 24;
  ShardInfo parsed;
  ASSERT_TRUE(parse_shard_info(encode_shard_info(shard), parsed));
  EXPECT_TRUE(parsed.present);
  EXPECT_EQ(parsed.campaign, shard.campaign);
  EXPECT_EQ(parsed.index, 2u);
  EXPECT_EQ(parsed.count, 3u);
  EXPECT_EQ(parsed.lo, 12u);
  EXPECT_EQ(parsed.hi, 24u);
}

TEST(ShardInfoCodec, MalformedPayloadsAreRejected) {
  ShardInfo parsed;
  EXPECT_FALSE(parse_shard_info("", parsed));
  EXPECT_FALSE(parse_shard_info("shard=2/3", parsed));
  EXPECT_FALSE(parse_shard_info("shard=0/3 range=0..4 name=x", parsed))
      << "shards are 1-based";
  EXPECT_FALSE(parse_shard_info("shard=4/3 range=0..4 name=x", parsed));
  EXPECT_FALSE(parse_shard_info("shard=1/1 range=9..4 name=x", parsed))
      << "inverted range";
  EXPECT_FALSE(parse_shard_info("range=0..4 shard=1/1 name=x", parsed))
      << "field order is part of the wire format";
}

TEST(Journal, ShardRecordSurvivesTheLenientLoader) {
  const std::string path = temp_path("shardrec.jsonl");
  fs::remove(path);
  ShardInfo shard;
  shard.present = true;
  shard.campaign = "fig15";
  shard.digest = kCampaign;
  shard.index = 2;
  shard.count = 3;
  shard.lo = 4;
  shard.hi = 8;
  {
    JournalWriter writer{path, kCampaign, false};
    ASSERT_TRUE(writer.append_shard(shard).ok());
    ASSERT_TRUE(writer.append_point(5, "p5").ok());
  }
  const LoadedJournal loaded = load_journal(path, kCampaign);
  EXPECT_TRUE(loaded.header_ok);
  ASSERT_TRUE(loaded.shard.present);
  EXPECT_EQ(loaded.shard.campaign, "fig15");
  EXPECT_EQ(loaded.shard.digest, kCampaign) << "record key carries the digest";
  EXPECT_EQ(loaded.shard.lo, 4u);
  EXPECT_EQ(loaded.shard.hi, 8u);
  EXPECT_EQ(loaded.points.size(), 1u) << "shard record is not a point";
  fs::remove(path);
}

TEST(ShardJournal, StrictLoadRecoversRecordsInFileOrder) {
  const std::string path = temp_path("strict.jsonl");
  fs::remove(path);
  ShardInfo shard;
  shard.present = true;
  shard.campaign = "fig15";
  shard.digest = kCampaign;
  {
    JournalWriter writer{path, kCampaign, false};
    ASSERT_TRUE(writer.append_shard(shard).ok());
    ASSERT_TRUE(writer.append_point(9, "late-index-first").ok());
    ASSERT_TRUE(writer.append_point(2, "early-index-second").ok());
    ASSERT_TRUE(writer.append_point(9, "re-append").ok());
    ASSERT_TRUE(writer.append_interrupted("signal 15").ok());
  }
  ShardJournalData data;
  ASSERT_TRUE(load_shard_journal(path, data).ok());
  EXPECT_TRUE(data.header_seen);
  EXPECT_EQ(data.header_key, kCampaign);
  EXPECT_TRUE(data.shard.present);
  EXPECT_EQ(data.interrupted, 1u);
  // File order with duplicates preserved — the merge needs to see both
  // appends of key 9 to prove they are byte-identical.
  ASSERT_EQ(data.points.size(), 3u);
  EXPECT_EQ(data.points[0].first, 9u);
  EXPECT_EQ(data.points[1].first, 2u);
  EXPECT_EQ(data.points[2].second, "re-append");
  fs::remove(path);
}

TEST(ShardJournal, MissingFileIsIoError) {
  ShardJournalData data;
  EXPECT_EQ(load_shard_journal(temp_path("absent.jsonl"), data).code(),
            StatusCode::kIoError);
}

TEST(ShardJournal, EmptyFileIsCorrupt) {
  const std::string path = temp_path("empty.jsonl");
  { std::ofstream(path, std::ios::trunc); }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("no header record"), std::string::npos);
  fs::remove(path);
}

TEST(ShardJournal, TornTailIsCorruptWithLineNumber) {
  const std::string path = temp_path("stricttorn.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    ASSERT_TRUE(writer.append_point(1, "whole").ok());
    ASSERT_TRUE(writer.append_point(2, "torn-soon").ok());
  }
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 15);
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes; }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
  EXPECT_NE(status.message().find("torn record"), std::string::npos);
  fs::remove(path);
}

TEST(ShardJournal, CrcMismatchIsDistinguishedFromTorn) {
  const std::string path = temp_path("strictrot.jsonl");
  fs::remove(path);
  {
    JournalWriter writer{path, kCampaign, false};
    ASSERT_TRUE(writer.append_point(1, "bitrot-victim").ok());
  }
  std::string bytes = slurp(path);
  // Flip a byte of the payload *value* ("payload" alone would match the
  // field name in the header line and break the record structurally).
  const auto pos = bytes.find("bitrot-victim");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'q';
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes; }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("crc mismatch"), std::string::npos);
  EXPECT_EQ(status.message().find("torn record"), std::string::npos);
  fs::remove(path);
}

TEST(ShardJournal, HeaderMustComeFirst) {
  const std::string path = temp_path("strictnohdr.jsonl");
  JournalRecord point;
  point.kind = "point";
  point.key = 1;
  point.payload = "x";
  { std::ofstream(path, std::ios::trunc) << encode_record(point); }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("expected the campaign header"),
            std::string::npos);
  fs::remove(path);
}

TEST(ShardJournal, SecondShardRecordIsCorrupt) {
  const std::string path = temp_path("strictdupshard.jsonl");
  fs::remove(path);
  ShardInfo shard;
  shard.present = true;
  shard.campaign = "x";
  shard.digest = kCampaign;
  {
    JournalWriter writer{path, kCampaign, false};
    ASSERT_TRUE(writer.append_shard(shard).ok());
    ASSERT_TRUE(writer.append_shard(shard).ok());
  }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("second shard record"), std::string::npos);
  fs::remove(path);
}

TEST(ShardJournal, UnknownRecordKindIsCorrupt) {
  const std::string path = temp_path("strictkind.jsonl");
  JournalRecord header;
  header.kind = "header";
  header.key = kCampaign;
  JournalRecord alien;
  alien.kind = "telemetry";
  alien.key = 2;
  alien.payload = "x";
  {
    std::ofstream out(path, std::ios::trunc);
    out << encode_record(header) << encode_record(alien);
  }
  ShardJournalData data;
  const Status status = load_shard_journal(path, data);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("unknown record kind 'telemetry'"),
            std::string::npos);
  fs::remove(path);
}

TEST(Journal, UnwritablePathReportsIoError) {
  JournalWriter writer{"/dev/null/nope/run.journal", kCampaign, false};
  EXPECT_FALSE(writer.healthy());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(writer.append_point(1, "x").ok());
}

}  // namespace
}  // namespace pi2::durable
