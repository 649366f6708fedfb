#include "durable/journal.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>

#include "durable/atomic_file.hpp"
#include "durable/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PI2_DURABLE_POSIX 1
#endif

namespace pi2::durable {

namespace {

constexpr const char* kHeaderKind = "header";
constexpr const char* kShardKind = "shard";
constexpr const char* kInterruptedKind = "interrupted";

std::uint64_t record_crc(const std::string& kind, std::uint64_t key,
                         const std::string& payload) {
  Fnv1a h;
  h.mix_string(kind);
  h.mix_u64(key);
  h.mix_string(payload);
  return h.state;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

}  // namespace

std::string encode_shard_info(const ShardInfo& shard) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "shard=%llu/%llu range=%llu..%llu name=",
                static_cast<unsigned long long>(shard.index),
                static_cast<unsigned long long>(shard.count),
                static_cast<unsigned long long>(shard.lo),
                static_cast<unsigned long long>(shard.hi));
  return std::string(buf) + shard.campaign;
}

bool parse_shard_info(const std::string& payload, ShardInfo& shard) {
  unsigned long long index = 0;
  unsigned long long count = 0;
  unsigned long long lo = 0;
  unsigned long long hi = 0;
  int consumed = 0;
  if (std::sscanf(payload.c_str(), "shard=%llu/%llu range=%llu..%llu name=%n",
                  &index, &count, &lo, &hi, &consumed) != 4 ||
      consumed <= 0) {
    return false;
  }
  if (index == 0 || count == 0 || index > count || hi < lo) return false;
  shard.present = true;
  shard.index = index;
  shard.count = count;
  shard.lo = lo;
  shard.hi = hi;
  shard.campaign = payload.substr(static_cast<std::size_t>(consumed));
  return true;
}

std::string encode_record(const JournalRecord& record) {
  std::string line = "{\"kind\":\"";
  line += json_escape(record.kind);
  line += "\",\"key\":\"";
  line += hex64(record.key);
  line += "\",\"payload\":\"";
  line += json_escape(record.payload);
  line += "\",\"crc\":\"";
  line += hex64(record_crc(record.kind, record.key, record.payload));
  line += "\"}\n";
  return line;
}

Status parse_record(const std::string& line, JournalRecord& record) {
  JsonValue doc;
  const std::string err = parse_json(line, doc);
  if (!err.empty()) return Status::corrupt("journal record: " + err);
  // Exactly the flat object of four strings encode_record writes.
  constexpr const char* kFields[] = {"kind", "key", "payload", "crc"};
  bool flat = doc.type == JsonValue::Type::kObject && doc.fields.size() == 4;
  for (std::size_t i = 0; flat && i < 4; ++i) {
    flat = doc.fields[i].first == kFields[i] &&
           doc.fields[i].second.type == JsonValue::Type::kString;
  }
  if (!flat) return Status::corrupt("journal record: missing field");
  const auto hex16 = [](const std::string& raw, std::uint64_t& value) {
    return raw.size() == 16 && parse_hex_u64(raw, value);
  };
  std::uint64_t key = 0;
  std::uint64_t crc = 0;
  if (!hex16(doc.fields[1].second.text, key) ||
      !hex16(doc.fields[3].second.text, crc)) {
    return Status::corrupt("journal record: bad hex field");
  }
  std::string& kind = doc.fields[0].second.text;
  std::string& payload = doc.fields[2].second.text;
  if (record_crc(kind, key, payload) != crc) {
    return Status::corrupt("journal record: crc mismatch (torn write)");
  }
  record.kind = std::move(kind);
  record.key = key;
  record.payload = std::move(payload);
  return {};
}

LoadedJournal load_journal(const std::string& path, std::uint64_t campaign_key) {
  LoadedJournal loaded;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return loaded;
  loaded.exists = true;

  bool first = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalRecord record;
    if (!parse_record(line, record).ok()) {
      ++loaded.dropped;
      continue;
    }
    if (first) {
      first = false;
      loaded.header_key = record.key;
      loaded.header_ok =
          record.kind == kHeaderKind && record.key == campaign_key;
      if (!loaded.header_ok) {
        // Foreign campaign: count the rest only as evidence, never as
        // reusable points.
        continue;
      }
      continue;
    }
    if (record.kind == kInterruptedKind) {
      ++loaded.interrupted;
    } else if (record.kind == kShardKind && loaded.header_ok &&
               !loaded.shard.present) {
      if (parse_shard_info(record.payload, loaded.shard)) {
        loaded.shard.digest = record.key;
      }
    } else if (record.kind == "point" && loaded.header_ok) {
      loaded.points[record.key] = std::move(record.payload);
    }
  }
  if (!loaded.header_ok) loaded.points.clear();
  return loaded;
}

Status load_shard_journal(const std::string& path, ShardJournalData& out) {
  out = ShardJournalData{};
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::io_error(path, errno, "open shard journal");
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JournalRecord record;
    const Status parsed = parse_record(line, record);
    if (!parsed.ok()) {
      // A structurally broken line is the torn-tail signature (the writer
      // died mid-append); a complete line whose crc disagrees is bit rot.
      // Both refuse the merge, with distinguishable messages.
      const bool torn = parsed.message().find("crc mismatch") == std::string::npos;
      return Status::corrupt(path + " line " + std::to_string(line_no) +
                             (torn ? ": torn record (" : ": ") +
                             parsed.message() + (torn ? ")" : ""));
    }
    if (line_no == 1) {
      if (record.kind != kHeaderKind) {
        return Status::corrupt(path + ": first record is '" + record.kind +
                               "', expected the campaign header");
      }
      out.header_seen = true;
      out.header_key = record.key;
      continue;
    }
    if (record.kind == kShardKind) {
      if (out.shard.present) {
        return Status::corrupt(path + " line " + std::to_string(line_no) +
                               ": second shard record");
      }
      if (!parse_shard_info(record.payload, out.shard)) {
        return Status::corrupt(path + " line " + std::to_string(line_no) +
                               ": unparseable shard record");
      }
      out.shard.digest = record.key;
    } else if (record.kind == kInterruptedKind) {
      ++out.interrupted;
    } else if (record.kind == "point") {
      out.points.emplace_back(record.key, std::move(record.payload));
    } else {
      return Status::corrupt(path + " line " + std::to_string(line_no) +
                             ": unknown record kind '" + record.kind + "'");
    }
  }
  if (!out.header_seen) {
    return Status::corrupt(path + ": empty journal (no header record)");
  }
  return {};
}

JournalWriter::JournalWriter(std::string path, std::uint64_t campaign_key,
                             bool keep_existing)
    : path_(std::move(path)) {
  if (path_.empty()) {
    status_ = Status::invalid("JournalWriter: empty path");
    return;
  }
  file_ = std::fopen(path_.c_str(), keep_existing ? "a" : "w");
  if (file_ == nullptr) {
    status_ = Status::io_error(path_, errno, "open journal");
    return;
  }
  if (!keep_existing) {
    JournalRecord header;
    header.kind = kHeaderKind;
    header.key = campaign_key;
    status_.update(append(header));
  }
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status JournalWriter::append(const JournalRecord& record) {
  if (file_ == nullptr) {
    return status_.ok() ? Status::invalid("journal not open") : status_;
  }
  const std::string line = encode_record(record);
  // Shares the AtomicFile fault budget so disk-full behaves identically for
  // streaming journal appends and atomic artifact writes.
  Status write_status;
  if (inject_write_fault(line.size())) {
    write_status = Status::io_error(path_, ENOSPC, "append (injected fault)");
  } else if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    write_status = Status::io_error(path_, errno, "append journal record");
  }
  if (write_status.ok() && std::fflush(file_) != 0) {
    write_status = Status::io_error(path_, errno, "flush journal");
  }
#ifdef PI2_DURABLE_POSIX
  if (write_status.ok() && ::fsync(fileno(file_)) != 0) {
    write_status = Status::io_error(path_, errno, "fsync journal");
  }
#endif
  status_.update(write_status);
  return write_status;
}

Status JournalWriter::append_point(std::uint64_t key, const std::string& payload) {
  JournalRecord record;
  record.kind = "point";
  record.key = key;
  record.payload = payload;
  return append(record);
}

Status JournalWriter::append_shard(const ShardInfo& shard) {
  JournalRecord record;
  record.kind = kShardKind;
  record.key = shard.digest;
  record.payload = encode_shard_info(shard);
  return append(record);
}

Status JournalWriter::append_interrupted(const std::string& reason) {
  JournalRecord record;
  record.kind = kInterruptedKind;
  record.key = 0;
  record.payload = reason;
  return append(record);
}

}  // namespace pi2::durable
