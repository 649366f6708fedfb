// The shared JSON reader and escaper: every committed JSON input parses,
// every truncation of one is refused with its offset, the escaper's output
// reads back byte for byte, and the number grammar is JSON plus the four
// non-finite spellings printf and to_chars print.
#include "durable/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pi2::durable {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<fs::path> committed_json_files() {
  std::vector<fs::path> files;
  for (const char* dir :
       {"campaigns", "perfbench/specs", "tests/golden", "tests/campaign"}) {
    for (const auto& entry : fs::directory_iterator(fs::path(PI2_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
  }
  return files;
}

TEST(Json, EveryCommittedFileParsesAndEveryTruncationIsRefused) {
  const std::vector<fs::path> files = committed_json_files();
  ASSERT_GE(files.size(), 14u);
  for (const fs::path& path : files) {
    const std::string text = slurp(path);
    JsonValue doc;
    ASSERT_EQ(parse_json(text, doc), "") << path;
    EXPECT_TRUE(doc.type == JsonValue::Type::kObject ||
                doc.type == JsonValue::Type::kArray)
        << path;
    // Cutting anywhere before the closing bracket leaves an incomplete
    // document; only trailing whitespace may go.
    const std::size_t end = text.find_last_not_of(" \t\r\n") + 1;
    for (std::size_t n = 0; n < end; ++n) {
      const std::string err = parse_json(text.substr(0, n), doc);
      ASSERT_NE(err.find(" at offset "), std::string::npos)
          << path << " truncated to " << n << " bytes: '" << err << "'";
    }
  }
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes += static_cast<char>(b);
  const std::string escaped = json_escape(bytes);
  EXPECT_EQ(escaped.find('\n'), std::string::npos) << "escaped text is one line";
  JsonValue doc;
  ASSERT_EQ(parse_json("\"" + escaped + "\"", doc), "");
  ASSERT_EQ(doc.type, JsonValue::Type::kString);
  EXPECT_EQ(doc.text, bytes);
}

TEST(Json, RefusesTruncatedKeywords) {
  JsonValue doc;
  for (const char* text : {R"({"a": tru})", R"({"a": txyz})", R"({"a": fals})",
                           R"({"a": nul})", R"({"a": t})"}) {
    const std::string err = parse_json(text, doc);
    EXPECT_NE(err.find(" at offset "), std::string::npos) << text << ": " << err;
  }
}

TEST(Json, NumberGrammarAddsOnlyThePrintedNonFiniteSpellings) {
  JsonValue doc;
  ASSERT_EQ(parse_json("[nan, -nan, inf, -inf, 1e309, -2.5e-3, 0]", doc), "");
  ASSERT_EQ(doc.items.size(), 7u);
  EXPECT_TRUE(std::isnan(doc.items[0].number));
  EXPECT_TRUE(std::isnan(doc.items[1].number));
  EXPECT_EQ(doc.items[2].number, HUGE_VAL);
  EXPECT_EQ(doc.items[3].number, -HUGE_VAL);
  EXPECT_EQ(doc.items[4].number, HUGE_VAL) << "overflow reads as inf";
  EXPECT_EQ(doc.items[5].number, -2.5e-3);
  EXPECT_EQ(doc.items[5].text, "-2.5e-3") << "numbers keep their raw token";
  for (const char* text : {"[infinity]", "[-infinity]", "[nan(1)]", "[NaN]",
                           "[0x10]", "[+1]", "[.5]", "[-]", "[in]"}) {
    EXPECT_NE(parse_json(text, doc), "") << text;
  }
}

TEST(Json, RefusesTrailingContentAndBadEscapes) {
  JsonValue doc;
  EXPECT_EQ(parse_json("{} {}", doc), "trailing content at offset 3");
  EXPECT_NE(parse_json(R"(["\q"])", doc), "");
  EXPECT_NE(parse_json(R"(["\u00g0"])", doc), "");
  EXPECT_NE(parse_json(R"(["\u00)", doc), "");
}

TEST(Json, KeepsFieldOrderAndDuplicates) {
  JsonValue doc;
  ASSERT_EQ(parse_json(R"({"b": 1, "a": [true, null], "b": "x"})", doc), "");
  ASSERT_EQ(doc.fields.size(), 3u);
  EXPECT_EQ(doc.fields[0].first, "b");
  EXPECT_EQ(doc.fields[1].first, "a");
  EXPECT_EQ(doc.fields[1].second.items[0].type, JsonValue::Type::kBool);
  EXPECT_EQ(doc.fields[1].second.items[1].type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.fields[2].second.text, "x");
}

}  // namespace
}  // namespace pi2::durable
