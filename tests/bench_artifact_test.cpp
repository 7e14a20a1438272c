// The bench-artifact library (bench/bench_util.h) and the strict JSON
// reader under it (common/json_reader.h): reader strictness, the writer's
// exact output, and every validator failure path.
//
// Schema-specific cases run each bench's own `--validate` CLI on mutated
// copies of the committed BENCH_*.json, so what is checked is exactly what
// scripts/bench.sh runs, and each rejection must be one diagnostic line.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/json_reader.h"

namespace zdc::bench {
namespace {

using common::JsonValue;
using common::parse_json;

std::string parse_error(const std::string& text) {
  JsonValue doc;
  return parse_json(text, &doc);
}

TEST(JsonReader, ReadsTheEmittedSubsetInDocumentOrder) {
  JsonValue doc;
  ASSERT_EQ(parse_json("{\"b\": [1, -2.5e3, 0], \"a\": {\"t\": true, "
                       "\"f\": false, \"s\": \"x y\"}, \"e\": []}",
                       &doc),
            "");
  ASSERT_TRUE(doc.is(JsonValue::Type::kObject));
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "b");
  EXPECT_EQ(doc.members[1].first, "a");
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[1].number, -2500.0);
  const JsonValue* a = doc.find("a");
  EXPECT_TRUE(a->find("t")->boolean);
  EXPECT_FALSE(a->find("f")->boolean);
  EXPECT_EQ(a->find("s")->text, "x y");
  EXPECT_TRUE(doc.find("e")->items.empty());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, RejectsNonJsonNumbers) {
  EXPECT_EQ(parse_error("{\"v\": nan}"), "bad value 'nan'");
  EXPECT_EQ(parse_error("{\"v\": inf}"), "bad value 'inf'");
  EXPECT_EQ(parse_error("{\"v\": -inf}"), "bad value '-inf'");
  EXPECT_EQ(parse_error("{\"v\": 0x10}"), "bad value '0x10'");
  EXPECT_EQ(parse_error("{\"v\": +1}"), "bad value '+1'");
  EXPECT_EQ(parse_error("{\"v\": .5}"), "bad value '.5'");
  EXPECT_EQ(parse_error("{\"v\": 1.}"), "bad value '1.'");
  EXPECT_EQ(parse_error("{\"v\": 01}"), "bad value '01'");
  EXPECT_EQ(parse_error("{\"v\": 1e}"), "bad value '1e'");
  EXPECT_EQ(parse_error("{\"v\": 1e999}"), "number out of range '1e999'");
}

TEST(JsonReader, RejectsMalformedStructure) {
  EXPECT_EQ(parse_error(""), "truncated document");
  EXPECT_EQ(parse_error("{\"a\": [1, 2"), "truncated document");
  EXPECT_EQ(parse_error("{\"a\": \"x"), "truncated document");
  EXPECT_EQ(parse_error("{\"a\": 1} x"), "trailing garbage");
  EXPECT_EQ(parse_error("{\"a\": 1, \"a\": 2}"), "duplicate key 'a'");
  EXPECT_EQ(parse_error("{\"a\": \"x\\\"y\"}"),
            "string escapes are not supported");
  EXPECT_EQ(parse_error("{\"a\": null}"), "bad value 'null'");
  EXPECT_EQ(parse_error("[1, ]"), "unexpected ']'");
  EXPECT_EQ(parse_error("{\"a\" 1}"), "expected ':' at offset 5");
  EXPECT_EQ(parse_error("{1: 2}"), "expected a key at offset 1");
  EXPECT_EQ(parse_error("[1 2]"), "expected ',' or ']' at offset 3");
  EXPECT_EQ(parse_error(std::string(100, '[') + std::string(100, ']')),
            "nesting deeper than 64");
}

// ---------------------------------------------------------------------------
// Writer and validator on a small schema.

const ArtifactSchema kTestSchema{
    "zdc-bench-test-v1",
    "BENCH_test.json",
    {{"rows", {text_field("name"), count_field("n"), real_field("x", 2)}},
     {"more_rows", {count_field("k")}}}};

std::string test_artifact() {
  return emit_artifact(
      kTestSchema,
      {{{std::string("a"), std::uint64_t{18446744073709551615u}, 0.125},
        {std::string("b"), std::uint64_t{0}, 3.0}},
       {{std::uint64_t{7}}}},
      /*quick=*/true, /*seed_base=*/9);
}

TEST(ArtifactWriter, FixedKeyOrderAndPrecision) {
  EXPECT_EQ(test_artifact(),
            "{\n"
            "  \"schema\": \"zdc-bench-test-v1\",\n"
            "  \"quick\": true,\n"
            "  \"seed_base\": 9,\n"
            "  \"rows\": [\n"
            "    {\"name\": \"a\", \"n\": 18446744073709551615, "
            "\"x\": 0.12},\n"
            "    {\"name\": \"b\", \"n\": 0, \"x\": 3.00}\n"
            "  ],\n"
            "  \"more_rows\": [\n"
            "    {\"k\": 7}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(validate_artifact(kTestSchema, test_artifact()), "");
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no '" << from << "' to replace";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ArtifactValidator, RejectsDocumentLevelDefects) {
  const std::string good = test_artifact();
  EXPECT_EQ(validate_artifact(kTestSchema, "[]"), "not a JSON object");
  EXPECT_EQ(validate_artifact(kTestSchema, good.substr(0, 40)),
            "truncated document");
  EXPECT_EQ(validate_artifact(kTestSchema, good + "}"), "trailing garbage");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "test-v1", "test-v2")),
            "unknown schema 'zdc-bench-test-v2'");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "\"quick\": true", "\"q\": 1")),
            "unknown key 'q'");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "\"quick\": true",
                                       "\"quick\": 1")),
            "quick is missing or not a bool");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "\"seed_base\": 9",
                                       "\"seed_base\": -9")),
            "seed_base is missing or not a non-negative integer");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, ",\n  \"more_rows\": [\n"
                                             "    {\"k\": 7}\n  ]",
                                       "")),
            "missing more_rows");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "\n    {\"k\": 7}", "")),
            "more_rows is empty");
  EXPECT_EQ(validate_artifact(kTestSchema,
                              replaced(good, "[\n    {\"k\": 7}\n  ]", "7")),
            "more_rows is not an array");
}

TEST(ArtifactValidator, RejectsRowDefects) {
  const std::string good = test_artifact();
  auto check = [&](const std::string& from, const std::string& to) {
    return validate_artifact(kTestSchema, replaced(good, from, to));
  };
  EXPECT_EQ(check("{\"k\": 7}", "7"), "more_rows[0]: not an object");
  EXPECT_EQ(check(", \"x\": 3.00}", "}"), "rows[1]: missing key x");
  EXPECT_EQ(check("\"x\": 3.00}", "\"x\": 3.00, \"bogus\": 3}"),
            "rows[1]: unknown key 'bogus'");
  EXPECT_EQ(check("\"x\": 3.00", "\"x\": \"3.00\""),
            "rows[1]: x is not a number");
  EXPECT_EQ(check("\"name\": \"b\"", "\"name\": 2"),
            "rows[1]: name is not a string");
  EXPECT_EQ(check("\"name\": \"b\"", "\"name\": \"\""), "rows[1]: empty name");
  EXPECT_EQ(check("\"n\": 0", "\"n\": 0.5"),
            "rows[1]: n is not a non-negative integer");
  EXPECT_EQ(check("\"x\": 3.00", "\"x\": nan"), "bad value 'nan'");
  EXPECT_EQ(check("\"x\": 3.00", "\"x\": 3, \"x\": 4"), "duplicate key 'x'");
}

TEST(ArtifactValidator, RunsTheTableCheckAfterTheFields) {
  ArtifactSchema schema = kTestSchema;
  schema.tables[1].check = [](const std::vector<JsonValue>& rows) {
    return rows.size() == 1 ? "needs two rows" : "";
  };
  EXPECT_EQ(validate_artifact(schema, test_artifact()), "needs two rows");
}

// ---------------------------------------------------------------------------
// The three bench CLIs against mutated copies of the committed artifacts.

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string committed(const std::string& name) {
  const std::string text =
      read_text(std::string(ZDC_SOURCE_DIR) + "/BENCH_" + name + ".json");
  EXPECT_FALSE(text.empty()) << "BENCH_" << name << ".json is missing";
  return text;
}

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

CliResult run_validate(const std::string& name, const std::string& path) {
  const std::string cmd = std::string(ZDC_BENCH_DIR) + "/bench_" + name +
                          " --validate " + path + " 2>&1";
  CliResult result;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[256];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, got);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// `bench_<name> --validate` rejects `text` with exactly one line naming
/// `diagnostic`.
void expect_rejected(const std::string& name, const std::string& text,
                     const std::string& diagnostic) {
  // One file per test: ctest runs the cases of this binary in parallel.
  const std::string path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::ofstream(path, std::ios::binary) << text;
  const CliResult r = run_validate(name, path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, "validate: " + path + ": " + diagnostic + "\n");
}

TEST(BenchArtifacts, CommittedArtifactsValidate) {
  for (const auto& [name, tag] :
       {std::pair<std::string, std::string>{"hotpath", "zdc-bench-hotpath-v1"},
        {"recovery", "zdc-bench-recovery-v1"},
        {"service", "zdc-bench-service-v3"}}) {
    const std::string path =
        std::string(ZDC_SOURCE_DIR) + "/BENCH_" + name + ".json";
    const CliResult r = run_validate(name, path);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output, "validate: " + path + " conforms to " + tag + "\n");
  }
}

TEST(BenchArtifacts, HotpathRejectsMalformedFiles) {
  const std::string good = committed("hotpath");
  expect_rejected("hotpath", good.substr(0, good.size() / 2),
                  "truncated document");
  expect_rejected("hotpath", good + "x", "trailing garbage");
  expect_rejected("hotpath", replaced(good, "hotpath-v1", "recovery-v1"),
                  "unknown schema 'zdc-bench-recovery-v1'");
  expect_rejected("hotpath",
                  replaced(good, "\"mean_latency_ms\": 0.0000",
                           "\"mean_latency_ms\": nan"),
                  "bad value 'nan'");
  expect_rejected("hotpath",
                  replaced(good, "\"throughput\": 0.0", "\"throughput\": -inf"),
                  "bad value '-inf'");
  expect_rejected("hotpath",
                  replaced(good, "\"throughput\": 0.0",
                           "\"throughput\": \"0.0\""),
                  "rows[0]: throughput is not a number");
  expect_rejected("hotpath", replaced(good, ", \"seed\": 1}", "}"),
                  "rows[0]: missing key seed");
  const std::size_t rows_at = good.find("\"rows\": [\n") + 10;
  expect_rejected("hotpath",
                  good.substr(0, rows_at) + good.substr(good.find("  ]")),
                  "rows is empty");
}

TEST(BenchArtifacts, RecoveryRejectsMalformedFiles) {
  const std::string good = committed("recovery");
  expect_rejected("recovery",
                  replaced(good, "\"seed\": 1}", "\"seed\": 1, \"bogus\": 3}"),
                  "rows[0]: unknown key 'bogus'");
  // catch-up rows are required: an artifact without them is rejected.
  expect_rejected(
      "recovery",
      good.substr(0, good.find(",\n  \"catchup_rows\"")) + "\n}\n",
      "missing catchup_rows");
  expect_rejected("recovery",
                  replaced(good, "\"lag\": 256", "\"lag\": \"256\""),
                  "catchup_rows[0]: lag is not a number");
}

TEST(BenchArtifacts, ServiceRejectsBrokenReadPathInvariants) {
  const std::string good = committed("service");
  expect_rejected("service",
                  replaced(good, "\"fast_reads\": 0,", "\"fast_reads\": 5,"),
                  "read-index-off row has fast reads");
  expect_rejected("service",
                  replaced(good, "\"consensus_read_rounds\": 0,",
                           "\"consensus_read_rounds\": 200000,"),
                  "read-index-on row shows no consensus-free reads");
  expect_rejected("service",
                  replaced(good, "\"consensus_read_rounds\": 200000,",
                           "\"consensus_read_rounds\": 199999,"),
                  "read-index-off row must pay one round per read");
  expect_rejected("service",
                  replaced(good, "\"read-index-on\"", "\"read-index-maybe\""),
                  "unknown mode 'read-index-maybe'");
  const std::size_t off_at =
      good.find(",\n    {\"mode\": \"read-index-off\"");
  ASSERT_NE(off_at, std::string::npos);
  expect_rejected("service",
                  good.substr(0, off_at) + good.substr(good.find("\n  ]")),
                  "missing a read-index mode row");
  expect_rejected("service",
                  replaced(good, "sim_reads_per_s", "reads_per_s"),
                  "rows[0]: unknown key 'reads_per_s'");
}

}  // namespace
}  // namespace zdc::bench
