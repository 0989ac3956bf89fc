// util/jsonl + runner/jsonl_io: the read side of sweep campaigns.
//
// The parser only has to handle the JSON the repo emits, but the
// tolerance contract matters: unknown keys (the optional trailing
// "metrics" object, future schema additions) and missing keys (records
// from pre-witness campaign files) must read cleanly, not fail.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "runner/jsonl_io.h"
#include "util/jsonl.h"

namespace metaopt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(util::parse_json("null").is_null());
  EXPECT_TRUE(util::parse_json("true").as_bool());
  EXPECT_FALSE(util::parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(util::parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(util::parse_json("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
}

TEST(JsonParse, UnicodeEscape) {
  // é is é (U+00E9) in two UTF-8 bytes.
  const util::JsonValue v = util::parse_json("\"caf\\u00e9\"");
  EXPECT_EQ(v.as_string(), "caf\xc3\xa9");
}

TEST(JsonParse, NestedStructure) {
  const util::JsonValue v = util::parse_json(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(v.is_object());
  const util::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(v.find("c")->string_or("d", ""), "x");
  EXPECT_TRUE(v.find("e")->is_null());
}

TEST(JsonParse, ToleranceContract) {
  const util::JsonValue v = util::parse_json(R"({"known": 1})");
  EXPECT_EQ(v.find("unknown"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("unknown", 42.0), 42.0);
  EXPECT_EQ(v.string_or("unknown", "def"), "def");
  EXPECT_DOUBLE_EQ(v.number_or("known", 0.0), 1.0);
}

TEST(JsonParse, ErrorsCarryOffset) {
  EXPECT_THROW(util::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(util::parse_json("tru"), std::runtime_error);
  EXPECT_THROW(util::parse_json("[1, 2,]"), std::runtime_error);
  // Trailing garbage after a complete value is an error, not ignored.
  EXPECT_THROW(util::parse_json("{} x"), std::runtime_error);
  try {
    util::parse_json("[1, oops]");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(JsonlFile, SkipsEmptyLinesAndReportsLineNumbers) {
  const std::string path = temp_path("jsonl_basic.jsonl");
  write_file(path, "{\"a\": 1}\n\n{\"a\": 2}\n");
  const std::vector<util::JsonValue> values = util::read_jsonl(path);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[1].number_or("a", 0.0), 2.0);

  const std::string bad = temp_path("jsonl_bad.jsonl");
  write_file(bad, "{\"a\": 1}\nnot json\n");
  try {
    util::read_jsonl(bad);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // The error names the file and the 1-based line.
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
  EXPECT_THROW(util::read_jsonl(temp_path("does_not_exist.jsonl")),
               std::runtime_error);
}

// A sweep record as runner::to_json emits it, including the trailing
// "metrics" object readers must tolerate.
constexpr const char* kSweepRecord =
    R"({"job":3,"topology":"fig1","heuristic":"dp","threshold":50,)"
    R"("partitions":2,"paths":2,"seed":7,"stream_seed":99,"instances":3,)"
    R"("pairs":0,"items":6,"dims":1,"bins":0,"budget":5,"status":"ok",)"
    R"("solve_status":"optimal","error":"","gap":100,"norm_gap":0.3846,)"
    R"("opt":260,"heur":160,"bound":100,"certified":true,"nodes":12,)"
    R"("vars":50,"rows":80,"sos":6,"binaries":6,"nonzeros":200,)"
    R"("volumes":[100,50,0,110,0,0],"solve_seconds":0.5,)"
    R"("wall_seconds":0.6,"metrics":{"simplex.solves":123}})";

TEST(SweepJsonl, ParsesRecords) {
  const std::string path = temp_path("sweep_records.jsonl");
  write_file(path, std::string(kSweepRecord) + "\n");
  const std::vector<runner::JobRecord> records =
      runner::read_sweep_jsonl(path);
  ASSERT_EQ(records.size(), 1u);
  const runner::JobRecord& r = records[0];
  EXPECT_EQ(r.job, 3);
  EXPECT_EQ(r.topology, "fig1");
  EXPECT_EQ(r.heuristic, "dp");
  EXPECT_DOUBLE_EQ(r.threshold, 50.0);
  EXPECT_EQ(r.seed, 7u);
  EXPECT_EQ(r.stream_seed, 99u);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.certified);
  EXPECT_DOUBLE_EQ(r.gap, 100.0);
  ASSERT_EQ(r.volumes.size(), 6u);
  EXPECT_DOUBLE_EQ(r.volumes[3], 110.0);
}

TEST(SweepJsonl, PreWitnessRecordsGetDefaults) {
  // A record written before "volumes" existed: everything else reads,
  // volumes comes back empty.
  const std::string path = temp_path("sweep_pre_witness.jsonl");
  write_file(path,
             R"({"job":0,"heuristic":"ffd","items":6,"dims":2,"bins":3,)"
             R"("status":"ok","gap":1})"
             "\n");
  const std::vector<runner::JobRecord> records =
      runner::read_sweep_jsonl(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].volumes.empty());
  EXPECT_EQ(records[0].items, 6);
  EXPECT_EQ(records[0].dims, 2);
  // Missing keys take struct defaults, they are not errors.
  EXPECT_EQ(records[0].topology, "");
  EXPECT_DOUBLE_EQ(records[0].norm_gap, 0.0);
}

TEST(SweepJsonl, RecordToInstanceConfig) {
  const std::string path = temp_path("sweep_config.jsonl");
  write_file(path, std::string(kSweepRecord) + "\n");
  const runner::JobRecord r = runner::read_sweep_jsonl(path)[0];
  const heur::InstanceConfig config = runner::record_to_instance_config(r);
  EXPECT_EQ(config.heuristic, "dp");
  EXPECT_EQ(config.topology, "fig1");
  EXPECT_DOUBLE_EQ(config.threshold, 50.0);
  EXPECT_EQ(config.paths_per_pair, 2);
  EXPECT_EQ(config.partitions, 2);
  EXPECT_EQ(config.pop_instances, 3);
  // POP instantiation seeds derive from the recorded stream seed — the
  // sweep-runner convention, so probes re-solve what the campaign saw.
  EXPECT_EQ(config.stream_seed, 99u);
  EXPECT_TRUE(config.pop_seeds.empty());
  EXPECT_EQ(config.items, 6);
  EXPECT_EQ(config.bins, 0);
}

}  // namespace
}  // namespace metaopt
