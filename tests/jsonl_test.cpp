// util/jsonl + runner::from_json: the read side of sweep campaigns.
//
// The parser only has to handle the JSON the repo emits, but the
// tolerance contract matters: unknown keys (the optional trailing
// "metrics" object, future schema additions) and missing keys (records
// from pre-witness campaign files) must read cleanly, not fail. And a
// record must read back into exactly the job that wrote it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "domains/te_instances.h"
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

TEST(JsonParse, Uint64ReadsTheTokenExactly) {
  // 2^63 + 1 and 2^64 - 1 are not doubles; the token still reads exactly.
  EXPECT_EQ(util::parse_json("9223372036854775809").as_uint64(),
            9223372036854775809u);
  EXPECT_EQ(util::parse_json("18446744073709551615").as_uint64(),
            18446744073709551615u);
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    EXPECT_THROW((void)util::parse_json(bad).as_uint64(), std::runtime_error)
        << bad;
  }
  EXPECT_THROW((void)util::parse_json("\"7\"").as_uint64(),
               std::runtime_error);
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
  write_file(path, std::string(kSweepRecord) + "\n\n");
  const std::vector<runner::JobResult> records =
      runner::read_sweep_jsonl(path);
  ASSERT_EQ(records.size(), 1u);
  const runner::JobResult& r = records[0];
  EXPECT_EQ(r.spec.id, 3);
  EXPECT_EQ(r.spec.topology, "fig1");
  EXPECT_EQ(r.spec.heuristic, runner::Heuristic::Dp);
  EXPECT_DOUBLE_EQ(r.spec.threshold, 50.0);
  EXPECT_EQ(r.spec.seed, 7u);
  EXPECT_EQ(r.spec.stream_seed, 99u);
  EXPECT_EQ(r.status, runner::JobStatus::Ok);
  EXPECT_TRUE(r.result.certified);
  EXPECT_DOUBLE_EQ(r.result.gap, 100.0);
  EXPECT_EQ(r.result.nodes, 12);
  ASSERT_EQ(r.result.volumes.size(), 6u);
  EXPECT_DOUBLE_EQ(r.result.volumes[3], 110.0);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 0.6);
  EXPECT_EQ(r.serialized, kSweepRecord);
}

TEST(SweepJsonl, ErrorsNameFileAndLine) {
  const std::string bad = temp_path("sweep_bad.jsonl");
  write_file(bad, std::string(kSweepRecord) + "\nnot json\n");
  try {
    (void)runner::read_sweep_jsonl(bad);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sweep_bad.jsonl:2:"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)runner::read_sweep_jsonl(temp_path("missing.jsonl")),
               std::runtime_error);
}

TEST(SweepJsonl, PreWitnessRecordsGetDefaults) {
  // A record written before "volumes" existed: everything else reads,
  // volumes comes back empty.
  const std::string path = temp_path("sweep_pre_witness.jsonl");
  write_file(path,
             R"({"job":0,"heuristic":"ffd","items":6,"dims":2,"bins":3,)"
             R"("status":"ok","gap":1})"
             "\n");
  const std::vector<runner::JobResult> records =
      runner::read_sweep_jsonl(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].result.volumes.empty());
  EXPECT_EQ(records[0].spec.items, 6);
  EXPECT_EQ(records[0].spec.dims, 2);
  // Missing keys take struct defaults, they are not errors.
  EXPECT_EQ(records[0].spec.topology, "");
  EXPECT_EQ(records[0].spec.mip_threads, 1);
  EXPECT_DOUBLE_EQ(records[0].result.normalized_gap, 0.0);
}

// Doubles compare by bit pattern: a round trip must not move one ulp.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_spec(const runner::JobSpec& a, const runner::JobSpec& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.heuristic, b.heuristic);
  EXPECT_TRUE(same_bits(a.threshold, b.threshold));
  EXPECT_EQ(a.num_partitions, b.num_partitions);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.bins, b.bins);
  EXPECT_EQ(a.paths_per_pair, b.paths_per_pair);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.stream_seed, b.stream_seed);
  EXPECT_EQ(a.pop_instances, b.pop_instances);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_TRUE(same_bits(a.budget_seconds, b.budget_seconds));
  EXPECT_TRUE(same_bits(a.demand_ub, b.demand_ub));
  EXPECT_TRUE(same_bits(a.seed_search_fraction, b.seed_search_fraction));
  EXPECT_EQ(a.deterministic, b.deterministic);
  EXPECT_EQ(a.certify, b.certify);
  EXPECT_EQ(a.mip_threads, b.mip_threads);
}

void expect_same_config(const heur::InstanceConfig& a,
                        const heur::InstanceConfig& b) {
  EXPECT_EQ(a.heuristic, b.heuristic);
  EXPECT_TRUE(same_bits(a.leader_ub, b.leader_ub));
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.stream_seed, b.stream_seed);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.paths_per_pair, b.paths_per_pair);
  EXPECT_TRUE(same_bits(a.threshold, b.threshold));
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.pop_instances, b.pop_instances);
  EXPECT_EQ(a.pop_seeds, b.pop_seeds);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.bins, b.bins);
}

// A record reads back into the job that wrote it, field for field: above
// 2^53 a seed parsed as a double comes back rounded, and a POP job then
// re-solves different partitions than the campaign did.
TEST(SweepJsonl, RecordRoundTripsTheJobExactly) {
  for (const runner::Heuristic h :
       {runner::Heuristic::Dp, runner::Heuristic::Pop, runner::Heuristic::Ffd,
        runner::Heuristic::Ff}) {
    runner::JobResult r;
    runner::JobSpec& s = r.spec;
    s.id = 41;
    s.topology = "fig1";
    s.heuristic = h;
    s.threshold = 0.1 + 0.2;
    s.num_partitions = 3;
    s.items = 5;
    s.dims = 2;
    s.bins = 4;
    s.paths_per_pair = 1;
    s.seed = 9223372036854775809u;          // 2^63 + 1
    s.stream_seed = 18446744073709551557u;  // 2^64 - 59
    s.pop_instances = 4;
    s.pairs = 2;
    s.budget_seconds = 1.0 / 3.0;
    s.demand_ub = 123.456;
    s.seed_search_fraction = 0.7;
    s.deterministic = false;
    s.certify = true;
    s.mip_threads = 3;
    r.status = runner::JobStatus::Timeout;
    r.error = "a \"quoted\" error";
    r.result.gap = 2.0 / 3.0;
    r.result.normalized_gap = 1e-17;
    r.result.opt_value = 7.25;
    r.result.heur_value = -0.0;
    r.result.bound = 1e300;
    r.result.certified = true;
    r.result.nodes = 123456;
    r.result.volumes = {0.1, 1e-9, 200.0};
    r.wall_seconds = 0.125;

    const std::string line = runner::to_json(r);
    const runner::JobResult back = runner::from_json(line);
    SCOPED_TRACE(line);
    expect_same_spec(back.spec, r.spec);
    EXPECT_EQ(back.status, r.status);
    EXPECT_EQ(back.error, r.error);
    EXPECT_TRUE(same_bits(back.result.gap, r.result.gap));
    EXPECT_TRUE(same_bits(back.result.normalized_gap, r.result.normalized_gap));
    EXPECT_TRUE(same_bits(back.result.opt_value, r.result.opt_value));
    EXPECT_TRUE(same_bits(back.result.heur_value, r.result.heur_value));
    EXPECT_TRUE(same_bits(back.result.bound, r.result.bound));
    EXPECT_EQ(back.result.certified, r.result.certified);
    EXPECT_EQ(back.result.nodes, r.result.nodes);
    EXPECT_EQ(back.result.volumes, r.result.volumes);
    EXPECT_TRUE(same_bits(back.wall_seconds, r.wall_seconds));
    EXPECT_EQ(back.serialized, line);
    EXPECT_EQ(runner::to_json(back), line);

    expect_same_config(runner::instance_config(back.spec),
                       runner::instance_config(r.spec));
    if (h == runner::Heuristic::Pop) {
      const auto original =
          heur::make_instance(runner::instance_config(r.spec));
      const auto rebuilt =
          heur::make_instance(runner::instance_config(back.spec));
      const auto& a = dynamic_cast<const domains::TePopInstance&>(*original);
      const auto& b = dynamic_cast<const domains::TePopInstance&>(*rebuilt);
      EXPECT_EQ(a.seeds().size(), 4u);
      EXPECT_EQ(b.seeds(), a.seeds());
    }
  }
}

}  // namespace
}  // namespace metaopt
