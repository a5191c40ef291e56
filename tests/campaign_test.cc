// Campaign layer suite (DESIGN.md §17): the JSON substrate, the scenario
// round trip, campaign grids, the result store, and the runner's headline
// promise — one digest for any sharding, threading, or resume history.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/json.h"
#include "campaign/result_store.h"
#include "campaign/runner.h"
#include "campaign/scenario_json.h"
#include "campaign/spec.h"
#include "common/parallel.h"
#include "common/seed_domains.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "wifi/signal_field.h"

namespace sledzig {
namespace {

using campaign::CampaignSpec;
using campaign::JsonArray;
using campaign::JsonObject;
using campaign::JsonParseError;
using campaign::JsonValue;
using campaign::ResultRecord;
using campaign::ResultStoreWriter;
using campaign::RunnerOptions;
using campaign::RunnerReport;
using campaign::ScanResult;
using sim::ConfigError;
using sim::ScenarioConfig;

// ---- helpers -------------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  JsonParseError err;
  EXPECT_TRUE(campaign::json_parse(text, &v, &err)) << err.to_string();
  return v;
}

JsonParseError parse_fail(const std::string& text) {
  JsonValue v;
  JsonParseError err;
  EXPECT_FALSE(campaign::json_parse(text, &v, &err)) << text;
  return err;
}

bool has_error_field(const std::vector<ConfigError>& errors,
                     const std::string& field) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const ConfigError& e) { return e.field == field; });
}

std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "sledzig_" +
                     info->test_suite_name() + "_" + info->name() + "_" + name;
  std::remove(path.c_str());
  return path;
}

/// A fault-heavy two-node config: timed crash window, a random-burst
/// jammer, Poisson crash/mute processes, and clock defects on both ends.
ScenarioConfig chaos_scenario() {
  ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, /*sledzig_on=*/true, /*wifi_duty_ratio=*/0.5,
      /*d_wz_m=*/4.0, /*d_z_m=*/1.0, /*duration_s=*/0.3, /*seed=*/11);
  sim::TimedFault crash;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 1;
  crash.at_us = 40000.0;
  crash.duration_us = 60000.0;
  cfg.faults.timed.push_back(crash);
  sim::JammerConfig jammer;
  jammer.pos = {5.0, 5.0};
  jammer.usrp_gain = 12.0;
  jammer.mean_on_us = 3000.0;
  jammer.mean_off_us = 20000.0;
  cfg.faults.jammers.push_back(jammer);
  cfg.faults.random.crash_rate_per_s = 2.0;
  cfg.faults.random.mute_rate_per_s = 3.0;
  cfg.faults.clocks = {{12.5, 40.0}, {-3.0, -80.0}};
  return cfg;
}

/// to_json -> from_json must hand back a config whose run digests
/// bit-identically to the original's.  `pinned_fnv` freezes the canonical
/// bytes themselves: every campaign hash and store digest is computed over
/// them, so a change to the format shows up here first.
void expect_roundtrip_digest(const ScenarioConfig& cfg,
                             std::uint64_t pinned_fnv) {
  const JsonValue json = campaign::scenario_to_json(cfg);
  EXPECT_EQ(campaign::json_fnv1a(json), pinned_fnv)
      << campaign::json_dump(json);
  ScenarioConfig back;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_json(json, &back, &errors))
      << sim::describe(errors);
  // Canonical serialization is a fixed point: re-serializing the parsed
  // config reproduces the bytes the hash and store records are built on.
  EXPECT_EQ(campaign::json_dump(json),
            campaign::json_dump(campaign::scenario_to_json(back)));
  const sim::SimResult a = sim::run_scenario(cfg);
  const sim::SimResult b = sim::run_scenario(back);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// ---- JSON value / parser / writer ----------------------------------------

TEST(CampaignJson, ParseDumpRoundTrip) {
  const std::string text =
      R"({"name":"x","on":true,"off":false,"none":null,)"
      R"("n":42,"f":0.25,"neg":-17,"arr":[1,[2,3],{"k":"v"}],)"
      R"("obj":{"zeta":1,"alpha":2}})";
  const JsonValue v = parse_ok(text);
  EXPECT_EQ(campaign::json_dump(v), text);  // insertion order preserved
  EXPECT_EQ(parse_ok(campaign::json_dump(v, 2)), v);  // pretty form too
}

TEST(CampaignJson, NumbersSurviveRoundTrip) {
  for (const double d : {0.0, 1.0, -1.0, 0.1, 1e-9, 6346.0, 2.4e9,
                         1234567890123456.0, 0.015625, 1.0 / 3.0}) {
    const std::string dumped = campaign::json_dump(JsonValue(d));
    const JsonValue back = parse_ok(dumped);
    ASSERT_TRUE(back.is_number()) << dumped;
    EXPECT_EQ(back.as_number(), d) << dumped;
  }
  EXPECT_EQ(campaign::json_dump(JsonValue(42)), "42");
  EXPECT_EQ(campaign::json_dump(JsonValue(-7)), "-7");
}

TEST(CampaignJson, ErrorsCarryPosition) {
  const JsonParseError dup = parse_fail("{\"a\":1,\n\"a\":2}");
  EXPECT_EQ(dup.line, 2u);
  EXPECT_NE(dup.message.find("duplicate"), std::string::npos) << dup.message;

  const JsonParseError trail = parse_fail("{} x");
  EXPECT_NE(trail.message.find("trailing"), std::string::npos)
      << trail.message;

  parse_fail("{\"a\":1");           // truncated
  parse_fail("[1,]");               // trailing comma
  parse_fail("");                   // empty input

  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  const JsonParseError depth = parse_fail(deep);
  EXPECT_NE(depth.message.find("nesting"), std::string::npos)
      << depth.message;
}

TEST(CampaignJson, UnicodeEscapesDecodeToUtf8) {
  // BMP code points, case-insensitive hex digits.
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xC3\xA9");    // é
  EXPECT_EQ(parse_ok("\"\\u20AC\"").as_string(), "\xE2\x82\xAC");  // €
  EXPECT_EQ(parse_ok("\"\\u0000\"").as_string(), std::string(1, '\0'));
  // Surrogate pair -> one supplementary code point (U+1F600).
  EXPECT_EQ(parse_ok("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Escapes compose with ordinary text and other escapes.
  EXPECT_EQ(parse_ok("\"x\\u0041\\n\"").as_string(), "xA\n");

  // Lone surrogates are parse errors, with position pointing at the
  // escape's backslash.
  const JsonParseError lone_low = parse_fail("\"\\uDC00\"");
  EXPECT_NE(lone_low.message.find("surrogate"), std::string::npos)
      << lone_low.message;
  EXPECT_EQ(lone_low.line, 1u);
  EXPECT_EQ(lone_low.column, 2u);
  const JsonParseError lone_high = parse_fail("\"\\uD83Dx\"");
  EXPECT_NE(lone_high.message.find("surrogate"), std::string::npos)
      << lone_high.message;
  parse_fail("\"\\uD83D\\u0041\"");  // high surrogate + non-low escape
  parse_fail("\"\\u12\"");           // too few hex digits
  parse_fail("\"\\uZZZZ\"");         // non-hex digits

  // The writer stays canonical: decoded UTF-8 round-trips raw (no \u
  // re-escaping), so dumps and store digests are byte-stable.
  const JsonValue v = parse_ok("\"\\u00e9\\uD83D\\uDE00\"");
  const std::string dumped = campaign::json_dump(v);
  EXPECT_EQ(dumped, "\"\xC3\xA9\xF0\x9F\x98\x80\"");
  EXPECT_EQ(parse_ok(dumped), v);
}

TEST(CampaignJson, FindSetAndEquality) {
  JsonValue v = parse_ok(R"({"a":1})");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  v.set("b", JsonValue("two"));
  v.set("a", JsonValue(3));
  EXPECT_EQ(campaign::json_dump(v), R"({"a":3,"b":"two"})");
  EXPECT_EQ(v, parse_ok(R"({"a":3,"b":"two"})"));
  EXPECT_NE(v, parse_ok(R"({"b":"two","a":3})"));  // order is identity
}

TEST(CampaignJson, FnvIsStableOverEqualValues) {
  const JsonValue a = parse_ok(R"({"x":[1,2,{"y":true}]})");
  const JsonValue b = parse_ok(R"({ "x" : [ 1 , 2 , { "y" : true } ] })");
  EXPECT_EQ(campaign::json_fnv1a(a), campaign::json_fnv1a(b));
  EXPECT_NE(campaign::json_fnv1a(a),
            campaign::json_fnv1a(parse_ok(R"({"x":[1,2,{"y":false}]})")));
}

TEST(CampaignJson, Hex64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dull},
        std::uint64_t{0xffffffffffffffffull}}) {
    const std::string text = campaign::hex64(v);
    EXPECT_EQ(text.size(), 16u);
    std::uint64_t back = 0;
    ASSERT_TRUE(campaign::parse_hex64(text, &back));
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(campaign::parse_hex64("xyz", &out));
  EXPECT_FALSE(campaign::parse_hex64("0123", &out));  // wrong width
}

// ---- scenario round trip -------------------------------------------------

TEST(CampaignScenario, TwoNodeRoundTripDigest) {
  expect_roundtrip_digest(sim::two_node_paper_scenario(
                              core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.3,
                              7),
                          0x9c88a9995f22411eull);
}

TEST(CampaignScenario, TwoNodeSledzigOffRoundTripDigest) {
  expect_roundtrip_digest(sim::two_node_paper_scenario(
                              core::SledzigConfig{}, false, 0.8, 2.0, 1.0, 0.3,
                              7),
                          0x9ba11229cfc1689eull);
}

TEST(CampaignScenario, CampusRoundTripDigest) {
  expect_roundtrip_digest(sim::campus_scenario(2, 2, 2, 20.0, 0.05, 5),
                          0x92f3f8c58892c21bull);
}

TEST(CampaignScenario, ChaosFaultPlanRoundTripDigest) {
  expect_roundtrip_digest(chaos_scenario(), 0x408f31c4d01ee92dull);
}

TEST(CampaignScenario, NonDefaultKnobsRoundTrip) {
  ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.2, 3);
  cfg.impairment.cfo = true;
  cfg.impairment.cfo_hz = 11000.0;
  cfg.queue_capacity = 16;
  cfg.wifi_capture_sinr_db = common::Db{8.0};
  cfg.fastpath.prune = false;
  cfg.invariants.enabled = true;
  cfg.zigbee[0].traffic.kind = sim::TrafficKind::kPoisson;
  cfg.zigbee[0].traffic.interval_us = 9000.0;
  expect_roundtrip_digest(cfg, 0xef6fc8f017274eb4ull);
}

/// Every leaf of `v` as (dotted path, value), in document order.  The
/// writer builds the canonical JSON from the field tables, so this walks
/// every table leaf exactly once.
void collect_leaves(const JsonValue& v, const std::string& path,
                    std::vector<std::pair<std::string, JsonValue>>* out) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      collect_leaves(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      collect_leaves(v.as_array()[i], path + "[" + std::to_string(i) + "]",
                     out);
    }
  } else {
    out->emplace_back(path, v);
  }
}

/// Replacement values to try for a leaf, in order: integer, ratio and
/// index values for numbers, and for strings a spelling from each enum
/// table that differs from the chaos base's.
std::vector<JsonValue> leaf_candidates(const JsonValue& v) {
  if (v.is_bool()) return {JsonValue(!v.as_bool())};
  std::vector<JsonValue> out;
  if (v.is_number()) {
    const double d = v.as_number();
    for (const double c : {d * 0.5, d + 1.0, d - 1.0, 0.0, 0.5, 1.0, 11.0}) {
      if (c != d) out.emplace_back(c);
    }
    return out;
  }
  for (const char* name :
       {"poisson", "saturated", "reboot", "qam16", "2/3", "ch1", "40mhz"}) {
    if (name != v.as_string()) out.emplace_back(name);
  }
  return out;
}

TEST(CampaignScenario, EveryFieldRoundTrips) {
  // A base that fills every array the format has, so each struct table
  // (timed faults, jammers, clocks, extra channels, window offsets, both
  // node kinds) contributes leaves.
  ScenarioConfig base = chaos_scenario();
  base.duration_s = 0.05;
  base.sledzig.modulation = wifi::Modulation::kQam64;  // a rate with
  base.sledzig.rate = wifi::CodingRate::kR34;          // neighbours both ways
  base.sledzig.extra_channels = {core::OverlapChannel::kCh4};
  base.sledzig.window_offsets_hz = {-2e6};
  const JsonValue base_json = campaign::scenario_to_json(base);
  std::vector<std::pair<std::string, JsonValue>> leaves;
  collect_leaves(base_json, "", &leaves);
  ASSERT_GE(leaves.size(), 129u);

  for (const auto& [path, value] : leaves) {
    SCOPED_TRACE(path);
    // The first candidate the parser and validate() accept.
    JsonValue mutated;
    ScenarioConfig cfg;
    bool accepted = false;
    for (const JsonValue& candidate : leaf_candidates(value)) {
      mutated = base_json;
      std::string err;
      ASSERT_TRUE(campaign::json_set_path(&mutated, path, candidate, &err))
          << err;
      std::vector<ConfigError> errors;
      if (campaign::scenario_from_json(mutated, &cfg, &errors)) {
        accepted = true;
        break;
      }
    }
    ASSERT_TRUE(accepted) << "no non-default value accepted";
    // The new value survives the writer, and the writer is a fixed point.
    const JsonValue json = campaign::scenario_to_json(cfg);
    EXPECT_EQ(campaign::json_dump(json), campaign::json_dump(mutated));
    ScenarioConfig back;
    std::vector<ConfigError> errors;
    ASSERT_TRUE(campaign::scenario_from_json(json, &back, &errors))
        << sim::describe(errors);
    EXPECT_EQ(campaign::json_dump(campaign::scenario_to_json(back)),
              campaign::json_dump(json));
    sim::SimResult a, b;
    ASSERT_NO_THROW(a = sim::run_scenario(cfg));
    ASSERT_NO_THROW(b = sim::run_scenario(back));
    EXPECT_EQ(a.trace_digest, b.trace_digest);
  }
}

TEST(CampaignScenario, TopologyGeneratorMatchesFactory) {
  // The two_node generator form must reproduce the factory bit-exactly.
  const std::string text = R"({
    "duration_s": 0.3, "seed": 7, "sledzig_enabled": true,
    "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                 "d_wz_m": 4.0, "d_z_m": 1.0}
  })";
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_text(text, &cfg, &errors))
      << sim::describe(errors);
  const ScenarioConfig factory = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.3, 7);
  EXPECT_EQ(sim::run_scenario(cfg).trace_digest,
            sim::run_scenario(factory).trace_digest);
}

TEST(CampaignScenario, ControlAbGeneratorMatchesFactoryAndOverlays) {
  const std::string text = R"({
    "duration_s": 0.3, "seed": 9,
    "topology": {"generator": "control_ab", "controlled": true}
  })";
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_text(text, &cfg, &errors))
      << sim::describe(errors);
  EXPECT_EQ(cfg.wifi.size(), 2u);
  EXPECT_EQ(cfg.zigbee.size(), 4u);
  EXPECT_TRUE(cfg.control.enabled);
  EXPECT_TRUE(cfg.control.hop.enabled);
  const ScenarioConfig factory = sim::control_ab_scenario(true, 0.3, 9);
  EXPECT_EQ(sim::run_scenario(cfg).trace_digest,
            sim::run_scenario(factory).trace_digest);

  // The file's own control section overlays whatever the generator armed.
  const std::string tuned = R"({
    "duration_s": 0.3, "seed": 9,
    "topology": {"generator": "control_ab", "controlled": true},
    "control": {"epoch_us": 50000.0, "hop": {"min_prr": 0.8}}
  })";
  ScenarioConfig over;
  errors.clear();
  ASSERT_TRUE(campaign::scenario_from_text(tuned, &over, &errors))
      << sim::describe(errors);
  EXPECT_EQ(over.control.epoch_us, 50000.0);
  EXPECT_EQ(over.control.hop.min_prr, 0.8);
  EXPECT_TRUE(over.control.sledzig.enabled);  // generator setting survives
}

TEST(CampaignScenario, MalformedInputsReportFieldPaths) {
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;

  // Unknown key: the typo's own path.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"durration_s": 1.0})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "durration_s")) << sim::describe(errors);

  // Wrong type.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"duration_s": "long"})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "duration_s")) << sim::describe(errors);

  // Bad enum value, nested in a node list.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"zigbee": [{"traffic": {"kind": "bursty"}}]})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "zigbee[0].traffic.kind"))
      << sim::describe(errors);

  // Generator form and explicit lists are mutually exclusive.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"topology": {"generator": "two_node"}, "wifi": []})", &cfg,
      &errors));
  EXPECT_TRUE(has_error_field(errors, "topology")) << sim::describe(errors);

  // Syntax errors surface under the "<json>" pseudo-field.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text("{", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "<json>")) << sim::describe(errors);

  // A clean parse still runs validate(): semantic findings share the call.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"topology": {"generator": "two_node"}, "duration_s": -1.0})", &cfg,
      &errors));
  EXPECT_TRUE(has_error_field(errors, "duration_s")) << sim::describe(errors);

  // Every problem is reported, not just the first.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"durration_s": 1.0, "seeed": 2})", &cfg, &errors));
  EXPECT_GE(errors.size(), 2u) << sim::describe(errors);
}

// ---- campaign spec and grid ----------------------------------------------

const char kCampaignText[] = R"({
  "name": "grid_smoke",
  "seed": 7,
  "replications": 2,
  "scenario": {
    "duration_s": 0.2,
    "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                 "d_wz_m": 4.0, "d_z_m": 1.0}
  },
  "grid": [
    {"path": "sledzig_enabled", "values": [false, true]},
    {"path": "topology.wifi_duty_ratio", "values": [0.2, 0.5, 0.8]}
  ]
})";

TEST(CampaignSpec, GridExpansion) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(kCampaignText, &spec, &errors))
      << sim::describe(errors);
  EXPECT_EQ(spec.name, "grid_smoke");
  EXPECT_EQ(campaign::cell_count(spec), 6u);
  // Row-major, last axis fastest.
  EXPECT_EQ(campaign::cell_label(spec, 0),
            "sledzig_enabled=false;topology.wifi_duty_ratio=0.2");
  EXPECT_EQ(campaign::cell_label(spec, 4),
            "sledzig_enabled=true;topology.wifi_duty_ratio=0.5");

  // The cell scenario carries the axis values and the index-derived seed.
  ScenarioConfig cfg;
  ASSERT_TRUE(campaign::cell_scenario(spec, 4, 1, &cfg, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(cfg.sledzig_enabled);
  EXPECT_DOUBLE_EQ(cfg.wifi[0].traffic.duty_ratio, 0.5);
  EXPECT_EQ(cfg.seed, common::derive_seed(
                          7, common::seed_domain::kCampaign, 4, 1));
}

TEST(CampaignSpec, HashCoversEverySpecField) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(kCampaignText, &spec, &errors));
  const std::uint64_t h = campaign::campaign_hash(spec);
  CampaignSpec other = spec;
  other.replications = 3;
  EXPECT_NE(campaign::campaign_hash(other), h);
  other = spec;
  other.seed = 8;
  EXPECT_NE(campaign::campaign_hash(other), h);
  other = spec;
  other.axes[0].values.pop_back();
  EXPECT_NE(campaign::campaign_hash(other), h);
  EXPECT_EQ(campaign::campaign_hash(spec), h);  // and it is stable
}

TEST(CampaignSpec, LoadErrorsReportFieldPaths) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;

  // The scenario is mandatory.
  EXPECT_FALSE(campaign::campaign_from_text(R"({"name":"x"})", &spec,
                                            &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.scenario"))
      << sim::describe(errors);

  // A broken base scenario fails at load, with its own field path.
  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"durration_s": 1.0}})", &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "durration_s")) << sim::describe(errors);

  // Grid axes validate path and values.
  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"topology": {"generator": "two_node"}},
          "grid": [{"path": "", "values": [1]}, {"values": [2]}]})",
      &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.grid[0].path"))
      << sim::describe(errors);
  EXPECT_TRUE(has_error_field(errors, "campaign.grid[1].path"))
      << sim::describe(errors);

  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"topology": {"generator": "two_node"}},
          "replications": 0})",
      &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.replications"))
      << sim::describe(errors);
}

/// Canonical-form FNV of cell_scenario(spec, cell, 0) for every cell of
/// every committed example campaign, frozen like the flagship pins above.
const std::map<std::string, std::vector<std::uint64_t>> kExampleCellFnv = {
    {"control_ab.json", {0x37cc361d663a09b4ull, 0x3d2a6b4721d946e1ull}},
    {"fig16_sweep.json",
     {0x4024c610e15ccbf1ull, 0xd0b65337144a97b3ull, 0x7df31bf5312f3d63ull,
      0xa85ad774718de61full, 0x523b645c2611ff9aull, 0x08ef88cf1cfa70cfull,
      0xb0c07c3434315bceull, 0x340506aefe2bb414ull, 0x3c178040610fcaceull,
      0x31415832774c1294ull, 0xc4d3a6dcc0bb18e0ull, 0x89038136106b8042ull,
      0xe67fc8418c4491e2ull, 0x5495d6e02aafd922ull, 0x74e502948c57a759ull,
      0xe42dd499a63f3ecdull, 0x15e32a45dbcd38b6ull, 0xaf0562a0efdf3dd0ull,
      0x2b2d757991ac54b0ull, 0x09eed5538a25160dull, 0x29a4470739986ddaull,
      0x09ec944b016ad1e1ull, 0x6f65b03ba9a00c73ull, 0x9d99bcabffe13f67ull,
      0x8b673f004a55e7abull, 0x43932f20c33878baull, 0xf15979d14c24491dull,
      0x9b029e6a41c6191full, 0xf1aff7549c45f153ull, 0x863c6b76be2ed39dull,
      0x28754c6280fc4879ull, 0x236beb0414871b04ull, 0x84c3249542437d96ull,
      0xa872ac33b23bbfc2ull, 0x207d86027b6366aaull, 0x6c2e39f29406cd2full,
      0x195048d4f54dfbceull, 0x5fbf3dfdb677ab56ull, 0x1f7a74741c4bf0a3ull,
      0xe3d855ab90e75143ull, 0xb69a1c60c650f26cull, 0xe8c8c190d8b173abull,
      0x166dedb2a54e11baull, 0x5b219aab40d22b79ull, 0xfdf3515a3c77e94full,
      0x47cb08be4fb5753full, 0x4f5c1b4748c24a15ull, 0x9170247421da3ee5ull,
      0xff414484abf249b2ull, 0xe71a2c28fe6f49c8ull, 0xe315745fa3e4d3d0ull,
      0x394625f985733fe2ull, 0x598d783bfd66d4feull, 0x3b6be5ce292fd621ull}},
    {"smoke.json", {0xbe12dde62178e1ecull, 0xa381bb5b890bf76eull}},
};

TEST(CampaignSpec, EveryExampleCampaignLoads) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SLEDZIG_EXAMPLE_CAMPAIGNS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    SCOPED_TRACE(name);
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    CampaignSpec spec;
    std::vector<ConfigError> errors;
    ASSERT_TRUE(campaign::campaign_from_text(text.str(), &spec, &errors))
        << sim::describe(errors);
    const auto pinned = kExampleCellFnv.find(name);
    ASSERT_NE(pinned, kExampleCellFnv.end()) << "no pinned cell hashes";
    ASSERT_EQ(pinned->second.size(), campaign::cell_count(spec));
    for (std::size_t c = 0; c < campaign::cell_count(spec); ++c) {
      ScenarioConfig cfg;
      ASSERT_TRUE(campaign::cell_scenario(spec, c, 0, &cfg, &errors))
          << "cell " << c << ": " << sim::describe(errors);
      // The link-cache build encodes this pair; it must have a RATE code.
      EXPECT_NO_THROW(wifi::rate_code(cfg.sledzig.modulation, cfg.sledzig.rate))
          << "cell " << c;
      // No parse-back here: cells carry index-derived 64-bit seeds, which
      // the format's 9e15 seed ceiling deliberately refuses.
      EXPECT_EQ(campaign::json_fnv1a(campaign::scenario_to_json(cfg)),
                pinned->second[c])
          << "cell " << c;
    }
  }
}

TEST(CampaignSpec, UnsupportedRatePairIsAFieldError) {
  // QAM-64 and QAM-256 have no rate-1/2 RATE code point; validate() must
  // reject the pair instead of the link-cache build throwing mid-sweep.
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"topology": {"generator": "two_node"},
          "sledzig": {"modulation": "qam256"}})",
      &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "sledzig.rate")) << sim::describe(errors);

  // The Fig 16 grid as first committed: the base scenario itself carries
  // QAM-256 at the default rate, so the campaign fails at load.
  const char kOldFig16[] = R"({
    "name": "fig16_traffic_ratio", "seed": 1, "replications": 12,
    "scenario": {
      "duration_s": 2.0,
      "sledzig": {"modulation": "qam256", "channel": "ch3"},
      "topology": {"generator": "two_node", "wifi_duty_ratio": 0.1,
                   "d_wz_m": 1.0, "d_z_m": 0.5}
    },
    "grid": [
      {"path": "sledzig_enabled", "values": [false, true]},
      {"path": "sledzig.modulation", "values": ["qam16", "qam64", "qam256"]},
      {"path": "topology.wifi_duty_ratio",
       "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]}
    ]
  })";
  CampaignSpec spec;
  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(kOldFig16, &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "sledzig.rate")) << sim::describe(errors);

  // With a valid base, the bad cells fail the runner's up-front cell probe
  // with the same field path — an error return, not an abort.
  errors.clear();
  ASSERT_TRUE(campaign::campaign_from_text(R"({
    "scenario": {"duration_s": 0.05, "topology": {"generator": "two_node"}},
    "grid": [{"path": "sledzig.modulation", "values": ["qam16", "qam64"]}]
  })", &spec, &errors)) << sim::describe(errors);
  RunnerOptions opts;
  opts.store_path = temp_path("bad_rate.jsonl");
  RunnerReport report;
  EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
  EXPECT_TRUE(has_error_field(errors, "sledzig.rate")) << sim::describe(errors);
}

TEST(CampaignSpec, JsonSetPath) {
  JsonValue root = parse_ok(R"({"arr": [{"k": 1}]})");
  std::string err;

  // Missing object keys are created in order.
  ASSERT_TRUE(campaign::json_set_path(&root, "a.b.c", JsonValue(5), &err))
      << err;
  EXPECT_EQ(campaign::json_dump(root),
            R"({"arr":[{"k":1}],"a":{"b":{"c":5}}})");

  // Existing array elements are reachable.
  ASSERT_TRUE(campaign::json_set_path(&root, "arr[0].k", JsonValue(2), &err))
      << err;
  EXPECT_EQ(root.find("arr")->as_array()[0].find("k")->as_number(), 2.0);

  // Out-of-range indices and type mismatches are errors, not silent grows.
  EXPECT_FALSE(campaign::json_set_path(&root, "arr[5].k", JsonValue(1), &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_FALSE(campaign::json_set_path(&root, "a.b.c.d", JsonValue(1), &err));
  EXPECT_FALSE(campaign::json_set_path(&root, "a..b", JsonValue(1), &err));
  EXPECT_FALSE(campaign::json_set_path(&root, "a[x]", JsonValue(1), &err));
}

// ---- result store --------------------------------------------------------

ResultRecord make_record(std::uint64_t campaign_id, std::uint64_t cell,
                         std::uint64_t rep, double metric) {
  ResultRecord r;
  r.campaign = campaign_id;
  r.cell = cell;
  r.rep = rep;
  r.metrics = JsonValue(JsonObject{{"m", JsonValue(metric)}});
  return r;
}

TEST(CampaignStore, RecordLineRoundTrip) {
  const ResultRecord r = make_record(0xabcdef0123456789ull, 3, 1, 0.5);
  const std::string line = campaign::record_to_line(r);
  ResultRecord back;
  ASSERT_TRUE(campaign::record_from_line(line, &back)) << line;
  EXPECT_EQ(back.campaign, r.campaign);
  EXPECT_EQ(back.cell, 3u);
  EXPECT_EQ(back.rep, 1u);
  EXPECT_EQ(back.metrics, r.metrics);

  ResultRecord dummy;
  EXPECT_FALSE(campaign::record_from_line("{\"cell\":1}", &dummy));
  EXPECT_FALSE(campaign::record_from_line("not json", &dummy));
  EXPECT_FALSE(campaign::record_from_line(line.substr(0, 20), &dummy));
}

TEST(CampaignStore, WriteScanAndFilterForeign) {
  const std::string path = temp_path("store.jsonl");
  const std::uint64_t ours = 0x1111111111111111ull;
  const std::uint64_t theirs = 0x2222222222222222ull;
  {
    ResultStoreWriter writer(path);
    std::string err;
    ASSERT_TRUE(writer.open(&err)) << err;
    ASSERT_TRUE(writer.append(make_record(ours, 0, 0, 1.0), &err)) << err;
    ASSERT_TRUE(writer.append(make_record(theirs, 0, 0, 9.0), &err)) << err;
    ASSERT_TRUE(writer.append(make_record(ours, 1, 0, 2.0), &err)) << err;
  }
  ScanResult scan;
  std::string err;
  ASSERT_TRUE(campaign::scan_store(path, ours, &scan, &err)) << err;
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.foreign, 1u);
  EXPECT_EQ(scan.dropped_partial, 0u);

  // A missing file is an empty (fresh) store, not an error.
  ScanResult fresh;
  ASSERT_TRUE(campaign::scan_store(temp_path("absent.jsonl"), ours, &fresh,
                                   &err))
      << err;
  EXPECT_TRUE(fresh.records.empty());
}

TEST(CampaignStore, TruncatedTailToleratedInteriorCorruptionNot) {
  const std::string path = temp_path("torn.jsonl");
  const std::uint64_t id = 0x3333333333333333ull;
  {
    std::ofstream out(path, std::ios::binary);
    out << campaign::record_to_line(make_record(id, 0, 0, 1.0)) << "\n";
    out << campaign::record_to_line(make_record(id, 1, 0, 2.0)) << "\n";
    // The SIGKILL signature: a final line cut mid-record.
    const std::string torn = campaign::record_to_line(make_record(id, 2, 0,
                                                                  3.0));
    out << torn.substr(0, torn.size() / 2);
  }
  ScanResult scan;
  std::string err;
  ASSERT_TRUE(campaign::scan_store(path, id, &scan, &err)) << err;
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.dropped_partial, 1u);

  // The same tear in the middle of the file means the store is corrupt.
  const std::string bad = temp_path("corrupt.jsonl");
  {
    std::ofstream out(bad, std::ios::binary);
    out << "garbage\n";
    out << campaign::record_to_line(make_record(id, 0, 0, 1.0)) << "\n";
  }
  EXPECT_FALSE(campaign::scan_store(bad, id, &scan, &err));
  EXPECT_FALSE(err.empty());
}

TEST(CampaignStore, DigestIgnoresOrderAndDuplicates) {
  const std::uint64_t id = 0x4444444444444444ull;
  std::vector<ResultRecord> a = {make_record(id, 0, 0, 1.0),
                                 make_record(id, 0, 1, 2.0),
                                 make_record(id, 1, 0, 3.0)};
  std::vector<ResultRecord> b = {a[2], a[0], a[1]};  // permuted
  std::vector<ResultRecord> c = a;
  c.push_back(make_record(id, 1, 0, 99.0));  // late duplicate: first wins
  const std::uint64_t digest = campaign::store_digest(id, a);
  EXPECT_EQ(campaign::store_digest(id, b), digest);
  EXPECT_EQ(campaign::store_digest(id, c), digest);
  // But different content or identity means a different digest.
  std::vector<ResultRecord> d = {a[0], a[1], make_record(id, 1, 0, 4.0)};
  EXPECT_NE(campaign::store_digest(id, d), digest);
  EXPECT_NE(campaign::store_digest(id ^ 1, a), digest);
}

// ---- runner: shard / thread / resume invariance --------------------------

CampaignSpec small_campaign() {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  EXPECT_TRUE(campaign::campaign_from_text(R"({
    "name": "invariance",
    "seed": 5,
    "replications": 2,
    "scenario": {
      "duration_s": 0.1,
      "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                   "d_wz_m": 4.0, "d_z_m": 1.0}
    },
    "grid": [{"path": "sledzig_enabled", "values": [false, true]}]
  })",
                                           &spec, &errors))
      << sim::describe(errors);
  return spec;
}

TEST(CampaignRunner, ShardAndThreadCountNeverChangeTheDigest) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;

  // One shard, many threads.
  RunnerOptions one;
  one.store_path = temp_path("one.jsonl");
  one.threads = 4;
  RunnerReport ref;
  ASSERT_TRUE(campaign::run_campaign(spec, one, &ref, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(ref.complete);
  EXPECT_EQ(ref.items_total, 4u);
  EXPECT_EQ(ref.items_run, 4u);

  // Three shards, one thread each, run out of order.
  RunnerOptions sharded;
  sharded.store_path = temp_path("sharded.jsonl");
  sharded.threads = 1;
  sharded.shard_count = 3;
  RunnerReport last;
  for (const std::size_t shard : {2u, 0u, 1u}) {
    sharded.shard_index = shard;
    ASSERT_TRUE(campaign::run_campaign(spec, sharded, &last, &errors))
        << sim::describe(errors);
  }
  EXPECT_TRUE(last.complete);
  EXPECT_EQ(last.digest, ref.digest);
}

TEST(CampaignRunner, ResumeSkipsStoredItemsAndMatchesCleanRun) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;

  RunnerOptions clean;
  clean.store_path = temp_path("clean.jsonl");
  clean.threads = 2;
  RunnerReport ref;
  ASSERT_TRUE(campaign::run_campaign(spec, clean, &ref, &errors))
      << sim::describe(errors);

  // First pass: shard 0 of 2 only — half the campaign lands in the store.
  RunnerOptions partial;
  partial.store_path = temp_path("resumed.jsonl");
  partial.threads = 2;
  partial.shard_count = 2;
  RunnerReport first;
  ASSERT_TRUE(campaign::run_campaign(spec, partial, &first, &errors))
      << sim::describe(errors);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.items_run, 2u);

  // Simulate the tear a SIGKILL leaves, then resume over the whole range.
  {
    std::ofstream out(partial.store_path,
                      std::ios::binary | std::ios::app);
    out << "{\"campaign\":\"feed";  // truncated final line
  }
  RunnerOptions full = partial;
  full.shard_count = 1;
  full.shard_index = 0;
  RunnerReport second;
  ASSERT_TRUE(campaign::run_campaign(spec, full, &second, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.items_resumed, 2u);
  EXPECT_EQ(second.items_run, 2u);
  EXPECT_EQ(second.digest, ref.digest);
}

TEST(CampaignRunner, MetricsAreDeterministicJson) {
  const ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.1, 3);
  const JsonValue a = campaign::result_to_json(sim::run_scenario(cfg));
  const JsonValue b = campaign::result_to_json(sim::run_scenario(cfg));
  EXPECT_EQ(campaign::json_dump(a), campaign::json_dump(b));
  ASSERT_NE(a.find("wifi"), nullptr);
  ASSERT_NE(a.find("zigbee"), nullptr);
  ASSERT_NE(a.find("trace_digest"), nullptr);
  std::uint64_t digest = 0;
  EXPECT_TRUE(campaign::parse_hex64(a.find("trace_digest")->as_string(),
                                    &digest));
  EXPECT_EQ(digest, sim::run_scenario(cfg).trace_digest);
}

TEST(CampaignRunner, RejectsBadShardArguments) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;
  RunnerOptions opts;
  opts.store_path = temp_path("bad.jsonl");
  opts.shard_count = 2;
  opts.shard_index = 2;  // out of range
  RunnerReport report;
  EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
  EXPECT_FALSE(errors.empty());
}

}  // namespace
}  // namespace sledzig
