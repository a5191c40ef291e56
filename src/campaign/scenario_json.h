// ScenarioConfig <-> JSON: the declarative scenario format (DESIGN.md §17.2).
//
// A scenario file describes everything ScenarioConfig holds — topology
// (explicit node lists or a generator), traffic mixes, the SledZig plan,
// impairments, fault plans, fast-path, invariant and control knobs — and
// round-trips losslessly: scenario_to_json(cfg) parsed back yields a
// config whose run_scenario digest is bit-identical to the original
// (asserted in tests/campaign_test.cc for every field).
//
// Field tables.  Each config struct has exactly one table in
// scenario_json.cc, a `visit_fields(V& v, T& x)` template that lists every
// (key, member) pair once, in canonical key order:
//
//   template <typename V, FieldsOf<sim::Position> T>
//   void visit_fields(V& v, T& p) { v("x_m", p.x_m); v("y_m", p.y_m); }
//
// Enum members name their table of spellings as a third argument.  Two
// visitors walk the tables, so a key is serialized exactly when it is
// parsed:
//
//   * ObjWriter builds the canonical JsonObject (equal configs produce
//     equal bytes — campaign hashes and store digests rest on this);
//   * ObjReader parses one back.  Every key is optional and overrides the
//     engine default only when present, so a file holding only what
//     differs from a stock scenario stays small.  Unknown keys are errors
//     (a typo must never silently fall back to a default).  Values are
//     type-checked per member: unsigned integers against their ceilings
//     (255, 2^32-1, and 9e15 for 64-bit — beyond ~2^53 a double drops
//     bits), Db/Dbm unwrapped from plain numbers, enums through their name
//     tables, arrays element by element.
//
// Error reporting is structural and total: scenario_from_json returns
// *every* problem found as a ConfigError with a dotted field path
// ("wifi[2].traffic.kind: ..."), then appends ScenarioConfig::validate()'s
// semantic findings when the parse itself succeeds — one call reports both
// malformed JSON fields and configs the engine would reject.
//
// Parse phases.  The top level is read in three passes over the
// ScenarioConfig table:
//
//   1. duration_s, seed, sledzig_enabled and sledzig — the inputs a
//      topology generator consumes;
//   2. the topology: either explicit "wifi"/"zigbee" lists or a
//      "topology" generator object (never both) —
//
//        {"generator": "two_node", "wifi_duty_ratio": 0.5,
//         "d_wz_m": 4.0, "d_z_m": 1.0}
//        {"generator": "campus", "ap_grid_x": 4, "ap_grid_y": 4,
//         "sensors_per_ap": 6, "spacing_m": 20.0}
//        {"generator": "control_ab", "controlled": true}
//
//      which expand through two_node_paper_scenario / campus_scenario /
//      control_ab_scenario using the phase-1 fields;
//   3. every remaining key, overlaid on what phase 2 produced.  A generator
//      replaces the whole config, so these must be read after it.
//
// The same reader and writer carry the campaign spec (campaign/spec.cc).
#pragma once

#include <algorithm>
#include <concepts>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/json.h"
#include "common/units.h"
#include "sim/scenario.h"

namespace sledzig::campaign {

/// Serializes every engine-relevant field (sinks and caches — metrics,
/// span_log, link_cache — are runtime wiring, not scenario identity, and
/// are omitted).  Output is canonical: equal configs produce equal JSON.
JsonValue scenario_to_json(const sim::ScenarioConfig& config);

/// Parses `json` into `*out` (starting from engine defaults).  Appends all
/// findings to `*errors` — field-path parse errors first, then
/// ScenarioConfig::validate() findings when the parse succeeded.  Returns
/// true when `*errors` gained nothing, in which case `*out` is runnable.
bool scenario_from_json(const JsonValue& json, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors);

/// Convenience: parse text, then scenario_from_json.  Syntax errors are
/// reported with field "<json>" and the parser's line:column message.
bool scenario_from_text(const std::string& text, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors);

// --- field-table visitors ----------------------------------------------------
//
// A table is found by argument-dependent lookup through the visitor, so
// tables live in namespace campaign itself (not an unnamed namespace) and
// must be declared before the first parse or dump of their struct.

/// Selects a struct's table for const (writer) and mutable (reader) use.
template <typename T, typename U>
concept FieldsOf = std::same_as<std::remove_const_t<T>, U>;

/// One enum spelling; an enum member's table is a span of these.
struct NamePair {
  const char* name;
  int value;
};
using NameTable = std::span<const NamePair>;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <typename T>
inline constexpr bool kIsLevel =
    std::is_same_v<T, common::Db> || std::is_same_v<T, common::Dbm>;

/// Builds the canonical object: members in table order.
class ObjWriter {
 public:
  template <typename T>
  void operator()(const char* key, const T& member) {
    obj_.emplace_back(key, value(member));
  }
  template <typename E>
  void operator()(const char* key, const E& member, NameTable names) {
    obj_.emplace_back(key, enum_value(member, names));
  }

  /// The JSON form of one member: numbers for arithmetic and level types,
  /// arrays for vectors, objects (through their table) for structs.
  template <typename T>
  static JsonValue value(const T& x) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string> ||
                  std::is_same_v<T, JsonValue>) {
      return JsonValue(x);
    } else if constexpr (std::is_integral_v<T>) {
      return JsonValue(static_cast<double>(x));
    } else if constexpr (kIsLevel<T>) {
      return JsonValue(x.value());
    } else if constexpr (kIsVector<T>) {
      JsonArray items;
      items.reserve(x.size());
      for (const auto& item : x) items.push_back(value(item));
      return JsonValue(std::move(items));
    } else {
      ObjWriter w;
      visit_fields(w, x);
      return JsonValue(std::move(w.obj_));
    }
  }

 private:
  template <typename E>
  static JsonValue enum_value(const E& x, NameTable names) {
    if constexpr (kIsVector<E>) {
      JsonArray items;
      for (const auto item : x) items.push_back(enum_value(item, names));
      return JsonValue(std::move(items));
    } else {
      for (const auto& p : names) {
        if (p.value == static_cast<int>(x)) return JsonValue(p.name);
      }
      return JsonValue("?");
    }
  }

  JsonObject obj_;
};

/// Wraps one JSON object with a dotted path; every member read type-checks,
/// records an error on mismatch, and marks the key consumed so finish()
/// can flag unknown keys.  Reads are override-if-present: an absent key
/// leaves the member (the engine default) untouched.
class ObjReader {
 public:
  /// `v` may be null (an absent section: present() is false).  The root
  /// reader carries an empty path and reports a non-object as "scenario".
  ObjReader(const JsonValue* v, std::string path,
            std::vector<sim::ConfigError>* errors);

  bool present() const { return value_ != nullptr; }

  /// The member for `key`, consuming it; nullptr when absent.
  const JsonValue* child(const char* key);

  /// Reads `key` into `member` when present; returns whether it was.
  template <typename T>
  bool operator()(const char* key, T& member) {
    const JsonValue* v = child(key);
    if (v != nullptr) read(*v, sub(key), member);
    return v != nullptr;
  }
  template <typename E>
  bool operator()(const char* key, E& member, NameTable names) {
    const JsonValue* v = child(key);
    if (v != nullptr) read_enum(*v, sub(key), member, names);
    return v != nullptr;
  }

  /// Flags every unconsumed key.  Call exactly once, last.
  void finish();

 private:
  template <typename T>
  void read(const JsonValue& v, const std::string& path, T& out) {
    if constexpr (kIsVector<T>) {
      read_array(v, path, out, [this](const JsonValue& item,
                                      const std::string& p, auto& dst) {
        read(item, p, dst);
      });
    } else if constexpr (std::is_same_v<T, JsonValue>) {
      out = v;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (expect(v.is_bool(), v, path, "true/false")) out = v.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      if (expect(v.is_number(), v, path, "a number")) out = v.as_number();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (expect(v.is_string(), v, path, "a string")) out = v.as_string();
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>);
      const double ceiling = std::min(
          9e15, static_cast<double>(std::numeric_limits<T>::max()));
      if (is_uint(v, ceiling)) {
        out = static_cast<T>(v.as_number());
      } else {
        fail(path, "expected a non-negative integer");
      }
    } else if constexpr (kIsLevel<T>) {
      double level = out.value();
      read(v, path, level);
      out = T{level};
    } else {
      ObjReader r(&v, path, errors_);
      visit_fields(r, out);
      r.finish();
    }
  }

  template <typename E>
  void read_enum(const JsonValue& v, const std::string& path, E& out,
                 NameTable names) {
    if constexpr (kIsVector<E>) {
      read_array(v, path, out, [this, names](const JsonValue& item,
                                             const std::string& p,
                                             auto& dst) {
        read_enum(item, p, dst, names);
      });
    } else {
      int value = 0;
      if (lookup(v, path, names, &value)) out = static_cast<E>(value);
    }
  }

  /// Replaces `out` with the array's items, each read by `read_item`.
  template <typename T, typename ReadItem>
  void read_array(const JsonValue& v, const std::string& path,
                  std::vector<T>& out, ReadItem read_item) {
    if (!expect(v.is_array(), v, path, "an array")) return;
    out.clear();
    const JsonArray& items = v.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      T item{};
      read_item(items[i], path + "[" + std::to_string(i) + "]", item);
      out.push_back(std::move(item));
    }
  }

  /// Dotted child path; the root reader's children report as bare keys
  /// ("duration_s"), matching the nested style.
  std::string sub(const char* key) const;
  /// Records "expected <what>, got <type>" at `path` unless `ok`.
  bool expect(bool ok, const JsonValue& v, const std::string& path,
              const char* what);
  static bool is_uint(const JsonValue& v, double ceiling);
  bool lookup(const JsonValue& v, const std::string& path, NameTable names,
              int* value);
  void fail(const std::string& path, std::string message);

  const JsonValue* value_;
  std::string path_;
  std::vector<sim::ConfigError>* errors_;
  std::vector<bool> consumed_;
};

}  // namespace sledzig::campaign
