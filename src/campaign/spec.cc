#include "campaign/spec.h"

#include <utility>

#include "common/parallel.h"
#include "common/seed_domains.h"

namespace sledzig::campaign {

namespace {

using sim::ConfigError;

/// Splits "a.b[2].c" into steps: each step is a key plus an optional
/// trailing array index.  Returns false on syntax errors.
struct PathStep {
  std::string key;
  bool has_index = false;
  std::size_t index = 0;
};

bool split_path(const std::string& path, std::vector<PathStep>* out,
                std::string* error) {
  out->clear();
  std::size_t pos = 0;
  while (pos < path.size()) {
    PathStep step;
    while (pos < path.size() && path[pos] != '.' && path[pos] != '[') {
      step.key.push_back(path[pos]);
      ++pos;
    }
    if (step.key.empty()) {
      *error = "empty key segment in path '" + path + "'";
      return false;
    }
    if (pos < path.size() && path[pos] == '[') {
      ++pos;
      std::size_t idx = 0;
      bool any = false;
      while (pos < path.size() && path[pos] >= '0' && path[pos] <= '9') {
        idx = idx * 10 + static_cast<std::size_t>(path[pos] - '0');
        ++pos;
        any = true;
      }
      if (!any || pos >= path.size() || path[pos] != ']') {
        *error = "malformed array index in path '" + path + "'";
        return false;
      }
      ++pos;  // ']'
      step.has_index = true;
      step.index = idx;
    }
    out->push_back(std::move(step));
    if (pos < path.size()) {
      if (path[pos] != '.') {
        *error = "expected '.' after segment in path '" + path + "'";
        return false;
      }
      ++pos;
      if (pos == path.size()) {
        *error = "trailing '.' in path '" + path + "'";
        return false;
      }
    }
  }
  if (out->empty()) {
    *error = "empty path";
    return false;
  }
  return true;
}

}  // namespace

bool json_set_path(JsonValue* root, const std::string& path, JsonValue value,
                   std::string* error) {
  std::vector<PathStep> steps;
  if (!split_path(path, &steps, error)) return false;

  JsonValue* cur = root;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const PathStep& step = steps[s];
    const bool last = (s + 1 == steps.size());
    if (!cur->is_object() && !cur->is_null()) {
      *error = "path '" + path + "' descends through a " +
               std::string(cur->type_name()) + " at '" + step.key + "'";
      return false;
    }
    if (cur->is_null()) *cur = JsonValue(JsonObject{});
    JsonValue* child = cur->find(step.key);
    if (child == nullptr) {
      // Create the member so partial scenarios still accept overrides;
      // the type it needs appears immediately below.
      cur->set(step.key, step.has_index ? JsonValue(JsonArray{})
                                        : JsonValue());
      child = cur->find(step.key);
    }
    if (step.has_index) {
      if (!child->is_array()) {
        *error = "path '" + path + "': '" + step.key + "' is " +
                 child->type_name() + ", not an array";
        return false;
      }
      auto& arr = child->as_array();
      if (step.index >= arr.size()) {
        *error = "path '" + path + "': index " + std::to_string(step.index) +
                 " out of range for '" + step.key + "' (size " +
                 std::to_string(arr.size()) + ")";
        return false;
      }
      child = &arr[step.index];
    }
    if (last) {
      *child = std::move(value);
      return true;
    }
    cur = child;
  }
  *error = "empty path";
  return false;
}

// The spec's field tables (see scenario_json.h): one entry per key, shared
// by CampaignSpec::to_json and campaign_from_json.
template <typename V, FieldsOf<GridAxis> T>
void visit_fields(V& v, T& axis) {
  v("path", axis.path);
  v("values", axis.values);
}

template <typename V, FieldsOf<CampaignSpec> T>
void visit_fields(V& v, T& spec) {
  v("name", spec.name);
  v("seed", spec.seed);
  v("replications", spec.replications);
  v("scenario", spec.scenario);
  v("grid", spec.axes);
}

JsonValue CampaignSpec::to_json() const { return ObjWriter::value(*this); }

bool campaign_from_json(const JsonValue& json, CampaignSpec* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  *out = CampaignSpec{};
  ObjReader r(&json, "campaign", errors);
  if (!r.present()) return false;
  visit_fields(r, *out);
  r.finish();

  if (out->replications < 1 || out->replications > 1e9) {
    errors->push_back({"campaign.replications", "expected a positive integer"});
  }
  for (std::size_t i = 0; i < out->axes.size(); ++i) {
    const std::string apath = "campaign.grid[" + std::to_string(i) + "]";
    if (out->axes[i].path.empty()) {
      errors->push_back(
          {apath + ".path", "expected a non-empty dotted path string"});
    }
    if (out->axes[i].values.empty()) {
      errors->push_back({apath + ".values", "expected a non-empty array"});
    }
  }
  if (out->scenario.is_null()) {
    errors->push_back({"campaign.scenario", "missing (a campaign must name "
                                            "its base scenario)"});
  } else {
    // Validate the base scenario end-to-end now — a campaign that cannot
    // produce a runnable cell 0 should fail at load, not mid-sweep.
    sim::ScenarioConfig probe;
    scenario_from_json(out->scenario, &probe, errors);
  }
  return errors->size() == before;
}

bool campaign_from_text(const std::string& text, CampaignSpec* out,
                        std::vector<sim::ConfigError>* errors) {
  JsonValue root;
  JsonParseError perr;
  if (!json_parse(text, &root, &perr)) {
    errors->push_back({"<json>", perr.to_string()});
    return false;
  }
  return campaign_from_json(root, out, errors);
}

std::uint64_t campaign_hash(const CampaignSpec& spec) {
  return json_fnv1a(spec.to_json());
}

std::size_t cell_count(const CampaignSpec& spec) {
  std::size_t n = 1;
  for (const auto& axis : spec.axes) n *= axis.values.size();
  return n;
}

namespace {

/// Per-axis value index for `cell`, last axis fastest (row-major).
std::vector<std::size_t> cell_coords(const CampaignSpec& spec,
                                     std::size_t cell) {
  std::vector<std::size_t> coords(spec.axes.size(), 0);
  for (std::size_t a = spec.axes.size(); a-- > 0;) {
    const std::size_t len = spec.axes[a].values.size();
    coords[a] = cell % len;
    cell /= len;
  }
  return coords;
}

}  // namespace

std::string cell_label(const CampaignSpec& spec, std::size_t cell) {
  const auto coords = cell_coords(spec, cell);
  std::string out;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (!out.empty()) out += ";";
    out += spec.axes[a].path + "=" +
           json_dump(spec.axes[a].values[coords[a]], 0);
  }
  return out;
}

bool cell_scenario_json(const CampaignSpec& spec, std::size_t cell,
                        JsonValue* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  *out = spec.scenario;
  const auto coords = cell_coords(spec, cell);
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    std::string err;
    if (!json_set_path(out, spec.axes[a].path,
                       spec.axes[a].values[coords[a]], &err)) {
      errors->push_back(
          {"campaign.grid[" + std::to_string(a) + "].path", err});
    }
  }
  return errors->size() == before;
}

bool cell_scenario(const CampaignSpec& spec, std::size_t cell, std::size_t rep,
                   sim::ScenarioConfig* out,
                   std::vector<sim::ConfigError>* errors) {
  JsonValue cell_json;
  if (!cell_scenario_json(spec, cell, &cell_json, errors)) return false;
  if (!scenario_from_json(cell_json, out, errors)) return false;
  out->seed = common::derive_seed(spec.seed, common::seed_domain::kCampaign,
                                  cell, rep);
  return true;
}

}  // namespace sledzig::campaign
