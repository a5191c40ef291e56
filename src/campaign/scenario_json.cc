#include "campaign/scenario_json.h"

#include <cmath>
#include <utility>

namespace sledzig::campaign {

// --- enum name tables ------------------------------------------------------

namespace {

constexpr NamePair kTrafficKinds[] = {
    {"saturated", static_cast<int>(sim::TrafficKind::kSaturated)},
    {"cbr", static_cast<int>(sim::TrafficKind::kCbr)},
    {"poisson", static_cast<int>(sim::TrafficKind::kPoisson)},
    {"duty_cycle", static_cast<int>(sim::TrafficKind::kDutyCycle)},
};

constexpr NamePair kFaultKinds[] = {
    {"crash", static_cast<int>(sim::FaultKind::kCrash)},
    {"reboot", static_cast<int>(sim::FaultKind::kReboot)},
    {"mute_on", static_cast<int>(sim::FaultKind::kMuteOn)},
    {"mute_off", static_cast<int>(sim::FaultKind::kMuteOff)},
    {"deaf_on", static_cast<int>(sim::FaultKind::kDeafOn)},
    {"deaf_off", static_cast<int>(sim::FaultKind::kDeafOff)},
    {"jam_on", static_cast<int>(sim::FaultKind::kJamOn)},
    {"surge_on", static_cast<int>(sim::FaultKind::kSurgeOn)},
    {"surge_off", static_cast<int>(sim::FaultKind::kSurgeOff)},
};

constexpr NamePair kModulations[] = {
    {"bpsk", static_cast<int>(wifi::Modulation::kBpsk)},
    {"qpsk", static_cast<int>(wifi::Modulation::kQpsk)},
    {"qam16", static_cast<int>(wifi::Modulation::kQam16)},
    {"qam64", static_cast<int>(wifi::Modulation::kQam64)},
    {"qam256", static_cast<int>(wifi::Modulation::kQam256)},
};

constexpr NamePair kRates[] = {
    {"1/2", static_cast<int>(wifi::CodingRate::kR12)},
    {"2/3", static_cast<int>(wifi::CodingRate::kR23)},
    {"3/4", static_cast<int>(wifi::CodingRate::kR34)},
    {"5/6", static_cast<int>(wifi::CodingRate::kR56)},
};

constexpr NamePair kOverlapChannels[] = {
    {"ch1", static_cast<int>(core::OverlapChannel::kCh1)},
    {"ch2", static_cast<int>(core::OverlapChannel::kCh2)},
    {"ch3", static_cast<int>(core::OverlapChannel::kCh3)},
    {"ch4", static_cast<int>(core::OverlapChannel::kCh4)},
};

constexpr NamePair kWidths[] = {
    {"20mhz", static_cast<int>(wifi::ChannelWidth::k20MHz)},
    {"40mhz", static_cast<int>(wifi::ChannelWidth::k40MHz)},
};

}  // namespace

// --- field tables ----------------------------------------------------------

template <typename V, FieldsOf<sim::Position> T>
void visit_fields(V& v, T& p) {
  v("x_m", p.x_m);
  v("y_m", p.y_m);
}

template <typename V, FieldsOf<sim::TrafficConfig> T>
void visit_fields(V& v, T& t) {
  v("kind", t.kind, kTrafficKinds);
  v("interval_us", t.interval_us);
  v("duty_ratio", t.duty_ratio);
}

template <typename V, FieldsOf<mac::WifiMacParams> T>
void visit_fields(V& v, T& m) {
  v("difs_us", m.difs_us);
  v("slot_us", m.slot_us);
  v("cw", m.cw);
  v("preamble_us", m.preamble_us);
  v("airtime_us", m.airtime_us);
  v("duty_ratio", m.duty_ratio);
}

template <typename V, FieldsOf<mac::ZigbeeMacParams> T>
void visit_fields(V& v, T& m) {
  v("backoff_period_us", m.backoff_period_us);
  v("cca_us", m.cca_us);
  v("turnaround_us", m.turnaround_us);
  v("min_be", m.min_be);
  v("max_be", m.max_be);
  v("max_backoffs", m.max_backoffs);
  v("max_frame_retries", m.max_frame_retries);
  v("ack_wait_us", m.ack_wait_us);
  v("payload_octets", m.payload_octets);
  v("processing_us", m.processing_us);
}

template <typename V, FieldsOf<core::SledzigConfig> T>
void visit_fields(V& v, T& s) {
  v("modulation", s.modulation, kModulations);
  v("rate", s.rate, kRates);
  v("channel", s.channel, kOverlapChannels);
  v("extra_channels", s.extra_channels, kOverlapChannels);
  v("forced_subcarriers", s.forced_subcarriers);
  v("scrambler_seed", s.scrambler_seed);
  v("include_service_field", s.include_service_field);
  v("width", s.width, kWidths);
  v("window_offsets_hz", s.window_offsets_hz);
  v("window_bandwidth_hz", s.window_bandwidth_hz);
}

template <typename V, FieldsOf<channel::ImpairmentConfig> T>
void visit_fields(V& v, T& c) {
  v("iq_imbalance", c.iq_imbalance);
  v("iq_gain_mismatch_db", c.iq_gain_mismatch_db);
  v("iq_phase_error_deg", c.iq_phase_error_deg);
  v("clipping", c.clipping);
  v("clip_level_rms", c.clip_level_rms);
  v("multipath", c.multipath);
  v("multipath_taps", c.multipath_taps);
  v("delay_spread_samples", c.delay_spread_samples);
  v("interference", c.interference);
  v("interferer_power_db", c.interferer_power_db);
  v("interferer_freq_offset_hz", c.interferer_freq_offset_hz);
  v("interferer_bandwidth_hz", c.interferer_bandwidth_hz);
  v("burst_duty", c.burst_duty);
  v("mean_burst_samples", c.mean_burst_samples);
  v("cfo", c.cfo);
  v("cfo_hz", c.cfo_hz);
  v("cfo_drift_hz_per_s", c.cfo_drift_hz_per_s);
  v("phase_noise_std_rad", c.phase_noise_std_rad);
  v("clock_offset", c.clock_offset);
  v("clock_offset_ppm", c.clock_offset_ppm);
  v("quantization", c.quantization);
  v("quant_bits", c.quant_bits);
  v("quant_full_scale_rms", c.quant_full_scale_rms);
  v("faults", c.faults);
  v("truncate_fraction", c.truncate_fraction);
  v("sample_drop_prob", c.sample_drop_prob);
  v("sample_rate_hz", c.sample_rate_hz);
}

template <typename V, FieldsOf<mac::SymbolErrorModel> T>
void visit_fields(V& v, T& m) {
  v("payload_midpoint_db", m.payload_midpoint_db);
  v("payload_width_db", m.payload_width_db);
  v("preamble_midpoint_db", m.preamble_midpoint_db);
  v("preamble_width_db", m.preamble_width_db);
  v("preamble_max_error", m.preamble_max_error);
  v("sensitivity_width_db", m.sensitivity_width_db);
}

template <typename V, FieldsOf<sim::TimedFault> T>
void visit_fields(V& v, T& f) {
  v("kind", f.kind, kFaultKinds);
  v("node", f.node);
  v("at_us", f.at_us);
  v("duration_us", f.duration_us);
  v("magnitude", f.magnitude);
}

template <typename V, FieldsOf<sim::JammerConfig> T>
void visit_fields(V& v, T& j) {
  v("pos", j.pos);
  v("usrp_gain", j.usrp_gain);
  v("mean_on_us", j.mean_on_us);
  v("mean_off_us", j.mean_off_us);
}

template <typename V, FieldsOf<sim::RandomFaultConfig> T>
void visit_fields(V& v, T& r) {
  v("crash_rate_per_s", r.crash_rate_per_s);
  v("mean_downtime_us", r.mean_downtime_us);
  v("mute_rate_per_s", r.mute_rate_per_s);
  v("mean_mute_us", r.mean_mute_us);
  v("deaf_rate_per_s", r.deaf_rate_per_s);
  v("mean_deaf_us", r.mean_deaf_us);
  v("surge_rate_per_s", r.surge_rate_per_s);
  v("mean_surge_us", r.mean_surge_us);
  v("surge_magnitude", r.surge_magnitude);
}

template <typename V, FieldsOf<sim::ClockConfig> T>
void visit_fields(V& v, T& c) {
  v("skew_us", c.skew_us);
  v("drift_ppm", c.drift_ppm);
}

template <typename V, FieldsOf<sim::FaultPlanConfig> T>
void visit_fields(V& v, T& f) {
  v("timed", f.timed);
  v("jammers", f.jammers);
  v("random", f.random);
  v("clocks", f.clocks);
}

template <typename V, FieldsOf<sim::WifiNodeConfig> T>
void visit_fields(V& v, T& n) {
  v("tx", n.tx);
  v("rx", n.rx);
  v("usrp_gain", n.usrp_gain);
  v("channel", n.channel);
  v("mac", n.mac);
  v("traffic", n.traffic);
}

template <typename V, FieldsOf<sim::ZigbeeNodeConfig> T>
void visit_fields(V& v, T& n) {
  v("tx", n.tx);
  v("rx", n.rx);
  v("gain", n.gain);
  v("sensitivity_dbm", n.sensitivity_dbm);
  v("channel", n.channel);
  v("mac", n.mac);
  v("traffic", n.traffic);
}

template <typename V, FieldsOf<sim::FastPathConfig> T>
void visit_fields(V& v, T& f) {
  v("segment_runs", f.segment_runs);
  v("prune", f.prune);
  v("prune_floor_db", f.prune_floor_db);
  v("cross_check", f.cross_check);
}

template <typename V, FieldsOf<sim::InvariantConfig> T>
void visit_fields(V& v, T& i) {
  v("enabled", i.enabled);
  v("max_event_gap_us", i.max_event_gap_us);
}

// Runtime control plane (DESIGN.md §18).
template <typename V, FieldsOf<control::SledzigPolicyConfig> T>
void visit_fields(V& v, T& s) {
  v("enabled", s.enabled);
  v("on_threshold", s.on_threshold);
  v("off_threshold", s.off_threshold);
  v("busy_airtime_fraction", s.busy_airtime_fraction);
}

template <typename V, FieldsOf<control::HopPolicyConfig> T>
void visit_fields(V& v, T& h) {
  v("enabled", h.enabled);
  v("min_prr", h.min_prr);
  v("patience", h.patience);
  v("cooldown_epochs", h.cooldown_epochs);
}

template <typename V, FieldsOf<control::DutyPolicyConfig> T>
void visit_fields(V& v, T& d) {
  v("enabled", d.enabled);
  v("min_zigbee_prr", d.min_zigbee_prr);
  v("rate_scale", d.rate_scale);
  v("patience", d.patience);
  v("release", d.release);
}

template <typename V, FieldsOf<control::ControlConfig> T>
void visit_fields(V& v, T& c) {
  v("enabled", c.enabled);
  v("epoch_us", c.epoch_us);
  v("sledzig", c.sledzig);
  v("hop", c.hop);
  v("duty", c.duty);
}

/// The top level.  scenario_from_json reads it in three phases (see the
/// header): generator_input() and node_list() below pick the members of
/// phases 1 and 2, and phase 3 takes the rest.
template <typename V, FieldsOf<sim::ScenarioConfig> T>
void visit_fields(V& v, T& c) {
  v("duration_s", c.duration_s);
  v("seed", c.seed);
  v("sledzig_enabled", c.sledzig_enabled);
  v("sledzig", c.sledzig);
  v("shadowing_sigma_db", c.shadowing_sigma_db);
  v("wifi_capture_sinr_db", c.wifi_capture_sinr_db);
  v("queue_capacity", c.queue_capacity);
  v("record_trace", c.record_trace);
  v("wifi", c.wifi);
  v("zigbee", c.zigbee);
  v("impairment", c.impairment);
  v("error_model", c.error_model);
  v("faults", c.faults);
  v("fastpath", c.fastpath);
  v("invariants", c.invariants);
  v("control", c.control);
}

// --- ObjReader -------------------------------------------------------------

ObjReader::ObjReader(const JsonValue* v, std::string path,
                     std::vector<sim::ConfigError>* errors)
    : value_(v), path_(std::move(path)), errors_(errors) {
  if (value_ != nullptr && !value_->is_object()) {
    expect(false, *value_, path_.empty() ? "scenario" : path_, "an object");
    value_ = nullptr;
  }
  if (value_ != nullptr) consumed_.assign(value_->as_object().size(), false);
}

const JsonValue* ObjReader::child(const char* key) {
  if (value_ == nullptr) return nullptr;
  const auto& members = value_->as_object();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == key) {
      consumed_[i] = true;
      return &members[i].second;
    }
  }
  return nullptr;
}

std::string ObjReader::sub(const char* key) const {
  return path_.empty() ? key : path_ + "." + key;
}

void ObjReader::finish() {
  if (value_ == nullptr) return;
  const auto& members = value_->as_object();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!consumed_[i]) fail(sub(members[i].first.c_str()), "unknown key");
  }
}

bool ObjReader::expect(bool ok, const JsonValue& v, const std::string& path,
                       const char* what) {
  if (!ok) {
    fail(path, std::string("expected ") + what + ", got " + v.type_name());
  }
  return ok;
}

bool ObjReader::is_uint(const JsonValue& v, double ceiling) {
  return v.is_number() && v.as_number() >= 0.0 &&
         v.as_number() == std::floor(v.as_number()) &&
         v.as_number() <= ceiling;
}

bool ObjReader::lookup(const JsonValue& v, const std::string& path,
                       NameTable names, int* value) {
  if (v.is_string()) {
    for (const auto& p : names) {
      if (v.as_string() == p.name) {
        *value = p.value;
        return true;
      }
    }
  }
  std::string choices;
  for (const auto& p : names) {
    if (!choices.empty()) choices += "|";
    choices += p.name;
  }
  const std::string got =
      v.is_string() ? "'" + v.as_string() + "'" : v.type_name();
  fail(path, "unknown value " + got + " (expected one of " + choices + ")");
  return false;
}

void ObjReader::fail(const std::string& path, std::string message) {
  errors_->push_back({path, std::move(message)});
}

// --- scenario --------------------------------------------------------------

namespace {

/// Expands a "topology" generator object into *out (which already carries
/// the file's sledzig/duration/seed fields).  Returns false on errors.
bool topology_from_json(const JsonValue& v, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  ObjReader r(&v, "topology", errors);
  std::string generator;
  {
    const JsonValue* g = r.child("generator");
    if (g == nullptr || !g->is_string()) {
      errors->push_back({"topology.generator",
                         "expected \"two_node\", \"campus\" or "
                         "\"control_ab\""});
      r.finish();
      return false;
    }
    generator = g->as_string();
  }
  if (generator == "two_node") {
    double wifi_duty_ratio = 0.5, d_wz_m = 4.0, d_z_m = 1.0;
    r("wifi_duty_ratio", wifi_duty_ratio);
    r("d_wz_m", d_wz_m);
    r("d_z_m", d_z_m);
    r.finish();
    if (errors->size() != before) return false;
    *out = sim::two_node_paper_scenario(out->sledzig, out->sledzig_enabled,
                                        wifi_duty_ratio, d_wz_m, d_z_m,
                                        out->duration_s, out->seed);
    return true;
  }
  if (generator == "campus") {
    std::size_t gx = 4, gy = 4, sensors = 6;
    double spacing_m = 20.0;
    r("ap_grid_x", gx);
    r("ap_grid_y", gy);
    r("sensors_per_ap", sensors);
    r("spacing_m", spacing_m);
    r.finish();
    if (errors->size() != before) return false;
    const bool sledzig_on = out->sledzig_enabled;
    const core::SledzigConfig sledzig = out->sledzig;
    *out = sim::campus_scenario(gx, gy, sensors, spacing_m, out->duration_s,
                                out->seed);
    out->sledzig = sledzig;
    out->sledzig_enabled = sledzig_on;
    return true;
  }
  if (generator == "control_ab") {
    // The mixed-load two-BSS A/B testbed (DESIGN.md §18).  `controlled`
    // arms the runtime policies; the file's own "control" section still
    // overlays afterwards, so a campaign can refine epoch or thresholds.
    bool controlled = false;
    r("controlled", controlled);
    r.finish();
    if (errors->size() != before) return false;
    *out = sim::control_ab_scenario(controlled, out->duration_s, out->seed);
    return true;
  }
  errors->push_back({"topology.generator",
                     "unknown generator '" + generator +
                         "' (expected two_node|campus|control_ab)"});
  r.finish();
  return false;
}

/// Walks the ScenarioConfig table, reading only the members `pick`
/// accepts; records whether any of them was present.
template <typename Pick>
struct PhaseReader {
  ObjReader& r;
  Pick pick;
  bool any_present = false;

  template <typename T, typename... Names>
  void operator()(const char* key, T& member, Names... names) {
    if (pick(static_cast<const void*>(&member))) {
      any_present |= r(key, member, names...);
    }
  }
};

template <typename Pick>
bool read_phase(ObjReader& r, sim::ScenarioConfig* out, Pick pick) {
  PhaseReader<Pick> phase{r, pick};
  visit_fields(phase, *out);
  return phase.any_present;
}

}  // namespace

JsonValue scenario_to_json(const sim::ScenarioConfig& config) {
  return ObjWriter::value(config);
}

bool scenario_from_json(const JsonValue& json, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  *out = sim::ScenarioConfig{};
  ObjReader r(&json, "", errors);
  if (!r.present()) return false;

  // Member identity, not key spelling, selects a phase: the table stays
  // the one place a key is written.  A generator assigns *out in place,
  // so the addresses hold across all three phases.
  const sim::ScenarioConfig& c = *out;
  const auto generator_input = [&c](const void* m) {
    return m == &c.duration_s || m == &c.seed || m == &c.sledzig_enabled ||
           m == &c.sledzig;
  };
  const auto node_list = [&c](const void* m) {
    return m == &c.wifi || m == &c.zigbee;
  };

  // Phase 1: the fields a topology generator consumes.
  read_phase(r, out, generator_input);

  // Phase 2: topology — a generator or explicit node lists, never both.
  const JsonValue* topology = r.child("topology");
  const bool lists = read_phase(r, out, node_list);
  if (topology != nullptr && lists) {
    errors->push_back(
        {"topology",
         "a generator cannot be combined with explicit wifi[]/zigbee[] "
         "lists; keep one form"});
  } else if (topology != nullptr) {
    topology_from_json(*topology, out, errors);
  }

  // Phase 3: everything else overlays whatever topology produced.
  read_phase(r, out, [&](const void* m) {
    return !generator_input(m) && !node_list(m);
  });
  r.finish();

  // Semantic validation only once the shape parsed clean — validate() on a
  // half-parsed config would double-report the same fields.
  if (errors->size() == before) {
    auto semantic = out->validate();
    errors->insert(errors->end(), semantic.begin(), semantic.end());
  }
  return errors->size() == before;
}

bool scenario_from_text(const std::string& text, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  JsonValue root;
  JsonParseError perr;
  if (!json_parse(text, &root, &perr)) {
    errors->push_back({"<json>", perr.to_string()});
    return false;
  }
  return scenario_from_json(root, out, errors);
}

}  // namespace sledzig::campaign
