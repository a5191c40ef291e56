#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/link_cache.h"
#include "wifi/signal_field.h"

namespace sledzig::sim {

double distance_m(const Position& a, const Position& b) {
  return std::max(0.1, std::hypot(a.x_m - b.x_m, a.y_m - b.y_m));
}

bool FaultPlanConfig::any() const {
  if (!timed.empty() || !jammers.empty()) return true;
  for (const auto& c : clocks) {
    if (c.skew_us != 0.0 || c.drift_ppm != 0.0) return true;
  }
  const auto& r = random;
  return r.crash_rate_per_s > 0.0 || r.mute_rate_per_s > 0.0 ||
         r.deaf_rate_per_s > 0.0 || r.surge_rate_per_s > 0.0;
}

std::string describe(const std::vector<ConfigError>& errors) {
  std::string out = "ScenarioConfig invalid:";
  for (const auto& e : errors) {
    out += "\n  " + e.field + ": " + e.message;
  }
  return out;
}

namespace {

bool finite(double x) { return std::isfinite(x); }

void check_position(std::vector<ConfigError>& errs, const std::string& field,
                    const Position& p) {
  if (!finite(p.x_m) || !finite(p.y_m)) {
    errs.push_back({field, "position must be finite"});
  }
}

void check_traffic(std::vector<ConfigError>& errs, const std::string& field,
                   const TrafficConfig& t) {
  switch (t.kind) {
    case TrafficKind::kSaturated:
      break;
    case TrafficKind::kCbr:
    case TrafficKind::kPoisson:
      if (!(t.interval_us > 0.0) || !finite(t.interval_us)) {
        errs.push_back({field + ".interval_us", "must be finite and > 0"});
      }
      break;
    case TrafficKind::kDutyCycle:
      // duty_ratio == 0 means "a source that is on 0% of the time", i.e. a
      // run that silently produces nothing — reject it here instead.
      if (!(t.duty_ratio > 0.0) || t.duty_ratio > 1.0 ||
          !finite(t.duty_ratio)) {
        errs.push_back({field + ".duty_ratio", "must be in (0, 1]"});
      }
      break;
  }
}

}  // namespace

std::vector<ConfigError> ScenarioConfig::validate() const {
  std::vector<ConfigError> errs;
  if (!(duration_s > 0.0) || !finite(duration_s)) {
    errs.push_back({"duration_s", "must be finite and > 0"});
  }
  if (queue_capacity < 1) {
    errs.push_back({"queue_capacity", "must be >= 1"});
  }
  if (wifi.empty() && zigbee.empty()) {
    errs.push_back({"wifi/zigbee", "topology is empty: nothing to simulate"});
  }
  if (!finite(shadowing_sigma_db.value()) || shadowing_sigma_db.value() < 0.0) {
    errs.push_back({"shadowing_sigma_db", "must be finite and >= 0"});
  }
  if (!finite(wifi_capture_sinr_db.value())) {
    errs.push_back({"wifi_capture_sinr_db", "must be finite"});
  }
  // SledZig lowers the power of chosen constellation points, so it needs a
  // constellation with more than one power level.
  const bool sledzig_may_engage =
      sledzig_enabled || (control.enabled && control.sledzig.enabled);
  if (sledzig_may_engage && (sledzig.modulation == wifi::Modulation::kBpsk ||
                             sledzig.modulation == wifi::Modulation::kQpsk)) {
    errs.push_back({"sledzig.modulation",
                    "SledZig needs QAM-16, QAM-64 or QAM-256"});
  }
  if (!wifi::rate_supported(sledzig.modulation, sledzig.rate)) {
    errs.push_back({"sledzig.rate", "rate " + wifi::to_string(sledzig.rate) +
                                        " is not supported with " +
                                        wifi::to_string(sledzig.modulation)});
  }

  const std::size_t num_nodes = wifi.size() + zigbee.size();
  for (std::size_t i = 0; i < wifi.size(); ++i) {
    const std::string field = "wifi[" + std::to_string(i) + "]";
    const auto& n = wifi[i];
    check_position(errs, field + ".tx", n.tx);
    check_position(errs, field + ".rx", n.rx);
    if (!finite(n.usrp_gain)) {
      errs.push_back({field + ".usrp_gain", "must be finite (NaN power)"});
    }
    if (!(n.mac.airtime_us > 0.0) || !finite(n.mac.airtime_us)) {
      errs.push_back({field + ".mac.airtime_us", "must be finite and > 0"});
    }
    if (n.channel > 13) {
      errs.push_back({field + ".channel", "must be 0 (legacy) or 1..13"});
    }
    check_traffic(errs, field + ".traffic", n.traffic);
  }
  for (std::size_t j = 0; j < zigbee.size(); ++j) {
    const std::string field = "zigbee[" + std::to_string(j) + "]";
    const auto& n = zigbee[j];
    check_position(errs, field + ".tx", n.tx);
    check_position(errs, field + ".rx", n.rx);
    if (n.gain > 31) {
      errs.push_back({field + ".gain", "must be a CC2420 PA level 0..31"});
    }
    if (!finite(n.sensitivity_dbm.value())) {
      errs.push_back({field + ".sensitivity_dbm", "must be finite"});
    }
    if (n.mac.payload_octets == 0) {
      errs.push_back({field + ".mac.payload_octets", "must be >= 1"});
    }
    if (n.channel != 0 && (n.channel < 11 || n.channel > 26)) {
      errs.push_back({field + ".channel", "must be 0 (legacy) or 11..26"});
    }
    check_traffic(errs, field + ".traffic", n.traffic);
  }

  if (!finite(fastpath.prune_floor_db.value())) {
    errs.push_back({"fastpath.prune_floor_db", "must be finite"});
  }

  // --- fault plan ---
  for (std::size_t k = 0; k < faults.timed.size(); ++k) {
    const std::string field = "faults.timed[" + std::to_string(k) + "]";
    const auto& f = faults.timed[k];
    if (!finite(f.at_us) || f.at_us < 0.0) {
      errs.push_back({field + ".at_us", "must be finite and >= 0"});
    }
    if (!finite(f.duration_us)) {
      errs.push_back({field + ".duration_us", "must be finite"});
    }
    const bool is_jam = f.kind == FaultKind::kJamOn;
    const std::size_t domain = is_jam ? faults.jammers.size() : num_nodes;
    if (f.node >= domain) {
      errs.push_back({field + ".node",
                      is_jam ? "jammer index out of range"
                             : "node index out of range"});
    }
    if (f.kind == FaultKind::kSurgeOn &&
        (!(f.magnitude > 0.0) || !finite(f.magnitude))) {
      errs.push_back({field + ".magnitude", "must be finite and > 0"});
    }
  }
  for (std::size_t k = 0; k < faults.jammers.size(); ++k) {
    const std::string field = "faults.jammers[" + std::to_string(k) + "]";
    const auto& jm = faults.jammers[k];
    check_position(errs, field + ".pos", jm.pos);
    if (!finite(jm.usrp_gain)) {
      errs.push_back({field + ".usrp_gain", "must be finite (NaN power)"});
    }
    if (!finite(jm.mean_on_us) || !finite(jm.mean_off_us) ||
        jm.mean_on_us < 0.0 || jm.mean_off_us < 0.0 ||
        (jm.mean_on_us > 0.0) != (jm.mean_off_us > 0.0)) {
      errs.push_back({field + ".mean_on_us/mean_off_us",
                      "must be finite, >= 0, and enabled together"});
    }
  }
  {
    const auto& r = faults.random;
    const auto check_process = [&](const char* name, double rate,
                                   double mean) {
      if (!finite(rate) || rate < 0.0) {
        errs.push_back({std::string("faults.random.") + name + "_rate_per_s",
                        "must be finite and >= 0"});
      }
      if (rate > 0.0 && (!finite(mean) || !(mean > 0.0))) {
        errs.push_back({std::string("faults.random.mean_") + name + "_us",
                        "must be finite and > 0 when the rate is > 0"});
      }
    };
    check_process("crash", r.crash_rate_per_s, r.mean_downtime_us);
    check_process("mute", r.mute_rate_per_s, r.mean_mute_us);
    check_process("deaf", r.deaf_rate_per_s, r.mean_deaf_us);
    check_process("surge", r.surge_rate_per_s, r.mean_surge_us);
    if (r.surge_rate_per_s > 0.0 &&
        (!finite(r.surge_magnitude) || !(r.surge_magnitude > 0.0))) {
      errs.push_back(
          {"faults.random.surge_magnitude", "must be finite and > 0"});
    }
  }
  if (faults.clocks.size() > num_nodes) {
    errs.push_back({"faults.clocks", "more clock entries than nodes"});
  }
  for (std::size_t k = 0; k < faults.clocks.size(); ++k) {
    const std::string field = "faults.clocks[" + std::to_string(k) + "]";
    const auto& c = faults.clocks[k];
    if (!finite(c.skew_us)) {
      errs.push_back({field + ".skew_us", "must be finite"});
    }
    // The drift factor 1 + ppm * 1e-6 must stay positive or timers would
    // fire in the past.
    if (!finite(c.drift_ppm) || c.drift_ppm <= -1e6) {
      errs.push_back({field + ".drift_ppm", "must be finite and > -1e6"});
    }
  }
  if (invariants.max_event_gap_us < 0.0 ||
      !finite(invariants.max_event_gap_us)) {
    errs.push_back({"invariants.max_event_gap_us", "must be finite and >= 0"});
  }

  // --- control plane ---
  if (control.enabled) {
    if (!(control.epoch_us > 0.0) || !finite(control.epoch_us)) {
      errs.push_back({"control.epoch_us", "must be finite and > 0"});
    }
    if (control.sledzig.enabled) {
      if (control.sledzig.on_threshold < 1) {
        errs.push_back({"control.sledzig.on_threshold", "must be >= 1"});
      }
      if (control.sledzig.off_threshold < 1) {
        errs.push_back({"control.sledzig.off_threshold", "must be >= 1"});
      }
      if (!finite(control.sledzig.busy_airtime_fraction) ||
          control.sledzig.busy_airtime_fraction < 0.0) {
        errs.push_back({"control.sledzig.busy_airtime_fraction",
                        "must be finite and >= 0"});
      }
    }
    if (control.hop.enabled) {
      if (!finite(control.hop.min_prr) || control.hop.min_prr < 0.0 ||
          control.hop.min_prr > 1.0) {
        errs.push_back({"control.hop.min_prr", "must be in [0, 1]"});
      }
      if (control.hop.patience < 1) {
        errs.push_back({"control.hop.patience", "must be >= 1"});
      }
    }
    if (control.duty.enabled) {
      if (!finite(control.duty.min_zigbee_prr) ||
          control.duty.min_zigbee_prr < 0.0 ||
          control.duty.min_zigbee_prr > 1.0) {
        errs.push_back({"control.duty.min_zigbee_prr", "must be in [0, 1]"});
      }
      if (!(control.duty.rate_scale > 0.0) ||
          control.duty.rate_scale > 1.0 ||
          !finite(control.duty.rate_scale)) {
        errs.push_back({"control.duty.rate_scale", "must be in (0, 1]"});
      }
      if (control.duty.patience < 1) {
        errs.push_back({"control.duty.patience", "must be >= 1"});
      }
      if (control.duty.release < 1) {
        errs.push_back({"control.duty.release", "must be >= 1"});
      }
    }
  }
  return errs;
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig two_node_paper_scenario(const core::SledzigConfig& sledzig,
                                       bool sledzig_on,
                                       double wifi_duty_ratio, double d_wz_m,
                                       double d_z_m, double duration_s,
                                       std::uint64_t seed) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  ScenarioConfig cfg;
  cfg.sledzig = sledzig;
  cfg.sledzig_enabled = sledzig_on;
  cfg.duration_s = duration_s;
  cfg.seed = seed;

  WifiNodeConfig ap;
  ap.tx = {0.0, 0.0};
  ap.rx = {0.0, 3.0};  // the served station; uncontested in this geometry
  if (wifi_duty_ratio >= 1.0) {
    ap.traffic = {TrafficKind::kSaturated, 0.0, 1.0};
  } else {
    ap.traffic = {TrafficKind::kDutyCycle, 0.0, wifi_duty_ratio};
  }
  cfg.wifi.push_back(ap);

  ZigbeeNodeConfig mote;
  mote.tx = {d_wz_m, 0.0};
  mote.rx = {d_wz_m, d_z_m};
  // The paper's closed-loop source: ~one frame per 6.3 ms (processing +
  // mean CSMA + frame airtime), the 63 Kbps interference-free ceiling.
  mote.traffic = {TrafficKind::kCbr, 6346.0, 1.0};
  cfg.zigbee.push_back(mote);
  return cfg;
}

ScenarioConfig control_ab_scenario(bool controlled, double duration_s,
                                   std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.sledzig_enabled = true;
  cfg.duration_s = duration_s;
  cfg.seed = seed;

  // The congested cell: an 80% duty BSS with four ZigBee pairs 2..5 m from
  // its transmitter, one per 2 MHz overlap window.  Only the window
  // cfg.sledzig.channel selects is SledZig-protected, so three of the four
  // motes face the full-power flat-PSD slice — the coexistence gap the
  // controller exists to close.
  WifiNodeConfig heavy;
  heavy.tx = {0.0, 0.0};
  heavy.rx = {0.0, 3.0};
  heavy.channel = 1;
  heavy.traffic = {TrafficKind::kDutyCycle, 0.0, 0.8};
  cfg.wifi.push_back(heavy);

  // The quiet cell, far enough that its windows are attractive hop targets
  // but close enough that its spectrum is genuinely shared.
  WifiNodeConfig light;
  light.tx = {16.0, 0.0};
  light.rx = {16.0, 3.0};
  light.channel = 11;
  light.traffic = {TrafficKind::kDutyCycle, 0.0, 0.1};
  cfg.wifi.push_back(light);

  for (std::size_t k = 0; k < core::kAllOverlapChannels.size(); ++k) {
    ZigbeeNodeConfig mote;
    mote.tx = {2.0 + static_cast<double>(k), 1.0};
    mote.rx = {2.0 + static_cast<double>(k), 2.0};
    mote.channel = overlapping_zigbee_channel(heavy.channel,
                                              core::kAllOverlapChannels[k]);
    mote.traffic = {TrafficKind::kCbr, 25000.0, 1.0};
    cfg.zigbee.push_back(mote);
  }

  if (controlled) {
    cfg.control.enabled = true;
    cfg.control.epoch_us = 100000.0;
    cfg.control.sledzig.enabled = true;
    cfg.control.sledzig.on_threshold = 1;  // no first-epoch disengage blip
    cfg.control.sledzig.off_threshold = 3;
    cfg.control.hop.enabled = true;
    cfg.control.hop.min_prr = 0.9;
    cfg.control.hop.patience = 2;
    cfg.control.hop.cooldown_epochs = 5;
  }
  return cfg;
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig campus_scenario(std::size_t ap_grid_x, std::size_t ap_grid_y,
                               std::size_t sensors_per_ap, double spacing_m,
                               double duration_s, std::uint64_t seed) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  ScenarioConfig cfg;
  cfg.sledzig_enabled = true;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  cfg.wifi.reserve(ap_grid_x * ap_grid_y);
  cfg.zigbee.reserve(ap_grid_x * ap_grid_y * sensors_per_ap);

  // The classic dense-deployment plan: the three non-overlapping 20 MHz
  // channels tiled so adjacent cells never share one.
  constexpr unsigned kChannelPlan[3] = {1, 6, 11};

  for (std::size_t iy = 0; iy < ap_grid_y; ++iy) {
    for (std::size_t ix = 0; ix < ap_grid_x; ++ix) {
      const double x = static_cast<double>(ix) * spacing_m;
      const double y = static_cast<double>(iy) * spacing_m;
      WifiNodeConfig ap;
      ap.tx = {x, y};
      ap.rx = {x + 2.0, y + 1.0};
      ap.channel = kChannelPlan[(ix + iy) % 3];
      ap.traffic = {TrafficKind::kDutyCycle, 0.0, 0.35};
      cfg.wifi.push_back(ap);

      // Sensors ring the AP, each parked in one of the four 2 MHz overlap
      // windows of its cell's WiFi channel — the SledZig coexistence
      // geometry, repeated per cell.
      for (std::size_t s = 0; s < sensors_per_ap; ++s) {
        const double dx = 2.0 + 3.0 * static_cast<double>(s % 3);
        const double dy = 3.0 + 3.0 * static_cast<double>(s / 3);
        ZigbeeNodeConfig mote;
        mote.tx = {x + dx, y + dy};
        mote.rx = {x + dx, y + dy + 1.0};
        mote.channel = overlapping_zigbee_channel(
            ap.channel, core::kAllOverlapChannels[s % 4]);
        mote.traffic = {TrafficKind::kCbr, 25000.0, 1.0};
        cfg.zigbee.push_back(mote);
      }
    }
  }
  return cfg;
}

}  // namespace sledzig::sim
