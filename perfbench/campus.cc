// campus_1100: one sim::campus_scenario(10, 10, 10, 20 m) world (100 APs,
// 1000 ZigBee sensors) run through the fast path on one thread, the
// simulated world starting empty on every run.  Host set-up is
// campus_scenario + coex::measure_inband_offsets + sim::LinkCache::build;
// the PHY runs only there.
//
// Each run must reproduce the first run's trace digest and keep every
// node's frame accounting exact.  The traced run (started with
// SLEDZIG_PROFILE=1) alternates untraced and traced runs; a traced run
// reads the obs::Registry counters and the "sim.run" profile site.

#include <cmath>
#include <sstream>
#include <string>

#include "bench.h"
#include "coex/inband.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/engine.h"
#include "sim/link_cache.h"
#include "sim/scenario.h"

namespace perfbench {
namespace {

using namespace sledzig;

constexpr std::size_t kGrid = 10;
constexpr std::size_t kSensorsPerAp = 10;
constexpr double kSpacingM = 20.0;
// A run of 1 s simulated takes about 1 s of host time, 90 % of it in the
// event loop.  Shorter runs would give more samples, but below 1 s the
// peak RSS turns bimodal by seed (README.md).  Every run is the same
// input, so op_p50_ms and op_tail_ms both read the median run time.
constexpr double kDurationS = 1.0;  // simulated
constexpr std::size_t kMinRuns = 3;

/// Total nanoseconds recorded so far by the profile site `name` (0 when
/// profiling is off or the site has not run).
double profiled_seconds(const char* name) {
  std::ostringstream text;
  obs::profile_report(text);
  std::istringstream lines(text.str());
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string site, calls_word, ms_word;
    double calls = 0.0, total_ms = 0.0;
    if (fields >> site >> calls >> calls_word >> total_ms >> ms_word &&
        site == name) {
      return total_ms * 1e-3;
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean_zigbee_prr(const sim::SimResult& r) {
  double sum = 0.0;
  for (const auto& n : r.zigbee) sum += n.prr;
  return r.zigbee.empty() ? 0.0 : sum / static_cast<double>(r.zigbee.size());
}

}  // namespace

std::string check_accounting(const sim::SimResult& r) {
  for (const auto* nodes : {&r.wifi, &r.zigbee}) {
    for (const auto& n : *nodes) {
      if (n.generated != n.delivered + n.queue_dropped + n.cca_dropped +
                             n.retry_exhausted + n.lost_to_crash +
                             n.in_flight_at_end) {
        return "frame accounting does not balance";
      }
    }
  }
  return {};
}

void add_sim_layers(Report& report, const obs::Snapshot& snap, double run_s) {
  const auto count = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  report.layers.push_back({"sim.run_s", "s", run_s});
  report.layers.push_back(
      {"sim.ns_per_event", "ns", ratio(run_s * 1e9, count("sim.events"))});
  for (const char* name :
       {"sim.events.arrival", "sim.events.timer", "sim.events.tx_end",
        "sim.frames.cca_dropped"}) {
    report.layers.push_back({name, "count", count(name)});
  }
  report.layers.push_back(
      {"sim.timer.stale_ratio", "ratio",
       ratio(count("sim.timer.stale"), count("sim.events.timer"))});
  report.layers.push_back(
      {"sim.delivered_per_attempt", "ratio",
       ratio(count("sim.frames.delivered"), count("sim.tx.attempts"))});
}

Report run_campus_1100(const Args& args) {
  Report report;
  const auto t0 = Clock::now();
  auto cfg = sim::campus_scenario(kGrid, kGrid, kSensorsPerAp, kSpacingM,
                                  kDurationS, args.seed);
  const auto t1 = Clock::now();
  coex::measure_inband_offsets(cfg.sledzig, true);
  coex::measure_inband_offsets(cfg.sledzig, false);
  const auto t2 = Clock::now();
  cfg.link_cache = sim::LinkCache::build(cfg);
  const auto t3 = Clock::now();
  report.setup_s = seconds_between(t0, t3);
  if (args.setup_only) return report;

  std::vector<std::vector<double>> run_s;  // one input per pass
  std::vector<double> traced_run_s;
  std::vector<double> ref_s;  // reference kernel per run
  double events = 0.0;
  double untraced_total = 0.0, traced_total = 0.0, profiled_share = 0.0;
  obs::Snapshot snap;
  std::uint64_t digest = 0;
  double prr = 0.0;
  const auto check = [&](const sim::SimResult& r, std::size_t run) {
    ++report.attempted;
    const std::string bad = check_accounting(r);
    if (run == 0) digest = r.trace_digest;
    if (!bad.empty()) {
      report.fail("run " + std::to_string(run) + ": " + bad);
    } else if (r.trace_digest != digest) {
      report.fail("run " + std::to_string(run) + ": trace digest differs");
    }
    prr = mean_zigbee_prr(r);
  };
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::size_t run = 0; run < kMinRuns || Clock::now() < t_end; ++run) {
    ref_s.push_back(reference_seconds(1));
    const auto a = Clock::now();
    const auto r = sim::run_scenario(cfg);
    const double dt = seconds_since(a);
    run_s.push_back({dt});
    events = static_cast<double>(r.events_processed);
    untraced_total += dt;
    check(r, run);
    if (!args.trace) continue;

    auto& reg = obs::Registry::global();
    reg.reset();
    const double prof0 = profiled_seconds("sim.run");
    const auto b = Clock::now();
    const auto traced = sim::run_scenario(cfg);
    const double traced_dt = seconds_since(b);
    snap = reg.snapshot();
    profiled_share = (profiled_seconds("sim.run") - prof0) / traced_dt;
    traced_run_s.push_back(traced_dt);
    traced_total += traced_dt;
    check(traced, run + 1);
  }

  add_pass_figures(report, run_s, ref_s, events);
  Figure events_per_s = report.end_to_end[0];
  events_per_s.name = "sim_events_per_s";
  events_per_s.unit = "events/s";
  report.summary.push_back(events_per_s);
  report.summary.push_back({"zigbee_prr", "ratio", prr, kNoSpread, cfg.zigbee.size()});
  report.add_meta("threads", 1.0);
  report.add_meta("runs", static_cast<double>(run_s.size()));
  report.add_meta("nodes", static_cast<double>(cfg.wifi.size() + cfg.zigbee.size()));
  report.add_meta("simulated_s_per_run", kDurationS);
  report.add_meta("trace_digest", std::to_string(digest));

  if (args.trace) {
    report.layers.push_back({"sim.scenario_gen_s", "s", seconds_between(t0, t1)});
    report.layers.push_back({"coex.inband_measure_s", "s", seconds_between(t1, t2)});
    report.layers.push_back({"sim.link_cache_build_s", "s", seconds_between(t2, t3)});
    add_sim_layers(report, snap, median(traced_run_s));
    report.layers.push_back({"sim.profiled_run_share", "ratio", profiled_share});
    report.layers.push_back(
        {"bench.trace_overhead", "ratio", traced_total / untraced_total});
  }
  return report;
}

}  // namespace perfbench
