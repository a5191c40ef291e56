// fig16_campaign: campaign::run_campaign over a Fig 16-shaped sweep on a
// pool of min(4, nproc) threads, each sweep into fresh result stores.
// The sweep has four campaigns:
//
//   * Fig 16 for QAM-16 1/2, QAM-64 2/3 and QAM-256 3/4 (the pairs
//     bench_fig16 uses): SledZig off/on x 9 WiFi duty ratios, 2
//     replications of 40 s simulated each;
//   * the control_ab A/B grid (static vs controlled), likewise.
//
// The Fig 16 grid pairs each modulation with a rate the PHY supports: the
// committed examples/campaigns/fig16_sweep.json grids QAM-64 and QAM-256
// at the default rate 1/2, which the PHY rejects (see README.md).
//
// Checks: every sweep's store digests equal the first sweep's and a
// single-threaded replay of every item through the public campaign
// functions; every record's frame accounting is consistent (exact on the
// replay, where in_flight_at_end is visible).  The traced run times that
// replay stage by stage and closes it against a 1-thread run_campaign.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "campaign/result_store.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "coex/inband.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace perfbench {
namespace {

using namespace sledzig;

struct Mode {
  const char* modulation;
  const char* rate;
};
constexpr std::array<Mode, 3> kFig16Modes = {{
    {"qam16", "1/2"}, {"qam64", "2/3"}, {"qam256", "3/4"}}};
// Items of 40 s simulated take about 14 ms of host time, so the one fsync'd
// store append per item (0.1-2 ms on a shared disk, taken under the
// runner's append lock) stays a small share of the sweep and the disk does
// not set its pace.  A 4-thread sweep of 112 items takes about 0.45 s.
constexpr double kItemSimulatedS = 40.0;
constexpr int kReplications = 2;
// A sweep is one pass; its four run_campaign calls are the inputs, each
// counted at its median time over the sweeps.
// The traced run's ledger is a median over per-campaign pairs of a 1-thread
// run_campaign and its stage-by-stage replay, 4 pairs per sweep.
constexpr std::size_t kMinTracedSweeps = 3;

/// Campaign texts for one sweep; seeds derive from the workload seed.
std::vector<std::string> sweep_texts(std::uint64_t seed) {
  const auto part_seed = [&](std::size_t part) {
    return std::to_string(common::derive_seed(seed, part) % 1000000000000ull);
  };
  const std::string simulated_s = std::to_string(kItemSimulatedS);
  std::vector<std::string> texts;
  for (std::size_t m = 0; m < kFig16Modes.size(); ++m) {
    const Mode& mode = kFig16Modes[m];
    texts.push_back(
        std::string("{\"name\": \"fig16_") + mode.modulation + "\", \"seed\": " +
        part_seed(m) +
        ", \"replications\": " + std::to_string(kReplications) +
        ", \"scenario\": {\"duration_s\": " + simulated_s +
        ", \"sledzig\": {\"modulation\": \"" + mode.modulation +
        "\", \"rate\": \"" + mode.rate +
        "\", \"channel\": \"ch3\"}, \"topology\": {\"generator\": "
        "\"two_node\", \"wifi_duty_ratio\": 0.1, \"d_wz_m\": 1.0, "
        "\"d_z_m\": 0.5}}, \"grid\": [{\"path\": \"sledzig_enabled\", "
        "\"values\": [false, true]}, {\"path\": "
        "\"topology.wifi_duty_ratio\", \"values\": [0.1, 0.2, 0.3, 0.4, 0.5, "
        "0.6, 0.7, 0.8, 0.9]}]}");
  }
  texts.push_back(
      "{\"name\": \"control_ab\", \"seed\": " + part_seed(kFig16Modes.size()) +
      ", \"replications\": " + std::to_string(kReplications) +
      ", \"scenario\": {\"duration_s\": " + simulated_s +
      ", \"topology\": {\"generator\": \"control_ab\", \"controlled\": false}}, "
      "\"grid\": [{\"path\": \"topology.controlled\", \"values\": [false, "
      "true]}]}");
  return texts;
}
constexpr std::size_t kControlPart = kFig16Modes.size();

std::vector<campaign::CampaignSpec> parse_sweep(
    const std::vector<std::string>& texts) {
  std::vector<campaign::CampaignSpec> specs(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    std::vector<sim::ConfigError> errors;
    if (!campaign::campaign_from_text(texts[i], &specs[i], &errors)) {
      throw std::runtime_error("campaign spec " + std::to_string(i) +
                               " rejected: " + sim::describe(errors));
    }
  }
  return specs;
}

std::size_t items_of(const campaign::CampaignSpec& spec) {
  return campaign::cell_count(spec) * spec.replications;
}

/// Fresh store paths under the scratch directory.
class Stores {
 public:
  explicit Stores(std::string dir) : dir_(std::move(dir)) {}
  std::string next() {
    auto path = dir_ + "/fig16_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++) + ".jsonl";
    std::filesystem::remove(path);
    return path;
  }

 private:
  std::string dir_;
  std::size_t counter_ = 0;
};

double field(const campaign::JsonValue& tech, const char* key) {
  const auto* v = tech.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : -1.0;
}

/// Every record must account for its frames: generated covers delivered
/// plus every drop bucket (the remainder is in flight at the horizon,
/// which records do not carry).  Also sums events and ZigBee PRR.
struct StoreTotals {
  double events = 0.0;
  double zigbee_prr_sum = 0.0;
  std::size_t records = 0;
};

std::string check_store(const std::string& path, std::uint64_t campaign_hash,
                        StoreTotals* totals) {
  campaign::ScanResult scan;
  std::string error;
  if (!campaign::scan_store(path, campaign_hash, &scan, &error)) return error;
  for (const auto& rec : scan.records) {
    for (const char* tech : {"wifi", "zigbee"}) {
      const auto* t = rec.metrics.find(tech);
      if (t == nullptr) return "record without " + std::string(tech);
      const double settled = field(*t, "delivered") + field(*t, "queue_dropped") +
                             field(*t, "cca_dropped") +
                             field(*t, "retry_exhausted") +
                             field(*t, "lost_to_crash");
      if (field(*t, "generated") < settled) return "record accounting exceeds generated";
    }
    totals->events += field(rec.metrics, "events");
    totals->zigbee_prr_sum += field(*rec.metrics.find("zigbee"), "prr");
    ++totals->records;
  }
  return {};
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> part_s;  // wall time per campaign
  std::vector<std::uint64_t> digests;
  std::vector<std::string> stores;
};

/// One campaign through run_campaign into a fresh store; returns its wall
/// time.
double run_part(const campaign::CampaignSpec& spec, std::size_t threads,
                Stores& stores, Report& report, PassResult* pass) {
  campaign::RunnerOptions opts;
  opts.store_path = stores.next();
  opts.threads = threads;
  campaign::RunnerReport rep;
  std::vector<sim::ConfigError> errors;
  const auto t0 = Clock::now();
  const bool ok = campaign::run_campaign(spec, opts, &rep, &errors);
  const double wall_s = seconds_since(t0);
  pass->wall_s += wall_s;
  pass->part_s.push_back(wall_s);
  report.attempted += items_of(spec);
  if (!ok || !rep.complete || rep.items_run != items_of(spec)) {
    report.fail(spec.name + ": run_campaign failed: " + sim::describe(errors));
  }
  pass->digests.push_back(rep.digest);
  pass->stores.push_back(opts.store_path);
  return wall_s;
}

/// One sweep through run_campaign.
PassResult campaign_pass(const std::vector<campaign::CampaignSpec>& specs,
                         std::size_t threads, Stores& stores, Report& report) {
  PassResult pass;
  for (const auto& spec : specs) run_part(spec, threads, stores, report, &pass);
  return pass;
}

/// Stage totals of a single-threaded replay of campaign items.
struct Replay {
  double expand_s = 0.0, run_s = 0.0, record_s = 0.0, append_s = 0.0,
         digest_s = 0.0, wall_s = 0.0;
  double static_arm_s = 0.0, controlled_arm_s = 0.0;
  std::size_t items = 0;
  std::vector<std::uint64_t> digests;

  double item_s() const { return expand_s + run_s + record_s + append_s; }
  double stage_s() const { return item_s() + digest_s; }
  void add(const Replay& o) {
    expand_s += o.expand_s;
    run_s += o.run_s;
    record_s += o.record_s;
    append_s += o.append_s;
    digest_s += o.digest_s;
    wall_s += o.wall_s;
    static_arm_s += o.static_arm_s;
    controlled_arm_s += o.controlled_arm_s;
    items += o.items;
    digests.insert(digests.end(), o.digests.begin(), o.digests.end());
  }
};

/// What run_campaign does per item, one public function at a time, for
/// one campaign: cell_scenario -> run_scenario -> result_to_json +
/// record_to_line -> ResultStoreWriter::append, then scan_store +
/// store_digest.  `control` marks the control_ab campaign, whose cell 0 is
/// the static arm.
Replay replay_part(const campaign::CampaignSpec& spec, bool control,
                   Stores& stores, Report& report) {
  Replay rp;
  const auto t_part = Clock::now();
  const std::uint64_t hash = campaign::campaign_hash(spec);
  const std::string path = stores.next();
  std::string error;
  auto t = Clock::now();
  const auto lap = [&](double& total) {
    const auto now = Clock::now();
    total += seconds_between(t, now);
    t = now;
  };
  campaign::ResultStoreWriter writer(path);
  if (!writer.open(&error)) throw std::runtime_error(error);
  lap(rp.append_s);
  for (std::size_t k = 0; k < items_of(spec); ++k) {
    const std::size_t cell = k / spec.replications;
    const std::size_t rep = k % spec.replications;
    sim::ScenarioConfig config;
    std::vector<sim::ConfigError> errors;
    if (!campaign::cell_scenario(spec, cell, rep, &config, &errors)) {
      throw std::runtime_error(spec.name + ": " + sim::describe(errors));
    }
    lap(rp.expand_s);
    const auto result = sim::run_scenario(config);
    const auto run_start = t;
    lap(rp.run_s);
    if (control) {
      (cell == 0 ? rp.static_arm_s : rp.controlled_arm_s) +=
          seconds_between(run_start, t);
    }
    campaign::ResultRecord record;
    record.campaign = hash;
    record.cell = cell;
    record.rep = rep;
    record.metrics = campaign::result_to_json(result);
    const std::string line = campaign::record_to_line(record);
    lap(rp.record_s);
    if (!writer.append(record, &error)) throw std::runtime_error(error);
    lap(rp.append_s);
    ++rp.items;
    const std::string bad = check_accounting(result);
    if (!bad.empty() || line.empty()) {
      report.fail(spec.name + " item " + std::to_string(k) + ": " + bad);
    }
    t = Clock::now();  // the check is the benchmark's work, not a stage
  }
  campaign::ScanResult scan;
  if (!campaign::scan_store(path, hash, &scan, &error)) {
    throw std::runtime_error(error);
  }
  rp.digests.push_back(campaign::store_digest(hash, scan.records));
  lap(rp.digest_s);
  std::filesystem::remove(path);
  rp.wall_s = seconds_since(t_part);
  return rp;
}

void compare_digests(const std::vector<std::uint64_t>& want,
                     const std::vector<std::uint64_t>& got, const char* what,
                     Report& report) {
  ++report.attempted;
  if (want != got) report.fail(std::string("store digest differs: ") + what);
}

void remove_stores(const PassResult& pass) {
  for (const auto& path : pass.stores) std::filesystem::remove(path);
}

}  // namespace

Report run_fig16_campaign(const Args& args) {
  Report report;
  const std::size_t threads = std::min<std::size_t>(4, host_threads());
  const auto t_setup = Clock::now();
  const auto texts = sweep_texts(args.seed);
  const auto specs = parse_sweep(texts);
  const auto t_parsed = Clock::now();
  // Fill the PHY-measured in-band memo for every cell's configuration, so
  // each timed sweep does the same work.
  for (const auto& spec : specs) {
    for (std::size_t c = 0; c < campaign::cell_count(spec); ++c) {
      sim::ScenarioConfig cfg;
      std::vector<sim::ConfigError> errors;
      if (!campaign::cell_scenario(spec, c, 0, &cfg, &errors)) {
        throw std::runtime_error(sim::describe(errors));
      }
      coex::measure_inband_offsets(cfg.sledzig, true);
      coex::measure_inband_offsets(cfg.sledzig, false);
    }
  }
  const double parse_s = seconds_between(t_setup, t_parsed);
  const double inband_s = seconds_since(t_parsed);
  report.setup_s = seconds_since(t_setup);
  if (args.setup_only) return report;

  std::size_t items = 0;
  for (const auto& spec : specs) items += items_of(spec);
  Stores stores(args.tmp_dir);
  std::vector<std::uint64_t> reference;
  StoreTotals totals;
  std::vector<double> pass_s;
  std::vector<std::vector<double>> part_s;
  std::vector<double> ref_s;  // reference kernel per sweep
  auto& reg = obs::Registry::global();
  obs::Snapshot pool_snap;

  // The timed sweeps run back to back (a cold pool after single-threaded
  // work is slower, so the traced phases never interleave with them): the
  // whole window untraced, the first third when traced.
  const auto t_start = Clock::now();
  const auto t_end = t_start + std::chrono::duration<double>(args.seconds);
  const auto t_sweeps = args.trace ? t_start + (t_end - t_start) / 3 : t_end;
  do {
    ref_s.push_back(reference_seconds(threads));
    reg.reset();
    const PassResult pass = campaign_pass(specs, threads, stores, report);
    pool_snap = reg.snapshot();
    pass_s.push_back(pass.wall_s);
    part_s.push_back(pass.part_s);
    if (reference.empty()) {
      reference = pass.digests;
      for (std::size_t p = 0; p < specs.size(); ++p) {
        const std::string bad = check_store(
            pass.stores[p], campaign::campaign_hash(specs[p]), &totals);
        if (!bad.empty()) report.fail(specs[p].name + ": " + bad);
      }
    }
    compare_digests(reference, pass.digests, "sweep vs first sweep", report);
    remove_stores(pass);
  } while (Clock::now() < t_sweeps);

  // Then every campaign of the sweep is replayed stage by stage, which
  // checks the digests.  When traced, each replay is paired with a 1-thread
  // run_campaign of the same campaign, the two back to back in alternating
  // order.  Coverage and overhead are medians over these pairs: the host's
  // speed moves by 10 % within a second, so only two passes run side by
  // side compare like with like, and one fsync stall moves one pair.
  Replay traced;
  std::vector<double> coverages, overheads;
  std::size_t replayed_sweeps = 0;
  do {
    Replay sweep;
    PassResult serial;
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const bool serial_first = (replayed_sweeps + p) % 2 == 0;
      double wall_1 = 0.0;
      if (args.trace && serial_first) {
        wall_1 = run_part(specs[p], 1, stores, report, &serial);
      }
      const Replay part = replay_part(specs[p], p == kControlPart, stores, report);
      if (args.trace && !serial_first) {
        wall_1 = run_part(specs[p], 1, stores, report, &serial);
      }
      if (args.trace) {
        coverages.push_back(part.stage_s() / wall_1);
        overheads.push_back(part.wall_s / wall_1);
      }
      sweep.add(part);
    }
    compare_digests(reference, sweep.digests, "single-threaded replay", report);
    if (args.trace) {
      compare_digests(reference, serial.digests, "1-thread sweep", report);
      remove_stores(serial);
    }
    traced.add(sweep);
    ++replayed_sweeps;
  } while (args.trace &&
           (replayed_sweeps < kMinTracedSweeps || Clock::now() < t_end));

  add_pass_figures(report, part_s, ref_s, static_cast<double>(items));
  Figure items_per_s = report.end_to_end[0];
  items_per_s.name = "items_per_s";
  items_per_s.unit = "items/s";
  Figure events_per_s = items_per_s;
  events_per_s.name = "sim_events_per_s";
  events_per_s.unit = "events/s";
  events_per_s.value *= totals.events / static_cast<double>(items);
  report.summary.push_back(items_per_s);
  report.summary.push_back(events_per_s);
  report.summary.push_back(
      {"zigbee_prr", "ratio",
       totals.zigbee_prr_sum / static_cast<double>(std::max<std::size_t>(1, totals.records)),
       kNoSpread, totals.records});
  report.add_meta("threads", static_cast<double>(threads));
  report.add_meta("items_per_sweep", static_cast<double>(items));
  report.add_meta("sweeps", static_cast<double>(pass_s.size()));
  report.add_meta("simulated_s_per_item", kItemSimulatedS);

  if (args.trace) {
    const double n = static_cast<double>(traced.items);
    const double sweeps = static_cast<double>(replayed_sweeps);
    const double coverage = median(coverages);
    const auto count = [&](const obs::Snapshot& snap, const char* name) {
      return static_cast<double>(snap.counter(name));
    };
    report.layers = {
        {"campaign.parse_s", "s", parse_s},
        {"coex.inband_measure_s", "s", inband_s},
        {"campaign.expand_us", "us", traced.expand_s * 1e6 / n},
        {"campaign.item_run_us", "us", traced.run_s * 1e6 / n},
        {"campaign.record_us", "us", traced.record_s * 1e6 / n},
        {"campaign.store_append_us", "us", traced.append_s * 1e6 / n},
        {"campaign.store_digest_s", "s", traced.digest_s / sweeps},
        {"parallel.efficiency", "ratio",
         traced.item_s() / sweeps / (static_cast<double>(threads) * median(pass_s))},
        {"parallel.tasks", "count", count(pool_snap, "parallel.tasks")},
        {"parallel.batches", "count", count(pool_snap, "parallel.batches")},
        {"control.epochs", "count", count(pool_snap, "sim.events.control")},
        {"control.actions", "count", count(pool_snap, "sim.control.actions")},
        {"control.arm_cost_ratio", "ratio",
         traced.controlled_arm_s / traced.static_arm_s},
        {"ledger.campaign_coverage", "ratio", coverage},
        {"bench.trace_overhead", "ratio", median(overheads)},
    };
    add_sim_layers(report, pool_snap, traced.run_s / sweeps);
    if (std::abs(coverage - 1.0) > 0.10) {
      ++report.attempted;
      report.fail("campaign ledger does not close: stages cover " +
                  std::to_string(coverage * 100.0) +
                  " % of the 1-thread run_campaign time");
    }
  }
  return report;
}

}  // namespace perfbench
