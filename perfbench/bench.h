// Shared plumbing for the benchmark binary: arguments, clocks, sample
// statistics and the one-line JSON report each workload fills in.
//
// Every workload times the simulator from outside, around calls into its
// public API; nothing here reaches into src/ beyond what the headers
// export, the obs::Registry counters and the SLEDZIG_PROFILE sites.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace sledzig::obs {
struct Snapshot;
}
namespace sledzig::sim {
struct SimResult;
}

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set up the workload, report the set-up time and exit.
  bool setup_only = false;
  /// Directory for scratch files (campaign result stores).
  std::string tmp_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample set;
/// 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Interquartile range over the median: the run-to-run spread measure the
/// benchmark reports for every metric it derives from several samples;
/// kNoSpread for fewer than two.
double spread(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Number of hardware threads the host reports.
unsigned host_threads();

/// What a figure's spread reads when there is no second sample to take it
/// over (printed as JSON null).
inline constexpr double kNoSpread = std::numeric_limits<double>::quiet_NaN();

/// One named figure the benchmark reports, with its unit and, when it was
/// derived from several samples, their spread and count.
struct Figure {
  std::string name;
  std::string unit;
  double value = 0.0;
  double spread = kNoSpread;
  std::size_t samples = 1;
};

/// What a workload hands back to main() for printing.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for the first few failures.
  std::vector<std::string> failures;
  double setup_s = 0.0;
  /// The contract's end-to-end metrics: work_per_s, op_p50_ms, op_tail_ms.
  std::vector<Figure> end_to_end;
  /// The workload's own figures under their own names (frames_per_s,
  /// sim_events_per_s, items_per_s, zigbee_prr, ...), printed for people.
  std::vector<Figure> summary;
  /// Per-layer metrics (traced runs only).
  std::vector<Figure> layers;
  /// Extra run metadata as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> meta;

  void fail(std::string why);
  void add_meta(std::string key, double value);
  void add_meta(std::string key, const std::string& text);
};

/// The tail quantile of op_tail_ms on every workload.
inline constexpr double kTailQuantile = 0.9;
/// The run's passes are cut into this many chunks to give each end-to-end
/// figure a spread within the run.
inline constexpr std::size_t kSpreadChunks = 4;

/// The reference kernel: a dependent floating-point chain of this many
/// steps, about 6 ms of one vCPU of the development host when it is quiet.
inline constexpr int kReferenceSteps = 2000000;
/// The reference time every timing is scaled to.
inline constexpr double kReferenceNominalS = 6e-3;

/// Host seconds the reference kernel takes, run on `threads` threads at
/// once (the mean over them).  The workloads time it between passes with
/// as many threads as they run, to track how fast the shared host is.
double reference_seconds(std::size_t threads);

/// Adds the end-to-end figures of a closed loop that runs the same inputs
/// pass after pass; pass_seconds[pass][input] is host time, and
/// reference_s[pass] the reference kernel's time beside that pass.
///
/// Each input counts at its median time over the passes, and every time is
/// scaled by kReferenceNominalS over the reference kernel's median time:
/// the shared host's speed moves by tens of percent between runs and the
/// kernel's time moves with it, so the scaled figures compare the code,
/// not the moment.  work_per_s is the work of one pass over the sum of the
/// scaled medians; op_p50_ms and op_tail_ms (quantile `tail`) are their
/// distribution over the inputs.  Each figure's spread is taken over
/// kSpreadChunks chunks of passes.  The summary gets the unscaled rate and
/// the reference kernel's median time.
void add_pass_figures(Report& report,
                      const std::vector<std::vector<double>>& pass_seconds,
                      const std::vector<double>& reference_s,
                      double work_per_pass, double tail = kTailQuantile);

/// Empty when every node's frames balance (generated == delivered + drops
/// + in flight), else what is wrong.
std::string check_accounting(const sledzig::sim::SimResult& result);

/// Engine per-layer metrics from a registry snapshot taken over runs that
/// took `run_s` host seconds in run_scenario.
void add_sim_layers(Report& report, const sledzig::obs::Snapshot& snap,
                    double run_s);

Report run_frame_phy(const Args& args);
Report run_campus_1100(const Args& args);
Report run_fig16_campaign(const Args& args);

}  // namespace perfbench
