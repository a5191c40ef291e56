// Benchmark binary: runs one workload for a fixed host-time window and
// prints one JSON line for run.py, which adds the set-up median from
// fresh processes and formats the contract's result line.
//
//   perfbench --workload frame_phy --seed 1 --seconds 10 --trace 0
//             [--setup-only] [--tmp-dir DIR]
//
// Exit codes: 0 ran (failed operations are reported, not fatal), 2 bad
// arguments, 3 the workload threw.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double spread(const std::vector<double>& values) {
  const double mid = median(values);
  if (values.size() < 2 || mid == 0.0) return kNoSpread;
  return (quantile(values, 0.75) - quantile(values, 0.25)) / std::abs(mid);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void Report::fail(std::string why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(why));
}

void Report::add_meta(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  meta.emplace_back(std::move(key), buf);
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string figures_json(const std::vector<Figure>& figures) {
  std::string out = "[";
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const Figure& f = figures[i];
    if (i > 0) out += ",";
    out += "{\"name\":" + quoted(f.name) + ",\"unit\":" + quoted(f.unit) +
           ",\"value\":" + number(f.value) + ",\"spread\":" +
           number(f.spread) + ",\"samples\":" + std::to_string(f.samples) +
           "}";
  }
  return out + "]";
}

std::string report_json(const Args& args, const Report& r) {
  std::string out = "{\"workload\":" + quoted(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"setup_s\":" + number(r.setup_s);
  if (!args.setup_only) {
    out += ",\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) + ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      out += (i > 0 ? "," : "") + quoted(r.failures[i]);
    }
    out += "],\"end_to_end\":" + figures_json(r.end_to_end) +
           ",\"summary\":" + figures_json(r.summary) +
           ",\"layers\":" + figures_json(r.layers) + ",\"meta\":{";
    for (std::size_t i = 0; i < r.meta.size(); ++i) {
      out += (i > 0 ? "," : "") + quoted(r.meta[i].first) + ":" +
             r.meta[i].second;
    }
    out += "}";
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--tmp-dir") {
      args->tmp_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

void Report::add_meta(std::string key, const std::string& text) {
  meta.emplace_back(std::move(key), quoted(text));
}

double reference_seconds(std::size_t threads) {
  std::vector<double> took(threads);
  const auto work = [&](std::size_t t) {
    const auto t0 = Clock::now();
    double a = 1.0, b = 0.5;
    for (int i = 0; i < kReferenceSteps; ++i) {
      a = a * 1.0000001 + b;
      b = b * 0.9999999 + 1e-9 * a;
    }
    took[t] = seconds_since(t0);
    volatile double sink = a + b;
    (void)sink;
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (auto& th : pool) th.join();
  double sum = 0.0;
  for (double s : took) sum += s;
  return sum / static_cast<double>(threads);
}

void add_pass_figures(Report& report,
                      const std::vector<std::vector<double>>& pass_seconds,
                      const std::vector<double>& reference_s,
                      double work_per_pass, double tail) {
  // The figures of the passes [first, last): each input at its median
  // time, scaled by the reference kernel's median over the same passes.
  const auto figures = [&](std::size_t first, std::size_t last) {
    std::vector<double> mid(pass_seconds[first].size());
    for (std::size_t i = 0; i < mid.size(); ++i) {
      std::vector<double> times;
      for (std::size_t p = first; p < last; ++p) times.push_back(pass_seconds[p][i]);
      mid[i] = median(times);
    }
    const std::vector<double> ref(reference_s.begin() + static_cast<long>(first),
                                  reference_s.begin() + static_cast<long>(last));
    const double scale = kReferenceNominalS / median(ref);
    double total = 0.0;
    for (double s : mid) total += s;
    return std::array<double, 4>{work_per_pass / (total * scale),
                                 median(mid) * scale * 1e3,
                                 quantile(mid, tail) * scale * 1e3,
                                 work_per_pass / total};
  };
  const std::size_t passes = pass_seconds.size();
  const auto all = figures(0, passes);
  std::array<std::vector<double>, 4> per_chunk;
  if (passes >= kSpreadChunks) {
    for (std::size_t c = 0; c < kSpreadChunks; ++c) {
      const auto f = figures(c * passes / kSpreadChunks,
                             (c + 1) * passes / kSpreadChunks);
      for (std::size_t k = 0; k < f.size(); ++k) per_chunk[k].push_back(f[k]);
    }
  }
  const char* names[3] = {"work_per_s", "op_p50_ms", "op_tail_ms"};
  const char* units[3] = {"1/s", "ms", "ms"};
  for (std::size_t k = 0; k < 3; ++k) {
    report.end_to_end.push_back(
        {names[k], units[k], all[k], spread(per_chunk[k]), passes});
  }
  report.summary.push_back(
      {"unscaled_work_per_s", "1/s", all[3], spread(per_chunk[3]), passes});
  report.summary.push_back({"reference_ms", "ms", median(reference_s) * 1e3,
                            spread(reference_s), reference_s.size()});
  report.add_meta("passes", static_cast<double>(passes));
  report.add_meta("inputs_per_pass", static_cast<double>(pass_seconds[0].size()));
  report.add_meta("tail_percentile", tail * 100.0);
  report.add_meta("reference_nominal_ms", kReferenceNominalS * 1e3);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--tmp-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  Report report;
  try {
    if (args.workload == "frame_phy") {
      report = run_frame_phy(args);
    } else if (args.workload == "campus_1100") {
      report = run_campus_1100(args);
    } else if (args.workload == "fig16_campaign") {
      report = run_fig16_campaign(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 3;
  }
  if (!args.setup_only) {
    report.end_to_end.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
  }
  report.add_meta("nproc", static_cast<double>(host_threads()));
  std::printf("%s\n", report_json(args, report).c_str());
  return 0;
}
