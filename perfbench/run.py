#!/usr/bin/env python3
"""The repository benchmark: builds its binary, runs one workload and prints
its metrics.

    python3 perfbench/run.py --workload frame_phy --seed 1 --seconds 25 --trace 0

Run from the repository root.  The binary (perfbench/*.cc) is built from
../src into $CARGO_TARGET_DIR (default .bench_build) with the repository's
default RelWithDebInfo flags.  Set-up is timed in the main run and in
SETUP_PROBES fresh processes, and reported as the median.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the
per-layer ones (layers a workload leaves idle read 0).  The lines before it
are a human-readable report and a run-metadata JSON line.

    python3 perfbench/run.py --benchmark-json    # the BENCHMARK.json contract

Exit status is 0 when the run completed (failed operations are reported in
the result, not as an exit code) and 1 when the build or the binary failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BUILD_TYPE = "RelWithDebInfo"
RUN_SECONDS = 25
SETUP_PROBES = 8  # fresh set-up processes besides the main run
BINARY_SLACK_S = 100  # time the binary may take beyond --seconds

# The workloads BENCHMARK.json lists, with why each was chosen.
WORKLOADS = {
    "frame_phy": "SledZig frame round trips on the sample-domain PHY; only wifi, sledzig, channel and fft work",
    "campus_1100": "1100-node campus runs on one thread: event queue, CSMA, arbiter and link cache far above L2",
    "fig16_campaign": "Fig 16 + control A/B sweeps via run_campaign on 4 threads: spec expansion, JSON, fsync'd store, pool, control",
}

# name -> (unit, better, bound).  Every workload reports each of them for
# its own inputs and work unit (README.md).  All but peak_rss_mb are host
# times, scaled by a reference kernel timed beside them; on this shared
# host they still drift by up to 15 % between quiet and loaded stretches,
# hence the widest bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

_PHY = ("frame_phy",)
_CAMPUS = ("campus_1100",)
_CAMPAIGN = ("fig16_campaign",)
_SIM = _CAMPUS + _CAMPAIGN
_ALL = tuple(WORKLOADS)

# name -> (unit, better, workloads that exercise the layer)
PER_LAYER = {
    "sledzig.encode_us": ("us", "lower", _PHY),
    "sledzig.decode_us": ("us", "lower", _PHY),
    "sledzig.overhead_ratio": ("ratio", "lower", _PHY),
    "wifi.tx.scramble_us": ("us", "lower", _PHY),
    "wifi.tx.conv_encode_us": ("us", "lower", _PHY),
    "wifi.tx.puncture_us": ("us", "lower", _PHY),
    "wifi.tx.interleave_us": ("us", "lower", _PHY),
    "wifi.tx.qam_map_us": ("us", "lower", _PHY),
    "wifi.tx.ofdm_us": ("us", "lower", _PHY),
    "wifi.tx.framing_us": ("us", "lower", _PHY),
    "channel.mix_us": ("us", "lower", _PHY),
    "channel.rssi_2mhz_us": ("us", "lower", _PHY),
    "wifi.rx.sync_us": ("us", "lower", _PHY),
    "wifi.rx.chan_est_us": ("us", "lower", _PHY),
    "wifi.rx.signal_us": ("us", "lower", _PHY),
    "wifi.rx.ofdm_fft_us": ("us", "lower", _PHY),
    "wifi.rx.demap_us": ("us", "lower", _PHY),
    "wifi.rx.deinterleave_us": ("us", "lower", _PHY),
    "wifi.rx.viterbi_us": ("us", "lower", _PHY),
    "wifi.rx.descramble_us": ("us", "lower", _PHY),
    "ledger.phy_coverage": ("ratio", "higher", _PHY),
    "sim.scenario_gen_s": ("s", "lower", _CAMPUS),
    "coex.inband_measure_s": ("s", "lower", _SIM),
    "sim.link_cache_build_s": ("s", "lower", _CAMPUS),
    "sim.run_s": ("s", "lower", _SIM),
    "sim.ns_per_event": ("ns", "lower", _SIM),
    "sim.events.arrival": ("count", "lower", _SIM),
    "sim.events.timer": ("count", "lower", _SIM),
    "sim.events.tx_end": ("count", "lower", _SIM),
    "sim.frames.cca_dropped": ("count", "lower", _SIM),
    "sim.timer.stale_ratio": ("ratio", "lower", _SIM),
    "sim.delivered_per_attempt": ("ratio", "higher", _SIM),
    "sim.profiled_run_share": ("ratio", "higher", _CAMPUS),
    "campaign.parse_s": ("s", "lower", _CAMPAIGN),
    "campaign.expand_us": ("us", "lower", _CAMPAIGN),
    "campaign.item_run_us": ("us", "lower", _CAMPAIGN),
    "campaign.record_us": ("us", "lower", _CAMPAIGN),
    "campaign.store_append_us": ("us", "lower", _CAMPAIGN),
    "campaign.store_digest_s": ("s", "lower", _CAMPAIGN),
    "parallel.efficiency": ("ratio", "higher", _CAMPAIGN),
    "parallel.tasks": ("count", "higher", _CAMPAIGN),
    "parallel.batches": ("count", "lower", _CAMPAIGN),
    "control.epochs": ("count", "lower", _CAMPAIGN),
    "control.actions": ("count", "lower", _CAMPAIGN),
    "control.arm_cost_ratio": ("ratio", "lower", _CAMPAIGN),
    "ledger.campaign_coverage": ("ratio", "higher", _CAMPAIGN),
    "bench.trace_overhead": ("ratio", "lower", _ALL),
}


class BenchError(Exception):
    pass


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b, _) in PER_LAYER.items()
        ],
    }


def build_binary(root):
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    log = build.parent / "perfbench-build.log"
    build.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                # A half-configured tree would poison the next attempt.
                if cmd[1] == "-S":
                    shutil.rmtree(build, ignore_errors=True)
                tail = log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return build / "perfbench", build.parent / "tmp"


def run_binary(binary, args, tmp, env, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", str(tmp), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env,
                          timeout=args.seconds + BINARY_SLACK_S)
    if proc.returncode != 0:
        raise BenchError(f"benchmark binary exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """IQR over the median; None (JSON null) without a second sample."""
    if len(values) < 2:
        return None
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else None


def spread_text(value):
    return "n/a" if value is None else f"{value:.3f}"


def per_layer_metrics(workload, layers):
    """Every layer of the table, 0 where this workload leaves it idle."""
    got = {f["name"]: f["value"] for f in layers}
    want = {n for n, (_, _, owners) in PER_LAYER.items() if workload in owners}
    if set(got) != want:
        raise BenchError(f"reported layers differ from the table: "
                         f"missing {sorted(want - set(got))}, "
                         f"unknown {sorted(set(got) - want)}")
    return {n: {"value": got.get(n, 0.0), "unit": u}
            for n, (u, _, _) in PER_LAYER.items()}


def result_metrics(args, out, setups):
    if args.trace:
        return per_layer_metrics(args.workload, out["layers"])
    metrics = {f["name"]: {"value": f["value"], "unit": f["unit"]}
               for f in out["end_to_end"]}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if set(metrics) != set(END_TO_END):
        raise BenchError(f"reported end-to-end metrics {sorted(metrics)} "
                         f"differ from the table")
    return {n: metrics[n] for n in END_TO_END}


def report(args, out, setups):
    metrics = result_metrics(args, out, setups)
    failed, attempted = out["failed"], out["attempted"]
    figures = out["end_to_end"] + out["summary"]
    meta = dict(out["meta"])
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, build_type=BUILD_TYPE,
                setup_repeats=len(setups), setup_spread=spread(setups),
                spreads={f["name"]: f["spread"] for f in figures},
                repeats={f["name"]: f["samples"] for f in figures})

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, {meta.get('threads')} thread(s) of "
          f"{meta.get('nproc')}, {BUILD_TYPE}")
    print(f"  {'setup_s':<24}{statistics.median(setups):>14.6g} s"
          f"   median of {len(setups)}, spread {spread_text(spread(setups))}")
    for f in figures:
        print(f"  {f['name']:<24}{f['value']:>14.6g} {f['unit']:<9}"
              f"   n={f['samples']}, spread {spread_text(f['spread'])}")
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<24}{rate:>14.6g} failed/ops   ({failed} of {attempted})")
    for why in out["failures"]:
        print(f"  FAILED: {why}")
    for f in out["layers"]:
        print(f"  {f['name']:<32}{f['value']:>14.6g} {f['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")

    root = Path(__file__).resolve().parent.parent
    try:
        if not (root / "src" / "CMakeLists.txt").is_file():
            raise BenchError(f"no simulator sources under {root / 'src'}")
        binary, tmp = build_binary(root)
        tmp.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if k not in ("SLEDZIG_PROFILE", "SLEDZIG_THREADS")}
        if args.trace:
            env["SLEDZIG_PROFILE"] = "1"  # enables the "sim.run" profile site
        setups = [run_binary(binary, args, tmp, env, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        out = run_binary(binary, args, tmp, env)
        setups.append(out["setup_s"])
        report(args, out, setups)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
