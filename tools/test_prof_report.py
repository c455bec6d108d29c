#!/usr/bin/env python3
"""Unit tests for tools/prof_report.py.

Feeds synthetic smtu-profile-v1 documents (bare and embedded in a bench
report) through the show/diff subcommands and checks table contents and
exit codes. Run directly or via ctest (test name: prof_report_unit).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
PROF_REPORT = os.path.join(TOOLS_DIR, "prof_report.py")


def profile(cycles=100, histogram_cycles=60):
    remainder = cycles - histogram_cycles - 10
    return {
        "schema": "smtu-profile-v1",
        "cycles": cycles,
        "runs": 1,
        "buckets": {
            "busy_scalar": remainder,
            "busy_vmem_indexed": histogram_cycles,
            "stall_raw_hazard": 10,
        },
        "fu": {
            "scalar": {"instructions": 5, "occupancy_cycles": remainder,
                       "idle_cycles": cycles - remainder,
                       "occupancy": remainder / cycles},
            "vmem_indexed": {"instructions": 2,
                             "occupancy_cycles": histogram_cycles,
                             "idle_cycles": cycles - histogram_cycles,
                             "occupancy": histogram_cycles / cycles},
        },
        "opcodes": {"v_ldx": {"issued": 2, "retired": 2, "elements": 128,
                              "busy_cycles": histogram_cycles,
                              "stall_cycles": 0}},
        "regions": [{"name": "histogram", "issued": 2,
                     "busy_cycles": histogram_cycles, "stall_cycles": 0}],
        "lines": [
            {"line": 7, "text": "v_ldx vr1, r2, vr0", "region": "histogram",
             "issued": 2, "busy_cycles": histogram_cycles, "stall_cycles": 0,
             "stalls": {}},
            {"line": 3, "text": "addi r1, r1, 1", "region": "",
             "issued": 5, "busy_cycles": remainder, "stall_cycles": 10,
             "stalls": {"raw_hazard": 10}},
        ],
    }


def bench_report(prof):
    return {
        "schema": "smtu-bench-v1",
        "bench": "unit",
        "matrices": [
            {"name": "m0", "nnz": 10, "hism_cycles": 1, "crs_cycles": 2,
             "profile": {"hism": prof, "crs": prof}},
        ],
    }


def scaling_report():
    def point(cores, cycles):
        per_core = []
        for core in range(cores):
            per_core.append({
                "core": core, "cycles": cycles,
                "busy": {"scalar": cycles - 40, "vmem_stream": 10},
                "stalls": {"raw_hazard": 5, "barrier_wait": 20,
                           "mem_bank_contention": 5 if cores > 1 else 0,
                           "stm_busy": 5 if cores > 1 else 10},
            })
        return {"cores": cores, "cycles": cycles, "speedup": 200 / cycles,
                "barriers": 2,
                "memory": {"requests": 8, "contended_requests": cores - 1,
                           "contention_cycles": 5 * (cores - 1)},
                "per_core": per_core}
    kernels = {"hism_sharded": [point(1, 200), point(2, 110)],
               "crs_parallel": [point(1, 300), point(2, 160)]}
    return {
        "schema": "smtu-scaling-v1",
        "bench": "ext_multicore_scaling",
        "matrices": [{"name": "m0", "set": "locality", "nnz": 10,
                      "kernels": kernels}],
        "summary": {},
    }


def hostmicro_report():
    """What bench/micro_host --interp-json writes: per kernel class
    host-throughput records under host.dispatch."""
    def record(name, insts_per_sec, cycles_per_sec):
        return {"name": name, "runs": 100, "wall_ms": 205.0,
                "insts_per_sec": insts_per_sec,
                "cycles_per_sec": cycles_per_sec}
    return {
        "schema": "smtu-hostmicro-v1",
        "host": {"dispatch": [
            record("hism_transpose", 20.0e6, 160.0e6),
            record("sell_spmv", 12.0e6, 90.0e6),
        ]},
    }


def telemetry_doc():
    """What --telemetry-json writes: an smtu-telemetry-v1 document with the
    three metric families (docs/TELEMETRY.md)."""
    return {
        "schema": "smtu-telemetry-v1",
        "counters": {
            "cache.program.hits_total": 59,
            "cache.program.misses_total": 3,
            "cache.stage.hits_total": 30,
            "cache.stage.misses_total": 30,
            "pool.tasks_total": 220,
        },
        "gauges": {"pool.queue_depth_peak": 4},
        "histograms": {
            "bench.item_wall_us": {
                "count": 60, "sum": 120000, "min": 90, "max": 9000,
                "p50": 1500, "p90": 4000, "p95": 6000, "p99": 9000,
                "buckets": [{"le": 2047, "n": 40}, {"le": 16383, "n": 20}],
            },
        },
    }


def run_show_with_telemetry(doc):
    """Run `show --telemetry=DOC.json` on a synthetic document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "telemetry.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        result = subprocess.run(
            [sys.executable, PROF_REPORT, "show", f"--telemetry={path}"],
            capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def run_show_with_serve(doc):
    """Run `show --serve=DOC.json` on a synthetic document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        result = subprocess.run(
            [sys.executable, PROF_REPORT, "show", f"--serve={path}"],
            capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def serve_doc():
    """What smtu_serve --json writes: an smtu-serve-v1 report
    (docs/SERVING.md) with its virtual/host sections."""
    virtual = {
        "admitted_requests": 590, "shed_requests": 10,
        "coalesced_requests": 68, "warm_requests": 487,
        "simulated_requests": 35, "distinct_sims": 35,
        "max_queue_depth": 64, "sim_cycles": 2000000,
        "offered_cycles": 19000000, "first_arrival_vus": 9,
        "makespan_vus": 10545,
    }
    for metric in ("queue", "service", "total"):
        for point, value in (("min", 0), ("p50", 20), ("p90", 30),
                             ("p95", 146), ("p99", 179), ("max", 187)):
            virtual[f"{metric}_{point}_vus"] = value
        virtual[f"{metric}_mean_vus"] = 22.6
    return {
        "schema": "smtu-serve-v1",
        "trace": {"seed": 1, "set": "locality", "scale": 0.05,
                  "requests": 600, "arrival_mode": "poisson",
                  "zipf_skew": 1.0, "rate_rps": 60000.0},
        "options": {"queue_depth": 64, "virtual_workers": 4,
                    "cycles_per_us": 1000, "replay_vus": 20},
        "virtual": virtual,
        "host": {"jobs": 1, "simulations": 35, "wall_us": 30905.0,
                 "req_per_sec": 19414.0, "sim_wall_us": 28000.0},
    }


def run_show_with_host(host_doc, profile_doc=None, flags=()):
    """Run `show [PROFILE] --host=HOST.json` on synthetic documents."""
    with tempfile.TemporaryDirectory() as tmp:
        host_path = os.path.join(tmp, "host.json")
        with open(host_path, "w", encoding="utf-8") as handle:
            json.dump(host_doc, handle)
        argv = [sys.executable, PROF_REPORT, "show"]
        if profile_doc is not None:
            profile_path = os.path.join(tmp, "profile.json")
            with open(profile_path, "w", encoding="utf-8") as handle:
                json.dump(profile_doc, handle)
            argv.append(profile_path)
        argv.append(f"--host={host_path}")
        argv.extend(flags)
        result = subprocess.run(argv, capture_output=True, text=True,
                                check=False)
    return result.returncode, result.stdout + result.stderr


def run_tool_with_flags(command, docs, flags):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, doc in enumerate(docs):
            path = os.path.join(tmp, f"doc{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            paths.append(path)
        result = subprocess.run(
            [sys.executable, PROF_REPORT, command, *paths, *flags],
            capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


class ProfReportShow(unittest.TestCase):
    def test_bare_profile_tables(self):
        code, out = run_tool_with_flags("show", [profile()], [])
        self.assertEqual(code, 0, out)
        self.assertIn("100 cycles", out)
        self.assertIn("busy_vmem_indexed", out)
        self.assertIn("histogram", out)
        # hottest line first: the indexed load dominates
        self.assertLess(out.index("v_ldx"), out.index("addi"), out)

    def test_zero_buckets_hidden(self):
        code, out = run_tool_with_flags("show", [profile()], [])
        self.assertEqual(code, 0, out)
        self.assertNotIn("stall_stm_busy", out)

    def test_conservation_warning(self):
        broken = profile()
        broken["buckets"]["busy_scalar"] += 1
        code, out = run_tool_with_flags("show", [broken], [])
        self.assertEqual(code, 0, out)
        self.assertIn("WARNING", out)

    def test_bench_report_selects_kernel(self):
        doc = bench_report(profile())
        code, out = run_tool_with_flags("show", [doc], ["--kernel=crs"])
        self.assertEqual(code, 0, out)
        self.assertIn("m0/crs", out)
        self.assertNotIn("m0/hism", out)

    def test_bench_report_without_profile_fails(self):
        doc = bench_report(profile())
        del doc["matrices"][0]["profile"]
        code, out = run_tool_with_flags("show", [doc], [])
        self.assertEqual(code, 2, out)
        self.assertIn("--profile", out)

    def test_top_limits_lines(self):
        code, out = run_tool_with_flags("show", [profile()], ["--top=1"])
        self.assertEqual(code, 0, out)
        self.assertIn("v_ldx", out)
        self.assertNotIn("addi", out)


class ProfReportScaling(unittest.TestCase):
    def test_rollup_sums_buckets_across_cores(self):
        code, out = run_tool_with_flags("show", [scaling_report()],
                                        ["--kernel=hism_sharded"])
        self.assertEqual(code, 0, out)
        self.assertIn("m0/hism_sharded N=1", out)
        self.assertIn("m0/hism_sharded N=2", out)
        self.assertNotIn("crs_parallel", out)
        # N=2: two cores x 20 barrier-wait cycles summed in the rollup.
        self.assertIn("stall_barrier_wait", out)
        self.assertIn("40", out)
        # no per-core table without the flag
        self.assertNotIn("top stall", out)

    def test_per_core_table(self):
        code, out = run_tool_with_flags(
            "show", [scaling_report()],
            ["--per-core", "--kernel=crs_parallel", "--matrix=m0"])
        self.assertEqual(code, 0, out)
        self.assertIn("top stall", out)
        self.assertIn("barrier_wait", out)
        self.assertIn("bank-contention", out)

    def test_unknown_kernel_fails(self):
        code, out = run_tool_with_flags("show", [scaling_report()],
                                        ["--kernel=nope"])
        self.assertEqual(code, 2, out)
        self.assertIn("scaling record", out)


class ProfReportHost(unittest.TestCase):
    def test_host_alone_renders_throughput(self):
        # The CI invocation: `show --host host_interp.json`, no profile.
        code, out = run_show_with_host(hostmicro_report())
        self.assertEqual(code, 0, out)
        self.assertIn("host interpreter throughput", out)
        # One row per kernel class: name, insts/s, sim-cycles/s.
        self.assertIn("hism_transpose", out)
        self.assertIn("20.00M", out)
        self.assertIn("160.00M", out)
        self.assertIn("sell_spmv", out)
        self.assertIn("12.00M", out)
        self.assertNotIn("dispatch", out)

    def test_host_prints_after_simulated_rollups(self):
        code, out = run_show_with_host(hostmicro_report(),
                                       profile_doc=profile())
        self.assertEqual(code, 0, out)
        self.assertIn("100 cycles", out)
        self.assertIn("insts/s", out)
        # Simulated-cycle rollups first, host throughput after.
        self.assertLess(out.index("100 cycles"),
                        out.index("host interpreter throughput"), out)

    def test_wrong_schema_under_host_fails(self):
        # A bare profile handed to --host is a usage error, not a silent
        # empty table.
        code, out = run_show_with_host(profile())
        self.assertEqual(code, 2, out)
        self.assertIn("smtu-hostmicro-v1", out)
        self.assertNotIn("Traceback", out)
        self.assertEqual(len(out.strip().splitlines()), 1, out)

    def test_hostmicro_without_records_fails_cleanly(self):
        # Right schema but no host.dispatch list (e.g. a truncated artifact):
        # same one-line usage error, never a stack trace.
        doc = {"schema": "smtu-hostmicro-v1", "host": {}}
        code, out = run_show_with_host(doc)
        self.assertEqual(code, 2, out)
        self.assertNotIn("Traceback", out)
        self.assertEqual(len(out.strip().splitlines()), 1, out)

    def test_show_without_any_input_fails(self):
        result = subprocess.run([sys.executable, PROF_REPORT, "show"],
                                capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("--host", result.stderr)


class ProfReportTelemetry(unittest.TestCase):
    def test_standalone_document_renders_all_tables(self):
        code, out = run_show_with_telemetry(telemetry_doc())
        self.assertEqual(code, 0, out)
        self.assertIn("host telemetry", out)
        # counter + gauge rows (gauges tagged as peaks)
        self.assertIn("pool.tasks_total", out)
        self.assertIn("220", out)
        self.assertIn("4 (peak)", out)
        # histogram row: count, percentiles, mean = 120000/60
        self.assertIn("bench.item_wall_us", out)
        self.assertIn("1500", out)
        self.assertIn("2000.0", out)
        # cache hit-rate rollup: 59/(59+3) and 30/(30+30)
        self.assertIn("cache hit rates:", out)
        self.assertIn("95.2%", out)
        self.assertIn("50.0%", out)

    def test_block_memo_hit_ratio(self):
        # Hits and fast-forwarded iterations both skip the timing pass:
        # (30 + 60) / (30 + 60 + 10).
        doc = telemetry_doc()
        doc["counters"].update({"vsim.block_memo.hits_total": 30,
                                "vsim.block_memo.fast_forward_total": 60,
                                "vsim.block_memo.misses_total": 10})
        code, out = run_show_with_telemetry(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("block-timing memo:", out)
        self.assertIn("90.0%", out)
        # Without the counters (an observed-only run) the table is absent.
        code, out = run_show_with_telemetry(telemetry_doc())
        self.assertEqual(code, 0, out)
        self.assertNotIn("block-timing memo", out)

    def test_embedded_telemetry_section_renders(self):
        # A bench/repro report produced with --telemetry carries the same
        # object under its "telemetry" key.
        doc = bench_report(profile())
        doc["telemetry"] = telemetry_doc()
        code, out = run_show_with_telemetry(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("cache hit rates:", out)
        self.assertIn("95.2%", out)

    def test_missing_telemetry_fails_with_one_line(self):
        # A report without a telemetry section is a usage error: one clear
        # line on stderr and exit 2, not a stack trace.
        doc = bench_report(profile())
        code, out = run_show_with_telemetry(doc)
        self.assertEqual(code, 2, out)
        self.assertIn("smtu-telemetry-v1", out)
        self.assertNotIn("Traceback", out)
        self.assertEqual(len(out.strip().splitlines()), 1, out)

    def test_empty_histogram_renders_dash_mean(self):
        doc = telemetry_doc()
        doc["histograms"]["vsim.run_us"] = {
            "count": 0, "sum": 0, "min": 0, "max": 0,
            "p50": 0, "p90": 0, "p95": 0, "p99": 0, "buckets": [],
        }
        code, out = run_show_with_telemetry(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("vsim.run_us", out)


class ProfReportServe(unittest.TestCase):
    def test_serve_report_renders_all_tables(self):
        code, out = run_show_with_serve(serve_doc())
        self.assertEqual(code, 0, out)
        # latency percentile table: the three metrics with their p99s
        self.assertIn("virtual-time latency", out)
        self.assertIn("queue", out)
        self.assertIn("service", out)
        self.assertIn("179", out)
        # outcome rollup with shares over admitted + shed
        self.assertIn("warm (result cache)", out)
        self.assertIn("81.2%", out)  # 487/600
        self.assertIn("shed (queue full)", out)
        # dedup rollup: 19000000 / 2000000
        self.assertIn("9.50x", out)
        # host line is labeled as never gated
        self.assertIn("never gated", out)
        self.assertIn("19414", out)

    def test_shed_count_visible(self):
        doc = serve_doc()
        doc["virtual"]["shed_requests"] = 128
        doc["virtual"]["admitted_requests"] = 472
        code, out = run_show_with_serve(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("128", out)
        self.assertIn("21.3%", out)  # 128/600 shed share

    def test_missing_serve_section_fails_with_one_line(self):
        # A non-serve document is a usage error: one clear line on stderr
        # and exit 2, not a stack trace.
        doc = bench_report(profile())
        code, out = run_show_with_serve(doc)
        self.assertEqual(code, 2, out)
        self.assertIn("smtu-serve-v1", out)
        self.assertNotIn("Traceback", out)
        self.assertEqual(len(out.strip().splitlines()), 1, out)

    def test_serve_without_host_section_renders(self):
        # The host section is optional (a purely virtual replay): the
        # virtual tables must still render.
        doc = serve_doc()
        del doc["host"]
        code, out = run_show_with_serve(doc)
        self.assertEqual(code, 0, out)
        self.assertIn("virtual-time latency", out)
        self.assertNotIn("never gated", out)


class ProfReportDiff(unittest.TestCase):
    def test_identical_profiles(self):
        code, out = run_tool_with_flags("diff", [profile(), profile()], [])
        self.assertEqual(code, 0, out)
        self.assertIn("identical", out)

    def test_moved_cycles_reported(self):
        code, out = run_tool_with_flags(
            "diff", [profile(histogram_cycles=60), profile(histogram_cycles=40)],
            [])
        self.assertEqual(code, 0, out)
        self.assertIn("busy_vmem_indexed", out)
        self.assertIn("-20", out)
        self.assertIn("region histogram", out)
        self.assertIn("line movers", out)

    def test_missing_profile_in_new_fails(self):
        doc = bench_report(profile())
        solo = {"schema": "smtu-bench-v1", "matrices": [
            {"name": "m0", "profile": {"hism": profile()}}]}
        code, out = run_tool_with_flags("diff", [doc, solo], [])
        self.assertEqual(code, 2, out)
        self.assertIn("missing", out)


if __name__ == "__main__":
    unittest.main()
