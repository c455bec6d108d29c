#!/usr/bin/env python3
"""Assert that reproduce_all is deterministic across --jobs values.

Usage:
    tools/check_repro_determinism.py PATH/TO/reproduce_all [--scale=0.02]
                                     [--jobs A B ...] [--profile]
                                     [--telemetry]

Runs the binary once per jobs value (default: 1 and 4) and asserts the
smtu-repro-v1 JSON artifacts are identical after stripping the host-timing
keys (any key containing "wall_ms", plus the "harness", "host", and
"telemetry" sections). Everything else — cycle counts, speedups,
utilization grids, full RunStats — must match exactly; a single differing
leaf fails the check.

--profile additionally passes --profile to every run, so each per-matrix
record carries a full smtu-profile-v1 section (cycle attribution, stall
taxonomy, per-line counters — docs/PROFILING.md) that is held to the same
bit-identical standard.

--telemetry additionally runs the binary once more with host telemetry
collection on (docs/TELEMETRY.md) and asserts the artifact is bit-identical
to the telemetry-off reference after the strip — i.e. instrumentation only
*adds* the skipped "telemetry" section and never perturbs a simulated
metric (threshold 0, in bench_diff terms).

--serve SMTU_SERVE TRACE additionally replays the given smtu-trace-v1 file
through the serving driver once per jobs value and holds the smtu-serve-v1
reports to the same standard: everything outside the "host"/"telemetry"
sections — the whole "virtual" section, every _vus latency, every
scheduler counter — must be bit-identical across -j values
(docs/SERVING.md determinism contract).

Exit status: 0 identical, 1 mismatch, 2 usage/run failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def strip_timing(value):
    """Recursively drop nondeterministic host-timing keys."""
    if isinstance(value, dict):
        return {
            key: strip_timing(child)
            for key, child in value.items()
            if key not in ("harness", "host", "telemetry")
            and "wall_ms" not in key and "wall_us" not in key
            and "per_sec" not in key
        }
    if isinstance(value, list):
        return [strip_timing(child) for child in value]
    return value


def run_once(binary, scale, jobs, tmp, profile=False, tag="", telemetry=False):
    report = os.path.join(tmp, f"report_j{jobs}{tag}.md")
    artifact = os.path.join(tmp, f"repro_j{jobs}{tag}.json")
    command = [binary, f"--scale={scale}", f"--jobs={jobs}",
               f"--out={report}", f"--json={artifact}"]
    if profile:
        command.append("--profile")
    if telemetry:
        command.append("--telemetry")
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        print(f"check_repro_determinism: {' '.join(command)} failed "
              f"(exit {result.returncode}):\n{result.stderr}", file=sys.stderr)
        sys.exit(2)
    with open(artifact, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_serve(binary, trace, jobs, tmp):
    artifact = os.path.join(tmp, f"serve_j{jobs}.json")
    command = [binary, f"--replay={trace}", f"--jobs={jobs}",
               f"--json={artifact}"]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        print(f"check_repro_determinism: {' '.join(command)} failed "
              f"(exit {result.returncode}):\n{result.stderr}", file=sys.stderr)
        sys.exit(2)
    with open(artifact, "r", encoding="utf-8") as handle:
        return json.load(handle)


def first_difference(a, b, path=""):
    """Dotted path of the first differing leaf, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} (missing on one side)"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if a == b else f"{path} ({a!r} vs {b!r})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary", help="path to the reproduce_all binary")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--profile", action="store_true",
                        help="run with --profile and hold the per-matrix "
                             "profile sections to the same determinism bar")
    parser.add_argument("--telemetry", action="store_true",
                        help="also run with --telemetry and assert the "
                             "artifact identical to the telemetry-off "
                             "reference (instrumentation must not perturb "
                             "any simulated metric)")
    parser.add_argument("--serve", nargs=2, metavar=("SMTU_SERVE", "TRACE"),
                        help="also replay TRACE through the smtu_serve binary "
                             "once per jobs value and assert the smtu-serve-v1 "
                             "reports' deterministic sections are identical")
    args = parser.parse_args()

    if len(args.jobs) < 2:
        print("check_repro_determinism: need at least two --jobs values",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        docs = {jobs: run_once(args.binary, args.scale, jobs, tmp, args.profile)
                for jobs in args.jobs}
        telemetry_doc = None
        if args.telemetry:
            telemetry_doc = run_once(args.binary, args.scale, args.jobs[0], tmp,
                                     args.profile, tag="_telemetry",
                                     telemetry=True)
        serve_docs = {}
        if args.serve:
            serve_binary, serve_trace = args.serve
            serve_docs = {jobs: run_serve(serve_binary, serve_trace, jobs, tmp)
                          for jobs in args.jobs}

    reference_jobs = args.jobs[0]
    reference = strip_timing(docs[reference_jobs])
    for jobs in args.jobs[1:]:
        candidate = strip_timing(docs[jobs])
        difference = first_difference(reference, candidate)
        if difference:
            print(f"check_repro_determinism: -j{reference_jobs} vs -j{jobs} "
                  f"differ at {difference}", file=sys.stderr)
            return 1
        print(f"check_repro_determinism: -j{jobs} identical to "
              f"-j{reference_jobs} (modulo wall_ms)")
    if telemetry_doc is not None:
        if "telemetry" not in telemetry_doc:
            print("check_repro_determinism: --telemetry run is missing its "
                  "\"telemetry\" section", file=sys.stderr)
            return 1
        difference = first_difference(reference, strip_timing(telemetry_doc))
        if difference:
            print(f"check_repro_determinism: telemetry-off vs telemetry-on "
                  f"runs differ at {difference}", file=sys.stderr)
            return 1
        print(f"check_repro_determinism: --telemetry run identical to "
              f"telemetry-off -j{reference_jobs} (modulo wall_ms/host/telemetry)")
    if serve_docs:
        serve_reference = strip_timing(serve_docs[reference_jobs])
        for jobs in args.jobs[1:]:
            difference = first_difference(serve_reference,
                                          strip_timing(serve_docs[jobs]))
            if difference:
                print(f"check_repro_determinism: smtu_serve -j{reference_jobs} "
                      f"vs -j{jobs} differ at {difference}", file=sys.stderr)
                return 1
            print(f"check_repro_determinism: smtu_serve -j{jobs} report "
                  f"identical to -j{reference_jobs} (modulo host/telemetry)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
