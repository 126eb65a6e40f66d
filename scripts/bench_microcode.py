#!/usr/bin/env python3
"""Benchmark functional execution against trace replay; emit BENCH_microcode.json.

Runs a figure binary sequentially (--jobs 1) three ways:

  microcode  (default)        the pre-decoded micro-op interpreter
  record     --record-trace   the same, also writing memory traces
  replay     --replay-trace   the memory system driven from the recorded
                              traces, skipping functional execution

Three things come out of that:

 1. A regression gate: recording must not perturb the statistics, and
    every replay run must reproduce the functional run's cycle count
    and cache/DRAM counters exactly.
 2. A trace check: every trace the record pass writes must validate
    with scripts/validate_mtrace.py.
 3. A throughput record: BENCH_microcode.json is the microcode-mode
    stats document extended with a "microcode" section holding wall
    time and Kcyc/s per mode (microcode and replay).

The output validates against ci/stats_schema.json (the script checks).

Standard library only. Usage:
    bench_microcode.py [--binary PATH] [--out PATH]
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))
import validate_mtrace  # noqa: E402
import validate_stats_json  # noqa: E402


def run_figure(binary, stats_path, extra):
    cmd = [
        str(binary),
        "--jobs", "1",
        "--stats-json", str(stats_path),
    ] + extra
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads(stats_path.read_text())


def run_signature(run):
    """Everything about a run that must not depend on observation
    (host-timing fields excluded)."""
    return {
        key: value
        for key, value in run.items()
        if key not in ("wall_seconds", "kcycles_per_sec", "mips")
    }


MEMORY_COUNTERS = (
    "cycles", "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "dram_row_hits", "dram_row_misses", "dram_bytes",
)


def memory_signature(run):
    """The subset a trace replay must reproduce exactly: the cycle count
    and every cache/DRAM counter. (A replay completes zero CTAs and
    issues zero instructions by construction, so the instruction-side
    counters are not comparable.)"""
    return {key: run["stats"][key] for key in MEMORY_COUNTERS}


def mode_point(mode, runs):
    wall = sum(r["wall_seconds"] for r in runs)
    cycles = sum(r["stats"]["cycles"] for r in runs)
    return {
        "mode": mode,
        "wall_seconds": round(wall, 6),
        "kcycles_per_sec": round(cycles / wall / 1e3, 3)
        if wall > 0 else 0.0,
    }


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--binary", default=str(REPO / "build/bench/fig3_vt_speedup"))
    parser.add_argument("--out", default="BENCH_microcode.json")
    args = parser.parse_args(argv[1:])

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        micro = run_figure(args.binary, tmp / "micro.json", [])
        print(f"[bench-microcode] microcode: {len(micro['runs'])} runs")

        trace = tmp / "fig3.mtrace"
        recorded = run_figure(args.binary, tmp / "record.json",
                              ["--record-trace", str(trace)])
        if [run_signature(r) for r in recorded["runs"]] != \
                [run_signature(r) for r in micro["runs"]]:
            print("[bench-microcode] FAIL: recording a trace perturbed "
                  "the statistics", file=sys.stderr)
            return 1
        traces = sorted(tmp.glob("fig3*.mtrace"))
        print(f"[bench-microcode] recorded {len(traces)} traces")
        for path in traces:
            if validate_mtrace.main(["validate_mtrace.py", str(path)]):
                return 1

        replay = run_figure(args.binary, tmp / "replay.json",
                            ["--replay-trace", str(trace)])
        print(f"[bench-microcode] replay: {len(replay['runs'])} runs")
        if [memory_signature(r) for r in replay["runs"]] != \
                [memory_signature(r) for r in micro["runs"]]:
            print("[bench-microcode] FAIL: replay did not reproduce the "
                  "functional run's cycles and cache/DRAM counters",
                  file=sys.stderr)
            return 1

    modes = [
        mode_point("microcode", micro["runs"]),
        mode_point("replay", replay["runs"]),
    ]

    micro["microcode"] = {"modes": modes}
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(micro, indent=2) + "\n")

    for p in modes:
        print(f"[bench-microcode] {p['mode']:<10s} "
              f"wall {p['wall_seconds']:.3f}s, "
              f"{p['kcycles_per_sec']:.1f} Kcyc/s")

    # The document must still be a valid vtsim-stats-v1 batch.
    return validate_stats_json.main(
        ["validate_stats_json.py", str(out_path)])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
