/**
 * @file
 * The golden KernelStats manifest (tests/golden/kernel_stats.txt): one
 * line per simulated run of a fixed grid, pinning absolute results
 * across changes rather than one mode against another inside a build.
 *
 * A line is "<key> cycles=<n> ipc=<%.6f> digest=<16 hex digits>". For a
 * simulation run the digest is FNV-1a over every KernelStats field (the
 * test::statsDigest order), then each per-grid KernelStats, then the
 * bytes of the interval-sampler JSONL. For a "ckpt/" key it is FNV-1a
 * over the final vtsim-ckpt-v1 image, which pins the checkpoint format.
 *
 * The grid:
 *   fermi|kepler/<workload>/<machine>  the 16 workloads on baseline, VT
 *                                      and throttled machines, 4 SMs /
 *                                      2 partitions, scale 0;
 *   vt8/<workload>                     the 16 workloads on an 8-SM /
 *                                      4-partition VT machine, scale 1
 *                                      (the runs that swap);
 *   sched/lrr|two-level/<workload>/baseline|vt
 *                                      the vt8 machine under the two
 *                                      non-default warp schedulers,
 *                                      with VT off and on, scale 1;
 *   ready/default/<workload>/<machine> test::smallConfig machines;
 *   ready/<seed>/d<n>/<workload>/<machine>
 *                                      randomConfig draws per seed;
 *   corun/<policy>/<a+b..>             the EXT-7 co-run mixes;
 *   ckpt/<workload>/vt                 final checkpoint images of
 *                                      bfs, needle and mummer on an
 *                                      8-SM VT machine, scale 1.
 *
 * Tests look their keys up with expectGolden(). The manifest is
 * regenerated only by scripts/bless_golden.sh.
 */

#ifndef VTSIM_TESTS_GOLDEN_HH
#define VTSIM_TESTS_GOLDEN_HH

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "config/gpu_config.hh"

namespace vtsim::golden {

/** One run of the grid. */
struct Case
{
    std::string key;
    /** Simulate the run and return its manifest line; sets
     *  @p verified to the workloads' host-side output check. */
    std::function<std::string(bool &verified)> run;
};

/** Every case of the grid, in a fixed order. */
const std::vector<Case> &cases();

/** Draw a config variation from @p rng (scheduler shape + VT knobs). */
GpuConfig randomConfig(std::mt19937 &rng);

/** Simulate @p key and expect its line to equal the manifest's. */
void expectGolden(const std::string &key);

/** expectGolden() for every case whose key starts with @p prefix
 *  (at least one must). */
void expectGoldenPrefix(const std::string &prefix);

/** The committed manifest's keys, sorted. */
std::vector<std::string> manifestKeys();

} // namespace vtsim::golden

#endif // VTSIM_TESTS_GOLDEN_HH
