/**
 * @file
 * Every VASM benchmark kernel under baseline, Virtual Thread and
 * DYNCTA-throttled machines, Fermi- and Kepler-class, and on the
 * scale-1 VT machine, reproduces the golden manifest (tests/golden.hh)
 * bit for bit. The manifest was
 * blessed with the pre-decoded micro-op interpreter and came out
 * byte-identical with the per-instruction interpreter it replaced
 * (now tests/reference_interpreter.hh), so these runs pin the shipping
 * interpreter to the retired one's results; the per-instruction check
 * is tests/test_micro_reference.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "golden.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

enum class Machine { Baseline, Vt, Throttled };

std::string
toString(Machine m)
{
    switch (m) {
      case Machine::Baseline: return "baseline";
      case Machine::Vt: return "vt";
      case Machine::Throttled: return "throttled";
    }
    return "?";
}

/** Workload x machine grid: every VASM benchmark kernel in the suite
 *  under all three machine shapes, Fermi- and Kepler-class, plus the
 *  scale-1 VT run, looked up in the golden manifest (blessed with both
 *  interpreters, which gave byte-identical manifests). */
class MicrocodeBitIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, Machine>>
{};

TEST_P(MicrocodeBitIdentity, MatchesLegacyInterpreter)
{
    const auto &[workload, machine] = GetParam();
    for (const char *arch : {"fermi", "kepler"})
        golden::expectGolden(std::string(arch) + "/" + workload + "/" +
                             toString(machine));
    if (machine == Machine::Vt)
        golden::expectGolden("vt8/" + workload);
}

std::string
gridName(const ::testing::TestParamInfo<
         std::tuple<std::string, Machine>> &info)
{
    return std::get<0>(info.param) + "_" +
           toString(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, MicrocodeBitIdentity,
    ::testing::Combine(::testing::ValuesIn(benchmarkNames()),
                       ::testing::Values(Machine::Baseline, Machine::Vt,
                                         Machine::Throttled)),
    gridName);

/** The committed manifest holds exactly the golden grid: no case is
 *  missing and no stale line survives a change to the grid. */
TEST(GoldenManifest, KeysMatchGrid)
{
    std::vector<std::string> grid;
    for (const golden::Case &c : golden::cases())
        grid.push_back(c.key);
    std::sort(grid.begin(), grid.end());
    EXPECT_EQ(golden::manifestKeys(), grid)
        << "regenerate tests/golden/kernel_stats.txt with "
           "scripts/bless_golden.sh";
}

} // namespace
} // namespace vtsim
