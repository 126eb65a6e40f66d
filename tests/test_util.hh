/**
 * @file
 * Shared helpers for the vtsim test suite.
 */

#ifndef VTSIM_TESTS_TEST_UTIL_HH
#define VTSIM_TESTS_TEST_UTIL_HH

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "config/gpu_config.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "isa/kernel_builder.hh"

namespace vtsim::test {

/**
 * A scratch path private to the running test: TempDir() +
 * "<suite>.<test>-<pid>-<stem>". ctest runs every test case as its own
 * process, in parallel under -j, so a path shared between cases (or
 * between two concurrent runs of the suite) lets one case delete or
 * overwrite another's file.
 */
inline std::string
uniqueTempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "global";
    // Parameterized names carry '/', which must not split the path.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name + "-" + std::to_string(::getpid()) +
           "-" + stem;
}

/** Incremental 64-bit FNV-1a. */
struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mixByte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    /** The eight bytes of @p v, least significant first. */
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte((v >> (8 * i)) & 0xff);
    }

    void
    mixBytes(const std::string &bytes)
    {
        for (const char c : bytes)
            mixByte(static_cast<std::uint8_t>(c));
    }
};

/** Mix every KernelStats field into @p fnv, ipc by its bit pattern. */
inline void
mixStats(Fnv1a &fnv, const KernelStats &s)
{
    for (const std::uint64_t v :
         {std::uint64_t(s.cycles), s.warpInstructions, s.threadInstructions,
          s.ctasCompleted, std::bit_cast<std::uint64_t>(s.ipc), s.l1Hits,
          s.l1Misses, s.l2Hits, s.l2Misses, s.dramRowHits, s.dramRowMisses,
          s.dramBytes, s.swapOuts, s.swapIns, s.stalls.issued,
          s.stalls.memStall, s.stalls.shortStall, s.stalls.barrierStall,
          s.stalls.swapStall, s.stalls.idle}) {
        fnv.mix(v);
    }
}

/** FNV-1a over every KernelStats field. */
inline std::uint64_t
statsDigest(const KernelStats &s)
{
    Fnv1a fnv;
    mixStats(fnv, s);
    return fnv.h;
}

/** Every field of KernelStats, bit for bit. */
inline void
expectIdenticalStats(const KernelStats &a, const KernelStats &b,
                     const std::string &context)
{
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.warpInstructions, b.warpInstructions) << context;
    EXPECT_EQ(a.threadInstructions, b.threadInstructions) << context;
    EXPECT_EQ(a.ctasCompleted, b.ctasCompleted) << context;
    EXPECT_EQ(a.ipc, b.ipc) << context;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << context;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << context;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << context;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << context;
    EXPECT_EQ(a.dramRowHits, b.dramRowHits) << context;
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses) << context;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << context;
    EXPECT_EQ(a.swapOuts, b.swapOuts) << context;
    EXPECT_EQ(a.swapIns, b.swapIns) << context;
    EXPECT_EQ(a.stalls.issued, b.stalls.issued) << context;
    EXPECT_EQ(a.stalls.memStall, b.stalls.memStall) << context;
    EXPECT_EQ(a.stalls.shortStall, b.stalls.shortStall) << context;
    EXPECT_EQ(a.stalls.barrierStall, b.stalls.barrierStall) << context;
    EXPECT_EQ(a.stalls.swapStall, b.stalls.swapStall) << context;
    EXPECT_EQ(a.stalls.idle, b.stalls.idle) << context;
}

/** A small but multi-SM config for fast integration tests. */
inline GpuConfig
smallConfig()
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 2;
    cfg.numMemPartitions = 2;
    cfg.maxCycles = 5'000'000;
    return cfg;
}

/** smallConfig with Virtual Thread enabled. */
inline GpuConfig
smallVtConfig()
{
    GpuConfig cfg = smallConfig();
    cfg.vtEnabled = true;
    return cfg;
}

/**
 * Kernel that writes a constant to out[gid] for gid < n.
 * Params: 0 = out base, 1 = n, 2 = value.
 */
inline Kernel
storeConstKernel()
{
    return assemble(R"(
.kernel store_const
    ldp r0, 0
    ldp r1, 1
    ldp r2, 2
    s2r r3, ctaid.x
    s2r r4, ntid.x
    s2r r5, tid.x
    imad r6, r3, r4, r5
    isetp.ge r7, r6, r1
    bra r7, done
    shl r8, r6, 2
    iadd r8, r8, r0
    stg [r8], r2
done:
    exit
)");
}

/**
 * Kernel computing out[gid] = in[gid] * 3 + 7 (integers).
 * Params: 0 = in, 1 = out, 2 = n.
 */
inline Kernel
mul3Add7Kernel()
{
    return assemble(R"(
.kernel mul3add7
    ldp r0, 0
    ldp r1, 1
    ldp r2, 2
    s2r r3, ctaid.x
    s2r r4, ntid.x
    s2r r5, tid.x
    imad r6, r3, r4, r5
    isetp.ge r7, r6, r2
    bra r7, done
    shl r8, r6, 2
    iadd r9, r8, r0
    ldg r10, [r9]
    imul r10, r10, 3
    iadd r10, r10, 7
    iadd r11, r8, r1
    stg [r11], r10
done:
    exit
)");
}

} // namespace vtsim::test

#endif // VTSIM_TESTS_TEST_UTIL_HH
