/**
 * @file
 * Print the golden KernelStats manifest (tests/golden.hh) to stdout,
 * one line per case, sorted by key. Exits non-zero, printing nothing,
 * if any run fails its output check. scripts/bless_golden.sh is the
 * only intended caller.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "golden.hh"

int
main()
{
    std::vector<std::string> lines;
    bool all_verified = true;
    for (const vtsim::golden::Case &c : vtsim::golden::cases()) {
        bool verified = false;
        lines.push_back(c.run(verified));
        if (!verified) {
            std::fprintf(stderr, "%s: output check failed\n",
                         c.key.c_str());
            all_verified = false;
        }
    }
    if (!all_verified)
        return 1;
    std::sort(lines.begin(), lines.end());
    for (const std::string &line : lines)
        std::printf("%s\n", line.c_str());
    return 0;
}
