/**
 * @file
 * Schema checker for capture files: loads each argument as a .tcap
 * capture (header magic/version, body CRC, record-tag and aux-offset
 * bounds — the full validation the replay loader applies) and prints a
 * one-line summary per valid file. CI runs a sweep under
 * TARTAN_CAPTURE_DIR and feeds every emitted file through this tool.
 *
 * Usage: capture_validate capture_<hash>_<seed>.tcap ...
 */

#include <cstdio>
#include <string>

#include "sim/capture.hh"
#include "sim/checksum.hh"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <capture.tcap>...\n", argv[0]);
        return 2;
    }
    int failures = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string path = argv[i];
        tartan::sim::CaptureTrace trace;
        std::string err;
        if (tartan::sim::CaptureTrace::load(path, trace, &err)) {
            std::printf("%s: ok (config %s, seed %llu, %zu records, "
                        "%zu aux bytes, %llu L1 lookups)\n",
                        path.c_str(),
                        tartan::sim::hex64(trace.configHash).c_str(),
                        static_cast<unsigned long long>(trace.seed),
                        trace.records.size(), trace.aux.size(),
                        static_cast<unsigned long long>(trace.l1.lookups));
        } else {
            std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                         err.empty() ? "cannot open" : err.c_str());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}
