// The benchmark harness: one process per workload run.
//
//   perfbench serve-k16|replay-k128|campaign-table1 --seed N --seconds S
//             --trace 0|1 --workdir DIR [--dls PATH] [--root DIR]
//   perfbench campaign-reference --out FILE [--root DIR]
//
// Prints human-readable notes, one "check" line per correctness check,
// and as its last line a JSON object with the run's metrics. run.py
// builds this binary and turns that line into the benchmark result.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench serve-k16|replay-k128|campaign-table1 --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--dls PATH] [--root DIR]\n"
               "       perfbench campaign-reference --out FILE [--root DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::RunConfig cfg;
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") cfg.trace = value == "1";
    else if (key == "--workdir") cfg.workdir = value;
    else if (key == "--dls") cfg.dls = value;
    else if (key == "--root") cfg.root = value;
    else if (key == "--out") out_path = value;
    else return usage();
  }
  if (argc % 2 != 0 || !(cfg.seconds >= 1.0 && cfg.seconds <= 600.0)) return usage();
  try {
    if (mode == "campaign-reference")
      return out_path.empty() ? usage()
                              : perfbench::write_campaign_reference(cfg, out_path);
    if (cfg.workdir.empty()) return usage();
    perfbench::Result result;
    if (mode == "serve-k16") result = perfbench::run_serve(cfg);
    else if (mode == "replay-k128") result = perfbench::run_replay(cfg);
    else if (mode == "campaign-table1") result = perfbench::run_campaign(cfg);
    else return usage();
    result.print();
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
