// perfbench — one command for the repository's three paths:
//
//   perfbench --workload serve-lookup|serve-freshness|sharded-pushsum
//             --seed N --seconds T --trace 0|1
//             --repserved PATH --out-dir DIR
//
// Prints progress to stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any named
// correctness check failed (the check is named on stderr), 2 on bad usage.
// perfbench/run.py builds this binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds T --trace 0|1 "
               "--repserved PATH --out-dir DIR\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

namespace pb {

std::string span_path(const Args& a) {
  return a.out_dir + "/spans-" + a.workload + "-" + std::to_string(a.seed) +
         ".txt";
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::string(v) == "1";
    else if (k == "--repserved") a.repserved = v;
    else if (k == "--out-dir") a.out_dir = v;
    else usage("unknown flag " + k);
  }
  if (a.seconds <= 0.0) usage("--seconds must be > 0");
  if (a.out_dir.empty()) usage("--out-dir is required");

  pb::Report report;
  try {
    if (a.workload == "serve-lookup") {
      pb::run_serve_lookup(a, report);
    } else if (a.workload == "serve-freshness") {
      if (a.repserved.empty()) usage("serve-freshness needs --repserved");
      pb::run_serve_freshness(a, report);
    } else if (a.workload == "sharded-pushsum") {
      pb::run_sharded_pushsum(a, report);
    } else {
      usage("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    report.check(false, "exception", e.what());
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
