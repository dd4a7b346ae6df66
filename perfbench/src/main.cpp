// perfbench_cbtc — the end-to-end CBTC benchmark program.
//
//   perfbench_cbtc --workload NAME --seed N --seconds S --trace 0|1
//                  [--expect FILE] [--out-dir DIR] [--record]
//                  [--toy] [--drop-connections K]
//
// Runs one workload (see README.md), checks every output, and prints a
// human-readable report followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced replay. Exit status: 0 when the run completed
// (correct or not), 2 on bad arguments or an aborted run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench_cbtc --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                      [--expect FILE] [--out-dir DIR] [--record] [--toy]\n"
            << "                      [--drop-connections K]\n"
            << "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage("option " + flag + ": expected a non-negative integer, got '" + text + "'");
  }
  return v;
}

/// Prints `v` with all the digits a double carries.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opt;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("option " + arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value());
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, value());
      if (s == 0 || s > 600) usage("option --seconds: expected 1..600");
      opt.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_u64(arg, value());
      if (t > 1) usage("option --trace: expected 0 or 1");
      opt.trace = t == 1;
    } else if (arg == "--expect") {
      opt.expect_path = value();
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--record") {
      opt.record = true;
    } else if (arg == "--toy") {
      opt.toy = true;
    } else if (arg == "--drop-connections") {
      opt.drop_connections = parse_u64(arg, value());
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  perfbench::outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", " << opt.seconds
            << " s measured, trace " << (opt.trace ? 1 : 0) << "\n";
  for (const std::string& note : out.notes) std::cout << "  " << note << "\n";
  for (const auto& m : out.metrics.entries()) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  if (opt.record) std::cout << "record " << out.record << "\n";

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics.entries()) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
