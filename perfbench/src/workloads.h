// The benchmark's four workloads and the harness that sets each up,
// times it, checks every output, and (in traced mode) replays it
// through the library's layers. See ../README.md for what each
// workload runs and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Toy sizes for the harness self-test (seconds, not minutes).
  bool toy{false};
  /// Fault injection: the first shard of paper_sweep severs this many
  /// request connections after one partial (serve_config::drop_connections).
  std::size_t drop_connections{0};
  /// Expected outputs recorded with the benchmark (JSON); empty = none.
  std::string expect_path;
  /// Directory for the traced run's Chrome trace and layer table.
  std::string out_dir{".bench_out"};
  /// Print the observed expectation record of this workload and seed.
  bool record{false};
};

struct outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  metric_set metrics;
  std::vector<std::string> notes;  ///< human-readable lines (failures first)
  std::string record;              ///< JSON object of observed expected-values
};

/// Names accepted by --workload, in the order the README lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload end to end. Throws std::invalid_argument for an
/// unknown workload name or an unreadable expectations file.
[[nodiscard]] outcome run_workload(const options& opt);

}  // namespace perfbench
