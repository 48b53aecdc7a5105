// perfbench_runner: runs one named workload of the TagMatch benchmark from
// a seed and prints its record and result (see perfbench/README.md).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdio>
#include <cstring>

#include "runner/common.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) return 2;
  struct Entry {
    const char* name;
    int (*run)(const perfbench::Args&, perfbench::Report&);
  };
  static const Entry kWorkloads[] = {
      {"engine_stream", perfbench::run_engine_stream},
      {"cpu_only_stream", perfbench::run_cpu_only_stream},
      {"shard_churn", perfbench::run_shard_churn},
      {"wire_pubsub", perfbench::run_wire_pubsub},
  };
  for (const Entry& e : kWorkloads) {
    if (args.workload != e.name) continue;
    perfbench::Report report;
    perfbench::stamp_host(report, args);
    const int rc = e.run(args, report);
    if (rc != 0) return rc;
    return report.print() ? 0 : 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
