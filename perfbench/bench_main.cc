// perfbench: the benchmark binary.
//
//   perfbench --workload=<publish|serve|fleet|oracle> --seed=N --seconds=S
//             --trace=<0|1>
//
// Prints the host record, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace=0, the per-layer metrics with --trace=1 (whose spans are
// also written to .bench_out/trace-<workload>-<seed>.json). Exits 1 when a
// correctness check failed, 2 on a usage or environment error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    char* end = nullptr;
    if (ParseFlag(arg, "workload", &value)) {
      config.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (ParseFlag(arg, "trace", &value)) {
      config.trace = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: malformed value in %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be in (0, 600]\n");
    return 2;
  }

  const HostInfo host = ProbeHost();
  std::printf("{\"host\": %s}\n", host.ToJson().c_str());
  if (host.debug || host.sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build (build type %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizer\n",
                 host.sanitized ? "sanitizer" : "debug",
                 host.build_type.c_str());
    return 2;
  }
  config.nproc = host.nproc;
  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.out_dir.c_str());
    return 2;
  }

  Tracer tracer(config.trace);
  Report report;
  const CpuTicks ticks_before = ReadCpuTicks();
  if (config.workload == "publish") {
    RunPublishWorkload(config, &tracer, &report);
  } else if (config.workload == "serve") {
    RunServeWorkload(config, /*fleet=*/false, &tracer, &report);
  } else if (config.workload == "fleet") {
    RunServeWorkload(config, /*fleet=*/true, &tracer, &report);
  } else if (config.workload == "oracle") {
    RunOracleWorkload(config, &tracer, &report);
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be publish, serve, fleet or "
                 "oracle\n");
    return 2;
  }

  // Figures of a run whose vCPUs the host took for a large share of the
  // time measure the host, not the program.
  std::fprintf(stderr, "perfbench: host steal %.1f%% of the run's CPU time\n",
               100.0 * StealFrac(ticks_before, ReadCpuTicks()));

  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (!tracer.WriteJson(path)) {
      report.Fail("cannot write the trace file " + path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   tracer.size(), path.c_str());
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
