// Benchmark harness entry point:
//   perfbench --workload <train_limcat|serve_read|serve_publish> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
// Prints human-readable lines, then one JSON result object as the last line.
// Exits 1 on a failed correctness check or bad arguments.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/report.h"
#include "harness/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_limcat|serve_read|"
               "serve_publish> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.work_dir.empty() || config.seconds <= 0.0) {
    return Usage();
  }
  mkdir(config.work_dir.c_str(), 0755);

  perfbench::Report report;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  if (config.workload == "train_limcat") {
    perfbench::RunTrainLimcat(config, &report);
  } else if (config.workload == "serve_read") {
    perfbench::RunServe(config, /*with_writes=*/false, &report);
  } else if (config.workload == "serve_publish") {
    perfbench::RunServe(config, /*with_writes=*/true, &report);
  } else {
    return Usage();
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb());

  bool complete = true;
  if (config.trace) {
    // The traced run's end-to-end figures, for the tracing-overhead
    // comparison against an untraced run of the same seed.
    std::string line = "traced end-to-end:";
    for (const perfbench::MetricSpec& spec : perfbench::EndToEndMetrics()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s=%.6g", spec.name,
                    report.Get(spec.name));
      line += buf;
    }
    report.Note(line);
    complete = report.Print(perfbench::PerLayerMetrics(), true);
  } else {
    complete = report.Print(perfbench::EndToEndMetrics(), false);
  }
  return report.correct() && complete ? 0 : 1;
}
