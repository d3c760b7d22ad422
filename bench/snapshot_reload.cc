// Snapshot-reload microbenchmark for the sharded v3 serving-snapshot
// format (DESIGN.md §6). Reports:
//
//   - file size,
//   - reload wall time (median of several loads), and
//   - peak-RSS delta of one load in a clean child process (Linux VmHWM):
//     the loader packs each validated shard straight into its own buffer,
//     so the transient on top of the loaded snapshot is one shard of
//     staging, never a second whole table.
//
// Usage:
//   snapshot_reload [num_users num_items dim items_per_shard]
//   snapshot_reload --measure-rss <path>    # internal child mode
//
// Representative numbers live in EXPERIMENTS.md.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "serve/shard_format.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace imcat {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tensor MakeTable(int64_t rows, int64_t cols, float scale) {
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = scale * static_cast<float>(i % 97 - 48);
  }
  return Tensor(rows, cols, std::move(values));
}

int64_t FileSizeBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.is_open() ? static_cast<int64_t>(in.tellg()) : -1;
}

/// Peak resident set (VmHWM) of this process in KiB; -1 off-Linux.
int64_t PeakRssKb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
#endif
  return -1;
}

/// Child mode: loads the snapshot once and prints the peak-RSS delta the
/// load added on top of process startup. A fresh process per measurement
/// keeps one layout's staging from inflating the other's high-water mark.
int MeasureRssChild(const std::string& path) {
  const int64_t before_kb = PeakRssKb();
  auto loaded = EmbeddingSnapshot::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const int64_t after_kb = PeakRssKb();
  std::printf("%lld\n",
              static_cast<long long>(after_kb >= 0 && before_kb >= 0
                                         ? after_kb - before_kb
                                         : -1));
  return 0;
}

/// Runs this binary in --measure-rss child mode; -1 when unavailable.
int64_t MeasureRssDeltaKb(const std::string& self,
                          const std::string& path) {
#if defined(__linux__)
  const std::string out = path + ".rss";
  const std::string command =
      "'" + self + "' --measure-rss '" + path + "' > '" + out + "'";
  if (std::system(command.c_str()) != 0) return -1;
  std::ifstream in(out);
  long long delta = -1;
  in >> delta;
  std::remove(out.c_str());
  return delta;
#else
  (void)self;
  (void)path;
  return -1;
#endif
}

double MedianLoadMs(const std::string& path, int rounds) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const double start = NowMs();
    auto loaded = EmbeddingSnapshot::Load(path);
    const double elapsed = NowMs() - start;
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    samples.push_back(elapsed);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int Run(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--measure-rss") == 0) {
    return MeasureRssChild(argv[2]);
  }
  int64_t num_users = 20000;
  int64_t num_items = 200000;
  int64_t dim = 64;
  int64_t items_per_shard = 4096;
  if (argc >= 5) {
    num_users = std::strtoll(argv[1], nullptr, 10);
    num_items = std::strtoll(argv[2], nullptr, 10);
    dim = std::strtoll(argv[3], nullptr, 10);
    items_per_shard = std::strtoll(argv[4], nullptr, 10);
  }
  constexpr int kRounds = 5;

  std::printf("snapshot_reload: %lld users x %lld items x %lld dim, "
              "%lld items/shard\n",
              static_cast<long long>(num_users),
              static_cast<long long>(num_items), static_cast<long long>(dim),
              static_cast<long long>(items_per_shard));
  Tensor users = MakeTable(num_users, dim, 0.02f);
  Tensor items = MakeTable(num_items, dim, -0.01f);

  const std::string v3_path = "/tmp/imcat_bench_sharded.snap";
  ShardedSnapshotOptions sharded;
  sharded.items_per_shard = items_per_shard;
  Status v3_write = WriteShardedSnapshot(v3_path, users, items, sharded);
  if (!v3_write.ok()) {
    std::fprintf(stderr, "write failed: %s\n", v3_write.ToString().c_str());
    return 1;
  }

  std::printf("%-14s %12s %14s %18s\n", "layout", "file_bytes",
              "reload_ms(med)", "peak_rss_delta_kb");
  const double median_ms = MedianLoadMs(v3_path, kRounds);
  const int64_t rss_kb = MeasureRssDeltaKb(argv[0], v3_path);
  std::printf("%-14s %12lld %14.2f %18lld\n", "sharded-v3",
              static_cast<long long>(FileSizeBytes(v3_path)), median_ms,
              static_cast<long long>(rss_kb));
  std::remove(v3_path.c_str());
  return 0;
}

}  // namespace
}  // namespace imcat

int main(int argc, char** argv) { return imcat::Run(argc, argv); }
