#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

/// \file loadgen.h
/// Open- and closed-loop request loops, written against a small client
/// interface so the same loop drives the real service and the tests' fake.
///
/// A Client provides:
///   double NowMs();                  // monotonic clock
///   void Send(int64_t index);        // send request `index`
///   void Wait(double until_ms);      // block until `until_ms`, or earlier
///                                    // when a request may have completed
///   void Collect(std::vector<Completion>* out);  // newly completed ones
///   int64_t outstanding() const;     // sent and not yet collected
///
/// The generator thread also collects completions, so a loop needs no
/// extra harvester thread.

namespace perfbench {

struct Completion {
  int64_t index = 0;
  bool ok = false;
  double done_ms = 0.0;  ///< When the client observed the completion.
};

struct RequestRecord {
  double due_ms = 0.0;   ///< When the schedule wanted it sent.
  double sent_ms = 0.0;  ///< When it was actually sent.
  double done_ms = 0.0;  ///< When its completion was observed (0 = never).
  bool ok = false;

  bool completed() const { return done_ms > 0.0; }
  /// Latency from when the request was due: a stalled generator delays
  /// every later send, and that delay counts against the system instead
  /// of disappearing from the measurement.
  double latency_ms() const { return done_ms - due_ms; }
  /// How late the generator sent it.
  double lag_ms() const { return sent_ms - due_ms; }
};

struct OpenLoopOptions {
  double rate_per_s = 100.0;
  double duration_ms = 1000.0;
};

struct ClosedLoopOptions {
  int64_t concurrency = 1;  ///< Requests kept outstanding.
  double duration_ms = 1000.0;
};

namespace loadgen_internal {

/// Longest the generator sleeps between completion checks.
constexpr double kPollMs = 0.2;
/// Upper bound on waiting for stragglers after the last send.
constexpr double kDrainTimeoutMs = 5000.0;

template <typename Client>
void Harvest(Client& client, std::vector<Completion>* scratch,
             std::vector<RequestRecord>* records) {
  scratch->clear();
  client.Collect(scratch);
  for (const Completion& c : *scratch) {
    RequestRecord& r = (*records)[static_cast<size_t>(c.index)];
    r.done_ms = c.done_ms;
    r.ok = c.ok;
  }
}

template <typename Client>
void Drain(Client& client, std::vector<Completion>* scratch,
           std::vector<RequestRecord>* records) {
  const double deadline = client.NowMs() + kDrainTimeoutMs;
  Harvest(client, scratch, records);
  while (client.outstanding() > 0 && client.NowMs() < deadline) {
    client.Wait(client.NowMs() + kPollMs);
    Harvest(client, scratch, records);
  }
}

}  // namespace loadgen_internal

/// Sends request i at start + i / rate for `duration_ms`, whatever the
/// state of earlier requests, then drains. One record per request.
template <typename Client>
std::vector<RequestRecord> RunOpenLoop(Client& client,
                                       const OpenLoopOptions& options) {
  const int64_t n = static_cast<int64_t>(
      std::llround(options.rate_per_s * options.duration_ms / 1000.0));
  const double period_ms = 1000.0 / options.rate_per_s;
  std::vector<RequestRecord> records(static_cast<size_t>(std::max<int64_t>(n, 0)));
  std::vector<Completion> scratch;
  const double start_ms = client.NowMs();
  for (int64_t i = 0; i < n; ++i) {
    RequestRecord& r = records[static_cast<size_t>(i)];
    r.due_ms = start_ms + static_cast<double>(i) * period_ms;
    for (;;) {
      loadgen_internal::Harvest(client, &scratch, &records);
      const double now = client.NowMs();
      if (now >= r.due_ms) break;
      client.Wait(std::min(r.due_ms, now + loadgen_internal::kPollMs));
    }
    r.sent_ms = client.NowMs();
    client.Send(i);
  }
  loadgen_internal::Drain(client, &scratch, &records);
  return records;
}

/// Keeps `concurrency` requests outstanding for `duration_ms`, then
/// drains. Each request is due when it is sent.
template <typename Client>
std::vector<RequestRecord> RunClosedLoop(Client& client,
                                         const ClosedLoopOptions& options) {
  std::vector<RequestRecord> records;
  std::vector<Completion> scratch;
  const double end_ms = client.NowMs() + options.duration_ms;
  for (;;) {
    loadgen_internal::Harvest(client, &scratch, &records);
    const double now = client.NowMs();
    if (now >= end_ms) break;
    while (client.outstanding() < options.concurrency) {
      RequestRecord r;
      r.due_ms = r.sent_ms = client.NowMs();
      records.push_back(r);
      client.Send(static_cast<int64_t>(records.size()) - 1);
    }
    client.Wait(std::min(end_ms, now + loadgen_internal::kPollMs));
  }
  loadgen_internal::Drain(client, &scratch, &records);
  return records;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
