#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanBuffer::SpanBuffer(Tracer* tracer, bool enabled)
    : tracer_(tracer), enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 15);
}

int64_t SpanBuffer::NextId() {
  return enabled_ ? tracer_->next_id_.fetch_add(1, std::memory_order_relaxed)
                  : 0;
}

void SpanBuffer::Add(int64_t id, int64_t parent, const char* name,
                     double start_ms, double end_ms) {
  if (enabled_) spans_.push_back({id, parent, name, start_ms, end_ms});
}

SpanBuffer* Tracer::NewBuffer() {
  buffers_.push_back(std::unique_ptr<SpanBuffer>(new SpanBuffer(this, enabled_)));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    for (const SpanBuffer::Raw& raw : buffer->spans_) {
      out.push_back({raw.id, raw.parent, raw.name, raw.start_ms, raw.end_ms});
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ms != b.start_ms ? a.start_ms < b.start_ms : a.id < b.id;
  });
  return out;
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, int64_t parent)
    : buffer_(buffer != nullptr && buffer->enabled() ? buffer : nullptr),
      name_(name),
      parent_(parent) {
  if (buffer_ != nullptr) {
    id_ = buffer_->NextId();
    start_ms_ = NowMs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) buffer_->Add(id_, parent_, name_, start_ms_, NowMs());
}

std::map<int64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ms, s.end_ms});
  }
  std::map<int64_t, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Clip each child to the parent, then measure the union.
      std::vector<std::pair<double, double>> parts;
      for (auto [b, e] : it->second) {
        b = std::max(b, s.start_ms);
        e = std::min(e, s.end_ms);
        if (e > b) parts.push_back({b, e});
      }
      std::sort(parts.begin(), parts.end());
      double run_begin = 0.0;
      double run_end = -1.0;
      bool open = false;
      for (const auto& [b, e] : parts) {
        if (open && b <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (open) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
        open = true;
      }
      if (open) covered += run_end - run_begin;
    }
    self[s.id] = s.duration_ms() - covered;
  }
  return self;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

std::vector<double> SelfDurations(const std::vector<Span>& spans,
                                  const std::map<int64_t, double>& self,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    auto it = self.find(s.id);
    if (it != self.end()) out.push_back(it->second);
  }
  return out;
}

bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
