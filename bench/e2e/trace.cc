// Sample statistics, window bookkeeping and the span recorder of e2e.h.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/e2e/e2e.h"

namespace duet::e2e {

namespace {

/// The open span on this thread; new spans take it as their parent.
thread_local uint32_t t_open_span = 0;

Clock::time_point TraceOrigin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

}  // namespace

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours return as-is, so infinite samples (failed requests)
  // never turn into inf - inf.
  if (frac == 0.0 || samples[hi] == samples[lo]) return samples[lo];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double SlicedQuantile(const std::vector<double>& samples, const std::vector<double>& at_s,
                      double q, double slice_s) {
  std::vector<std::vector<double>> slices;
  for (size_t i = 0; i < samples.size(); ++i) {
    const size_t s = static_cast<size_t>(std::max(0.0, at_s[i]) / slice_s);
    if (s >= slices.size()) slices.resize(s + 1);
    slices[s].push_back(samples[i]);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(Quantile(slice, q));
  }
  return Quantile(per_slice, 0.5);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void WindowResult::Fail(const std::string& what) {
  if (correct) error = what;
  correct = false;
}

void WindowResult::Append(const WindowResult& part, double offset_s) {
  latency_us.insert(latency_us.end(), part.latency_us.begin(), part.latency_us.end());
  for (double at : part.latency_at_s) latency_at_s.push_back(at + offset_s);
  gen_lag_us.insert(gen_lag_us.end(), part.gen_lag_us.begin(), part.gen_lag_us.end());
  answers += part.answers;
  attempted += part.attempted;
  failed += part.failed;
  checked += part.checked;
  if (!part.correct) Fail(part.error);
}

int64_t TraceNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - TraceOrigin())
      .count();
}

SpanLog::SpanLog(uint32_t tid, size_t capacity) : tid_(tid) { spans_.reserve(capacity); }

void SpanLog::Add(const Span& span) {
  if (spans_.size() < spans_.capacity()) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

Tracer::Tracer(int threads, size_t capacity_per_thread) {
  for (int t = 0; t < threads; ++t) {
    logs_.push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(t + 1), capacity_per_thread));
  }
}

uint64_t Tracer::spans() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

uint64_t Tracer::dropped() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,\"parent\":%u,\"req\":%llu}}",
                   first ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, log->tid(), s.id, s.parent,
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t req) : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.req = req;
  span_.id = log_->NextId();
  span_.parent = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = TraceNow();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = TraceNow();
  t_open_span = span_.parent;
  log_->Add(span_);
}

}  // namespace duet::e2e
