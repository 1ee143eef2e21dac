// End-to-end benchmark of the Duet serving stack (bench/e2e/README.md).
//
// One process runs one named workload against the real stack: trained
// models written as artifacts, a ModelZoo, a zoo-mode ServingEngine and a
// loopback net::NetServer. Everything here sits outside src/ and touches
// the library only through its public calls, so a layer's time is measured
// from the outside, at the boundary the benchmark itself calls.
#ifndef DUET_BENCH_E2E_E2E_H_
#define DUET_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/query.h"

namespace duet::serve {
class ModelZoo;
class ServingEngine;
}  // namespace duet::serve

namespace duet::core {
class DuetModel;
}  // namespace duet::core

namespace duet::e2e {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point from);

/// Exact quantile (q in [0, 1]) of stored samples: linear interpolation
/// between adjacent order statistics. 0 for no samples.
double Quantile(std::vector<double> samples, double q);

/// Median over consecutive `slice_s`-second slices of the per-slice
/// quantile q of samples taken at times `at_s`: one slice disturbed by a
/// neighbour on a shared host moves it less than a whole-window quantile.
double SlicedQuantile(const std::vector<double>& samples, const std::vector<double>& at_s,
                      double q, double slice_s);

/// True when both doubles have the same bit pattern.
bool SameBits(double a, double b);

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls, kept in preallocated
// per-thread logs and written as Chrome trace-event JSON at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  ///< string literal
  int64_t start_ns = 0;        ///< since the trace origin
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint64_t req = 0;     ///< request id; spans of one request share it
};

/// One thread's span buffer. Capacity is reserved up front; spans past it
/// are counted as dropped instead of reallocating mid-window.
class SpanLog {
 public:
  SpanLog(uint32_t tid, size_t capacity);

  uint32_t NextId() { return (tid_ << 24) | (++seq_ & 0xffffffu); }
  void Add(const Span& span);

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t tid_;
  uint32_t seq_ = 0;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Owns one SpanLog per driving thread.
class Tracer {
 public:
  Tracer(int threads, size_t capacity_per_thread);

  SpanLog* log(int thread) { return logs_[static_cast<size_t>(thread)].get(); }
  uint64_t spans() const;
  uint64_t dropped() const;

  /// Writes every span as a Chrome "ph":"X" trace event (opens in Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// RAII span. A null log makes it a no-op, which is how untraced runs pay
/// nothing but one branch. Nested scopes on one thread parent each other.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t req);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Nanoseconds since the process-wide trace origin.
int64_t TraceNow();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Timings of one set-up (data generation through server start).
struct SetupTimes {
  double generate_s = 0.0;
  double label_s = 0.0;
  std::vector<double> epoch_s;       ///< each TrainEpoch call
  std::vector<double> tuples_per_s;  ///< anchor rows / epoch seconds
  std::vector<double> write_ms;      ///< each WriteArtifact call
};

/// What one driven phase (warm-up or timed window) produced.
struct WindowResult {
  double seconds = 0.0;
  std::vector<double> latency_us;    ///< the gated latency samples
  std::vector<double> latency_at_s;  ///< when each was due, from the window start
  std::vector<double> gen_lag_us;    ///< actual send minus due time
  uint64_t answers = 0;  ///< queries answered (plans for `plan`)
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< transport failures + degraded answers
  uint64_t checked = 0;  ///< answers compared bitwise against expectations
  bool correct = true;
  std::string error;  ///< first correctness failure
  /// Workload-specific numbers (fleet: max_rate_qps, publish_p50_ms, ...).
  std::map<std::string, double> extra;

  void Fail(const std::string& what);
  /// Adds `part`'s samples (their times shifted by `offset_s`), answers,
  /// counts and verdict; leaves `seconds` and `extra` alone.
  void Append(const WindowResult& part, double offset_s);
};

/// One request the layer replay re-issues at every boundary.
struct ReplayItem {
  std::string key;
  const std::vector<query::Query>* frame = nullptr;
  const double* expected = nullptr;  ///< expected selectivity per frame query
};

/// Handles the layer replay needs to reach each boundary.
struct StackView {
  serve::ModelZoo* zoo = nullptr;
  serve::ServingEngine* engine = nullptr;
  uint16_t port = 0;
  /// Artifact path each key is currently registered with.
  std::map<std::string, std::string> key_paths;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The system's set-up: data, labels, training, artifacts, zoo, engine,
  /// server. Timed as setup_s.
  virtual void Setup(SetupTimes* times) = 0;
  /// The benchmark's own preparation, untimed: expected answers, the
  /// quality metrics (qerror_*, perror_mean) and the replay requests.
  virtual void Prepare() = 0;
  /// Drives the stack. `timed` selects the measured shape (fleet: the gated
  /// phase, then the rate sweep) over the warm-up shape. Trace logs are
  /// indexed by client thread.
  virtual WindowResult Drive(double seconds, bool timed, Tracer* tracer) = 0;
  /// Up to `n` requests the last Drive sent, for the layer replay.
  virtual std::vector<ReplayItem> ReplayItems(size_t n) const = 0;
  virtual StackView View() const = 0;
  /// A model of the workload and its labeled fine-tune set, for the
  /// core.finetune_ms replay.
  virtual const core::DuetModel& AnyModel() const = 0;
  virtual const query::Workload& FineTuneSet() const = 0;

  /// Client threads Drive uses (trace logs needed).
  virtual int client_threads() const = 0;
  /// qerror_p50, qerror_p99, and (plan) perror_mean from Prepare.
  const std::map<std::string, double>& quality() const { return quality_; }

 protected:
  std::map<std::string, double> quality_;
};

/// The four workloads: point, wide, fleet, plan. Returns null for any
/// other name. `dir` holds this set-up's artifacts. Construction does no
/// work; Setup() builds the stack.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& dir);

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

/// Per-boundary latency samples (microseconds) keyed by layer metric stem
/// ("net.rtt", "serve.submit", ...), plus plan byte/flop counts.
struct LayerSamples {
  std::map<std::string, std::vector<double>> us;
  double flops_per_query = 0.0;
  double weight_bytes = 0.0;
};

/// Replays `items` at each boundary in order: the wire, engine Submit+Wait,
/// engine sync EstimateBatch, the pinned artifact estimator, the encoder,
/// the compiled plan, then warm/cold zoo acquires and Register. Answers are
/// checked against the items' expectations into `check`.
LayerSamples ReplayLayers(const StackView& view, const std::vector<ReplayItem>& items,
                          SpanLog* log, WindowResult* check);

/// Times CloneModel + FineTune on `model` `reps` times (milliseconds).
std::vector<double> ReplayFineTune(const core::DuetModel& model, const query::Workload& set,
                                   int reps, SpanLog* log);

}  // namespace duet::e2e

#endif  // DUET_BENCH_E2E_E2E_H_
