// bench/e2e entry point: runs one named workload per process and prints every
// metric by name with its unit, a JSON record, and as the last line the
// result object {"correct","attempted","failed","metrics"}.
//
//   duet_e2e --workload <point|wide|fleet|plan> --seed <n> [--seconds <s>]
//            [--trace <0|1|FILE>] [--setups <n>] [--out <file>] [--sha <sha>]
//
// Untraced runs (--trace 0) build --setups stacks (default 3), measure each
// for an equal share of the --seconds window and report the end-to-end
// metrics. Traced runs (--trace 1, or a trace file path) build one stack,
// run the window untraced and then traced, replay recorded requests at each
// layer boundary and report the per-layer metrics.
// Flags may be written --name value or --name=value; anything else is an
// error. Run it through run.sh, which builds it first.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "serve/model_zoo.h"
#include "tensor/simd_dispatch.h"

namespace duet::e2e {
namespace {

/// Scratch space inside the checkout; the run removes its own directory.
constexpr const char* kWorkDir = ".bench_build/e2e";
/// Untimed warm-up of each stack before its timed window.
constexpr double kWarmupSeconds = 1.0;
constexpr int kReplayRequests = 1000;
constexpr int kFineTuneReplays = 3;
/// Latency percentiles are medians over slices this long (SlicedQuantile);
/// at the slowest gated rate a slice still holds over 1000 samples.
constexpr double kSliceSeconds = 1.0;

// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string> kEndToEnd = {"setup_s",        "latency_p50_us", "latency_p99_us",
                                            "throughput_qps", "qerror_p50",     "qerror_p99",
                                            "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "net.rtt_us",           "net.self_us",
    "serve.submit_us",      "serve.sync_us",           "serve.batch_wait_us",
    "serve.self_us",        "serve.acquire_hit_us",    "serve.register_us",
    "serve.resident_bytes", "artifact.load_us",        "artifact.write_ms",
    "core.estimate_us",     "core.encode_us",          "nn.forward_us",
    "core.post_us",         "nn.flops_per_query",      "nn.weight_bytes",
    "nn.weight_gbps",       "core.train_epoch_s",      "core.train_tuples_per_s",
    "core.finetune_ms",     "data.generate_s",         "query.label_s",
    "bench.gen_lag_p99_us", "bench.trace_overhead_pct", "bench.samples",
    "bench.checked_answers"};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_file;
  int setups = 3;
  std::string out;
  std::string sha = "unknown";
};

bool ParseNumber(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  static const std::set<std::string> kFlags = {"workload", "seed",  "seconds", "trace",
                                               "setups",   "out",   "sha"};
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *err = "unexpected argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    std::string name = arg, value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *err = "--" + name + " needs a value";
      return false;
    }
    if (kFlags.count(name) == 0) {
      *err = "unknown flag --" + name;
      return false;
    }
    if (!values.emplace(name, value).second) {
      *err = "--" + name + " given twice";
      return false;
    }
  }
  // Missing flags read as empty strings, which no check below accepts.
  o->workload = values["workload"];
  if (MakeWorkload(o->workload, 0, "") == nullptr) {
    *err = "--workload must be one of point, wide, fleet, plan";
    return false;
  }
  const std::string& seed = values["seed"];
  if (seed.empty() || seed.size() > 18 ||
      seed.find_first_not_of("0123456789") != std::string::npos) {
    *err = "--seed must be a non-negative integer";
    return false;
  }
  o->seed = std::stoull(seed);
  double number = 0.0;
  if (values.count("seconds") != 0) {
    if (!ParseNumber(values["seconds"], &number) || !(number > 0.0 && number <= 600.0)) {
      *err = "--seconds must be in (0, 600]";
      return false;
    }
    o->seconds = number;
  }
  if (values.count("setups") != 0) {
    if (!ParseNumber(values["setups"], &number) || number < 1 || number > 10 ||
        number != static_cast<int>(number)) {
      *err = "--setups must be an integer in [1, 10]";
      return false;
    }
    o->setups = static_cast<int>(number);
  }
  if (values.count("trace") != 0 && values["trace"] != "0") {
    o->trace = true;
    o->trace_file = values["trace"] != "1"
                        ? values["trace"]
                        : std::string(kWorkDir) + "/trace-" + o->workload + "-seed" +
                              std::to_string(o->seed) + ".json";
  }
  if (values.count("out") != 0) o->out = values["out"];
  if (values.count("sha") != 0) o->sha = values["sha"];
  return true;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics, const std::vector<std::string>* only) {
  std::string out = "{";
  bool first = true;
  auto add = [&](const std::string& name, const Metric& m) {
    out += (first ? "" : ",") + JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
    first = false;
  };
  if (only != nullptr) {
    for (const std::string& name : *only) add(name, metrics.at(name));
  } else {
    for (const auto& [name, m] : metrics) add(name, m);
  }
  return out + "}";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Adds `from`'s counts and verdict to `into`.
void Accumulate(const WindowResult& from, WindowResult* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->checked += from.checked;
  if (!from.correct) into->Fail(from.error);
}

/// Appends one stack's timed window to the run's. Sample times are shifted
/// past the earlier windows' slices so no slice mixes two stacks;
/// workload-specific numbers are kept per window in `extras`.
void AppendWindow(const WindowResult& part, double* slice_offset_s, WindowResult* run,
                  std::map<std::string, std::vector<double>>* extras) {
  run->Append(part, *slice_offset_s);
  *slice_offset_s += std::ceil(part.seconds / kSliceSeconds) * kSliceSeconds;
  run->seconds += part.seconds;
  for (const auto& [name, value] : part.extra) (*extras)[name].push_back(value);
}

std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_us")) return "us";
  if (ends_with("_qps")) return "1/s";
  return "count";
}

/// Builds and prepares workload stack `i`, timing its set-up.
std::unique_ptr<Workload> SetUp(const Options& o, const std::string& dir, int i,
                                SetupTimes* times, std::vector<double>* setup_s) {
  const std::string setup_dir = dir + "/setup-" + std::to_string(i);
  std::filesystem::create_directories(setup_dir);
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload, o.seed, setup_dir);
  *times = SetupTimes{};
  const Clock::time_point t0 = Clock::now();
  workload->Setup(times);
  setup_s->push_back(SecondsSince(t0));
  workload->Prepare();
  return workload;
}

int Run(const Options& o) {
  const std::string dir = std::string(kWorkDir) + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{dir};

  const double warmup_s = std::min(kWarmupSeconds, o.seconds);
  std::vector<double> setup_s;
  SetupTimes times;
  WindowResult total;  // every request the run sent, warm-ups included
  Metrics m;
  uint64_t samples = 0;

  if (!o.trace) {
    // Several stacks, each set up and then measured for an equal share of
    // the window. Stacks differ in where their threads land; sampling
    // several moves a run's result less than measuring one.
    WindowResult window;
    std::map<std::string, std::vector<double>> extras;
    std::map<std::string, double> quality;
    double slice_offset_s = 0.0;
    for (int i = 0; i < o.setups; ++i) {
      {
        const std::unique_ptr<Workload> workload = SetUp(o, dir, i, &times, &setup_s);
        Accumulate(workload->Drive(warmup_s, /*timed=*/false, nullptr), &total);
        AppendWindow(workload->Drive(o.seconds / o.setups, /*timed=*/true, nullptr),
                     &slice_offset_s, &window, &extras);
        quality = workload->quality();
      }
      // Hand the destroyed stack's heap back, so the next stack's peak RSS
      // is its own and not the previous stack's fragmentation.
      malloc_trim(0);
    }
    Accumulate(window, &total);
    samples = window.latency_us.size();
    // The first set-up also pays the process's one-time start costs (page
    // faults, thread pools); the median of the others is the steady cost,
    // so set-up work a change adds shows against a steady baseline.
    m["setup_s"] = {setup_s.size() > 1
                        ? Median(std::vector<double>(setup_s.begin() + 1, setup_s.end()))
                        : setup_s[0],
                    "s"};
    m["latency_p50_us"] = {
        SlicedQuantile(window.latency_us, window.latency_at_s, 0.50, kSliceSeconds), "us"};
    m["latency_p99_us"] = {
        SlicedQuantile(window.latency_us, window.latency_at_s, 0.99, kSliceSeconds), "us"};
    m["throughput_qps"] = {static_cast<double>(window.answers) / window.seconds, "1/s"};
    m["qerror_p50"] = {quality.at("qerror_p50"), "ratio"};
    m["qerror_p99"] = {quality.at("qerror_p99"), "ratio"};
    m["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    for (const auto& [name, values] : extras) m[name] = {Median(values), UnitOf(name)};
    if (quality.count("perror_mean") != 0) m["perror_mean"] = {quality.at("perror_mean"), "ratio"};
    m["bench.gen_lag_p99_us"] = {Quantile(window.gen_lag_us, 0.99), "us"};
  } else {
    // One stack: the untraced window, the same window traced, then the
    // layer replay. The two windows' medians give the tracing overhead.
    const std::unique_ptr<Workload> workload = SetUp(o, dir, 0, &times, &setup_s);
    Accumulate(workload->Drive(warmup_s, /*timed=*/false, nullptr), &total);
    const WindowResult window = workload->Drive(o.seconds, /*timed=*/true, nullptr);
    Accumulate(window, &total);
    Tracer tracer(workload->client_threads() + 1,
                  static_cast<size_t>(std::max(65536.0, o.seconds * 30000.0)));
    const WindowResult traced = workload->Drive(o.seconds, /*timed=*/true, &tracer);
    Accumulate(traced, &total);
    samples = traced.latency_us.size();
    const StackView view = workload->View();
    const double resident_bytes = static_cast<double>(view.zoo->ResidentBytes());
    SpanLog* replay_log = tracer.log(workload->client_threads());
    WindowResult replay;
    const LayerSamples layers =
        ReplayLayers(view, workload->ReplayItems(kReplayRequests), replay_log, &replay);
    Accumulate(replay, &total);
    const std::vector<double> finetune_ms = ReplayFineTune(
        workload->AnyModel(), workload->FineTuneSet(), kFineTuneReplays, replay_log);

    auto layer = [&](const char* stem) {
      const auto it = layers.us.find(stem);
      return it == layers.us.end() ? 0.0 : Median(it->second);
    };
    const double rtt = layer("net.rtt"), submit = layer("serve.submit");
    const double sync = layer("serve.sync"), estimate = layer("core.estimate");
    const double encode = layer("core.encode"), forward = layer("nn.forward");
    const double p50 = SlicedQuantile(window.latency_us, window.latency_at_s, 0.50, kSliceSeconds);
    const double traced_p50 =
        SlicedQuantile(traced.latency_us, traced.latency_at_s, 0.50, kSliceSeconds);
    m["net.rtt_us"] = {rtt, "us"};
    m["net.self_us"] = {rtt - submit, "us"};
    m["serve.submit_us"] = {submit, "us"};
    m["serve.sync_us"] = {sync, "us"};
    m["serve.batch_wait_us"] = {submit - sync, "us"};
    m["serve.self_us"] = {sync - estimate, "us"};
    m["serve.acquire_hit_us"] = {layer("serve.acquire_hit"), "us"};
    m["serve.register_us"] = {layer("serve.register"), "us"};
    m["serve.resident_bytes"] = {resident_bytes, "bytes"};
    m["artifact.load_us"] = {layer("artifact.load"), "us"};
    m["artifact.write_ms"] = {Median(times.write_ms), "ms"};
    m["core.estimate_us"] = {estimate, "us"};
    m["core.encode_us"] = {encode, "us"};
    m["nn.forward_us"] = {forward, "us"};
    m["core.post_us"] = {estimate - encode - forward, "us"};
    m["nn.flops_per_query"] = {layers.flops_per_query, "count"};
    m["nn.weight_bytes"] = {layers.weight_bytes, "bytes"};
    m["nn.weight_gbps"] = {forward > 0.0 ? layers.weight_bytes / forward / 1e3 : 0.0, "GB/s"};
    m["core.train_epoch_s"] = {Median(times.epoch_s), "s"};
    m["core.train_tuples_per_s"] = {Median(times.tuples_per_s), "1/s"};
    m["core.finetune_ms"] = {Median(finetune_ms), "ms"};
    m["data.generate_s"] = {times.generate_s, "s"};
    m["query.label_s"] = {times.label_s, "s"};
    m["bench.gen_lag_p99_us"] = {Quantile(traced.gen_lag_us, 0.99), "us"};
    m["bench.trace_overhead_pct"] = {p50 > 0.0 ? 100.0 * (traced_p50 - p50) / p50 : 0.0, "%"};
    m["bench.samples"] = {static_cast<double>(samples), "count"};
    for (const auto& [name, value] : traced.extra) {
      if (name.rfind("optimizer.", 0) == 0) m[name] = {value, UnitOf(name)};
    }
    m["bench.trace_spans"] = {static_cast<double>(tracer.spans()), "count"};
    m["bench.trace_dropped"] = {static_cast<double>(tracer.dropped()), "count"};
    const std::filesystem::path trace_path(o.trace_file);
    if (trace_path.has_parent_path()) std::filesystem::create_directories(trace_path.parent_path());
    if (!tracer.WriteChromeJson(o.trace_file)) {
      throw std::runtime_error("cannot write trace file " + o.trace_file);
    }
  }
  m["bench.checked_answers"] = {static_cast<double>(total.checked), "count"};
  m["failed_ratio"] = {total.attempted == 0 ? 0.0
                                            : static_cast<double>(total.failed) / total.attempted,
                       "fraction"};

  std::printf("e2e %s seed=%llu window=%gs stacks=%zu trace=%s isa=%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, setup_s.size(),
              o.trace ? o.trace_file.c_str() : "off", tensor::simd::ActiveIsaName());
  for (const auto& [name, metric] : m) {
    std::printf("  %-28s %16.4f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  if (!total.correct) std::printf("  CHECK FAILED: %s\n", total.error.c_str());

  const char* scale = std::getenv("DUET_BENCH_SCALE");  // recorded, never used
  const std::vector<std::string>& gated = o.trace ? kPerLayer : kEndToEnd;
  std::string setups_json = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups_json += (i == 0 ? "" : ",") + JsonNumber(setup_s[i]);
  }
  setups_json += "]";
  const std::string record =
      "{\"bench\":\"e2e\",\"workload\":" + JsonString(o.workload) +
      ",\"seed\":" + std::to_string(o.seed) + ",\"seconds\":" + JsonNumber(o.seconds) +
      ",\"trace\":" + (o.trace ? "true" : "false") + ",\"setups\":" + setups_json +
      ",\"sha\":" + JsonString(o.sha) + ",\"isa\":" + JsonString(tensor::simd::ActiveIsaName()) +
      ",\"hw_threads\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"compiler\":" + JsonString(Compiler()) + ",\"build_type\":" +
      JsonString(DUET_E2E_BUILD_TYPE) + ",\"duet_bench_scale\":" +
      (scale != nullptr ? JsonString(scale) : std::string("null")) +
      ",\"samples\":" + std::to_string(samples) +
      ",\"checked_answers\":" + std::to_string(total.checked) +
      ",\"correct\":" + (total.correct ? "true" : "false") +
      ",\"error\":" + JsonString(total.error) +
      ",\"attempted\":" + std::to_string(total.attempted) +
      ",\"failed\":" + std::to_string(total.failed) + ",\"metrics\":" + MetricsJson(m, nullptr) +
      "}";
  std::printf("RECORD %s\n", record.c_str());
  if (!o.out.empty()) {
    std::FILE* f = std::fopen(o.out.c_str(), "w");
    if (f == nullptr || std::fprintf(f, "%s\n", record.c_str()) < 0 || std::fclose(f) != 0) {
      throw std::runtime_error("cannot write " + o.out);
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              total.correct ? "true" : "false", static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), MetricsJson(m, &gated).c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace duet::e2e

int main(int argc, char** argv) {
  using namespace duet::e2e;
  TraceNow();  // pins the trace origin at process start
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  std::string err;
  if (!ParseArgs(argc, argv, &options, &err)) {
    std::fprintf(stderr, "duet_e2e: %s\n", err.c_str());
    return 2;
  }
  try {
    return Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "duet_e2e: %s\n", e.what());
    return 1;
  }
}
