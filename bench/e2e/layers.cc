// Outside-in layer replay: the same recorded requests re-issued at each
// public boundary, one layer down at a time, on an otherwise idle stack.
// A layer's self time is then its boundary's median minus the median of
// the boundary below it (README.md, "Decomposition").
#include <algorithm>
#include <string>

#include "bench/e2e/e2e.h"
#include "core/encoding.h"
#include "net/client.h"
#include "nn/inference_plan.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/tensor.h"

namespace duet::e2e {
namespace {

template <typename Fn>
double TimeCall(SpanLog* log, const char* name, uint64_t req, Fn&& fn) {
  ScopedSpan span(log, name, req);
  const Clock::time_point t0 = Clock::now();
  fn();
  return MicrosBetween(t0, Clock::now());
}

void Expect(const ReplayItem& item, size_t j, double got, const char* layer,
            WindowResult* check) {
  ++check->checked;
  if (!SameBits(got, item.expected[j])) {
    check->Fail(std::string(layer) + " answer on " + item.key +
                " differs from the pinned artifact estimator");
  }
}

serve::ZooPin Pin(serve::ModelZoo& zoo, const std::string& key, WindowResult* check) {
  serve::ZooPin pin;
  const artifact::ArtifactStatus st = zoo.TryAcquire(key, &pin);
  if (!st.ok) check->Fail("TryAcquire " + key + ": " + st.error);
  return pin;
}

}  // namespace

LayerSamples ReplayLayers(const StackView& view, const std::vector<ReplayItem>& items,
                          SpanLog* log, WindowResult* check) {
  LayerSamples out;
  if (items.empty()) {
    check->Fail("no recorded requests to replay");
    return out;
  }
  serve::ModelZoo& zoo = *view.zoo;
  serve::ServingEngine& engine = *view.engine;

  // The wire: one blocking DuetRpc connection.
  net::RpcClient client;
  net::WireStatus st = client.Connect("127.0.0.1", view.port);
  std::vector<serve::Estimate> wire;
  for (size_t i = 0; i < items.size() && st.ok; ++i) {
    const ReplayItem& item = items[i];
    out.us["net.rtt"].push_back(TimeCall(log, "replay.net.rtt", i, [&] {
      st = client.EstimateBatch(item.key, *item.frame, 0, &wire);
    }));
    check->attempted += item.frame->size();
    if (st.ok && wire.size() != item.frame->size()) {
      st.ok = false;
      st.error = "wrong answer count";
    }
    if (!st.ok) break;
    for (size_t j = 0; j < wire.size(); ++j) {
      if (wire[j].degraded()) {
        ++check->failed;
      } else {
        Expect(item, j, wire[j].selectivity, "replay wire", check);
      }
    }
  }
  if (!st.ok) {
    ++check->failed;
    check->Fail("replay wire: " + st.error);
  }

  // The engine: Submit the whole frame then Wait, and the sync keyed batch.
  std::vector<serve::ServingEngine::Future> futures;
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    futures.clear();
    out.us["serve.submit"].push_back(TimeCall(log, "replay.serve.submit", i, [&] {
      for (const query::Query& q : *item.frame) futures.push_back(engine.Submit(item.key, q));
      for (const serve::ServingEngine::Future& f : futures) f.Wait();
    }));
    check->attempted += futures.size();
    for (size_t j = 0; j < futures.size(); ++j) {
      const serve::Estimate e = futures[j].Result();
      if (e.degraded()) {
        ++check->failed;
      } else {
        Expect(item, j, e.selectivity, "replay Submit", check);
      }
    }
  }
  std::vector<double> sels;
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    out.us["serve.sync"].push_back(TimeCall(log, "replay.serve.sync", i, [&] {
      sels = engine.EstimateBatch(item.key, *item.frame);
    }));
    check->attempted += sels.size();
    for (size_t j = 0; j < sels.size(); ++j) Expect(item, j, sels[j], "replay sync", check);
  }

  // The pinned artifact estimator, then its two stages: the encoder and the
  // compiled plan (everything else in the estimator is core.post).
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    const serve::ZooPin pin = Pin(zoo, item.key, check);
    if (pin == nullptr) return out;
    out.us["core.estimate"].push_back(TimeCall(log, "replay.core.estimate", i, [&] {
      sels = pin->estimator().EstimateSelectivityBatch(*item.frame);
    }));
    for (size_t j = 0; j < sels.size(); ++j) Expect(item, j, sels[j], "replay estimator", check);
  }
  std::vector<float> x, logits;
  const tensor::NoGradScope no_grad;  // the plan's kernels are inference-only
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    const serve::ZooPin pin = Pin(zoo, item.key, check);
    if (pin == nullptr) return out;
    const artifact::ArtifactModel& model = pin->model();
    const core::DuetInputEncoder encoder(model.table(), model.encoding());
    const int64_t rows = static_cast<int64_t>(item.frame->size());
    const int64_t width = encoder.total_width();
    x.resize(static_cast<size_t>(rows * width));
    logits.resize(static_cast<size_t>(rows * model.plan().output_dim()));
    out.us["core.encode"].push_back(TimeCall(log, "replay.core.encode", i, [&] {
      std::fill(x.begin(), x.end(), 0.0f);
      for (int64_t r = 0; r < rows; ++r) {
        encoder.EncodeQueryRow(model.table(), (*item.frame)[static_cast<size_t>(r)],
                               x.data() + r * width);
      }
    }));
    out.us["nn.forward"].push_back(TimeCall(log, "replay.nn.forward", i, [&] {
      model.plan().ExecuteInto(x.data(), rows, logits.data());
    }));
    if (i == 0) {
      for (const nn::PackedOp& op : model.plan().ops()) {
        if (op.kind == nn::PackedOp::Kind::kLinear) {
          out.flops_per_query += 2.0 * static_cast<double>(op.in) * static_cast<double>(op.out);
        }
      }
      out.weight_bytes = static_cast<double>(model.plan().bytes());
    }
  }

  // The zoo: a hit on a resident key, then a cold load after Evict.
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    Pin(zoo, item.key, check);  // make the key resident
    serve::ZooPin pin;
    artifact::ArtifactStatus ast;
    out.us["serve.acquire_hit"].push_back(TimeCall(log, "replay.serve.acquire_hit", i, [&] {
      ast = zoo.TryAcquire(item.key, &pin);
    }));
    if (!ast.ok) check->Fail("TryAcquire " + item.key + ": " + ast.error);
    pin.reset();
    if (!zoo.Evict(item.key)) {
      check->Fail("Evict refused for " + item.key);
      return out;
    }
    out.us["artifact.load"].push_back(TimeCall(log, "replay.artifact.load", i, [&] {
      ast = zoo.TryAcquire(item.key, &pin);
    }));
    if (!ast.ok) check->Fail("cold TryAcquire " + item.key + ": " + ast.error);
  }

  // Register is metadata only: re-register each key with its current path.
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    const std::string& path = view.key_paths.at(item.key);
    out.us["serve.register"].push_back(
        TimeCall(log, "replay.serve.register", i, [&] { zoo.Register(item.key, path); }));
  }
  return out;
}

}  // namespace duet::e2e
