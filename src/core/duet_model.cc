#include "core/duet_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace duet::core {

using tensor::Tensor;

namespace {
/// Selectivity factors are floored at this value before the log-space
/// product so hybrid-training gradients stay finite.
constexpr float kSelEps = 1e-12f;

/// Queries per batched forward pass; bounds peak activation memory when a
/// caller (e.g. EvaluateQErrors) hands over a whole workload. Chunking never
/// changes results — rows are batch-size independent.
constexpr int64_t kMaxQueriesPerForward = 4096;

/// One constrained column's factor in log space: the masked softmax mass
/// of `r` within the block's logits ls[0, len). MaskedLogSelectivity and
/// EstimateSelectivities both sum exactly this, column by column.
double MaskedLogFactor(const float* ls, int64_t len, query::CodeRange r) {
  float mx = ls[0];
  for (int64_t j = 1; j < len; ++j) mx = std::max(mx, ls[j]);
  double denom = 0.0, num = 0.0;
  for (int64_t j = 0; j < len; ++j) {
    const double e = std::exp(static_cast<double>(ls[j] - mx));
    denom += e;
    if (j >= r.lo && j < r.hi) num += e;
  }
  return std::log(std::max(num / denom, static_cast<double>(kSelEps)));
}

/// A column whose range is its whole domain is a factor of 1.
bool IsWildcard(query::CodeRange r, const tensor::BlockSpec& blk) {
  return r.lo == 0 && r.hi == static_cast<int32_t>(blk.len);
}

/// Per-thread scratch of one estimate frame. `rows` holds the rows that
/// need a forward; span s of `rows` is the logit block of columns[s].
struct EstimateFrame {
  CompactRow row;
  nn::SparseBatch rows;
  std::vector<ColumnRange> columns;
  std::vector<int64_t> row_query;  // forward row -> query index in the chunk
  std::vector<float> logits;       // compact: rows' spans back to back
};

}  // namespace

bool MaskedLogSelectivity(const float* logits_row, const std::vector<tensor::BlockSpec>& blocks,
                          const std::vector<query::CodeRange>& ranges, int num_columns,
                          double* log_sel_out) {
  double log_sel = 0.0;
  for (int c = 0; c < num_columns; ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    if (r.empty()) return false;
    const tensor::BlockSpec& blk = blocks[static_cast<size_t>(c)];
    if (IsWildcard(r, blk)) continue;
    log_sel += MaskedLogFactor(logits_row + blk.offset, blk.len, r);
  }
  *log_sel_out = log_sel;
  return true;
}

void EstimateSelectivities(const data::Table& table, const DuetInputEncoder& encoder,
                           const std::vector<tensor::BlockSpec>& blocks,
                           const nn::InferencePlan& plan, const query::Query* queries,
                           int64_t count, double* sels, PhaseTimes* phases) {
  DUET_CHECK_EQ(static_cast<int64_t>(blocks.size()), table.num_columns());
  tensor::NoGradScope no_grad;
  // A named reference, not the thread_local itself: the post phase's chunks
  // run on pool threads and must read this thread's frame.
  thread_local EstimateFrame scratch;
  EstimateFrame& frame = scratch;
  for (int64_t begin = 0; begin < count; begin += kMaxQueriesPerForward) {
    const int64_t b = std::min(kMaxQueriesPerForward, count - begin);
    const query::Query* chunk = queries + begin;
    double* out = sels + begin;

    Timer timer;
    frame.rows.Clear();
    frame.columns.clear();
    frame.row_query.clear();
    for (int64_t q = 0; q < b; ++q) {
      if (!encoder.EncodeQueryCompact(table, chunk[q], &frame.row)) {
        out[q] = 0.0;  // contradictory predicates select nothing
        continue;
      }
      const size_t first = frame.columns.size();
      for (const ColumnRange& c : frame.row.columns) {
        const tensor::BlockSpec& blk = blocks[static_cast<size_t>(c.col)];
        if (IsWildcard(c.range, blk)) continue;
        frame.columns.push_back(c);
        frame.rows.AddSpan(static_cast<int32_t>(blk.offset),
                           static_cast<int32_t>(blk.offset + blk.len));
      }
      if (frame.columns.size() == first) {
        out[q] = 1.0;  // exp of an empty log-space product
        continue;
      }
      for (size_t e = 0; e < frame.row.entry_k.size(); ++e) {
        frame.rows.AddEntry(frame.row.entry_k[e], frame.row.entry_v[e]);
      }
      frame.rows.EndRow();
      frame.row_query.push_back(q);
    }
    const int64_t n = frame.rows.rows();
    if (phases != nullptr) phases->encode_ms += timer.Millis();
    if (n == 0) continue;

    timer.Reset();
    frame.logits.resize(static_cast<size_t>(frame.rows.output_size()));
    plan.ExecuteSparse(frame.rows, frame.logits.data());
    if (phases != nullptr) phases->forward_ms += timer.Millis();

    // Rows are independent, so this parallelizes without affecting
    // per-query numerics.
    timer.Reset();
    ParallelForChunked(
        0, n,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const size_t ri = static_cast<size_t>(r);
            const float* ls = frame.logits.data() + frame.rows.out_begin[ri];
            double log_sel = 0.0;
            for (int64_t s = frame.rows.span_begin[ri]; s < frame.rows.span_begin[ri + 1]; ++s) {
              const tensor::ColumnSpan span = frame.rows.spans[static_cast<size_t>(s)];
              log_sel += MaskedLogFactor(ls, span.hi - span.lo,
                                         frame.columns[static_cast<size_t>(s)].range);
              ls += span.hi - span.lo;
            }
            out[frame.row_query[ri]] = std::exp(log_sel);
          }
        },
        /*parallel=*/n >= 64, /*grain=*/16);
    if (phases != nullptr) phases->post_ms += timer.Millis();
  }
}

DuetModel::DuetModel(const data::Table& table, DuetModelOptions options)
    : table_(table), options_(std::move(options)), encoder_(table, options_.encoding) {
  Rng rng(options_.seed);
  nn::MadeOptions made_opt;
  made_opt.input_widths = encoder_.BlockWidths();
  made_opt.output_widths = table.ColumnNdvs();
  made_opt.hidden_sizes = options_.hidden_sizes;
  made_opt.residual = options_.residual;
  made_ = std::make_unique<nn::Made>(made_opt, rng);
  RegisterChild(*made_);
}

Tensor DuetModel::EncodeVirtualBatch(const VirtualBatch& batch) const {
  DUET_CHECK_EQ(batch.num_columns, table_.num_columns());
  const int64_t b = batch.batch;
  const int64_t d = encoder_.total_width();
  Tensor x = Tensor::Zeros({b, d});
  float* xp = x.data();
  for (int64_t r = 0; r < b; ++r) {
    float* row = xp + r * d;
    for (int c = 0; c < batch.num_columns; ++c) {
      const int8_t op = batch.op_at(r, c);
      if (op < 0) continue;  // wildcard block stays zero
      encoder_.EncodePredicate(c, static_cast<query::PredOp>(op), batch.code_at(r, c),
                               row + encoder_.block_offset(c));
    }
  }
  return x;
}

Tensor DuetModel::ForwardLogits(const Tensor& x) const { return made_->Forward(x); }

Tensor DuetModel::DataLoss(const VirtualBatch& batch) const {
  const Tensor x = EncodeVirtualBatch(batch);
  const Tensor logits = ForwardLogits(x);
  const Tensor logp = tensor::LogSoftmaxBlocks(logits, made_->output_blocks());
  return tensor::NllLossBlocks(logp, made_->output_blocks(), batch.labels);
}


void DuetModel::FillMaskRow(const std::vector<query::CodeRange>& ranges, float* dst) const {
  const auto& blocks = made_->output_blocks();
  for (int c = 0; c < table_.num_columns(); ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    float* block = dst + blocks[static_cast<size_t>(c)].offset;
    for (int32_t j = r.lo; j < r.hi; ++j) block[j] = 1.0f;
  }
}

Tensor DuetModel::SelectivityBatch(const std::vector<query::Query>& queries) const {
  DUET_CHECK(!queries.empty());
  const int64_t b = static_cast<int64_t>(queries.size());
  const int64_t d = encoder_.total_width();
  const int64_t out_dim = made_->output_dim();
  Tensor x = Tensor::Zeros({b, d});
  Tensor mask = Tensor::Zeros({b, out_dim});
  encoder_.EncodeQueryBatch(table_, queries, x.data());
  for (int64_t r = 0; r < b; ++r) {
    const query::Query& q = queries[static_cast<size_t>(r)];
    FillMaskRow(q.PerColumnRanges(table_), mask.data() + r * out_dim);
  }
  const Tensor logits = ForwardLogits(x);
  const Tensor probs = tensor::SoftmaxBlocks(logits, made_->output_blocks());
  const Tensor factors = tensor::MaskedSumBlocks(probs, mask, made_->output_blocks());
  // Product over columns in log space (numerically safe for 100 columns).
  const Tensor logf = tensor::Log(tensor::ClampMin(factors, kSelEps));
  return tensor::Exp(tensor::SumCols(logf));
}

void DuetModel::Estimate(const query::Query* queries, int64_t count, double* sels) const {
  tensor::NoGradScope no_grad;  // the plan compiles on first use, as in Forward
  const std::shared_ptr<const nn::InferencePlan> plan = made_->Plan();
  PhaseTimes phases;
  EstimateSelectivities(table_, encoder_, made_->output_blocks(), *plan, queries, count, sels,
                        &phases);
  std::lock_guard<std::mutex> lock(*phase_mu_);
  phase_times_.encode_ms += phases.encode_ms;
  phase_times_.forward_ms += phases.forward_ms;
  phase_times_.post_ms += phases.post_ms;
}

double DuetModel::EstimateSelectivity(const query::Query& query) const {
  double sel = 0.0;
  Estimate(&query, 1, &sel);
  return sel;
}

std::vector<double> DuetModel::EstimateSelectivityBatch(
    const std::vector<query::Query>& queries) const {
  std::vector<double> sels(queries.size());
  if (!queries.empty()) Estimate(queries.data(), static_cast<int64_t>(queries.size()), sels.data());
  return sels;
}

}  // namespace duet::core
