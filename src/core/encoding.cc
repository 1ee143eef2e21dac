#include "core/encoding.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace duet::core {

int64_t BinaryWidth(int32_t ndv) {
  DUET_CHECK_GT(ndv, 0);
  int64_t bits = 1;
  while ((int64_t{1} << bits) < ndv) ++bits;
  return bits;
}

ColumnValueEncoder::ColumnValueEncoder(const data::Table& table,
                                       const EncodingOptions& options) {
  Rng rng(options.seed);
  for (int c = 0; c < table.num_columns(); ++c) {
    const int32_t ndv = table.column(c).ndv();
    ndvs_.push_back(ndv);
    ValueEncoding kind =
        ndv <= options.one_hot_max_ndv ? ValueEncoding::kOneHot : options.large_encoding;
    kinds_.push_back(kind);
    switch (kind) {
      case ValueEncoding::kOneHot:
        widths_.push_back(ndv);
        codebooks_.emplace_back();
        break;
      case ValueEncoding::kBinary:
        widths_.push_back(BinaryWidth(ndv));
        codebooks_.emplace_back();
        break;
      case ValueEncoding::kEmbedding: {
        widths_.push_back(options.embedding_dim);
        std::vector<float> book(static_cast<size_t>(ndv * options.embedding_dim));
        for (auto& v : book) v = static_cast<float>(rng.Gaussian()) * 0.5f;
        codebooks_.push_back(std::move(book));
        break;
      }
    }
  }
}

template <typename Put>
void ColumnValueEncoder::VisitValue(int col, int32_t code, Put&& put) const {
  const size_t ci = static_cast<size_t>(col);
  DUET_CHECK_GE(code, 0);
  DUET_CHECK_LT(code, ndvs_[ci]);
  switch (kinds_[ci]) {
    case ValueEncoding::kOneHot:
      put(int64_t{code}, 1.0f);
      break;
    case ValueEncoding::kBinary: {
      const int64_t w = widths_[ci];
      for (int64_t b = 0; b < w; ++b) {
        put(b, static_cast<float>((static_cast<uint32_t>(code) >> b) & 1u));
      }
      break;
    }
    case ValueEncoding::kEmbedding: {
      const int64_t w = widths_[ci];
      const float* row = codebooks_[ci].data() + static_cast<int64_t>(code) * w;
      for (int64_t b = 0; b < w; ++b) put(b, row[b]);
      break;
    }
  }
}

void ColumnValueEncoder::EncodeValue(int col, int32_t code, float* dst) const {
  VisitValue(col, code, [dst](int64_t i, float v) { dst[i] = v; });
}

tensor::Tensor ColumnValueEncoder::CodeMatrix(int col) const {
  const size_t ci = static_cast<size_t>(col);
  const int32_t ndv = ndvs_[ci];
  const int64_t w = widths_[ci];
  tensor::Tensor m = tensor::Tensor::Zeros({ndv, w});
  float* p = m.data();
  for (int32_t c = 0; c < ndv; ++c) EncodeValue(col, c, p + static_cast<int64_t>(c) * w);
  return m;
}

DuetInputEncoder::DuetInputEncoder(const data::Table& table, const EncodingOptions& options)
    : values_(table, options) {
  for (int c = 0; c < table.num_columns(); ++c) {
    offsets_.push_back(total_width_);
    total_width_ += block_width(c);
  }
}

int64_t DuetInputEncoder::block_width(int col) const {
  return values_.value_width(col) + query::kNumPredOps;
}

std::vector<int64_t> DuetInputEncoder::BlockWidths() const {
  std::vector<int64_t> widths;
  for (int c = 0; c < values_.num_columns(); ++c) widths.push_back(block_width(c));
  return widths;
}

void DuetInputEncoder::EncodePredicate(int col, query::PredOp op, int32_t code,
                                       float* dst) const {
  values_.EncodeValue(col, code, dst);
  dst[values_.value_width(col) + static_cast<int32_t>(op)] = 1.0f;
}

void DuetInputEncoder::EncodeWildcard(int /*col*/, float* /*dst*/) const {
  // All-zero block: no op bit set <=> no predicate (paper Sec. IV-C).
}

bool DuetInputEncoder::EncodeQueryCompact(const data::Table& table, const query::Query& query,
                                          CompactRow* row) const {
  row->entry_k.clear();
  row->entry_v.clear();
  row->columns.clear();
  // Visit the predicates grouped by column, columns ascending, so the
  // entries come out k-ascending (blocks are laid out in column order).
  auto& order = row->order;
  order.clear();
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const int col = query.predicates[i].col;
    DUET_CHECK_GE(col, 0);
    DUET_CHECK_LT(col, table.num_columns());
    order.emplace_back(col, static_cast<int32_t>(i));
  }
  std::sort(order.begin(), order.end());
  // EncodePredicate's block, as entries: the value encoding, then the op bit.
  auto append = [&](int col, query::PredOp op, int32_t code) {
    const int64_t base = block_offset(col);
    values_.VisitValue(col, code, [&](int64_t i, float v) {
      if (v == 0.0f) return;
      row->entry_k.push_back(static_cast<int32_t>(base + i));
      row->entry_v.push_back(v);
    });
    row->entry_k.push_back(
        static_cast<int32_t>(base + values_.value_width(col) + static_cast<int32_t>(op)));
    row->entry_v.push_back(1.0f);
  };
  bool satisfiable = true;
  for (size_t g = 0; g < order.size();) {
    const int col = order[g].first;
    size_t end = g + 1;
    while (end < order.size() && order[end].first == col) ++end;
    const data::Column& column = table.column(col);
    query::CodeRange range{0, column.ndv()};
    for (size_t i = g; i < end; ++i) {
      const query::Predicate& p = query.predicates[static_cast<size_t>(order[i].second)];
      range = query::IntersectRanges(range, query::RangeForPredicate(column, p.op, p.value));
    }
    if (end - g == 1) {
      // The predicate value maps to its boundary code; exact containment is
      // enforced by the zero-out mask, the input only conditions the net.
      const query::Predicate& p = query.predicates[static_cast<size_t>(order[g].second)];
      append(col, p.op, std::clamp(column.LowerBound(p.value), 0, column.ndv() - 1));
    } else if (!range.empty()) {
      // Several predicates condense to one over the intersected range; an
      // empty one stays a zero block (the estimate is 0 without a forward).
      const query::PredOp op = range.size() == 1 ? query::PredOp::kEq : query::PredOp::kGe;
      append(col, op, std::clamp(range.lo, 0, column.ndv() - 1));
    }
    row->columns.push_back({col, range});
    satisfiable &= !range.empty();
    g = end;
  }
  return satisfiable;
}

void DuetInputEncoder::EncodeQueryRow(const data::Table& table, const query::Query& query,
                                      float* dst) const {
  thread_local CompactRow row;
  EncodeQueryCompact(table, query, &row);
  for (size_t e = 0; e < row.entry_k.size(); ++e) dst[row.entry_k[e]] = row.entry_v[e];
}

void DuetInputEncoder::EncodeQueryBatch(const data::Table& table,
                                        const std::vector<query::Query>& queries,
                                        float* dst) const {
  const int64_t b = static_cast<int64_t>(queries.size());
  const int64_t d = total_width_;
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          EncodeQueryRow(table, queries[static_cast<size_t>(r)], dst + r * d);
        }
      },
      /*parallel=*/b >= 64, /*grain=*/16);
}

NaruInputEncoder::NaruInputEncoder(const data::Table& table, const EncodingOptions& options)
    : values_(table, options) {
  for (int c = 0; c < table.num_columns(); ++c) {
    offsets_.push_back(total_width_);
    total_width_ += block_width(c);
  }
}

int64_t NaruInputEncoder::block_width(int col) const {
  return 1 + values_.value_width(col);
}

std::vector<int64_t> NaruInputEncoder::BlockWidths() const {
  std::vector<int64_t> widths;
  for (int c = 0; c < values_.num_columns(); ++c) widths.push_back(block_width(c));
  return widths;
}

void NaruInputEncoder::EncodeValue(int col, int32_t code, float* dst) const {
  dst[0] = 1.0f;  // present flag (wildcard-skipping marker)
  values_.EncodeValue(col, code, dst + 1);
}

tensor::Tensor NaruInputEncoder::BlockCodeMatrix(int col) const {
  const int32_t ndv = values_.ndv(col);
  const int64_t w = block_width(col);
  tensor::Tensor m = tensor::Tensor::Zeros({ndv, w});
  float* p = m.data();
  for (int32_t c = 0; c < ndv; ++c) EncodeValue(col, c, p + static_cast<int64_t>(c) * w);
  return m;
}

}  // namespace duet::core
