// Input encodings for the autoregressive models (paper Sec. IV-C
// "Encoding" and Sec. V-A4).
//
// Duet encodes each column's predicate as [value_encoding | op_one_hot(5)];
// a column without a predicate keeps an all-zero op vector (the wildcard
// marker — any real predicate has exactly one op bit set, so zeros are
// unambiguous). Naru/UAE encode each column's *value* as
// [present_flag | value_encoding]; the flag plays the role of Naru's
// learnable MASK token for wildcard skipping.
//
// Value encodings: one-hot for small domains, binary bits for large ones
// (Naru's default), or a fixed random codebook ("embedding"; documented
// substitution — the codebook is frozen rather than trained so the hot
// input-assembly path stays a raw buffer fill).
#ifndef DUET_CORE_ENCODING_H_
#define DUET_CORE_ENCODING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/table.h"
#include "query/query.h"
#include "tensor/tensor.h"

namespace duet::core {

/// Per-column value encoding strategy.
enum class ValueEncoding : int32_t {
  kOneHot = 0,
  kBinary = 1,
  kEmbedding = 2,
};

/// Encoding policy knobs.
struct EncodingOptions {
  /// Columns with NDV <= this use one-hot; larger use `large_encoding`.
  int32_t one_hot_max_ndv = 64;
  ValueEncoding large_encoding = ValueEncoding::kBinary;
  /// Width of the fixed random codebook when kEmbedding is selected.
  int64_t embedding_dim = 16;
  /// Seed for the fixed codebooks.
  uint64_t seed = 7;
};

/// Encoder for one table; owns per-column layout and codebooks.
class ColumnValueEncoder {
 public:
  ColumnValueEncoder(const data::Table& table, const EncodingOptions& options);

  /// Width of column `col`'s value encoding.
  int64_t value_width(int col) const { return widths_[static_cast<size_t>(col)]; }

  /// Writes the value encoding of `code` into dst[0..value_width(col)).
  void EncodeValue(int col, int32_t code, float* dst) const;

  /// Calls put(i, v) for each position i of `code`'s value encoding, i
  /// ascending (EncodeValue writes exactly these). Defined in encoding.cc,
  /// its only user.
  template <typename Put>
  void VisitValue(int col, int32_t code, Put&& put) const;

  /// Constant matrix [ndv, value_width] whose row c is EncodeValue(col, c).
  /// Used by UAE's differentiable (soft one-hot) input assembly.
  tensor::Tensor CodeMatrix(int col) const;

  ValueEncoding encoding_kind(int col) const { return kinds_[static_cast<size_t>(col)]; }
  int32_t ndv(int col) const { return ndvs_[static_cast<size_t>(col)]; }
  int num_columns() const { return static_cast<int>(widths_.size()); }

 private:
  std::vector<ValueEncoding> kinds_;
  std::vector<int64_t> widths_;
  std::vector<int32_t> ndvs_;
  /// Flattened fixed codebooks for kEmbedding columns (empty otherwise).
  std::vector<std::vector<float>> codebooks_;
};

/// A predicated column of a query and its code range: the intersection of
/// the column's predicates (query::Query::PerColumnRanges' entry for it).
struct ColumnRange {
  int32_t col = 0;
  query::CodeRange range;
};

/// A query's compact input row: what DuetInputEncoder::EncodeQueryRow writes,
/// as its nonzero entries, plus the query's predicated columns. Callers keep
/// one per thread and reuse it; every encode clears it first, and the
/// vectors keep their capacity, so steady-state encodes allocate nothing.
struct CompactRow {
  /// Nonzero input entries (position, value), positions strictly ascending.
  std::vector<int32_t> entry_k;
  std::vector<float> entry_v;
  /// Predicated columns, ascending, each once.
  std::vector<ColumnRange> columns;
  /// Scratch: (column, predicate index) pairs in column order.
  std::vector<std::pair<int32_t, int32_t>> order;
};

/// Duet's per-column predicate block: [value | op one-hot]; all zeros on the
/// op side marks a wildcard.
class DuetInputEncoder {
 public:
  DuetInputEncoder(const data::Table& table, const EncodingOptions& options);

  /// Input block width of column `col` (value_width + kNumPredOps).
  int64_t block_width(int col) const;
  /// Per-column block widths (feeds nn::MadeOptions::input_widths).
  std::vector<int64_t> BlockWidths() const;
  /// Total input width.
  int64_t total_width() const { return total_width_; }
  /// Offset of column `col`'s block.
  int64_t block_offset(int col) const { return offsets_[static_cast<size_t>(col)]; }

  /// Encodes one predicate (op, value code) into dst (block_width floats,
  /// pre-zeroed by the caller).
  void EncodePredicate(int col, query::PredOp op, int32_t code, float* dst) const;

  /// Wildcard: leaves dst all zeros (explicit for readability).
  void EncodeWildcard(int col, float* dst) const;

  /// Encodes a whole query into one pre-zeroed input row of total_width()
  /// floats. Single predicates encode directly; a column carrying several
  /// predicates is condensed to one representative predicate over the
  /// intersected code range — the input only *conditions* the network, exact
  /// containment is always enforced by the zero-out mask.
  void EncodeQueryRow(const data::Table& table, const query::Query& query, float* dst) const;

  /// EncodeQueryRow in compact form: fills `row` with the nonzero entries
  /// EncodeQueryRow writes (the one encoding; EncodeQueryRow scatters these)
  /// and with every predicated column's code range. Costs O(p log p) in the
  /// query's p predicates, independent of the table's width. Returns false
  /// when some range is empty: the query selects nothing.
  bool EncodeQueryCompact(const data::Table& table, const query::Query& query,
                          CompactRow* row) const;

  /// Batched EncodeQueryRow: fills `dst` as a row-major [queries.size(),
  /// total_width()] buffer (pre-zeroed), parallelized over queries.
  void EncodeQueryBatch(const data::Table& table, const std::vector<query::Query>& queries,
                        float* dst) const;

  const ColumnValueEncoder& values() const { return values_; }

 private:
  ColumnValueEncoder values_;
  std::vector<int64_t> offsets_;
  int64_t total_width_ = 0;
};

/// Naru/UAE per-column value block: [present | value]; wildcard = all zeros.
class NaruInputEncoder {
 public:
  NaruInputEncoder(const data::Table& table, const EncodingOptions& options);

  int64_t block_width(int col) const;
  std::vector<int64_t> BlockWidths() const;
  int64_t total_width() const { return total_width_; }
  int64_t block_offset(int col) const { return offsets_[static_cast<size_t>(col)]; }

  /// Encodes a concrete value code into dst (pre-zeroed).
  void EncodeValue(int col, int32_t code, float* dst) const;

  /// Constant matrix [ndv, block_width] with row c = EncodeValue(col, c);
  /// soft one-hot weights against it build differentiable inputs (UAE).
  tensor::Tensor BlockCodeMatrix(int col) const;

  const ColumnValueEncoder& values() const { return values_; }

 private:
  ColumnValueEncoder values_;
  std::vector<int64_t> offsets_;
  int64_t total_width_ = 0;
};

/// Number of bits needed to encode codes in [0, ndv).
int64_t BinaryWidth(int32_t ndv);

}  // namespace duet::core

#endif  // DUET_CORE_ENCODING_H_
