// Pluggable packed-weight backends for the inference-side weight path.
//
// Batch-1 estimation is pure weight traffic: every masked GEMV streams a
// dense fp32 `W o M` whose entries are ~50% structural zeros (the MADE
// connectivity masks). PackedWeights is an immutable, inference-only packed
// form of a layer's effective weight that lets layers trade that traffic
// against numeric fidelity:
//
//  * kDenseF32 — the dense [in, out] fp32 matrix, dispatched through the
//    exact same tiled GEMM / zero-skip GEMV as the unpacked path, so it is
//    bitwise identical to pre-packing behavior.
//  * kCsrF32  — compressed sparse rows over the masked zeros. Only nonzero
//    weights are stored and streamed. Per output element the nonzero terms
//    accumulate in the same k-ascending order as the dense kernels and the
//    skipped terms are exact zeros, so CSR results are bitwise equal to
//    dense (see the -0.0 note on the kernels in ops.cc).
//  * kInt8    — per-output-channel symmetric int8 quantization (scale_j =
//    max_k |W[k,j]| / 127) with fp32 accumulation and a fused
//    dequantize+bias+activation epilogue. 4x less weight traffic;
//    accuracy-bounded rather than exact: |y_q - y| <= 0.5 * scale_j *
//    sum_k |x_k| per output channel.
//  * kF16     — IEEE binary16 weights decoded on load with fp32
//    accumulation (the dequantization IS the half->float widening, fused
//    into the inner loop). 2x less weight traffic; accuracy-bounded with a
//    relative weight error <= 2^-11 per entry (round-to-nearest-even), far
//    tighter than int8's per-channel bound.
//  * kInt4    — per-group symmetric int4 quantization: the k dimension is
//    cut into groups of kInt4GroupSize (32) input rows, and each
//    (group, output-column) pair carries its own fp32 scale
//    s[g][j] = max_{k in g} |W[k,j]| / 7, with weights nibble-packed two
//    per byte (signed values in [-7, 7]). Accumulation is fp32 and the
//    per-group dequantization is fused into the row sweep itself (the
//    scale varies along k, so unlike int8 it cannot be deferred to the
//    per-output epilogue). ~8x less weight payload than fp32 and ~0.625x
//    the total int8 footprint (0.5x payload + group scales, which add
//    out * 4 bytes per 32 input rows); accuracy-bounded per output by
//    |y_q - y| <= 0.5 * sum_k |x_k| * s[g(k), j] — the per-group max
//    tracks local weight magnitude, which is why int4's bound in practice
//    lands near int8's despite half the bits.
//
// Degree-sorted output permutation (compiled-plan packs): a pack may carry
// an output-column permutation chosen so that every MADE-masked row's
// allowed columns become one contiguous stretch in packed space (columns
// stably sorted by descending column nonzero count == descending MADE
// degree). The kernels then accumulate into packed positions — CSR rows
// degenerate to a single (start,len) run, dense/int8/f16 rows stop at a
// per-row nonzero prefix length and skip the structural-zero tail — and the
// fused epilogue gathers results back into the ORIGINAL column order while
// applying scale/bias/activation. Activations therefore stay in the
// original layout between layers and per-output accumulation order is
// unchanged, so permuted dense/CSR packs remain bitwise-identical to the
// unpacked path (see docs/architecture.md §5 for why the permutation must
// NOT be composed into the next layer's pack: reordering the k-sum would
// break bitwise equality).
//
// PackedWeights values are immutable after PackWeights returns and hold no
// autograd state; they are safe to share across threads and to outlive any
// NoGradScope (all storage is plain heap, never the inference arena).
// Layers cache one per parameter version (see nn/layers.h for the
// coherence/publication rules); compiled plans (nn/inference_plan.h) build
// their own permuted packs under the same invalidation rules.
#ifndef DUET_TENSOR_PACKED_WEIGHTS_H_
#define DUET_TENSOR_PACKED_WEIGHTS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace duet::tensor {

/// Inference weight-storage backend selection.
enum class WeightBackend : int32_t {
  kDenseF32 = 0,  ///< dense fp32 (bitwise-identical to the unpacked path)
  kCsrF32 = 1,    ///< sparse fp32 rows (bitwise-identical, zeros skipped)
  kInt8 = 2,      ///< per-output-channel symmetric int8 (accuracy-bounded)
  kF16 = 3,       ///< IEEE binary16 weights, fp32 accumulate (accuracy-bounded)
  kInt4 = 4,      ///< per-group symmetric int4 nibbles (accuracy-bounded)
};

/// Input rows (k) per int4 quantization group. 32 balances scale overhead
/// (one fp32 per output column per group) against bound tightness; it is
/// baked into the artifact pack encoding, so changing it is a format break.
inline constexpr int64_t kInt4GroupSize = 32;

/// Human-readable backend name ("dense" / "csr" / "int8" / "f16" / "int4"),
/// for bench output.
const char* WeightBackendName(WeightBackend backend);

/// Parses "dense" / "csr" / "int8" / "f16" / "int4" (returns false on
/// anything else).
bool ParseWeightBackend(const std::string& name, WeightBackend* out);

/// fp32 -> IEEE binary16 with round-to-nearest-even; overflow saturates to
/// +-inf, NaN payloads collapse to a quiet NaN. Exposed for tests.
uint16_t FloatToHalf(float f);

/// IEEE binary16 -> fp32 (exact: every half value is representable).
/// Hot-loop decode for the kF16 kernels, so it lives in the header, and
/// branch-free (one select) so the row sweeps stay vectorizable: the
/// exponent is rebias-by-multiply for normals/inf/NaN and
/// reconstruct-by-subtraction for subnormals/zero — the standard
/// fixup-free fp16 widening.
inline float HalfToFloat(uint16_t h) {
  const uint32_t w = static_cast<uint32_t>(h) << 16;
  const uint32_t sign = w & 0x80000000u;
  const uint32_t two_w = w + w;

  // Normal / inf / NaN: shift exponent+mantissa into place with a 3-bit
  // headroom, then scale by 2^-112 to undo the bias shift (saturated
  // exponents overflow to inf / keep NaN payloads).
  const uint32_t exp_offset = 0xE0u << 23;
  uint32_t nbits = (two_w >> 4) + exp_offset;
  float normalized;
  std::memcpy(&normalized, &nbits, sizeof(normalized));
  normalized *= 0x1.0p-112f;

  // Subnormal / zero: park the 10 mantissa bits under 0.5f's exponent and
  // subtract the implicit bit.
  const uint32_t magic_mask = 126u << 23;
  uint32_t dbits = (two_w >> 17) | magic_mask;
  float denormalized;
  std::memcpy(&denormalized, &dbits, sizeof(denormalized));
  denormalized -= 0.5f;

  const uint32_t denormalized_cutoff = 1u << 27;
  uint32_t nres, dres;
  std::memcpy(&nres, &normalized, sizeof(nres));
  std::memcpy(&dres, &denormalized, sizeof(dres));
  const uint32_t bits = sign | (two_w < denormalized_cutoff ? dres : nres);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Storage for one packed-weight array: either an owned vector (PackWeights
/// builds these) or a non-owning view into externally-owned bytes (mmap-ed
/// snapshot artifacts, artifact/artifact.h — the map outlives the pack via
/// the owning ArtifactModel). Views make zero-copy loads possible: the
/// kernels read through data()/size() and never care which mode they got.
/// Default copy/move are correct in both modes: owned copies re-point at
/// their own vector (view_ stays null), view copies share the external
/// pointer.
template <typename T>
class PackedArray {
 public:
  PackedArray() = default;

  /// Non-owning view over `n` elements of externally-owned storage. The
  /// caller guarantees the storage outlives every copy of the view.
  static PackedArray View(const T* data, size_t n) {
    PackedArray a;
    a.view_ = data;
    a.view_size_ = n;
    return a;
  }

  const T* data() const { return view_ != nullptr ? view_ : vec_.data(); }
  size_t size() const { return view_ != nullptr ? view_size_ : vec_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& back() const { return data()[size() - 1]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  /// Mutators build the owned vector (packing only; never called on views).
  T* data() { return vec_.data(); }
  void reserve(size_t n) { vec_.reserve(n); }
  void resize(size_t n) { vec_.resize(n); }
  void assign(size_t n, const T& v) { vec_.assign(n, v); }
  void push_back(const T& v) { vec_.push_back(v); }
  T& operator[](size_t i) { return vec_[i]; }

  bool operator==(const std::vector<T>& v) const {
    return size() == v.size() && std::memcmp(data(), v.data(), size() * sizeof(T)) == 0;
  }

 private:
  std::vector<T> vec_;
  const T* view_ = nullptr;
  size_t view_size_ = 0;
};

/// One layer's effective weight, packed for inference. Immutable; produced
/// by PackWeights and consumed by PackedLinearForward / PackedGemv.
struct PackedWeights {
  WeightBackend backend = WeightBackend::kDenseF32;
  int64_t in = 0;
  int64_t out = 0;

  /// kDenseF32: the dense [in, out] matrix (no grad, non-pooled storage).
  /// Permuted packs hold a fresh column-permuted copy; unpermuted packs
  /// share the caller's handle. Artifact-loaded packs leave `dense` empty
  /// and view the mapped file through `dense_view` instead — kernels go
  /// through dense_data(), which prefers the view.
  Tensor dense;
  PackedArray<float> dense_view;

  const float* dense_data() const {
    return dense_view.empty() ? dense.data() : dense_view.data();
  }

  /// kCsrF32: rows are the in-dimension k; row k holds its nonzeros as
  /// maximal contiguous column *runs* (start, len) plus the run values in
  /// column order. Run compression instead of per-element column indices
  /// because MADE masks are periodic in the output degree: every row's
  /// allowed columns form a handful of contiguous stretches (the strict
  /// output layer is a single suffix run per row), so the sparse kernel
  /// keeps dense contiguous SIMD inner loops — a per-element index gather
  /// would forfeit vectorization and lose to dense outright. Under the
  /// degree-sorted permutation every row degenerates to exactly one run.
  /// Run bounds are 16-bit whenever out <= 65535 (every in-tree layer); the
  /// *32 pair is the fallback for very wide layers. Exactly one pair is
  /// populated.
  PackedArray<int32_t> row_ptr;      ///< size in+1: run range of row k
  PackedArray<int32_t> val_ptr;      ///< size in+1: value offset of row k
  PackedArray<uint16_t> run_start16;  ///< per run: first column
  PackedArray<uint16_t> run_len16;    ///< per run: contiguous nonzero count
  PackedArray<int32_t> run_start32;   ///< wide-layer fallback
  PackedArray<int32_t> run_len32;     ///< wide-layer fallback
  PackedArray<float> values;          ///< size nnz, row-major column order

  /// kInt8: row-major [in, out] quantized weights (packed column order when
  /// permuted) and per-ORIGINAL-output-channel dequantization scales
  /// (scale 0 for all-zero channels) — the epilogue gathers before scaling,
  /// so scales never need permuting.
  PackedArray<int8_t> quantized;
  PackedArray<float> scales;  ///< size out, original column order

  /// kF16: row-major [in, out] binary16 weights (packed column order when
  /// permuted).
  PackedArray<uint16_t> half;

  /// kInt4: row-major nibble-packed weights, two packed columns per byte —
  /// row k occupies (out + 1) / 2 bytes, byte b of a row holds packed
  /// column 2b in its LOW nibble and 2b+1 in its HIGH nibble (odd `out`
  /// leaves the final high nibble zero). Values are signed [-7, 7] stored
  /// as two's-complement low nibbles (decode: (x ^ 8) - 8). Column order is
  /// PACKED when permuted, like the other payloads.
  PackedArray<uint8_t> nibbles;
  /// kInt4: per-(group, packed-column) dequant scales, group-major —
  /// scale of input row k, packed column p is group_scales[(k /
  /// kInt4GroupSize) * out + p]. PACKED column order (unlike int8's
  /// original-order `scales`): the scale is consumed inside the row sweep
  /// before the epilogue's gather, so it must live in the same layout as
  /// the accumulators.
  PackedArray<float> group_scales;

  /// Degree-sorted output permutation metadata (empty = identity layout).
  /// unperm maps an ORIGINAL output column j to its packed position; the
  /// fused epilogue reads acc[unperm[j]] so downstream activations stay in
  /// the original layout. 16-bit whenever out <= 65535, else the *32
  /// fallback; exactly one is populated for permuted packs.
  PackedArray<uint16_t> unperm16;
  PackedArray<int32_t> unperm32;
  /// Dense/int8/f16 permuted packs: nonzero prefix length of each input row
  /// in packed column space — the kernels stop here and skip the
  /// structural-zero tail. Same 16/32 split as unperm.
  PackedArray<uint16_t> row_len16;
  PackedArray<int32_t> row_len32;

  bool permuted() const { return !unperm16.empty() || !unperm32.empty(); }

  /// Packed footprint in bytes (weight payload + indexing/scale/permutation
  /// metadata; excludes bias, which the layer owns either way). Callers that
  /// share an existing tensor handle into an unpermuted dense pack (compiled
  /// plans over plain Linear layers) account for that themselves — see
  /// nn::InferencePlan::bytes().
  uint64_t bytes() const;

  /// Nonzero count (CSR only; in*out otherwise).
  int64_t nnz() const;
};

/// Packs a dense [in, out] fp32 weight (already masked — i.e. the effective
/// weight the layer multiplies by) into the chosen backend. The input tensor
/// is only read; for kDenseF32 the returned pack shares its handle.
///
/// `perm` (optional) applies a degree-sorted output permutation: packed
/// column p holds original column perm[p] (perm must be a permutation of
/// [0, out)). See the header comment for the layout contract; pass nullptr
/// for the identity layout. A permuted dense pack owns a fresh copy.
std::shared_ptr<const PackedWeights> PackWeights(const Tensor& w, WeightBackend backend,
                                                 const std::vector<int32_t>* perm = nullptr);

/// Process-wide count of PackWeights invocations. The zoo bench asserts this
/// stays flat while serving from mmap-ed artifacts (repack count == 0): an
/// artifact load must wire views into the map, never re-pack.
uint64_t PackWeightsCalls();

/// Derives the degree-sorted output permutation for a masked effective
/// weight: columns stably sorted by descending nonzero count (== descending
/// MADE out-degree for connectivity masks, which makes every row's allowed
/// set a prefix in packed space). Returns an empty vector when the sort is
/// the identity (callers then skip the permutation and its epilogue gather).
std::vector<int32_t> DegreeSortPermutation(const Tensor& w);

/// Raw-buffer fused forward: out[b, w.out] = act(x[b, w.in] x W + bias) for
/// x:[batch, w.in] row-major, overwriting out[batch * w.out]. This is the
/// execution kernel of the compiled inference plans (nn/inference_plan.h):
/// no Tensor temporaries, no virtual dispatch, row-parallel over the pool
/// above the same work threshold as the dense GEMM. kDenseF32 dispatches to
/// the standard tiled GEMM / zero-skip GEMV (bitwise-identical to
/// MatMulBiasAct on the dense matrix); kCsrF32 runs the sparse kernels
/// (bitwise-identical, see header comment); kInt8/kF16/kInt4 accumulate in
/// fp32 and fuse dequant+bias+activation (int4's per-group scale inside the
/// sweep, int8's per-channel scale in the epilogue). Inference-only.
void PackedLinearForward(const PackedWeights& w, const float* x, int64_t batch,
                         const float* bias, Activation act, float* out);

/// Half-open range [lo, hi) of output columns, in ORIGINAL column order.
struct ColumnSpan {
  int32_t lo = 0;
  int32_t hi = 0;
};

/// Predicate-sparse row kernels (the first and last ops of
/// nn::InferencePlan::ExecuteSparse). For every output they write, they
/// write bitwise what PackedLinearForward writes there, on every backend and
/// ISA tier: per output element the same k-ascending terms through the same
/// axpy sweep over the same packed row, then the same gather and the same
/// epilogue expression. Single-threaded and allocation-free in steady state
/// (per-thread scratch); inference-only.

/// One input row given as its nonzero entries (k strictly ascending, each
/// in [0, w.in)) -> the full output row out[0, w.out) = act(x W + bias).
/// Costs one row term per entry: no scan over the input's zeros.
void PackedLinearEntries(const PackedWeights& w, const int32_t* k, const float* v, int64_t n,
                         const float* bias, Activation act, float* out);

/// One dense input row x[0, w.in) -> only the output columns in `spans`
/// (disjoint, each within [0, w.out)), written back to back into `out` in
/// span order. The spans' packed columns are merged into runs and swept in
/// one k pass; a row whose runs would cost about as much as the full row
/// sweeps the full row instead (a fixed rule; both give the same bits).
void PackedLinearSpans(const PackedWeights& w, const float* x, const ColumnSpan* spans,
                       int64_t n, const float* bias, Activation act, float* out);

/// Single-row packed kernel: y[0..out) += x[0..in) x W_packed, with x rows
/// skipped at x[k] == 0 (Duet inputs are one-hot-sparse). No bias, no
/// activation, no int8 channel dequantization — the caller applies the
/// epilogue. (kF16 decode and kInt4 per-group dequant ARE applied: they are
/// part of the sweep itself.) For permuted packs y is in PACKED column
/// space (the forward
/// gathers before its epilogue). This is exactly one row of
/// PackedLinearForward's sweep (same accumulation code); exposed separately
/// for kernel tests.
void PackedGemv(const PackedWeights& w, const float* x, float* y);

}  // namespace duet::tensor

#endif  // DUET_TENSOR_PACKED_WEIGHTS_H_
