#include "tensor/packed_weights.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/fault_injector.h"
#include "tensor/simd_dispatch.h"

namespace duet::tensor {

namespace {

/// Process-wide PackWeights invocation count; see PackWeightsCalls().
std::atomic<uint64_t> g_pack_calls{0};

/// Same work threshold as the dense GEMM: parallelize only when the dense
/// equivalent would (CSR does strictly less work, so this is conservative).
inline bool PackedParallel(int64_t m, int64_t k, int64_t n) {
  return m * k * n > (1 << 18);
}

/// CSR term for one input row k restricted to packed columns [p0, p1):
/// adds av * W[k, :]'s nonzero runs, clipped to the span, into acc with
/// contiguous SIMD inner loops. Per output element the nonzero terms arrive
/// k-ascending — the same order as the dense kernels — and the skipped terms
/// are exact zeros, so this is bitwise-equal to the dense accumulation (a
/// skipped +-0.0f term never changes a finite accumulator that is never
/// -0.0). Templated over the run-bound width. For permuted packs acc is in
/// PACKED column space (typically one run per row); the epilogue gathers.
template <typename Idx>
inline void CsrTermT(const simd::KernelTable& kt, const PackedWeights& w, const Idx* run_start,
                     const Idx* run_len, int64_t k, float av, int64_t p0, int64_t p1,
                     float* acc) {
  const float* vals = w.values.data() + w.val_ptr[static_cast<size_t>(k)];
  const int32_t r0 = w.row_ptr[static_cast<size_t>(k)];
  const int32_t r1 = w.row_ptr[static_cast<size_t>(k) + 1];
  for (int32_t r = r0; r < r1; ++r) {
    const int64_t start = run_start[r];
    const int64_t len = run_len[r];
    const int64_t lo = std::max(start, p0);
    const int64_t hi = std::min(start + len, p1);
    if (lo < hi) kt.axpy_f32(av, vals + (lo - start), acc + lo, hi - lo);
    vals += len;
  }
}

/// Per-row nonzero prefix length in packed column space: permuted packs stop
/// each row sweep here and skip the structural-zero tail; identity packs
/// sweep the full width.
inline int64_t RowPrefixLen(const PackedWeights& w, int64_t k) {
  if (!w.row_len16.empty()) return w.row_len16[static_cast<size_t>(k)];
  if (!w.row_len32.empty()) return w.row_len32[static_cast<size_t>(k)];
  return w.out;
}

/// The one step every row sweep is made of: acc[p] += av * W[k, p] for the
/// packed columns p in [p0, p1) where row k can be nonzero. Full-row sweeps
/// pass [0, out); the predicate-sparse output kernel passes its active runs.
/// Either way each element sees the same term through the same axpy, so a
/// span's results are bitwise what the full sweep leaves there.
///  * dense fp32: the k-ascending zero-skip accumulation of the dense GEMV;
///  * int8: fp32 accumulation of av * q[k, p]; the dequantization scale is
///    applied once per output in the epilogue, not per term;
///  * f16: decode-on-load (the half->float widening IS the dequantization;
///    both dispatch forms are exact, see simd_dispatch.h);
///  * int4: nibble decode + per-group dequant fused into the sweep (the scale
///    varies along k, so it cannot wait for the epilogue). A span that
///    starts at an odd packed column starts one column early, because a
///    byte holds an (even, odd) column pair; that extra column lies outside
///    the span, and callers never read it.
/// Dense/int8/f16/int4 rows end at their nonzero prefix (permuted packs).
inline void RowTerm(const simd::KernelTable& kt, const PackedWeights& w, int64_t k, float av,
                    int64_t p0, int64_t p1, float* acc) {
  if (w.backend == WeightBackend::kCsrF32) {
    if (w.run_start32.empty()) {
      CsrTermT(kt, w, w.run_start16.data(), w.run_len16.data(), k, av, p0, p1, acc);
    } else {
      CsrTermT(kt, w, w.run_start32.data(), w.run_len32.data(), k, av, p0, p1, acc);
    }
    return;
  }
  p1 = std::min(p1, RowPrefixLen(w, k));
  if (p1 <= p0) return;
  const int64_t row = k * w.out;
  switch (w.backend) {
    case WeightBackend::kDenseF32:
      kt.axpy_f32(av, w.dense_data() + row + p0, acc + p0, p1 - p0);
      break;
    case WeightBackend::kInt8:
      kt.axpy_i8(av, w.quantized.data() + row + p0, acc + p0, p1 - p0);
      break;
    case WeightBackend::kF16:
      kt.axpy_f16(av, w.half.data() + row + p0, acc + p0, p1 - p0);
      break;
    case WeightBackend::kInt4: {
      p0 &= ~int64_t{1};
      const uint8_t* nrow = w.nibbles.data() + k * ((w.out + 1) / 2);
      const float* gs = w.group_scales.data() + (k / kInt4GroupSize) * w.out;
      kt.axpy_i4(av, nrow + p0 / 2, gs + p0, acc + p0, p1 - p0);
      break;
    }
    case WeightBackend::kCsrF32:
      break;
  }
}

/// Packed-space row accumulation of one dense input row for every
/// non-dense-identity layout: one full-width term per nonzero input.
inline void PackedRowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                           const float* arow, float* crow) {
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = arow[k];
    if (av == 0.0f) continue;  // input sparsity: one-hot / wildcard zeros
    RowTerm(kt, w, k, av, 0, w.out, crow);
  }
}

/// Per-thread packed-space accumulator row of at least n floats.
inline float* AccScratch(int64_t n) {
  thread_local std::vector<float> acc;
  if (static_cast<int64_t>(acc.size()) < n) acc.resize(static_cast<size_t>(n));
  return acc.data();
}

/// Fused bias + activation epilogue over one output row in place (identity
/// layout); the expressions are BiasActRow's — MatMulBiasAct's epilogue —
/// so the CSR path stays bitwise-equal to dense. `scales` (int8 only) folds
/// the per-channel dequantization into the same pass:
/// y = act(acc * scale + bias).
void EpilogueRow(float* crow, int64_t o, const float* bias, const float* scales,
                 Activation act) {
  if (scales == nullptr) {
    BiasActRow(crow, bias, o, act);
    return;
  }
#pragma omp simd
  for (int64_t j = 0; j < o; ++j) crow[j] = crow[j] * scales[j] + bias[j];
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
#pragma omp simd
      for (int64_t j = 0; j < o; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
      break;
    case Activation::kSigmoid:
      for (int64_t j = 0; j < o; ++j) crow[j] = 1.0f / (1.0f + std::exp(-crow[j]));
      break;
    case Activation::kTanh:
      for (int64_t j = 0; j < o; ++j) crow[j] = std::tanh(crow[j]);
      break;
  }
}

/// EpilogueRow over [B, O] rows.
void BiasActEpilogue(float* c, int64_t b, int64_t o, const float* bias, const float* scales,
                     Activation act, bool parallel) {
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) EpilogueRow(c + r * o, o, bias, scales, act);
      },
      parallel, /*grain=*/8);
}

/// Gather for one row of a permuted pack: pure data movement from packed
/// positions back to ORIGINAL column order (dst[j] = acc[unperm[j]]).
/// Scale/bias/activation are NOT applied here — the caller runs the same
/// shared epilogue as the identity layout afterwards, so there is exactly
/// one bias+activation implementation in the tree and the permuted path is
/// bitwise-equal to the identity path by construction.
inline void GatherRow(const PackedWeights& w, const float* acc, float* dst) {
  if (!w.unperm16.empty()) {
    const uint16_t* unperm = w.unperm16.data();
    for (int64_t j = 0; j < w.out; ++j) dst[j] = acc[unperm[j]];
  } else {
    const int32_t* unperm = w.unperm32.data();
    for (int64_t j = 0; j < w.out; ++j) dst[j] = acc[unperm[j]];
  }
}

/// Packed position of ORIGINAL output column j (identity for unpermuted
/// packs).
inline int64_t PackedColumn(const PackedWeights& w, int64_t j) {
  if (!w.unperm16.empty()) return w.unperm16[static_cast<size_t>(j)];
  if (!w.unperm32.empty()) return w.unperm32[static_cast<size_t>(j)];
  return j;
}

/// The int8 epilogue's per-channel dequantization scales (null otherwise).
inline const float* EpilogueScales(const PackedWeights& w) {
  return w.backend == WeightBackend::kInt8 ? w.scales.data() : nullptr;
}

/// PackedLinearSpans' crossover rule: each span is charged this many
/// columns on top of its length (the per-(k, run) axpy call, its clip and
/// its vector tail), and when the charge reaches the full row width the
/// kernel sweeps the full row instead. Both choices compute
/// bitwise-identical outputs; the rule only picks the cheaper loop.
constexpr int64_t kRunChargeColumns = 64;

/// A half-open run [lo, hi) of packed columns.
struct PackedRun {
  int64_t lo;
  int64_t hi;
};

}  // namespace

const char* WeightBackendName(WeightBackend backend) {
  switch (backend) {
    case WeightBackend::kDenseF32: return "dense";
    case WeightBackend::kCsrF32: return "csr";
    case WeightBackend::kInt8: return "int8";
    case WeightBackend::kF16: return "f16";
    case WeightBackend::kInt4: return "int4";
  }
  return "unknown";
}

bool ParseWeightBackend(const std::string& name, WeightBackend* out) {
  if (name == "dense") { *out = WeightBackend::kDenseF32; return true; }
  if (name == "csr") { *out = WeightBackend::kCsrF32; return true; }
  if (name == "int8") { *out = WeightBackend::kInt8; return true; }
  if (name == "f16") { *out = WeightBackend::kF16; return true; }
  if (name == "int4") { *out = WeightBackend::kInt4; return true; }
  return false;
}

uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  const uint32_t mag = x & 0x7fffffffu;
  if (mag >= 0x7f800000u) {  // inf / NaN (quiet NaN payload collapses)
    return static_cast<uint16_t>(sign | 0x7c00u | (mag > 0x7f800000u ? 0x200u : 0u));
  }
  if (mag >= 0x47800000u) return static_cast<uint16_t>(sign | 0x7c00u);  // overflow -> inf
  const int32_t exp = static_cast<int32_t>(mag >> 23);
  uint32_t man = mag & 0x7fffffu;
  if (exp < 113) {
    // Subnormal half (or zero): values at or below 2^-25 round to zero
    // (round-to-nearest-even at the halfway point 2^-25 itself).
    if (mag <= 0x33000000u) return sign;
    man |= 0x800000u;  // make the implicit bit explicit
    const int32_t shift = (113 - exp) + 13;
    uint32_t half_man = man >> shift;
    const uint32_t rem = man & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_man & 1u))) ++half_man;
    return static_cast<uint16_t>(sign | half_man);
  }
  // Normal: round the 13 dropped mantissa bits to nearest-even; a mantissa
  // carry correctly bumps the exponent (up to inf for values >= 65520).
  uint32_t out = static_cast<uint32_t>((exp - 112) << 10) | (man >> 13);
  const uint32_t rem = man & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<uint16_t>(sign | out);
}

uint64_t PackedWeights::bytes() const {
  uint64_t total = (unperm16.size() + row_len16.size()) * sizeof(uint16_t) +
                   (unperm32.size() + row_len32.size()) * sizeof(int32_t);
  switch (backend) {
    case WeightBackend::kDenseF32:
      total += static_cast<uint64_t>(in) * static_cast<uint64_t>(out) * sizeof(float);
      break;
    case WeightBackend::kCsrF32:
      total += (row_ptr.size() + val_ptr.size()) * sizeof(int32_t) +
               (run_start16.size() + run_len16.size()) * sizeof(uint16_t) +
               (run_start32.size() + run_len32.size()) * sizeof(int32_t) +
               values.size() * sizeof(float);
      break;
    case WeightBackend::kInt8:
      total += quantized.size() * sizeof(int8_t) + scales.size() * sizeof(float);
      break;
    case WeightBackend::kF16:
      total += half.size() * sizeof(uint16_t);
      break;
    case WeightBackend::kInt4:
      total += nibbles.size() * sizeof(uint8_t) + group_scales.size() * sizeof(float);
      break;
  }
  return total;
}

int64_t PackedWeights::nnz() const {
  if (backend == WeightBackend::kCsrF32) return static_cast<int64_t>(values.size());
  return in * out;
}

std::vector<int32_t> DegreeSortPermutation(const Tensor& w) {
  DUET_CHECK_EQ(w.ndim(), 2);
  const int64_t in = w.dim(0), out = w.dim(1);
  const float* wp = w.data();
  std::vector<int64_t> count(static_cast<size_t>(out), 0);
  for (int64_t k = 0; k < in; ++k) {
    const float* row = wp + k * out;
    for (int64_t j = 0; j < out; ++j) count[static_cast<size_t>(j)] += row[j] != 0.0f;
  }
  std::vector<int32_t> perm(static_cast<size_t>(out));
  std::iota(perm.begin(), perm.end(), 0);
  // Descending nonzero count == descending MADE out-degree (hidden rule
  // out_deg >= in_deg admits more rows at higher degree; strict rule is
  // monotone the same way), so every row's allowed columns become a prefix.
  // Stable: equal-degree columns keep their original relative order.
  std::stable_sort(perm.begin(), perm.end(), [&](int32_t a, int32_t b) {
    return count[static_cast<size_t>(a)] > count[static_cast<size_t>(b)];
  });
  bool identity = true;
  for (int64_t j = 0; j < out; ++j) identity &= perm[static_cast<size_t>(j)] == j;
  if (identity) return {};
  return perm;
}

uint64_t PackWeightsCalls() { return g_pack_calls.load(std::memory_order_relaxed); }

std::shared_ptr<const PackedWeights> PackWeights(const Tensor& w, WeightBackend backend,
                                                 const std::vector<int32_t>* perm) {
  DUET_CHECK_EQ(w.ndim(), 2);
  g_pack_calls.fetch_add(1, std::memory_order_relaxed);
  // Fault point: packing runs when a registry publish writes its artifact
  // (and lazily on an in-memory model's first forward under a new
  // backend/version) — a failure here must fail that publish or forward
  // cleanly, not take the process down.
  serve::FaultInjector::MaybeThrow(serve::FaultPoint::kPackWeights,
                                   "injected weight-pack failure");
  auto packed = std::make_shared<PackedWeights>();
  packed->backend = backend;
  packed->in = w.dim(0);
  packed->out = w.dim(1);
  const int64_t in = packed->in, out = packed->out;
  const float* wp = w.data();
  const bool narrow = out <= 65535;

  if (perm != nullptr && perm->empty()) perm = nullptr;  // identity shortcut
  // Permuted view accessor: packed column p holds original column perm[p].
  auto at = [&](int64_t k, int64_t p) -> float {
    const int64_t j = perm ? (*perm)[static_cast<size_t>(p)] : p;
    return wp[k * out + j];
  };
  if (perm != nullptr) {
    DUET_CHECK_EQ(static_cast<int64_t>(perm->size()), out);
    if (narrow) {
      packed->unperm16.assign(static_cast<size_t>(out), 0);
      for (int64_t p = 0; p < out; ++p) {
        packed->unperm16[static_cast<size_t>((*perm)[static_cast<size_t>(p)])] =
            static_cast<uint16_t>(p);
      }
    } else {
      packed->unperm32.assign(static_cast<size_t>(out), 0);
      for (int64_t p = 0; p < out; ++p) {
        packed->unperm32[static_cast<size_t>((*perm)[static_cast<size_t>(p)])] =
            static_cast<int32_t>(p);
      }
    }
    if (backend != WeightBackend::kCsrF32) {
      // Per-row nonzero prefix length: the row sweeps stop here. (CSR rows
      // carry their own run bounds instead.)
      if (narrow) packed->row_len16.reserve(static_cast<size_t>(in));
      else packed->row_len32.reserve(static_cast<size_t>(in));
      for (int64_t k = 0; k < in; ++k) {
        int64_t len = out;
        while (len > 0 && at(k, len - 1) == 0.0f) --len;
        if (narrow) packed->row_len16.push_back(static_cast<uint16_t>(len));
        else packed->row_len32.push_back(static_cast<int32_t>(len));
      }
    }
  }

  switch (backend) {
    case WeightBackend::kDenseF32:
      if (perm == nullptr) {
        // Shares the input handle: the caller hands over an immutable,
        // non-pooled materialization (layers pass a fresh W o M copy), so no
        // second dense buffer is allocated.
        packed->dense = w;
      } else {
        std::vector<float> pw(static_cast<size_t>(in * out));
        for (int64_t k = 0; k < in; ++k) {
          for (int64_t p = 0; p < out; ++p) pw[static_cast<size_t>(k * out + p)] = at(k, p);
        }
        packed->dense = Tensor::FromVector({in, out}, std::move(pw));
      }
      break;

    case WeightBackend::kCsrF32: {
      packed->row_ptr.reserve(static_cast<size_t>(in) + 1);
      packed->val_ptr.reserve(static_cast<size_t>(in) + 1);
      packed->row_ptr.push_back(0);
      packed->val_ptr.push_back(0);
      for (int64_t k = 0; k < in; ++k) {
        int64_t j = 0;
        while (j < out) {
          // -0.0f == 0.0f, so masked-out entries (w * 0.0f may be -0.0f for
          // negative w) are dropped along with exact zeros.
          if (at(k, j) == 0.0f) {
            ++j;
            continue;
          }
          const int64_t start = j;
          while (j < out && at(k, j) != 0.0f) {
            packed->values.push_back(at(k, j));
            ++j;
          }
          if (narrow) {
            packed->run_start16.push_back(static_cast<uint16_t>(start));
            packed->run_len16.push_back(static_cast<uint16_t>(j - start));
          } else {
            packed->run_start32.push_back(static_cast<int32_t>(start));
            packed->run_len32.push_back(static_cast<int32_t>(j - start));
          }
        }
        packed->row_ptr.push_back(static_cast<int32_t>(
            narrow ? packed->run_start16.size() : packed->run_start32.size()));
        packed->val_ptr.push_back(static_cast<int32_t>(packed->values.size()));
      }
      break;
    }

    case WeightBackend::kInt8: {
      // Scales stay in ORIGINAL column order (the gathering epilogue indexes
      // them by original j); only the quantized payload is permuted.
      packed->scales.assign(static_cast<size_t>(out), 0.0f);
      for (int64_t k = 0; k < in; ++k) {
        const float* row = wp + k * out;
        for (int64_t j = 0; j < out; ++j) {
          packed->scales[static_cast<size_t>(j)] =
              std::max(packed->scales[static_cast<size_t>(j)], std::fabs(row[j]));
        }
      }
      std::vector<float> inv(static_cast<size_t>(out), 0.0f);
      for (int64_t j = 0; j < out; ++j) {
        float& s = packed->scales[static_cast<size_t>(j)];
        s /= 127.0f;  // symmetric: q in [-127, 127], 0.0 maps to q == 0
        if (s > 0.0f) inv[static_cast<size_t>(j)] = 1.0f / s;
      }
      packed->quantized.resize(static_cast<size_t>(in * out));
      for (int64_t k = 0; k < in; ++k) {
        int8_t* qrow = packed->quantized.data() + k * out;
        for (int64_t p = 0; p < out; ++p) {
          const int64_t j = perm ? (*perm)[static_cast<size_t>(p)] : p;
          const float q = std::nearbyint(wp[k * out + j] * inv[static_cast<size_t>(j)]);
          qrow[p] = static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
        }
      }
      break;
    }

    case WeightBackend::kF16: {
      packed->half.resize(static_cast<size_t>(in * out));
      for (int64_t k = 0; k < in; ++k) {
        uint16_t* hrow = packed->half.data() + k * out;
        for (int64_t p = 0; p < out; ++p) hrow[p] = FloatToHalf(at(k, p));
      }
      break;
    }

    case WeightBackend::kInt4: {
      // Group-of-kInt4GroupSize scales along k, PACKED column order (the
      // sweep consumes them pre-gather): s[g][p] = max_{k in g} |W[k,p]| / 7.
      const int64_t groups = (in + kInt4GroupSize - 1) / kInt4GroupSize;
      packed->group_scales.assign(static_cast<size_t>(groups * out), 0.0f);
      for (int64_t k = 0; k < in; ++k) {
        float* gs = packed->group_scales.data() + (k / kInt4GroupSize) * out;
        for (int64_t p = 0; p < out; ++p) {
          gs[p] = std::max(gs[p], std::fabs(at(k, p)));
        }
      }
      std::vector<float> inv(static_cast<size_t>(groups * out), 0.0f);
      for (int64_t i = 0; i < groups * out; ++i) {
        float& s = packed->group_scales[static_cast<size_t>(i)];
        s /= 7.0f;  // symmetric: q in [-7, 7], 0.0 maps to q == 0
        if (s > 0.0f) inv[static_cast<size_t>(i)] = 1.0f / s;
      }
      const int64_t row_bytes = (out + 1) / 2;
      packed->nibbles.assign(static_cast<size_t>(in * row_bytes), 0);
      for (int64_t k = 0; k < in; ++k) {
        uint8_t* nrow = packed->nibbles.data() + k * row_bytes;
        const float* ginv = inv.data() + (k / kInt4GroupSize) * out;
        for (int64_t p = 0; p < out; ++p) {
          const float q = std::nearbyint(at(k, p) * ginv[static_cast<size_t>(p)]);
          const int32_t qi = static_cast<int32_t>(std::clamp(q, -7.0f, 7.0f));
          nrow[p >> 1] |= static_cast<uint8_t>((qi & 0xF) << ((p & 1) * 4));
        }
      }
      break;
    }
  }
  return packed;
}

void PackedGemv(const PackedWeights& w, const float* x, float* y) {
  PackedRowAccum(simd::Kernels(), w, x, y);
}

void PackedLinearForward(const PackedWeights& w, const float* x, int64_t batch,
                         const float* bias, Activation act, float* out) {
  DUET_CHECK(!NoGradGuard::GradEnabled())
      << "PackedLinearForward is inference-only (no autograd graph)";
  if (w.backend == WeightBackend::kDenseF32 && !w.permuted()) {
    // Identical code path to the unpacked layer (tiled GEMM / zero-skip
    // GEMV + fused epilogue), so dense packing is bitwise-invisible.
    RawMatMulBiasAct(x, w.dense_data(), bias, batch, w.in, w.out, act, out);
    return;
  }
  const bool parallel = PackedParallel(batch, w.in, w.out);
  const simd::KernelTable& kt = simd::Kernels();
  if (!w.permuted()) {
    // Row-parallel sweep: rows are independent and each output element
    // still accumulates k-ascending, so neither the thread count nor the
    // batch size changes any per-row result (the batch-invariance contract
    // holds for every backend).
    std::fill(out, out + batch * w.out, 0.0f);
    ParallelForChunked(
        0, batch,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            PackedRowAccum(kt, w, x + r * w.in, out + r * w.out);
          }
        },
        parallel, /*grain=*/8);
    BiasActEpilogue(out, batch, w.out, bias, EpilogueScales(w), act, parallel);
    return;
  }
  // Permuted pack: accumulate each row into a per-thread packed-space
  // scratch (CSR rows are single runs, dense/int8/f16 rows stop at their
  // nonzero prefix), gather back into the original column order, then run
  // the SAME shared epilogue as the identity layout over the gathered rows.
  // Per output element the k-accumulation order is unchanged and the
  // epilogue is literally the same code, so exact backends stay
  // bitwise-equal to the identity layout.
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        float* acc = AccScratch(w.out);
        for (int64_t r = lo; r < hi; ++r) {
          std::fill(acc, acc + w.out, 0.0f);
          PackedRowAccum(kt, w, x + r * w.in, acc);
          GatherRow(w, acc, out + r * w.out);
        }
      },
      parallel, /*grain=*/8);
  BiasActEpilogue(out, batch, w.out, bias, EpilogueScales(w), act, parallel);
}

void PackedLinearEntries(const PackedWeights& w, const int32_t* k, const float* v, int64_t n,
                         const float* bias, Activation act, float* out) {
  const simd::KernelTable& kt = simd::Kernels();
  float* acc = w.permuted() ? AccScratch(w.out) : out;
  std::fill(acc, acc + w.out, 0.0f);
  for (int64_t e = 0; e < n; ++e) {
    DUET_CHECK(k[e] >= 0 && k[e] < w.in) << "input entry " << k[e] << " outside " << w.in;
    RowTerm(kt, w, k[e], v[e], 0, w.out, acc);
  }
  if (w.permuted()) GatherRow(w, acc, out);
  EpilogueRow(out, w.out, bias, EpilogueScales(w), act);
}

void PackedLinearSpans(const PackedWeights& w, const float* x, const ColumnSpan* spans,
                       int64_t n, const float* bias, Activation act, float* out) {
  int64_t active = 0;
  for (int64_t s = 0; s < n; ++s) {
    DUET_CHECK(spans[s].lo >= 0 && spans[s].lo < spans[s].hi && spans[s].hi <= w.out)
        << "output span [" << spans[s].lo << ", " << spans[s].hi << ") outside " << w.out;
    active += spans[s].hi - spans[s].lo;
  }
  // The crossover rule: every span costs at least one run, so when the
  // spans' charge reaches the row width, sweep the full row instead.
  thread_local std::vector<PackedRun> runs;
  runs.clear();
  if (active + kRunChargeColumns * n >= w.out) {
    runs.push_back({0, w.out});
  } else {
    // The spans' packed columns as merged runs: under the degree-sorted
    // permutation each MADE output block is one run, and neighbouring
    // blocks fuse.
    for (int64_t s = 0; s < n; ++s) {
      for (int64_t j = spans[s].lo; j < spans[s].hi; ++j) {
        const int64_t p = PackedColumn(w, j);
        if (!runs.empty() && runs.back().hi == p) {
          ++runs.back().hi;
        } else {
          runs.push_back({p, p + 1});
        }
      }
    }
    std::sort(runs.begin(), runs.end(),
              [](const PackedRun& a, const PackedRun& b) { return a.lo < b.lo; });
    size_t merged = 0;
    for (const PackedRun& run : runs) {
      DUET_CHECK(merged == 0 || runs[merged - 1].hi <= run.lo) << "output spans overlap";
      if (merged > 0 && runs[merged - 1].hi == run.lo) {
        runs[merged - 1].hi = run.hi;
      } else {
        runs[merged++] = run;
      }
    }
    runs.resize(merged);
  }

  // One k pass over the runs: per element the same k-ascending terms as the
  // full sweep. The fill starts at an even column because an int4 run may
  // start one column early (RowTerm).
  const simd::KernelTable& kt = simd::Kernels();
  float* acc = AccScratch(w.out);
  for (const PackedRun& run : runs) {
    std::fill(acc + (run.lo & ~int64_t{1}), acc + run.hi, 0.0f);
  }
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = x[k];
    if (av == 0.0f) continue;
    for (const PackedRun& run : runs) RowTerm(kt, w, k, av, run.lo, run.hi, acc);
  }

  // Gather each span back into original column order and run the shared
  // epilogue over it with the span's slice of bias (and int8 scales).
  const float* scales = EpilogueScales(w);
  for (int64_t s = 0; s < n; ++s) {
    const ColumnSpan span = spans[s];
    const int64_t len = span.hi - span.lo;
    for (int64_t i = 0; i < len; ++i) out[i] = acc[PackedColumn(w, span.lo + i)];
    EpilogueRow(out, len, bias + span.lo, scales != nullptr ? scales + span.lo : nullptr, act);
    out += len;
  }
}

}  // namespace duet::tensor
