#include "artifact/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "core/checkpoint.h"
#include "data/column.h"

namespace duet::artifact {

using tensor::PackedArray;
using tensor::PackedWeights;
using tensor::Tensor;

namespace {

/// Pack-section fixed layout: 32-byte header (backend, reserved, in, out,
/// reserved) + kNumPackArrays (count, offset) directory entries, offsets
/// payload-relative and kArtifactAlign-aligned. The array order is the
/// canonical serialization order — stable across writers, pinned by the
/// golden files. 15 -> 17 with the int4 backend (nibbles + group_scales
/// appended); the directory grew, so the goldens were regenerated with it
/// (tests/golden/, DUET_REGEN_GOLDEN=1).
constexpr int kNumPackArrays = 17;
constexpr uint64_t kPackHeaderBytes = 32;
constexpr uint64_t kPackDirectoryBytes = kNumPackArrays * 16;

uint64_t AlignUp(uint64_t n) { return (n + kArtifactAlign - 1) & ~(kArtifactAlign - 1); }

/// Writer-side view of one pack array: element pointer + count + width.
struct PackArrayRef {
  const void* data = nullptr;
  uint64_t count = 0;
  uint64_t elem_bytes = 0;
};

/// The canonical array list for one pack (order matters — see above).
std::vector<PackArrayRef> PackArrays(const PackedWeights& w) {
  const uint64_t dense_count =
      w.backend == tensor::WeightBackend::kDenseF32
          ? static_cast<uint64_t>(w.in) * static_cast<uint64_t>(w.out)
          : 0;
  return {
      {dense_count > 0 ? w.dense_data() : nullptr, dense_count, sizeof(float)},
      {w.row_ptr.data(), w.row_ptr.size(), sizeof(int32_t)},
      {w.val_ptr.data(), w.val_ptr.size(), sizeof(int32_t)},
      {w.run_start16.data(), w.run_start16.size(), sizeof(uint16_t)},
      {w.run_len16.data(), w.run_len16.size(), sizeof(uint16_t)},
      {w.run_start32.data(), w.run_start32.size(), sizeof(int32_t)},
      {w.run_len32.data(), w.run_len32.size(), sizeof(int32_t)},
      {w.values.data(), w.values.size(), sizeof(float)},
      {w.quantized.data(), w.quantized.size(), sizeof(int8_t)},
      {w.scales.data(), w.scales.size(), sizeof(float)},
      {w.half.data(), w.half.size(), sizeof(uint16_t)},
      {w.unperm16.data(), w.unperm16.size(), sizeof(uint16_t)},
      {w.unperm32.data(), w.unperm32.size(), sizeof(int32_t)},
      {w.row_len16.data(), w.row_len16.size(), sizeof(uint16_t)},
      {w.row_len32.data(), w.row_len32.size(), sizeof(int32_t)},
      {w.nibbles.data(), w.nibbles.size(), sizeof(uint8_t)},
      {w.group_scales.data(), w.group_scales.size(), sizeof(float)},
  };
}

std::string SerializePackSection(const PackedWeights& w) {
  const std::vector<PackArrayRef> arrays = PackArrays(w);
  // Lay out the arrays first so the directory can be written in one pass.
  std::vector<uint64_t> offsets(arrays.size(), 0);
  uint64_t cursor = AlignUp(kPackHeaderBytes + kPackDirectoryBytes);
  for (size_t i = 0; i < arrays.size(); ++i) {
    if (arrays[i].count == 0) continue;
    cursor = AlignUp(cursor);
    offsets[i] = cursor;
    cursor += arrays[i].count * arrays[i].elem_bytes;
  }

  std::ostringstream head;
  {
    BinaryWriter hw(head);
    hw.WriteU32(static_cast<uint32_t>(w.backend));
    hw.WriteU32(0);
    hw.WriteU64(static_cast<uint64_t>(w.in));
    hw.WriteU64(static_cast<uint64_t>(w.out));
    hw.WriteU64(0);
    for (size_t i = 0; i < arrays.size(); ++i) {
      hw.WriteU64(arrays[i].count);
      hw.WriteU64(offsets[i]);
    }
  }
  std::string payload = head.str();
  payload.reserve(static_cast<size_t>(cursor));
  for (size_t i = 0; i < arrays.size(); ++i) {
    if (arrays[i].count == 0) continue;
    payload.resize(static_cast<size_t>(offsets[i]), '\0');  // alignment padding
    payload.append(static_cast<const char*>(arrays[i].data),
                   static_cast<size_t>(arrays[i].count * arrays[i].elem_bytes));
  }
  return payload;
}

/// Everything the writer needs, independent of whether the source is a live
/// DuetModel or an already-loaded ArtifactModel — both serialize through
/// this one function, which is what makes the golden round-trip bit-exact.
struct WriteParts {
  std::string table_name;
  uint64_t source_rows = 0;
  std::vector<std::pair<std::string, std::vector<double>>> columns;
  core::EncodingOptions encoding;
  tensor::WeightBackend backend = tensor::WeightBackend::kDenseF32;
  const nn::InferencePlan* plan = nullptr;
  uint64_t fingerprint = 0;
  /// False (WriteArtifact): `fingerprint` is the structural base and the
  /// section content hash is folded in, so different weight bytes get
  /// different snapshot ids. True (ResaveArtifact): `fingerprint` is the
  /// already-final stored value — re-deriving it would break the
  /// byte-for-byte resave guarantee the golden tests pin.
  bool fingerprint_is_final = false;
};

ArtifactStatus SerializeParts(const WriteParts& p, const std::string& path) {
  ArtifactFileWriter writer;

  std::ostringstream meta;
  {
    BinaryWriter mw(meta);
    mw.WriteString(p.table_name);
    mw.WriteU64(p.source_rows);
    mw.WriteU32(static_cast<uint32_t>(p.columns.size()));
    for (const auto& [name, distinct] : p.columns) {
      mw.WriteString(name);
      mw.WriteU64(distinct.size());
      for (double v : distinct) mw.WriteF64(v);
    }
    mw.WriteU32(static_cast<uint32_t>(p.encoding.one_hot_max_ndv));
    mw.WriteU32(static_cast<uint32_t>(p.encoding.large_encoding));
    mw.WriteI64(p.encoding.embedding_dim);
    mw.WriteU64(p.encoding.seed);
    mw.WriteU32(static_cast<uint32_t>(p.backend));
  }
  writer.AddSection(SectionKind::kMeta, 0, meta.str());

  std::ostringstream plan_buf;
  uint32_t pack_index = 0;
  {
    BinaryWriter pw(plan_buf);
    pw.WriteU32(static_cast<uint32_t>(p.plan->backend()));
    pw.WriteI64(p.plan->input_dim());
    pw.WriteI64(p.plan->output_dim());
    pw.WriteU32(static_cast<uint32_t>(p.plan->num_slabs()));
    pw.WriteI64(p.plan->slab_width());
    pw.WriteU32(static_cast<uint32_t>(p.plan->ops().size()));
    for (const nn::PackedOp& op : p.plan->ops()) {
      pw.WriteU32(static_cast<uint32_t>(op.kind));
      pw.WriteI64(op.src);
      pw.WriteI64(op.src2);
      pw.WriteI64(op.dst);
      pw.WriteI64(op.in);
      pw.WriteI64(op.out);
      pw.WriteU32(static_cast<uint32_t>(op.act));
      if (op.kind == nn::PackedOp::Kind::kLinear) {
        pw.WriteI64(static_cast<int64_t>(pack_index++));
        std::vector<float> bias(op.bias.data(), op.bias.data() + op.bias.numel());
        pw.WriteF32Vector(bias);
      } else {
        pw.WriteI64(-1);
      }
    }
  }
  writer.AddSection(SectionKind::kPlan, 0, plan_buf.str());

  uint32_t idx = 0;
  for (const nn::PackedOp& op : p.plan->ops()) {
    if (op.kind != nn::PackedOp::Kind::kLinear) continue;
    writer.AddSection(SectionKind::kPack, idx++, SerializePackSection(*op.weights));
  }

  const uint64_t fingerprint =
      p.fingerprint_is_final ? p.fingerprint
                             : Fnv1a64Mix(writer.ContentFingerprint(), p.fingerprint);
  return writer.Finish(path, kDuetArtifactKind, fingerprint);
}

/// Loader-side pack assembly: points PackedArray views at the mapped
/// section and validates the structure the kernels rely on, so a
/// checksummed-but-inconsistent file degrades to a clean error instead of
/// an out-of-bounds sweep.
ArtifactStatus BuildPack(const char* base, const SectionEntry& sec,
                         std::shared_ptr<PackedWeights>* out) {
  if (sec.size < kPackHeaderBytes + kPackDirectoryBytes) {
    return ArtifactStatus::Fail("pack section too small");
  }
  const char* pay = base + sec.offset;
  ByteCursor c(pay, static_cast<size_t>(sec.size));
  uint32_t backend_raw = 0, reserved32 = 0;
  uint64_t in = 0, outw = 0, reserved64 = 0;
  c.ReadU32(&backend_raw);
  c.ReadU32(&reserved32);
  c.ReadU64(&in);
  c.ReadU64(&outw);
  c.ReadU64(&reserved64);
  (void)reserved32;
  (void)reserved64;
  if (backend_raw > static_cast<uint32_t>(tensor::WeightBackend::kInt4)) {
    return ArtifactStatus::Fail("pack section has unknown backend");
  }
  if (in == 0 || outw == 0 || in > (1ull << 32) || outw > (1ull << 32)) {
    return ArtifactStatus::Fail("pack section has implausible dimensions");
  }
  uint64_t counts[kNumPackArrays];
  uint64_t offsets[kNumPackArrays];
  for (int i = 0; i < kNumPackArrays; ++i) {
    c.ReadU64(&counts[i]);
    c.ReadU64(&offsets[i]);
  }
  static constexpr uint64_t kElemBytes[kNumPackArrays] = {4, 4, 4, 2, 2, 4, 4, 4, 1,
                                                          4, 2, 2, 4, 2, 4, 1, 4};
  for (int i = 0; i < kNumPackArrays; ++i) {
    if (counts[i] == 0) continue;
    const uint64_t bytes = counts[i] * kElemBytes[i];
    if (offsets[i] % kArtifactAlign != 0 ||
        offsets[i] < kPackHeaderBytes + kPackDirectoryBytes || offsets[i] > sec.size ||
        bytes > sec.size - offsets[i]) {
      return ArtifactStatus::Fail("pack array out of bounds");
    }
  }
  auto view = [&](int i, auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    return counts[i] == 0
               ? PackedArray<T>()
               : PackedArray<T>::View(reinterpret_cast<const T*>(pay + offsets[i]),
                                      static_cast<size_t>(counts[i]));
  };

  auto w = std::make_shared<PackedWeights>();
  w->backend = static_cast<tensor::WeightBackend>(backend_raw);
  w->in = static_cast<int64_t>(in);
  w->out = static_cast<int64_t>(outw);
  w->dense_view = view(0, static_cast<float*>(nullptr));
  w->row_ptr = view(1, static_cast<int32_t*>(nullptr));
  w->val_ptr = view(2, static_cast<int32_t*>(nullptr));
  w->run_start16 = view(3, static_cast<uint16_t*>(nullptr));
  w->run_len16 = view(4, static_cast<uint16_t*>(nullptr));
  w->run_start32 = view(5, static_cast<int32_t*>(nullptr));
  w->run_len32 = view(6, static_cast<int32_t*>(nullptr));
  w->values = view(7, static_cast<float*>(nullptr));
  w->quantized = view(8, static_cast<int8_t*>(nullptr));
  w->scales = view(9, static_cast<float*>(nullptr));
  w->half = view(10, static_cast<uint16_t*>(nullptr));
  w->unperm16 = view(11, static_cast<uint16_t*>(nullptr));
  w->unperm32 = view(12, static_cast<int32_t*>(nullptr));
  w->row_len16 = view(13, static_cast<uint16_t*>(nullptr));
  w->row_len32 = view(14, static_cast<int32_t*>(nullptr));
  w->nibbles = view(15, static_cast<uint8_t*>(nullptr));
  w->group_scales = view(16, static_cast<float*>(nullptr));

  // Structural validation against the kernel contracts (a single pass, far
  // cheaper than the checksums already computed over the same bytes).
  const PackedWeights& v = *w;  // const access: PackedArray views only read
  const int64_t win = v.in, wout = v.out;
  auto fail = [](const char* msg) { return ArtifactStatus::Fail(msg); };
  if (!v.unperm16.empty() && !v.unperm32.empty()) return fail("pack has both unperm widths");
  if (!v.unperm16.empty() && static_cast<int64_t>(v.unperm16.size()) != wout) {
    return fail("pack unperm16 size mismatch");
  }
  if (!v.unperm32.empty() && static_cast<int64_t>(v.unperm32.size()) != wout) {
    return fail("pack unperm32 size mismatch");
  }
  for (uint16_t u : v.unperm16) {
    if (u >= wout) return fail("pack unperm16 entry out of range");
  }
  for (int32_t u : v.unperm32) {
    if (u < 0 || u >= wout) return fail("pack unperm32 entry out of range");
  }
  if (!v.row_len16.empty() && static_cast<int64_t>(v.row_len16.size()) != win) {
    return fail("pack row_len16 size mismatch");
  }
  if (!v.row_len32.empty() && static_cast<int64_t>(v.row_len32.size()) != win) {
    return fail("pack row_len32 size mismatch");
  }
  for (uint16_t l : v.row_len16) {
    if (l > wout) return fail("pack row_len16 entry out of range");
  }
  for (int32_t l : v.row_len32) {
    if (l < 0 || l > wout) return fail("pack row_len32 entry out of range");
  }
  switch (v.backend) {
    case tensor::WeightBackend::kDenseF32:
      if (static_cast<int64_t>(v.dense_view.size()) != win * wout) {
        return fail("dense pack payload size mismatch");
      }
      break;
    case tensor::WeightBackend::kCsrF32: {
      if (static_cast<int64_t>(v.row_ptr.size()) != win + 1 ||
          static_cast<int64_t>(v.val_ptr.size()) != win + 1) {
        return fail("csr pack row/val pointer size mismatch");
      }
      const bool narrow = !v.run_start16.empty() || v.run_start32.empty();
      const int64_t runs = narrow ? static_cast<int64_t>(v.run_start16.size())
                                  : static_cast<int64_t>(v.run_start32.size());
      const int64_t lens = narrow ? static_cast<int64_t>(v.run_len16.size())
                                  : static_cast<int64_t>(v.run_len32.size());
      if (runs != lens) return fail("csr pack run arrays disagree");
      if (v.row_ptr[0] != 0 || v.val_ptr[0] != 0) return fail("csr pack pointers not zero-based");
      if (v.row_ptr.back() != runs) return fail("csr pack row_ptr end mismatch");
      if (v.val_ptr.back() != static_cast<int32_t>(v.values.size())) {
        return fail("csr pack val_ptr end mismatch");
      }
      int64_t value_cursor = 0;
      for (int64_t k = 0; k < win; ++k) {
        const int32_t r0 = v.row_ptr[static_cast<size_t>(k)];
        const int32_t r1 = v.row_ptr[static_cast<size_t>(k) + 1];
        if (r0 > r1 || r1 > runs) return fail("csr pack row_ptr not monotone");
        if (v.val_ptr[static_cast<size_t>(k)] != value_cursor) {
          return fail("csr pack val_ptr inconsistent");
        }
        for (int32_t r = r0; r < r1; ++r) {
          const int64_t start = narrow ? v.run_start16[static_cast<size_t>(r)]
                                       : v.run_start32[static_cast<size_t>(r)];
          const int64_t len = narrow ? v.run_len16[static_cast<size_t>(r)]
                                     : v.run_len32[static_cast<size_t>(r)];
          if (start < 0 || len < 0 || start + len > wout) return fail("csr pack run out of range");
          value_cursor += len;
        }
      }
      if (value_cursor != static_cast<int64_t>(v.values.size())) {
        return fail("csr pack value count mismatch");
      }
      break;
    }
    case tensor::WeightBackend::kInt8:
      if (static_cast<int64_t>(v.quantized.size()) != win * wout ||
          static_cast<int64_t>(v.scales.size()) != wout) {
        return fail("int8 pack payload size mismatch");
      }
      break;
    case tensor::WeightBackend::kF16:
      if (static_cast<int64_t>(v.half.size()) != win * wout) {
        return fail("f16 pack payload size mismatch");
      }
      break;
    case tensor::WeightBackend::kInt4: {
      const int64_t groups =
          (win + tensor::kInt4GroupSize - 1) / tensor::kInt4GroupSize;
      if (static_cast<int64_t>(v.nibbles.size()) != win * ((wout + 1) / 2) ||
          static_cast<int64_t>(v.group_scales.size()) != groups * wout) {
        return fail("int4 pack payload size mismatch");
      }
      break;
    }
  }
  *out = std::move(w);
  return ArtifactStatus::Ok();
}

}  // namespace

ArtifactStatus WriteArtifact(const std::string& path, const core::DuetModel& model,
                             tensor::WeightBackend backend) {
  const std::shared_ptr<const nn::InferencePlan> plan = model.made().Compile(backend);
  WriteParts parts;
  const data::Table& table = model.table();
  parts.table_name = table.name();
  parts.source_rows = static_cast<uint64_t>(table.num_rows());
  parts.columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    parts.columns.emplace_back(table.column(c).name(), table.column(c).distinct());
  }
  parts.encoding = model.options().encoding;
  parts.backend = backend;
  parts.plan = plan.get();
  parts.fingerprint = core::ModuleFingerprint(model);
  return SerializeParts(parts, path);
}

ArtifactStatus ResaveArtifact(const std::string& path, const ArtifactModel& model) {
  WriteParts parts;
  const data::Table& table = model.table();
  parts.table_name = table.name();
  parts.source_rows = model.source_rows();
  parts.columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    parts.columns.emplace_back(table.column(c).name(), table.column(c).distinct());
  }
  parts.encoding = model.encoding();
  parts.backend = model.backend();
  parts.plan = &model.plan();
  parts.fingerprint = model.fingerprint();
  parts.fingerprint_is_final = true;
  return SerializeParts(parts, path);
}

ArtifactStatus LoadArtifact(const std::string& path, const ArtifactLoadOptions& options,
                            std::shared_ptr<const ArtifactModel>* out) {
  if (out == nullptr) return ArtifactStatus::Fail("null output passed to LoadArtifact");
  MappedArtifact map;
  ArtifactStatus st = map.Map(path);
  if (!st.ok) return st;
  ArtifactIndex index;
  st = IndexArtifact(map.data(), map.size(), kDuetArtifactKind, options.verify_checksums,
                     &index);
  if (!st.ok) {
    st.error += " (" + path + ")";
    return st;
  }

  const SectionEntry* meta_sec = nullptr;
  const SectionEntry* plan_sec = nullptr;
  std::vector<const SectionEntry*> pack_secs;
  for (const SectionEntry& s : index.sections) {
    switch (static_cast<SectionKind>(s.kind)) {
      case SectionKind::kMeta:
        if (meta_sec != nullptr) return ArtifactStatus::Fail("duplicate meta section: " + path);
        meta_sec = &s;
        break;
      case SectionKind::kPlan:
        if (plan_sec != nullptr) return ArtifactStatus::Fail("duplicate plan section: " + path);
        plan_sec = &s;
        break;
      case SectionKind::kPack:
        pack_secs.push_back(&s);
        break;
    }
  }
  if (meta_sec == nullptr || plan_sec == nullptr) {
    return ArtifactStatus::Fail("artifact missing meta or plan section: " + path);
  }
  // Pack sections are referenced by index (entry.flags); require the table
  // order to already be 0..n-1 — the writer emits them that way.
  for (size_t i = 0; i < pack_secs.size(); ++i) {
    if (pack_secs[i]->flags != i) {
      return ArtifactStatus::Fail("pack sections out of order: " + path);
    }
  }

  // Meta: checksummed above (streamed sections are always verified), so the
  // aborting BinaryReader can only see exactly what the writer produced.
  std::string table_name;
  uint64_t source_rows = 0;
  std::vector<data::Column> columns;
  core::EncodingOptions encoding;
  tensor::WeightBackend backend;
  {
    std::istringstream in(std::string(map.data() + meta_sec->offset,
                                      static_cast<size_t>(meta_sec->size)));
    BinaryReader r(in);
    table_name = r.ReadString();
    source_rows = r.ReadU64();
    const uint32_t num_columns = r.ReadU32();
    if (num_columns == 0 || num_columns > (1u << 20)) {
      return ArtifactStatus::Fail("artifact meta has implausible column count: " + path);
    }
    columns.reserve(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      std::string name = r.ReadString();
      const uint64_t ndv = r.ReadU64();
      if (ndv == 0 || ndv > (1ull << 31)) {
        return ArtifactStatus::Fail("artifact meta column has implausible NDV: " + path);
      }
      std::vector<double> distinct(static_cast<size_t>(ndv));
      for (uint64_t i = 0; i < ndv; ++i) distinct[static_cast<size_t>(i)] = r.ReadF64();
      columns.push_back(data::Column::FromCodes(std::move(name), {}, std::move(distinct)));
    }
    encoding.one_hot_max_ndv = static_cast<int32_t>(r.ReadU32());
    encoding.large_encoding = static_cast<core::ValueEncoding>(r.ReadU32());
    encoding.embedding_dim = r.ReadI64();
    encoding.seed = r.ReadU64();
    backend = static_cast<tensor::WeightBackend>(r.ReadU32());
    if (backend > tensor::WeightBackend::kInt4) {
      return ArtifactStatus::Fail("artifact meta has unknown backend: " + path);
    }
  }

  // Plan program (also pre-checksummed).
  std::vector<nn::PackedOp> ops;
  int num_slabs = 0;
  int64_t slab_width = 0, input_dim = 0, output_dim = 0;
  {
    std::istringstream in(std::string(map.data() + plan_sec->offset,
                                      static_cast<size_t>(plan_sec->size)));
    BinaryReader r(in);
    const auto plan_backend = static_cast<tensor::WeightBackend>(r.ReadU32());
    if (plan_backend != backend) {
      return ArtifactStatus::Fail("artifact plan/meta backend mismatch: " + path);
    }
    input_dim = r.ReadI64();
    output_dim = r.ReadI64();
    num_slabs = static_cast<int>(r.ReadU32());
    slab_width = r.ReadI64();
    const uint32_t num_ops = r.ReadU32();
    if (input_dim <= 0 || output_dim <= 0 || num_slabs < 0 || num_slabs > (1 << 16) ||
        slab_width < 0 || num_ops == 0 || num_ops > (1u << 20)) {
      return ArtifactStatus::Fail("artifact plan header implausible: " + path);
    }
    ops.reserve(num_ops);
    size_t next_pack = 0;
    for (uint32_t i = 0; i < num_ops; ++i) {
      nn::PackedOp op;
      const uint32_t kind_raw = r.ReadU32();
      if (kind_raw > static_cast<uint32_t>(nn::PackedOp::Kind::kAdd)) {
        return ArtifactStatus::Fail("artifact plan op has unknown kind: " + path);
      }
      op.kind = static_cast<nn::PackedOp::Kind>(kind_raw);
      op.src = static_cast<int>(r.ReadI64());
      op.src2 = static_cast<int>(r.ReadI64());
      op.dst = static_cast<int>(r.ReadI64());
      op.in = r.ReadI64();
      op.out = r.ReadI64();
      const uint32_t act_raw = r.ReadU32();
      if (act_raw > static_cast<uint32_t>(tensor::Activation::kTanh)) {
        return ArtifactStatus::Fail("artifact plan op has unknown activation: " + path);
      }
      op.act = static_cast<tensor::Activation>(act_raw);
      const int64_t pack_index = r.ReadI64();
      // Slab-id validation mirrors InferencePlan::FromParts, as clean errors.
      const auto slab_ok = [num_slabs](int id) {
        return id >= nn::InferencePlan::kOutputSlab && id < num_slabs;
      };
      if (!slab_ok(op.src) || !slab_ok(op.dst) ||
          (op.kind == nn::PackedOp::Kind::kAdd && !slab_ok(op.src2))) {
        return ArtifactStatus::Fail("artifact plan op references invalid slab: " + path);
      }
      // Widths mirror the FromParts CHECKs exactly so a structurally bad
      // (but checksum-valid) file fails here cleanly instead of aborting.
      if (op.in <= 0 || op.out <= 0 ||
          op.in > (op.src == nn::InferencePlan::kInputSlab ? input_dim : slab_width) ||
          op.out > std::max(output_dim, slab_width)) {
        return ArtifactStatus::Fail("artifact plan op width out of range: " + path);
      }
      if (op.kind == nn::PackedOp::Kind::kLinear) {
        if (pack_index != static_cast<int64_t>(next_pack)) {
          return ArtifactStatus::Fail("artifact plan pack indices out of order: " + path);
        }
        if (next_pack >= pack_secs.size()) {
          return ArtifactStatus::Fail("artifact plan references missing pack section: " + path);
        }
        std::shared_ptr<PackedWeights> pack;
        const ArtifactStatus ps = BuildPack(map.data(), *pack_secs[next_pack], &pack);
        if (!ps.ok) return ArtifactStatus::Fail(ps.error + " (pack " +
                                                std::to_string(next_pack) + ", " + path + ")");
        if (pack->backend != backend || pack->in != op.in || pack->out != op.out) {
          return ArtifactStatus::Fail("artifact pack/op shape mismatch: " + path);
        }
        std::vector<float> bias = r.ReadF32Vector();
        if (static_cast<int64_t>(bias.size()) != op.out) {
          return ArtifactStatus::Fail("artifact plan op bias size mismatch: " + path);
        }
        op.bias = Tensor::FromVector({op.out}, std::move(bias));
        op.weights = std::move(pack);
        op.weights_shared = false;
        ++next_pack;
      } else if (pack_index != -1) {
        return ArtifactStatus::Fail("artifact plan non-linear op carries a pack: " + path);
      }
      ops.push_back(std::move(op));
    }
    if (next_pack != pack_secs.size()) {
      return ArtifactStatus::Fail("artifact has unreferenced pack sections: " + path);
    }
  }

  data::Table table(table_name, std::move(columns));
  auto model = std::shared_ptr<ArtifactModel>(
      new ArtifactModel(std::move(map), std::move(table), encoding));
  if (model->encoder_.total_width() != input_dim) {
    return ArtifactStatus::Fail("artifact encoder width disagrees with plan input: " + path);
  }
  int64_t blocks_width = 0;
  for (const tensor::BlockSpec& b : model->out_blocks_) blocks_width += b.len;
  if (blocks_width != output_dim) {
    return ArtifactStatus::Fail("artifact output blocks disagree with plan output: " + path);
  }
  model->plan_ = nn::InferencePlan::FromParts(std::move(ops), num_slabs, slab_width,
                                              input_dim, output_dim, backend);
  if (!model->plan_->sparse_executable()) {
    return ArtifactStatus::Fail("artifact plan has no predicate-sparse form: " + path);
  }
  model->source_rows_ = source_rows;
  model->fingerprint_ = index.fingerprint;
  model->backend_ = backend;
  model->estimator_ = std::make_unique<ArtifactEstimator>(*model);
  *out = std::move(model);
  return ArtifactStatus::Ok();
}

ArtifactModel::ArtifactModel(MappedArtifact map, data::Table table,
                             core::EncodingOptions encoding)
    : map_(std::move(map)),
      table_(std::move(table)),
      encoding_(encoding),
      encoder_(table_, encoding_) {
  int64_t offset = 0;
  out_blocks_.reserve(static_cast<size_t>(table_.num_columns()));
  for (int c = 0; c < table_.num_columns(); ++c) {
    const int64_t ndv = table_.column(c).ndv();
    out_blocks_.push_back({offset, ndv});
    offset += ndv;
  }
}

double ArtifactModel::EstimateSelectivity(const query::Query& query) const {
  double sel = 0.0;
  core::EstimateSelectivities(table_, encoder_, out_blocks_, *plan_, &query, 1, &sel, nullptr);
  return sel;
}

std::vector<double> ArtifactModel::EstimateSelectivityBatch(
    const std::vector<query::Query>& queries) const {
  std::vector<double> sels(queries.size());
  core::EstimateSelectivities(table_, encoder_, out_blocks_, *plan_, queries.data(),
                              static_cast<int64_t>(queries.size()), sels.data(), nullptr);
  return sels;
}

}  // namespace duet::artifact
