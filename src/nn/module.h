// Module base class: parameter registration, counting, checkpoint I/O.
#ifndef DUET_NN_MODULE_H_
#define DUET_NN_MODULE_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "tensor/tensor.h"

namespace duet::tensor {
// Opaque declaration (definition: tensor/packed_weights.h); modules that
// compile plans include the full header, plain modules do not need it.
enum class WeightBackend : int32_t;
}  // namespace duet::tensor

namespace duet::nn {

/// Compiled-plan cache telemetry (serving observability; summed over
/// children by container modules). `compile_micros` is wall time spent
/// inside plan compilation; `cache_hits` counts no-grad forwards served by
/// an already-compiled plan.
struct PlanTelemetry {
  uint64_t compiles = 0;
  uint64_t compile_micros = 0;
  uint64_t cache_hits = 0;

  PlanTelemetry& operator+=(const PlanTelemetry& o) {
    compiles += o.compiles;
    compile_micros += o.compile_micros;
    cache_hits += o.cache_hits;
    return *this;
  }
};

/// Base class for neural network building blocks. Parameters registered via
/// RegisterParam (or pulled in from child modules via RegisterChild) are
/// exposed to optimizers and serialized in registration order.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  // Explicit noexcept moves: the virtual destructor would otherwise
  // suppress them, and containers of move-only modules (plan caches hold a
  // mutex behind a unique_ptr) need nothrow moves so vector reallocation
  // never falls back to the deleted copy path.
  Module(Module&&) noexcept = default;
  Module& operator=(Module&&) noexcept = default;
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;

  /// Selects the packed-weight backend (see tensor/packed_weights.h) that
  /// this module's compiled inference plans use; plans recompile lazily on
  /// the next no-grad forward. Container modules forward the call to their
  /// children; modules without plans ignore it (default). Const because it
  /// only reconfigures the plan cache, never the trainable parameters.
  /// Plans publish atomically, so a switch racing in-flight forwards is
  /// memory-safe — but a racing forward may serve either backend, so
  /// configure a model before sharing it.
  virtual void SetInferenceBackend(tensor::WeightBackend backend) const {
    (void)backend;
  }

  /// Bytes held by the compiled plans' packed weights (0 when no plan is
  /// compiled or the module does not compile plans; containers sum over
  /// children). Plans are the only inference-side weight cache, so this is
  /// the whole cost of the backend choice: a dense plan copies each masked
  /// layer's W o M, CSR roughly halves that copy, int8 quarters it, f16
  /// halves it.
  virtual uint64_t PlanBytes() const { return 0; }

  /// Plan-cache telemetry (zeros for modules without plans; containers sum
  /// over children).
  virtual PlanTelemetry PlanInfo() const { return {}; }

  /// All trainable parameters (this module + registered children).
  const std::vector<tensor::Tensor>& parameters() const { return params_; }

  /// Total number of scalar parameters.
  int64_t NumParams() const;

  /// Model size in MiB assuming float32 storage (paper Table II "Size(MB)").
  double SizeMB() const;

  /// Writes all parameters (values only) in registration order.
  void Save(BinaryWriter& w) const;

  /// Reads parameters written by Save into the existing tensors; shapes must
  /// match the current architecture.
  void Load(BinaryReader& r);

  /// Copies every parameter value from `src` into this module's existing
  /// tensors (registration order; counts and shapes must match — both
  /// modules must share an architecture). Bitwise what Save(src)+Load(this)
  /// produces, without the serialization buffer: no transient image of the
  /// parameters is materialized, which is what keeps core::CloneModel at
  /// one extra model of memory instead of two. Mutates through raw data()
  /// pointers under a ParameterMutationGuard, so like Load it invalidates
  /// this module's parameter-derived caches; `src` is only read.
  void CopyParametersFrom(const Module& src);

 protected:
  /// Registers a tensor as trainable and returns it.
  tensor::Tensor RegisterParam(tensor::Tensor t);

  /// Adopts all parameters of a child module (child must outlive the parent's
  /// optimizer usage; typically children are data members).
  void RegisterChild(Module& child);

 private:
  std::vector<tensor::Tensor> params_;
};

}  // namespace duet::nn

#endif  // DUET_NN_MODULE_H_
