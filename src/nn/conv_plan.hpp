// Per-layer convolution plans and the shape-keyed plan cache.
//
// A ConvPlan records which implementation a conv layer should run
// through (im2col stripes → packed GEMM, direct 1×1 GEMM, Winograd
// F(2×2,3×3), or the quantized im2col stripes) and the weight-panel
// storage it reads, together with the cost model's latency estimates. Plans are pure functions of the ConvPlanKey — the conv
// geometry, batch, precision and SIMD path — so identical layers across
// engines, models and threads share one cached decision: PlanCache is
// a bounded, thread-safe map from key to plan. Lookups never allocate
// or reshuffle (cache hits on a warmed engine stay heap-free; see
// tests/test_planner.cpp); insertions evict FIFO once the bound is
// reached. The enumeration/costing logic that *produces* plans lives
// in nn/planner.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.hpp"
#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"

namespace ocb::nn {

/// Numeric precision a conv/linear node executes in. kInt8 requires a
/// calibration pass first (see Engine::calibrate / PlanRequest). kFp16
/// is a *storage* precision: weights are held half-width (fp16/bf16
/// panels, see tensor/sgemm_sparse.hpp) and widened to fp32 in-register,
/// so compute and activations stay fp32 — the planner picks half
/// storage only where weight traffic, not FLOPs, bounds the layer. All
/// other ops stay FP32 in every mode.
enum class Precision { kFp32, kFp16, kInt8 };

const char* precision_name(Precision precision) noexcept;

/// How a layer's weight panels are stored for its chosen kernel.
enum class WeightStorage : std::uint8_t {
  kDense,       ///< PackedA fp32 panels (the classic path)
  kHalf,        ///< PackedHalfA 16-bit panels, widened in-register
  kSparse,      ///< PackedSparseA surviving-column panels, fp32 values
  kSparseHalf,  ///< PackedSparseA with 16-bit values
};

const char* weight_storage_name(WeightStorage storage) noexcept;

/// Candidate implementations the planner chooses between. Every conv
/// can run kIm2colFused, the one im2col lowering (column stripes
/// packed on the fly over the whole batch, any weight storage); the
/// others are shape-specific alternatives.
enum class ConvAlgo : std::uint8_t {
  kDirectGemm,  ///< 1×1 s1 p0: the input already is the column matrix
  kWinograd,    ///< 3×3 s1: F(2×2,3×3) transforms + 16 pointwise GEMMs
  kIm2colFused, ///< im2col-free: column stripes packed on the fly
  kIm2colQuantFused,  ///< stripes over the u8 quad layout (kInt8 only)
};

const char* conv_algo_name(ConvAlgo algo) noexcept;

/// Everything a conv plan may depend on. Two layers with equal keys run
/// identically, wherever they appear.
struct ConvPlanKey {
  int in_c = 0, in_h = 0, in_w = 0;
  int kernel = 1, stride = 1, pad = 0;
  int out_c = 0;
  int batch = 1;  ///< frames lowered side by side (max_batch of the plan)
  Precision precision = Precision::kFp32;
  simd::Level level = simd::Level::kScalar;
  /// Pruned percent the active SparsityConfig targets for this layer
  /// (see nn/prune.hpp layer_sparsity_pct); 0 = dense. Part of the key
  /// because the sparse candidates' prices scale with density.
  int sparsity_pct = 0;

  friend bool operator==(const ConvPlanKey&, const ConvPlanKey&) = default;

  ConvGeometry geometry() const noexcept {
    return ConvGeometry{in_c, in_h, in_w, kernel, kernel, stride, pad};
  }
};

struct ConvPlanKeyHash {
  std::size_t operator()(const ConvPlanKey& key) const noexcept;
};

/// The winning implementation for one key, plus the estimates that
/// picked it (retained for observability: ExecutionPlan::to_text and
/// BENCH_planner report them).
struct ConvPlan {
  ConvAlgo algo = ConvAlgo::kIm2colFused;
  /// Weight-panel format the chosen kernel reads (dense / half-stored /
  /// sparse). Only kIm2colFused and kDirectGemm support non-dense
  /// storage; Winograd and the quantized path stay kDense.
  WeightStorage storage = WeightStorage::kDense;
  /// Surviving weight fraction the cost model priced (1.0 for dense
  /// storage).
  float density = 1.0f;
  double est_ms = 0.0;         ///< modelled latency of the chosen algo
  double est_im2col_ms = 0.0;  ///< baseline candidate (dense stripes)
};

/// Thread-safe bounded map from ConvPlanKey to ConvPlan.
///
/// Sized for the working set of every model in a serving fleet (a
/// MiniYolo has ~10 distinct conv shapes); when full, insertion evicts
/// the oldest entry (FIFO — plans are cheap to recompute, so recency
/// tracking isn't worth making lookups mutate shared state; a lookup
/// takes the lock, probes, and copies a few dozen bytes out).
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// Copies the cached plan into `*plan` and returns true on a hit.
  /// Never allocates and never mutates the map.
  bool lookup(const ConvPlanKey& key, ConvPlan* plan);

  /// Inserts (or overwrites) a plan, evicting FIFO at capacity.
  void insert(const ConvPlanKey& key, const ConvPlan& plan);

  Stats stats() const;
  void clear();

  /// The process-wide cache engines share by default (PlannerConfig
  /// can point at a private one instead).
  static PlanCache& global();

 private:
  const std::size_t capacity_;  // immutable after construction

  mutable Mutex mutex_;
  std::unordered_map<ConvPlanKey, ConvPlan, ConvPlanKeyHash> map_
      OCB_GUARDED_BY(mutex_);
  /// Insertion-ordered ring of live keys; next_evict_ walks it FIFO.
  std::vector<ConvPlanKey> order_ OCB_GUARDED_BY(mutex_);
  std::size_t next_evict_ OCB_GUARDED_BY(mutex_) = 0;
  Stats stats_ OCB_GUARDED_BY(mutex_);
};

}  // namespace ocb::nn
