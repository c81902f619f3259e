// Cost-model-driven kernel planner for convolution layers.
//
// For each conv layer (keyed by ConvPlanKey) the planner enumerates
// the applicable implementations, prices each with a roofline/
// micro-kernel cost model, and caches the winner in a PlanCache. The
// model splits every candidate into a compute term (GEMM FLOPs over a
// sustained-throughput estimate, derated for tile quantization — the
// AVX2 micro-kernel works in 6×16 tiles, so ragged edges waste lanes)
// and a bandwidth term (the lowering / transform / scatter traffic
// over an effective copy bandwidth), plus a fixed dispatch overhead
// per GEMM call. Default constants are calibrated against this repo's
// committed BENCH_kernels baseline; `from_roofline` builds a model
// from a devsim DeviceSpec's numbers instead so planning can be
// studied for simulated edge devices.
//
// The planner is deliberately a pure function: plan_conv(key, config)
// has no engine state, so tests can probe decisions directly and any
// engine, server or bench shares cached decisions through the global
// PlanCache. Engine::prepare() is the integration point.
#pragma once

#include "nn/conv_plan.hpp"

namespace ocb::nn {

/// Sustained-throughput estimates feeding the candidate cost model.
///
/// The last three fields price the compressed-storage candidates
/// (WeightStorage::kHalf/kSparse/kSparseHalf): a bytes-moved term over
/// `weight_gbps` models the per-pass streaming of the weight panels —
/// on GEMV-like shapes (linear layers, n of a few) that traffic, not
/// FLOPs, bounds the kernel, which is exactly where half storage wins —
/// and the compute scales derate effective throughput for the widening
/// / indirection the compressed kernels do per k-group. They default to
/// 0 (= disabled / use built-in derates), so cost models aggregate-
/// initialised with the original five fields price dense candidates
/// identically to before.
struct KernelCostModel {
  double gemm_gflops = 0.0;      ///< packed fp32 GEMM, large shapes
  double int8_gops = 0.0;        ///< u8×s8 quantized GEMM
  double mem_gbps = 0.0;         ///< streaming copy (lowering/scatter)
  double transform_gbps = 0.0;   ///< winograd tile-transform traffic
  double gemm_overhead_us = 0.0; ///< fixed cost per GEMM dispatch
  double weight_gbps = 0.0;      ///< weight-panel streaming; 0 disables
                                 ///< the bytes-moved term entirely
  double half_compute_scale = 0.0;   ///< fp16/bf16-storage GEMM throughput
                                     ///< vs dense (0 = default derate)
  double sparse_compute_scale = 0.0; ///< sparse GEMM throughput on the
                                     ///< surviving work vs dense
  /// Bandwidth the im2col stripes see for their panel traffic: stripes
  /// are sized to stay cache-resident (fused_panel_cols), so the column
  /// write + GEMM read hit L2 instead of DRAM. 0 falls back to a
  /// multiple of mem_gbps — cost models aggregate-initialised with the
  /// earlier fields keep pricing the stripes sensibly.
  double cache_gbps = 0.0;

  bool valid() const noexcept { return gemm_gflops > 0.0; }

  /// Constants for this machine class, calibrated against the
  /// committed BENCH_kernels baseline for the given SIMD path.
  static KernelCostModel defaults(simd::Level level) noexcept;

  /// Model derived from devsim-style roofline numbers (effective
  /// GFLOP/s, effective GB/s, per-kernel launch overhead in µs and the
  /// device's int8:fp32 throughput ratio).
  static KernelCostModel from_roofline(double eff_gflops, double eff_bw_gbps,
                                       double kernel_overhead_us,
                                       double int8_speedup) noexcept;
};

/// Planner knobs carried inside a PlanRequest.
struct PlannerConfig {
  bool enable_winograd = true;
  bool enable_direct = true;
  /// kInt8 precision only: let a layer fall back to fp32 when the
  /// model prices the quantized path slower (tiny layers, where the
  /// quantize/dequantize traffic dominates).
  bool enable_fp32_fallback = true;
  /// Consult and populate the plan cache. Plans computed under
  /// non-default candidate toggles are never inserted (a restricted
  /// enumeration must not shadow the full one for later callers).
  bool use_cache = true;
  /// Cache to use; nullptr means PlanCache::global().
  PlanCache* cache = nullptr;
  /// Cost model override; an invalid (default) model means
  /// KernelCostModel::defaults(key.level).
  KernelCostModel cost{};
};

/// Candidate applicability.
bool winograd_applicable(const ConvPlanKey& key) noexcept;
bool direct_applicable(const ConvPlanKey& key) noexcept;

/// Per-candidate latency estimates (milliseconds, whole batch). Public
/// so tests and bench_conv_planner can introspect the model.
///
/// The im2col estimate prices the one im2col lowering, batch-spanning
/// stripes (gemm_packed_im2col): the input gather streams at mem_gbps,
/// the stripe panel's write + kernel read at cache_gbps, each stripe
/// beyond the first adds a dispatch and a packed-A re-read, stripes
/// spanning images add their staging-tile copy, and the GEMM runs over
/// the whole batch's columns. est_winograd_ms prices the blocked
/// Winograd driver for one output tile side (2 or 4): its tile count
/// (edge tiles included), transform traffic per tile at transform_gbps
/// and the V/M round trip at cache_gbps, both shared by the blocks
/// that run side by side in one wave (winograd::block_count), then the
/// (tile+2)² GEMMs, with a dispatch and a weight-panel pass per GEMM
/// for every further wave; blocks too few to fill a wave fan out and
/// pay a pool fork/join per GEMM. plan_conv prices both tiles and keeps
/// the cheaper one in ConvPlan::wino_tile.
/// est_im2col_storage_ms prices it for
/// compressed weight panels (`density` is the surviving weight
/// fraction, ignored for kDense/kHalf); kDense with density 1.0 is
/// est_im2col_ms exactly. The direct estimates likewise.
double est_im2col_ms(const ConvPlanKey& key,
                     const KernelCostModel& model) noexcept;
double est_direct_ms(const ConvPlanKey& key,
                     const KernelCostModel& model) noexcept;
double est_winograd_ms(const ConvPlanKey& key, const KernelCostModel& model,
                       int tile) noexcept;
/// The INT8 stripes over the u8 quad layout, plus activation
/// quantization; one pass per image.
double est_int8_fused_ms(const ConvPlanKey& key,
                         const KernelCostModel& model) noexcept;
double est_im2col_storage_ms(const ConvPlanKey& key,
                             const KernelCostModel& model,
                             WeightStorage storage, double density) noexcept;
double est_direct_storage_ms(const ConvPlanKey& key,
                             const KernelCostModel& model,
                             WeightStorage storage, double density) noexcept;

/// Enumerate, cost and pick the cheapest applicable implementation for
/// `key`, consulting the cache first. Thread-safe.
ConvPlan plan_conv(const ConvPlanKey& key, const PlannerConfig& config = {});

}  // namespace ocb::nn
