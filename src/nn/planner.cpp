#include "nn/planner.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/winograd.hpp"

namespace ocb::nn {
namespace {

/// Modelled milliseconds for one packed fp32 GEMM of [m×k]·[k×n],
/// including the fixed dispatch overhead. Throughput is derated for
/// micro-kernel tile quantization (6×16 tiles; ragged edges idle
/// lanes) and short-loop amortization in n and k.
bool storage_half(WeightStorage storage) noexcept {
  return storage == WeightStorage::kHalf ||
         storage == WeightStorage::kSparseHalf;
}

bool storage_sparse(WeightStorage storage) noexcept {
  return storage == WeightStorage::kSparse ||
         storage == WeightStorage::kSparseHalf;
}

/// Weight-panel bytes one GEMM pass streams for an m×k matrix in the
/// given storage. Dense/half panels are row-tile padded; sparse panels
/// pay 4 index bytes plus kRowTile values per surviving column.
double weight_panel_bytes(std::size_t m, std::size_t k, WeightStorage storage,
                          double density) noexcept {
  constexpr double kTile = static_cast<double>(PackedA::kRowTile);
  const double m_t = static_cast<double>((m + PackedA::kRowTile - 1) /
                                         PackedA::kRowTile) *
                     kTile;
  const double cols = m_t / kTile * static_cast<double>(k);
  const double value_bytes = storage_half(storage) ? 2.0 : 4.0;
  double per_col = kTile * value_bytes;
  if (storage_sparse(storage)) per_col = density * (per_col + 4.0);
  return cols * per_col;
}

/// Modelled milliseconds for one packed GEMM of [m×k]·[k×n] in the
/// given weight storage, including the fixed dispatch overhead.
/// Compute: effective FLOPs (dense FLOPs × surviving density) over a
/// sustained-throughput estimate derated for micro-kernel tile
/// quantization (6×16 tiles; ragged edges idle lanes), short-loop
/// amortization in n and k, and the compressed kernels' per-group
/// widening/indirection cost. Bandwidth: the weight panels themselves
/// must stream once per pass — max(compute, traffic) models the
/// overlap, and on GEMV-like shapes the traffic term dominates, which
/// is what makes half storage worth picking there.
double gemm_storage_ms(std::size_t m, std::size_t k, std::size_t n,
                       const KernelCostModel& model, WeightStorage storage,
                       double density) noexcept {
  if (m == 0 || k == 0 || n == 0) return 0.0;
  const bool half = storage_half(storage);
  const bool sparse = storage_sparse(storage);
  const double d =
      sparse ? std::clamp(density, 0.02, 1.0) : 1.0;
  double scale = 1.0;
  if (half)
    scale *= model.half_compute_scale > 0.0 ? model.half_compute_scale : 0.9;
  if (sparse)
    scale *= model.sparse_compute_scale > 0.0 ? model.sparse_compute_scale
                                              : 0.85;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(k) * static_cast<double>(n) * d;
  const double tile_m =
      static_cast<double>((m + PackedA::kRowTile - 1) / PackedA::kRowTile *
                          PackedA::kRowTile);
  const double tile_n = static_cast<double>((n + 15) / 16 * 16);
  const double ramp_k =
      static_cast<double>(k) / (static_cast<double>(k) + 8.0);
  // n-direction efficiency: column-tile quantization times short-loop
  // ramp. These model the *dense* kernel, which runs its remainder
  // columns as a masked 8-lane tile (gemm_avx2.cpp), so a narrow n
  // wastes the masked-off lanes of 16-column tiles. The compressed
  // kernels' tails instead flip lanes across the row tile (see
  // sgemm_sparse_avx2.cpp), so on GEMV-like shapes they keep a large
  // fraction of peak — floor their efficiency rather than inheriting
  // the dense collapse.
  double n_eff = (static_cast<double>(n) / tile_n) *
                 (static_cast<double>(n) / (static_cast<double>(n) + 48.0));
  if (half || sparse) n_eff = std::max(n_eff, 0.25);
  const double gflops =
      std::max(0.05, model.gemm_gflops * scale *
                         (static_cast<double>(m) / tile_m) * n_eff * ramp_k);
  double ms = flops / (gflops * 1e6);
  if (model.weight_gbps > 0.0) {
    const double traffic_ms = weight_panel_bytes(m, k, storage, d) /
                              (model.weight_gbps * 1e6);
    ms = std::max(ms, traffic_ms);
  }
  return ms + model.gemm_overhead_us * 1e-3;
}

double gemm_ms(std::size_t m, std::size_t k, std::size_t n,
               const KernelCostModel& model) noexcept {
  return gemm_storage_ms(m, k, n, model, WeightStorage::kDense, 1.0);
}

double copy_ms(double bytes, double gbps) noexcept {
  return bytes / (std::max(0.05, gbps) * 1e6);
}

/// Effective bandwidth for the im2col stripes' panel traffic.
/// A zero cache_gbps (older aggregate-initialised models) derives one
/// from mem_gbps: the panels are sized to sit in L2, which on every
/// machine class we model is a small multiple of streaming bandwidth.
double cache_gbps_of(const KernelCostModel& model) noexcept {
  return model.cache_gbps > 0.0 ? model.cache_gbps
                                : 3.0 * std::max(0.05, model.mem_gbps);
}

}  // namespace

KernelCostModel KernelCostModel::defaults(simd::Level level) noexcept {
  // Calibrated against bench/baselines/BENCH_kernels.json and
  // BENCH_planner.json for this repo's reference machine: the AVX2
  // packed GEMM sustains ~19–29 GFLOP/s on engine-sized shapes, the
  // scalar fallback ~2–4, and the u8×s8 path lands 1.7–3.5× above SIMD
  // fp32. The transform rate is the effective byte throughput of the
  // winograd tile transforms: the AVX2 8-tile block kernel
  // (winograd_avx2.cpp) streams ~10 GB/s, the scalar per-tile code
  // (gather + ~70 flops + scattered stores per tile-channel) ~3.
  // The storage fields are calibrated against BENCH_pareto.json: packed
  // weight panels stream at roughly the copy rate plus cache reuse; the
  // half kernel loses a little throughput to the per-group widening
  // (one convert + store feeding 12 FMAs), the sparse kernel to the
  // index indirection; the scalar half path converts element-wise and
  // is priced accordingly.
  KernelCostModel m;
  if (level == simd::Level::kAvx2) {
    m.gemm_gflops = 22.0;
    m.int8_gops = 55.0;
    m.mem_gbps = 8.0;
    m.transform_gbps = 10.0;
    m.gemm_overhead_us = 1.5;
    m.weight_gbps = 12.0;
    m.half_compute_scale = 0.92;
    m.sparse_compute_scale = 0.85;
    m.cache_gbps = 24.0;
  } else {
    m.gemm_gflops = 2.8;
    m.int8_gops = 6.0;
    m.mem_gbps = 6.0;
    m.transform_gbps = 3.0;
    m.gemm_overhead_us = 1.0;
    m.weight_gbps = 6.0;
    m.half_compute_scale = 0.5;
    m.sparse_compute_scale = 0.95;
    m.cache_gbps = 12.0;
  }
  return m;
}

KernelCostModel KernelCostModel::from_roofline(
    double eff_gflops, double eff_bw_gbps, double kernel_overhead_us,
    double int8_speedup) noexcept {
  KernelCostModel m;
  m.gemm_gflops = eff_gflops;
  m.int8_gops = eff_gflops * std::max(1.0, int8_speedup);
  m.mem_gbps = eff_bw_gbps;
  // Tile transforms are scalar address arithmetic, not streaming
  // copies; they reach a fraction of the device's effective bandwidth.
  m.transform_gbps = eff_bw_gbps / 3.0;
  m.gemm_overhead_us = kernel_overhead_us;
  m.weight_gbps = eff_bw_gbps;
  m.half_compute_scale = 0.9;
  m.sparse_compute_scale = 0.85;
  m.cache_gbps = eff_bw_gbps * 3.0;
  return m;
}

bool winograd_applicable(const ConvPlanKey& key) noexcept {
  // Winograd panels are dense fp32; under kFp16 it competes as a legal
  // fallback candidate (half storage only shrinks the direct/im2col
  // panels, and the model decides which wins).
  return key.kernel == 3 && key.stride == 1 &&
         (key.precision == Precision::kFp32 ||
          key.precision == Precision::kFp16);
}

bool direct_applicable(const ConvPlanKey& key) noexcept {
  return key.kernel == 1 && key.stride == 1 && key.pad == 0;
}

double est_im2col_storage_ms(const ConvPlanKey& key,
                             const KernelCostModel& model,
                             WeightStorage storage, double density) noexcept {
  const ConvGeometry geom = key.geometry();
  const std::size_t rows = geom.col_rows();
  const std::size_t n_img = geom.col_cols();
  const double n_tot = static_cast<double>(n_img) * key.batch;
  const double k_bytes = static_cast<double>(rows) * sizeof(float);
  // Stripe packing gathers the input window once from memory; the
  // stripe-sized panel it writes, and the kernel's read-back, stay
  // cache-resident.
  double ms = copy_ms(k_bytes * n_tot, model.mem_gbps);
  ms += copy_ms(2.0 * k_bytes * n_tot, cache_gbps_of(model));
  // The columns run over the whole batch: one GEMM dispatch per stripe
  // and one packed-A re-read per stripe beyond the first (gemm_storage_ms
  // below charges the first).
  const double w = static_cast<double>(fused_panel_cols(rows));
  const double extra = std::ceil(n_tot / w) - 1.0;
  const double a_bytes = static_cast<double>(key.out_c) * rows *
                         (storage_half(storage) ? 2.0 : 4.0) *
                         (storage_sparse(storage) ? density : 1.0);
  ms += extra * model.gemm_overhead_us * 1e-3;
  ms += copy_ms(extra * a_bytes, cache_gbps_of(model));
  // A stripe that spans images runs into a staging tile and is copied
  // out per image. Each image boundary splits at most one stripe, and
  // every stripe spans once the maps are smaller than a stripe.
  if (key.batch > 1 && n_img % static_cast<std::size_t>(w) != 0) {
    const double spanned = std::min(n_tot, (key.batch - 1) * w);
    ms += copy_ms(2.0 * key.out_c * spanned * sizeof(float),
                  cache_gbps_of(model));
  }
  ms += gemm_storage_ms(static_cast<std::size_t>(key.out_c), rows,
                        static_cast<std::size_t>(n_tot), model, storage,
                        density);
  return ms;
}

double est_direct_storage_ms(const ConvPlanKey& key,
                             const KernelCostModel& model,
                             WeightStorage storage, double density) noexcept {
  const ConvGeometry geom = key.geometry();
  // The input is consumed in place — no lowering, no scatter — but the
  // GEMM runs per image, so small spatial extents pay the dispatch
  // overhead batch times.
  return static_cast<double>(key.batch) *
         gemm_storage_ms(static_cast<std::size_t>(key.out_c),
                         static_cast<std::size_t>(key.in_c), geom.col_cols(),
                         model, storage, density);
}

double est_im2col_ms(const ConvPlanKey& key,
                     const KernelCostModel& model) noexcept {
  return est_im2col_storage_ms(key, model, WeightStorage::kDense, 1.0);
}

double est_direct_ms(const ConvPlanKey& key,
                     const KernelCostModel& model) noexcept {
  return est_direct_storage_ms(key, model, WeightStorage::kDense, 1.0);
}

double est_winograd_ms(const ConvPlanKey& key,
                       const KernelCostModel& model) noexcept {
  const ConvGeometry geom = key.geometry();
  const double ld =
      static_cast<double>(winograd::tile_count(geom)) * key.batch;
  const double elems = static_cast<double>(winograd::kTileElems);
  // The blocked driver (nn/ops.cpp) runs tile-row blocks whose V and M
  // stay in L2; with enough blocks they run in waves, one block per
  // executor, so the per-block work overlaps `lanes` ways.
  const std::size_t blocks =
      winograd::block_count(geom, key.out_c, key.batch);
  const std::size_t executors = ThreadPool::global().executors();
  const double lanes = blocks >= executors
                           ? static_cast<double>(fused_panel_buffers(blocks))
                           : 1.0;
  const double waves = std::ceil(static_cast<double>(blocks) / lanes);
  // Transform arithmetic (the input side gathers 16 floats per
  // tile-channel, the inverse writes a 2×2 tile per tile-channel) and
  // the V/M round trip through each block's L2 run on every lane.
  double ms = copy_ms(elems * key.in_c * ld * sizeof(float),
                      model.transform_gbps);
  ms += copy_ms(4.0 * key.out_c * ld * sizeof(float), model.transform_gbps);
  ms += copy_ms(2.0 * elems * (key.in_c + key.out_c) * ld * sizeof(float),
                cache_gbps_of(model));
  ms /= lanes;
  // 16 pointwise GEMMs of [out_c × in_c] · [in_c × tiles]; every wave
  // beyond the first adds their dispatches and one more pass over the
  // 16 weight panels.
  ms += elems * gemm_ms(static_cast<std::size_t>(key.out_c),
                        static_cast<std::size_t>(key.in_c),
                        static_cast<std::size_t>(ld), model);
  const double u_bytes = elems * key.out_c * key.in_c * sizeof(float);
  ms += (waves - 1.0) * (elems * model.gemm_overhead_us * 1e-3 +
                         copy_ms(u_bytes, cache_gbps_of(model)));
  return ms;
}

double est_int8_fused_ms(const ConvPlanKey& key,
                         const KernelCostModel& model) noexcept {
  const ConvGeometry geom = key.geometry();
  const double rows = static_cast<double>(geom.col_rows());
  const double n_img = static_cast<double>(geom.col_cols());
  const double n_tot = n_img * key.batch;
  const double in_elems = static_cast<double>(key.in_c) * key.in_h *
                          key.in_w * key.batch;
  // Activation quantization is unchanged; the quad lowering's u8
  // write + read drop from memory to cache bandwidth, with the
  // gathered u8 input read still paying the memory rate. Stripes add
  // one dispatch each, like the fp32 stripes.
  double ms = copy_ms(in_elems * (sizeof(float) + 1.0), model.mem_gbps);
  ms += copy_ms(rows * n_tot, model.mem_gbps);
  ms += copy_ms(2.0 * rows * n_tot, cache_gbps_of(model));
  // Quad stripes hold `rows` bytes per column under the same L2 budget
  // as the fp32 stripes (tensor/qgemm.cpp).
  constexpr double kPanelBudgetBytes = 3.0 * 512.0 * 1024.0;
  const double stripe_cols =
      std::min(1024.0, std::max(16.0, kPanelBudgetBytes / rows));
  ms += (std::ceil(n_img / stripe_cols) - 1.0) * key.batch *
        model.gemm_overhead_us * 1e-3;
  const double flops = 2.0 * key.out_c * rows * n_tot;
  const double ramp_n = n_img / (n_img + 48.0);
  ms += flops / (std::max(0.05, model.int8_gops * ramp_n) * 1e6) +
        static_cast<double>(key.batch) * model.gemm_overhead_us * 1e-3;
  return ms;
}

ConvPlan plan_conv(const ConvPlanKey& key, const PlannerConfig& config) {
  // Cached plans assume the full candidate set and the default cost
  // model: a restricted enumeration must not read or shadow the full
  // decision, and a custom cost model may only cache into a cache its
  // owner supplied (where every entry shares that model).
  const bool flags_full = config.enable_winograd && config.enable_direct &&
                          config.enable_fp32_fallback;
  const bool cacheable =
      config.use_cache && flags_full &&
      (!config.cost.valid() || config.cache != nullptr);
  PlanCache* cache = nullptr;
  if (cacheable)
    cache = config.cache != nullptr ? config.cache : &PlanCache::global();

  if (cache != nullptr) {
    ConvPlan hit;
    if (cache->lookup(key, &hit)) return hit;
  }

  const KernelCostModel model =
      config.cost.valid() ? config.cost : KernelCostModel::defaults(key.level);

  ConvPlan plan;
  plan.est_im2col_ms = est_im2col_ms(key, model);

  const auto consider = [&plan](ConvAlgo algo, WeightStorage storage,
                                double density, double ms) {
    if (ms < plan.est_ms) {
      plan.algo = algo;
      plan.storage = storage;
      plan.density = static_cast<float>(density);
      plan.est_ms = ms;
    }
  };

  const bool direct_ok = config.enable_direct && direct_applicable(key);
  if (key.precision == Precision::kInt8) {
    plan.algo = ConvAlgo::kIm2colQuantFused;
    plan.est_ms = est_int8_fused_ms(key, model);
    if (config.enable_fp32_fallback) {
      // A tiny layer can be cheaper in fp32 once quantize/dequantize
      // traffic is priced in; the engine then runs just that node in
      // fp32 (its consumers read the float activation as usual).
      consider(ConvAlgo::kIm2colFused, WeightStorage::kDense, 1.0,
               plan.est_im2col_ms);
      if (direct_ok)
        consider(ConvAlgo::kDirectGemm, WeightStorage::kDense, 1.0,
                 est_direct_ms(key, model));
    }
  } else {
    plan.algo = ConvAlgo::kIm2colFused;
    plan.est_ms = plan.est_im2col_ms;
    if (direct_ok)
      consider(ConvAlgo::kDirectGemm, WeightStorage::kDense, 1.0,
               est_direct_ms(key, model));
    if (config.enable_winograd && winograd_applicable(key))
      consider(ConvAlgo::kWinograd, WeightStorage::kDense, 1.0,
               est_winograd_ms(key, model));

    // Compressed-storage candidates: half panels under kFp16, sparse
    // panels when the key targets pruning, and their combination.
    // Winograd has no compressed variant — its dense estimate above
    // competes on equal terms.
    const bool sparse = key.sparsity_pct > 0;
    const double density = 1.0 - static_cast<double>(key.sparsity_pct) / 100.0;
    const auto consider_storage = [&](WeightStorage storage, double d) {
      consider(ConvAlgo::kIm2colFused, storage, d,
               est_im2col_storage_ms(key, model, storage, d));
      if (direct_ok)
        consider(ConvAlgo::kDirectGemm, storage, d,
                 est_direct_storage_ms(key, model, storage, d));
    };
    if (key.precision == Precision::kFp16)
      consider_storage(WeightStorage::kHalf, 1.0);
    if (sparse) {
      consider_storage(WeightStorage::kSparse, density);
      if (key.precision == Precision::kFp16)
        consider_storage(WeightStorage::kSparseHalf, density);
    }
  }

  if (cache != nullptr) cache->insert(key, plan);
  return plan;
}

}  // namespace ocb::nn
