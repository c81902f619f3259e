#include "nn/conv_plan.hpp"

#include "core/check.hpp"
#include "core/rng.hpp"
#include "core/thread_annotations.hpp"

namespace ocb::nn {

const char* precision_name(Precision precision) noexcept {
  switch (precision) {
    case Precision::kFp32: return "fp32";
    case Precision::kFp16: return "fp16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

const char* weight_storage_name(WeightStorage storage) noexcept {
  switch (storage) {
    case WeightStorage::kDense: return "dense";
    case WeightStorage::kHalf: return "half";
    case WeightStorage::kSparse: return "sparse";
    case WeightStorage::kSparseHalf: return "sparse-half";
  }
  return "?";
}

const char* conv_algo_name(ConvAlgo algo) noexcept {
  switch (algo) {
    case ConvAlgo::kDirectGemm: return "direct";
    case ConvAlgo::kWinograd: return "winograd";
    case ConvAlgo::kIm2colFused: return "im2col-fused";
    case ConvAlgo::kIm2colQuantFused: return "int8-im2col-fused";
  }
  return "?";
}

std::size_t ConvPlanKeyHash::operator()(const ConvPlanKey& key) const
    noexcept {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return hash_combine(h, v);
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.in_c)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.in_h)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.in_w)));
  h = mix(h,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.kernel)));
  h = mix(h,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.stride)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.pad)));
  h = mix(h,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.out_c)));
  h = mix(h,
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.batch)));
  h = mix(h, static_cast<std::uint64_t>(key.precision));
  h = mix(h, static_cast<std::uint64_t>(key.level));
  h = mix(h, static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(key.sparsity_pct)));
  return static_cast<std::size_t>(h);
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  MutexLock lock(mutex_);
  stats_.capacity = capacity_;
  map_.reserve(capacity_);
  order_.reserve(capacity_);
}

bool PlanCache::lookup(const ConvPlanKey& key, ConvPlan* plan) {
  OCB_CHECK_MSG(plan != nullptr, "PlanCache::lookup needs an out-plan");
  MutexLock lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *plan = it->second;
  return true;
}

void PlanCache::insert(const ConvPlanKey& key, const ConvPlan& plan) {
  MutexLock lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second = plan;  // refresh in place; FIFO position unchanged
    return;
  }
  if (map_.size() >= capacity_) {
    // order_ is full exactly when the map is: reuse the oldest slot.
    map_.erase(order_[next_evict_]);
    order_[next_evict_] = key;
    next_evict_ = (next_evict_ + 1) % capacity_;
    ++stats_.evictions;
  } else {
    order_.push_back(key);
  }
  map_.emplace(key, plan);
  ++stats_.insertions;
  stats_.size = map_.size();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mutex_);
  Stats out = stats_;
  out.size = map_.size();
  return out;
}

void PlanCache::clear() {
  MutexLock lock(mutex_);
  map_.clear();
  order_.clear();
  next_evict_ = 0;
  stats_ = Stats{};
  stats_.capacity = capacity_;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

}  // namespace ocb::nn
