// Row kernels of the engine's non-GEMM ops (nn/ops.cpp). Not public API.
//
// Each kernel works on one contiguous row and is defined in
// ops_avx2.cpp: AVX2 when the dispatcher allows it (tensor/simd.hpp),
// a scalar loop otherwise and for the tail. The op drivers in ops.cpp
// split their planes over the pool and call these per row. Every
// kernel but act_row is exact (max, add, copy), so the AVX2 and scalar
// forms agree bit for bit.
#pragma once

#include <cstddef>

#include "tensor/gemm.hpp"

namespace ocb::nn::detail {

/// row[i] = act(row[i]), branch-free: the GEMM epilogue's activation
/// (apply_act256 / apply_epi_act, fast_exp for SiLU and sigmoid).
void act_row(float* row, std::size_t n, EpiAct act) noexcept;

/// acc[i] = max(acc[i], src[i]).
void max_row(float* acc, const float* src, std::size_t n) noexcept;

/// out[i] = a[i] + b[i].
void add_row(const float* a, const float* b, std::size_t n,
             float* out) noexcept;

/// out[2i] = even[i], out[2i + 1] = odd[i] for i in [0, n). With
/// even == odd it duplicates each lane (the nearest 2× upsample).
void interleave_row(const float* even, const float* odd, std::size_t n,
                    float* out) noexcept;

/// out[x] = max over kx < k of padded[stride·x + kx], for x in [0, n):
/// the horizontal pass of a max pool over a row whose padding the
/// caller already filled. `padded` holds stride·(n − 1) + k floats.
void pool_row(const float* padded, int k, int stride, int n,
              float* out) noexcept;

}  // namespace ocb::nn::detail
