#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace ocb {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_matrices_near(const std::vector<float>& a,
                          const std::vector<float>& b, float atol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], atol) << "at index " << i;
}

TEST(GemmNaive, TwoByTwoKnownResult) {
  const std::vector<float> a{1, 2, 3, 4};   // [[1,2],[3,4]]
  const std::vector<float> b{5, 6, 7, 8};   // [[5,6],[7,8]]
  std::vector<float> c(4, 0.0f);
  gemm_naive(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Gemm, MatchesNaiveOnSquare) {
  Rng rng(1);
  const std::size_t n = 48;
  const auto a = random_matrix(n, n, rng);
  const auto b = random_matrix(n, n, rng);
  std::vector<float> c_fast(n * n), c_ref(n * n);
  gemm(a.data(), b.data(), c_fast.data(), n, n, n);
  gemm_naive(a.data(), b.data(), c_ref.data(), n, n, n);
  expect_matrices_near(c_fast, c_ref, 1e-3f);
}

TEST(Gemm, AccumulateAddsToExisting) {
  Rng rng(2);
  const std::size_t m = 8, k = 8, n = 8;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(m * n, 1.0f);
  std::vector<float> ref(m * n, 1.0f);
  gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n, /*accumulate=*/true);
  expect_matrices_near(c, ref, 1e-3f);
}

TEST(Gemm, OverwritesWithoutAccumulate) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{2.0f};
  std::vector<float> c{999.0f};
  gemm(a.data(), b.data(), c.data(), 1, 1, 1);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

TEST(Gemm, ZeroKProducesZeros) {
  std::vector<float> c(6, 5.0f);
  gemm(nullptr, nullptr, c.data(), 2, 0, 3);
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Gemm, EmptyOutputIsNoop) {
  gemm(nullptr, nullptr, nullptr, 0, 4, 0);  // must not crash
  SUCCEED();
}

TEST(Gemm, VectorTimesMatrix) {
  Rng rng(3);
  const auto a = random_matrix(1, 64, rng);
  const auto b = random_matrix(64, 16, rng);
  std::vector<float> c(16), ref(16);
  gemm(a.data(), b.data(), c.data(), 1, 64, 16);
  gemm_naive(a.data(), b.data(), ref.data(), 1, 64, 16);
  expect_matrices_near(c, ref, 1e-3f);
}

TEST(Gemm, SmallBlockConfigStillCorrect) {
  Rng rng(4);
  const std::size_t m = 33, k = 17, n = 29;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(m * n), ref(m * n);
  GemmConfig config;
  config.block_m = 4;
  config.block_n = 8;
  config.block_k = 5;
  gemm(a.data(), b.data(), c.data(), m, k, n, false, config);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  expect_matrices_near(c, ref, 1e-3f);
}

TEST(Gemm, SerialModeMatchesParallel) {
  Rng rng(5);
  const std::size_t m = 64, k = 32, n = 24;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_par(m * n), c_ser(m * n);
  GemmConfig serial;
  serial.parallel = false;
  gemm(a.data(), b.data(), c_par.data(), m, k, n);
  gemm(a.data(), b.data(), c_ser.data(), m, k, n, false, serial);
  expect_matrices_near(c_par, c_ser, 1e-5f);
}

struct GemmDims {
  std::size_t m, k, n;
};

class GemmShapeTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmShapeTest, MatchesNaiveOracle) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(m * n), ref(m * n);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
  expect_matrices_near(c, ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 5, 7},
                      GemmDims{16, 16, 16}, GemmDims{65, 1, 65},
                      GemmDims{1, 128, 1}, GemmDims{100, 3, 2},
                      GemmDims{7, 200, 9}, GemmDims{128, 70, 130}));

// Exhaustive SIMD-vs-naive equivalence over odd shapes that stress
// every panel/tile tail path (row tails of the 6-row panel, 16/8/scalar
// column tails, k == 1), with accumulate both off and on.
TEST(Gemm, ExhaustiveOddShapesMatchNaive) {
  const std::size_t dims[] = {1, 3, 7, 8, 15, 16, 17, 33};
  Rng rng(99);
  for (std::size_t m : dims) {
    for (std::size_t k : dims) {
      for (std::size_t n : dims) {
        for (bool accumulate : {false, true}) {
          const auto a = random_matrix(m, k, rng);
          const auto b = random_matrix(k, n, rng);
          std::vector<float> c(m * n, 0.5f), ref(m * n, 0.5f);
          gemm(a.data(), b.data(), c.data(), m, k, n, accumulate);
          gemm_naive(a.data(), b.data(), ref.data(), m, k, n, accumulate);
          for (std::size_t i = 0; i < c.size(); ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-4f)
                << "m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate << " at " << i;
        }
      }
    }
  }
}

// The forced-scalar fallback must agree with the naive oracle over the
// same shape sweep (and therefore with pre-SIMD results) within 1e-4.
TEST(Gemm, ScalarFallbackMatchesNaiveOnOddShapes) {
  const std::size_t dims[] = {1, 3, 7, 8, 15, 16, 17, 33};
  GemmConfig scalar;
  scalar.path = GemmPath::kScalar;
  Rng rng(101);
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      const std::size_t k = 17;
      const auto a = random_matrix(m, k, rng);
      const auto b = random_matrix(k, n, rng);
      std::vector<float> c(m * n), ref(m * n);
      gemm(a.data(), b.data(), c.data(), m, k, n, false, scalar);
      gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
      expect_matrices_near(c, ref, 1e-4f);
    }
  }
}

TEST(Gemm, PackedMatchesNaiveAcrossShapes) {
  const std::size_t dims[] = {1, 5, 6, 7, 12, 13, 33};
  Rng rng(103);
  for (std::size_t m : dims) {
    for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{40}}) {
      const std::size_t k = 21;
      const auto a = random_matrix(m, k, rng);
      const auto b = random_matrix(k, n, rng);
      PackedA packed(a.data(), m, k);
      std::vector<float> c(m * n), ref(m * n);
      gemm_packed(packed, b.data(), c.data(), n);
      gemm_naive(a.data(), b.data(), ref.data(), m, k, n);
      expect_matrices_near(c, ref, 1e-4f);
    }
  }
}

}  // namespace
}  // namespace ocb
