#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tests/gradcheck.h"
#include "util/rng.h"

namespace imcat {
namespace {

using ops::Add;
using ops::AddRowBroadcast;
using ops::ConcatCols;
using ops::Detach;
using ops::Exp;
using ops::Gather;
using ops::L2NormalizeRows;
using ops::LeakyRelu;
using ops::Log;
using ops::LogSigmoid;
using ops::MatMul;
using ops::MatMulNT;
using ops::Mean;
using ops::Mul;
using ops::MulColBroadcast;
using ops::PairwiseSqDist;
using ops::Pow;
using ops::Relu;
using ops::RowNormalize;
using ops::RowSum;
using ops::ScalarAdd;
using ops::ScalarMul;
using ops::Sigmoid;
using ops::SliceCols;
using ops::SoftmaxCrossEntropy;
using ops::SpMM;
using ops::Sub;
using ops::Sum;
using ops::Tanh;

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng, bool grad = true,
                    float lo = -1.0f, float hi = 1.0f) {
  Tensor t(rows, cols, grad);
  for (int64_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  return t;
}

// ---------------------------------------------------------------------------
// Forward-value tests.
// ---------------------------------------------------------------------------

TEST(OpsForwardTest, MatMulValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsForwardTest, MatMulNTMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = RandomTensor(3, 4, &rng, false);
  Tensor b = RandomTensor(5, 4, &rng, false);
  Tensor c = MatMulNT(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      float expect = 0.0f;
      for (int64_t k = 0; k < 4; ++k) expect += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), expect, 1e-5f);
    }
  }
}

TEST(OpsForwardTest, ElementwiseBasics) {
  Tensor a(1, 3, {1, -2, 3});
  Tensor b(1, 3, {4, 5, -6});
  EXPECT_FLOAT_EQ(Add(a, b).at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(ScalarMul(a, -2.0f).at(0, 2), -6.0f);
  EXPECT_FLOAT_EQ(ScalarAdd(a, 10.0f).at(0, 1), 8.0f);
}

TEST(OpsForwardTest, ActivationValues) {
  Tensor a(1, 2, {0.0f, -1.0f});
  EXPECT_FLOAT_EQ(Sigmoid(a).at(0, 0), 0.5f);
  EXPECT_NEAR(Tanh(a).at(0, 1), std::tanh(-1.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Relu(a).at(0, 1), 0.0f);
  EXPECT_NEAR(LeakyRelu(a, 0.1f).at(0, 1), -0.1f, 1e-6f);
  EXPECT_NEAR(LogSigmoid(a).at(0, 0), std::log(0.5), 1e-6f);
}

TEST(OpsForwardTest, LogSigmoidStableForLargeInputs) {
  Tensor a(1, 2, {80.0f, -80.0f});
  Tensor y = LogSigmoid(a);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), -80.0f, 1e-4f);
  EXPECT_TRUE(std::isfinite(y.at(0, 1)));
}

TEST(OpsForwardTest, GatherSelectsRows) {
  Tensor table(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(table, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(OpsForwardTest, SliceAndConcatRoundTrip) {
  Rng rng(5);
  Tensor a = RandomTensor(4, 6, &rng, false);
  Tensor left = SliceCols(a, 0, 2);
  Tensor mid = SliceCols(a, 2, 5);
  Tensor right = SliceCols(a, 5, 6);
  Tensor back = ConcatCols({left, mid, right});
  for (int64_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(back.data()[i], a.data()[i]);
}

TEST(OpsForwardTest, Reductions) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor rs = RowSum(a);
  EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
}

TEST(OpsForwardTest, L2NormalizeMakesUnitRows) {
  Rng rng(9);
  Tensor a = RandomTensor(5, 7, &rng, false);
  Tensor y = L2NormalizeRows(a);
  for (int64_t r = 0; r < 5; ++r) {
    float ss = 0.0f;
    for (int64_t c = 0; c < 7; ++c) ss += y.at(r, c) * y.at(r, c);
    EXPECT_NEAR(ss, 1.0f, 1e-5f);
  }
}

TEST(OpsForwardTest, L2NormalizeZeroRowStaysZero) {
  Tensor a(1, 3);
  Tensor y = L2NormalizeRows(a);
  for (int64_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(y.at(0, c), 0.0f);
}

TEST(OpsForwardTest, RowNormalizeSumsToOne) {
  Tensor a(2, 3, {1, 1, 2, 5, 0.5, 4.5});
  Tensor y = RowNormalize(a);
  for (int64_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (int64_t c = 0; c < 3; ++c) s += y.at(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  EXPECT_NEAR(y.at(0, 2), 0.5f, 1e-6f);
}

TEST(OpsForwardTest, PairwiseSqDistValues) {
  Tensor a(2, 2, {0, 0, 1, 1});
  Tensor b(2, 2, {0, 1, 2, 2});
  Tensor d = PairwiseSqDist(a, b);
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(d.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(d.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(d.at(1, 1), 2.0f);
}

TEST(OpsForwardTest, SpMMMatchesDense) {
  // S = [[1, 0, 2], [0, 3, 0]]
  SparseMatrix s = SparseMatrix::FromTriplets(2, 3, {0, 0, 1}, {0, 2, 1},
                                              {1.0f, 2.0f, 3.0f});
  Tensor x(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor y = SpMM(s, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 14.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 9.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 12.0f);
}

TEST(OpsForwardTest, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits(2, 4);  // all-zero logits -> uniform softmax
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 3}, {1.0f, 1.0f});
  EXPECT_NEAR(loss.item(), 2.0f * std::log(4.0f), 1e-5f);
}

TEST(OpsForwardTest, SoftmaxCrossEntropyWeightsScaleLoss) {
  Rng rng(13);
  Tensor logits = RandomTensor(3, 5, &rng, false);
  Tensor l1 = SoftmaxCrossEntropy(logits, {1, 2, 3}, {1.0f, 1.0f, 1.0f});
  Tensor l2 = SoftmaxCrossEntropy(logits, {1, 2, 3}, {2.0f, 2.0f, 2.0f});
  EXPECT_NEAR(l2.item(), 2.0f * l1.item(), 1e-4f);
}

TEST(OpsForwardTest, DetachBlocksGradient) {
  Tensor a(1, 1, {2.0f}, true);
  Tensor d = Detach(ops::Mul(a, a));
  EXPECT_FALSE(d.requires_grad());
  Tensor loss = ScalarMul(d, 3.0f);
  EXPECT_FALSE(loss.requires_grad());
}

// ---------------------------------------------------------------------------
// Gradient checks (property tests): analytic vs central differences.
// ---------------------------------------------------------------------------

using testing::ExpectGradientsMatch;

TEST(OpsGradTest, MatMul) {
  Rng rng(21);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(MatMul(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(4, 2, &rng),
       RandomTensor(3, 2, &rng, false)});
}

TEST(OpsGradTest, MatMulNT) {
  Rng rng(22);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(MatMulNT(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(5, 4, &rng),
       RandomTensor(3, 5, &rng, false)});
}

TEST(OpsGradTest, AddSubMul) {
  Rng rng(23);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(Sub(Add(in[0], in[1]), in[2]), in[0]));
      },
      {RandomTensor(2, 3, &rng), RandomTensor(2, 3, &rng),
       RandomTensor(2, 3, &rng)});
}

TEST(OpsGradTest, Broadcasts) {
  Rng rng(24);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(MulColBroadcast(AddRowBroadcast(in[0], in[1]), in[2]));
      },
      {RandomTensor(4, 3, &rng), RandomTensor(1, 3, &rng),
       RandomTensor(4, 1, &rng)});
}

TEST(OpsGradTest, RowAndColBroadcastVariants) {
  Rng rng(44);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(ops::MulRowBroadcast(ops::AddColBroadcast(in[0], in[1]),
                                        in[2]));
      },
      {RandomTensor(4, 3, &rng), RandomTensor(4, 1, &rng),
       RandomTensor(1, 3, &rng)});
}

TEST(OpsForwardTest, TransposeValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
}

TEST(OpsGradTest, Transpose) {
  Rng rng(45);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(ops::Transpose(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(4, 3, &rng, false)});
}

TEST(OpsGradTest, Activations) {
  Rng rng(25);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        Tensor y = Add(Sigmoid(x), Tanh(x));
        y = Add(y, LeakyRelu(x, 0.2f));
        y = Add(y, LogSigmoid(x));
        return Sum(y);
      },
      {RandomTensor(3, 3, &rng, true, -2.0f, 2.0f)});
}

TEST(OpsGradTest, ExpLogPow) {
  Rng rng(26);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        return Sum(Add(Exp(ScalarMul(x, 0.3f)),
                       Add(Log(x), Pow(x, -1.5f))));
      },
      {RandomTensor(3, 3, &rng, true, 0.5f, 2.0f)});
}

TEST(OpsGradTest, GatherScattersIntoTable) {
  Rng rng(27);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor g = Gather(in[0], {0, 2, 2, 1});
        return Sum(Mul(g, g));
      },
      {RandomTensor(4, 3, &rng)});
}

TEST(OpsGradTest, SliceConcat) {
  Rng rng(28);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor a = SliceCols(in[0], 0, 2);
        Tensor b = SliceCols(in[0], 2, 4);
        Tensor c = ConcatCols({b, a});
        return Sum(Mul(c, c));
      },
      {RandomTensor(3, 4, &rng)});
}

TEST(OpsGradTest, Reductions) {
  Rng rng(29);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(RowSum(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng), RandomTensor(3, 1, &rng)});
}

TEST(OpsGradTest, MeanGrad) {
  Rng rng(30);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) { return Mean(Mul(in[0], in[0])); },
      {RandomTensor(4, 4, &rng)});
}

TEST(OpsGradTest, L2NormalizeRows) {
  Rng rng(31);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(L2NormalizeRows(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng, true, 0.5f, 1.5f),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, RowNormalize) {
  Rng rng(32);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(RowNormalize(in[0]), in[1]));
      },
      {RandomTensor(3, 4, &rng, true, 0.5f, 2.0f),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, SpMMGrad) {
  Rng rng(33);
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 4, {0, 0, 1, 2, 2}, {0, 3, 1, 2, 0}, {1.0f, -2.0f, 0.5f, 3.0f, 1.5f});
  ExpectGradientsMatch(
      [&s](const std::vector<Tensor>& in) {
        Tensor y = SpMM(s, in[0]);
        return Sum(Mul(y, y));
      },
      {RandomTensor(4, 3, &rng)});
}

TEST(OpsGradTest, PairwiseSqDist) {
  Rng rng(34);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(PairwiseSqDist(in[0], in[1]), in[2]));
      },
      {RandomTensor(3, 2, &rng), RandomTensor(4, 2, &rng),
       RandomTensor(3, 4, &rng, false)});
}

TEST(OpsGradTest, SoftmaxCrossEntropy) {
  Rng rng(35);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return SoftmaxCrossEntropy(in[0], {1, 0, 2}, {1.0f, 0.5f, 2.0f});
      },
      {RandomTensor(3, 4, &rng)});
}

TEST(OpsGradTest, SharedInputAccumulatesBothPaths) {
  Rng rng(36);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor x = in[0];
        // x participates in two branches; gradients must sum.
        return Sum(Add(Mul(x, x), Sigmoid(x)));
      },
      {RandomTensor(3, 3, &rng)});
}

TEST(OpsGradTest, DeepChain) {
  Rng rng(37);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        Tensor h = in[0];
        for (int layer = 0; layer < 4; ++layer) {
          h = Tanh(MatMul(h, in[1]));
        }
        return Mean(h);
      },
      {RandomTensor(2, 3, &rng), RandomTensor(3, 3, &rng)});
}

// ---------------------------------------------------------------------------
// Bit-exactness: the dense ops against the scalar loops they replace. The
// training bits of every model rest on these, so any reassociation or fused
// multiply-add (a build flag, a kernel change) must fail here.
// ---------------------------------------------------------------------------

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// The reference dot product: one fp32 chain from 0 over ascending index.
float ScalarDot(const float* u, const float* v, int64_t dim) {
  float acc = 0.0f;
  for (int64_t p = 0; p < dim; ++p) acc += u[p] * v[p];
  return acc;
}

void FillRandom(float* p, int64_t size, Rng* rng) {
  for (int64_t i = 0; i < size; ++i) {
    p[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
}

constexpr int64_t kPanelDims[] = {1, 15, 16, 17, 129};
constexpr int64_t kInnerDims[] = {1, 3, 8, 33};
constexpr int64_t kRowDims[] = {1, 2, 3, 8};

TEST(OpsBitExactTest, MatMulNTForwardMatchesScalarLoop) {
  for (int64_t n : kPanelDims) {
    for (int64_t d : kInnerDims) {
      for (int64_t m : kRowDims) {
        Rng rng(static_cast<uint64_t>(n * 1000 + d * 10 + m));
        Tensor a = RandomTensor(m, d, &rng, false);
        Tensor b = RandomTensor(n, d, &rng, false);
        Tensor c = MatMulNT(a, b);
        int64_t mismatches = 0;
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float expected = 0.0f;
            expected += 1.0f * ScalarDot(a.data() + i * d, b.data() + j * d, d);
            if (!SameBits(c.at(i, j), expected)) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "m=" << m << " n=" << n << " d=" << d;
      }
    }
  }
}

TEST(OpsBitExactTest, MatMulBackwardMatchesScalarLoops) {
  // C = A * B with A (m x n), B (n x d); dC = W exactly (Sum then Mul by a
  // constant). Both gradients start non-zero, so each update is an
  // accumulation: dA += dC * B^T (the NT GEMM) and dB += A^T * dC.
  for (int64_t n : kPanelDims) {
    for (int64_t d : kInnerDims) {
      for (int64_t m : kRowDims) {
        Rng rng(static_cast<uint64_t>(n * 1000 + d * 10 + m + 7));
        Tensor a = RandomTensor(m, n, &rng);
        Tensor b = RandomTensor(n, d, &rng);
        Tensor w = RandomTensor(m, d, &rng, false);
        FillRandom(a.grad(), a.size(), &rng);
        FillRandom(b.grad(), b.size(), &rng);
        const std::vector<float> a_grad(a.grad(), a.grad() + a.size());
        const std::vector<float> b_grad(b.grad(), b.grad() + b.size());
        Backward(Sum(Mul(MatMul(a, b), w)));
        int64_t mismatches = 0;
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t p = 0; p < n; ++p) {
            float expected = a_grad[i * n + p];
            expected += 1.0f * ScalarDot(w.data() + i * d, b.data() + p * d, d);
            if (!SameBits(a.grad()[i * n + p], expected)) ++mismatches;
          }
        }
        for (int64_t p = 0; p < n; ++p) {
          for (int64_t j = 0; j < d; ++j) {
            float expected = b_grad[p * d + j];
            for (int64_t i = 0; i < m; ++i) {
              const float av = 1.0f * a.at(i, p);
              if (av != 0.0f) expected += av * w.at(i, j);
            }
            if (!SameBits(b.grad()[p * d + j], expected)) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "m=" << m << " n=" << n << " d=" << d;
      }
    }
  }
}

TEST(OpsBitExactTest, SelfPairwiseSqDistMatchesScalarNest) {
  // PairwiseSqDist(a, a), as the independence loss calls it: both gradient
  // updates land in one buffer, so the per-element update order is part of
  // the result.
  const int64_t n = 13, d = 33;
  Rng rng(41);
  Tensor a = RandomTensor(n, d, &rng);
  Tensor w = RandomTensor(n, n, &rng, false);
  FillRandom(a.grad(), a.size(), &rng);
  std::vector<float> expected_grad(a.grad(), a.grad() + a.size());
  Tensor dist = PairwiseSqDist(a, a);
  Backward(Sum(Mul(dist, w)));
  const float* pa = a.data();
  int64_t mismatches = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        const float diff = pa[i * d + c] - pa[j * d + c];
        expected += diff * diff;
      }
      if (!SameBits(dist.at(i, j), expected)) ++mismatches;
      const float gij = 2.0f * w.at(i, j);
      if (gij == 0.0f) continue;
      for (int64_t c = 0; c < d; ++c) {
        const float diff = pa[i * d + c] - pa[j * d + c];
        expected_grad[i * d + c] += gij * diff;
        expected_grad[j * d + c] -= gij * diff;
      }
    }
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a.grad()[i], expected_grad[i])) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

// ---------------------------------------------------------------------------
// Parameterised sweep: gradcheck across shapes for core ops.
// ---------------------------------------------------------------------------

class OpsGradShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OpsGradShapeTest, MatMulChainAnyShape) {
  const auto [rows, inner] = GetParam();
  Rng rng(100 + rows * 17 + inner);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Mean(Sigmoid(MatMul(in[0], in[1])));
      },
      {RandomTensor(rows, inner, &rng), RandomTensor(inner, 3, &rng)});
}

TEST_P(OpsGradShapeTest, NormalizeAnyShape) {
  const auto [rows, cols] = GetParam();
  Rng rng(200 + rows * 13 + cols);
  ExpectGradientsMatch(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(L2NormalizeRows(in[0]), in[1]));
      },
      {RandomTensor(rows, cols, &rng, true, 0.3f, 1.0f),
       RandomTensor(rows, cols, &rng, false)});
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpsGradShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 5},
                                           std::pair{4, 1}, std::pair{2, 7},
                                           std::pair{6, 3}));

}  // namespace
}  // namespace imcat
