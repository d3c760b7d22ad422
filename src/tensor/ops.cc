#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "tensor/score_kernel.h"

namespace imcat {
namespace ops {
namespace {

using Node = internal::TensorNode;

// Rows of A scored per ScorePanels call in GemmNT: bounds its score scratch
// to kGemmRowBlock x n floats whatever m is.
constexpr int64_t kGemmRowBlock = 64;

/// C(m x n) += alpha * A(m x k) * B(n x k)^T through the panel kernel: B is
/// packed into panels once, then blocks of A's rows are scored against it.
/// Each C_ij gets alpha times one ascending-p fp32 chain from +0
/// (ScorePanels' bit-exactness contract), so the result is the textbook
/// `acc += a_ip * b_jp; c_ij += alpha * acc` loop bit for bit. The scratch
/// (B's panels, at most kGemmRowBlock rows of scores) is per call.
void GemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            const float* b, float* c) {
  std::vector<float> panels;
  PackPanels(b, n, k, &panels);
  const int64_t num_panels = NumPanels(n);
  const int64_t stride = num_panels * kPanelItems;
  const int64_t max_block = std::min(kGemmRowBlock, m);
  std::vector<const float*> rows(static_cast<size_t>(max_block));
  std::vector<float> scores(static_cast<size_t>(max_block * stride));
  for (int64_t i0 = 0; i0 < m; i0 += kGemmRowBlock) {
    const int64_t block = std::min(kGemmRowBlock, m - i0);
    for (int64_t r = 0; r < block; ++r) rows[r] = a + (i0 + r) * k;
    ScorePanels(rows.data(), block, panels.data(), 0, num_panels, k,
                scores.data(), stride);
    for (int64_t r = 0; r < block; ++r) {
      float* ci = c + (i0 + r) * n;
      const float* si = scores.data() + r * stride;
      for (int64_t j = 0; j < n; ++j) ci[j] += alpha * si[j];
    }
  }
}

/// C(m x n) += alpha * op(A) * op(B), where op transposes when the flag is
/// set (not both). NN and TN run cache-friendly ikj/pij loops; NT goes
/// through GemmNT.
void GemmAccumulate(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, float alpha, const float* a, const float* b,
                    float* c) {
  IMCAT_CHECK(!(trans_a && trans_b));
  if (trans_b) {
    // A (m x k), B (n x k): C_ij += A_i . B_j
    GemmNT(m, n, k, alpha, a, b, c);
  } else if (!trans_a) {
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * ai[p];
        if (av == 0.0f) continue;
        const float* bp = b + p * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else {
    // A (k x m), B (k x n): C_ij += sum_p A_pi B_pj
    for (int64_t p = 0; p < k; ++p) {
      const float* ap = a + p * m;
      const float* bp = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        const float av = alpha * ap[i];
        if (av == 0.0f) continue;
        float* ci = c + i * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  }
}

/// Allocates the output node of an op, wiring parents and requires_grad.
Tensor NewOp(const char* name, int64_t rows, int64_t cols,
             std::initializer_list<Tensor> parents) {
  Tensor out(rows, cols);
  Node* n = out.node_ptr().get();
  n->op_name = name;
  bool needs_grad = false;
  for (const Tensor& p : parents) {
    n->parents.push_back(p.node_ptr());
    needs_grad = needs_grad || p.node_ptr()->requires_grad;
  }
  n->requires_grad = needs_grad;
  return out;
}

/// True if the op must record a backward closure.
bool NeedsGrad(const Tensor& out) { return out.node_ptr()->requires_grad; }

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = NewOp("matmul", m, n, {a, b});
  GemmAccumulate(false, false, m, n, k, 1.0f, a.data(), b.data(), out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, m, n, k]() {
      if (an->requires_grad) {
        an->EnsureGrad();
        GemmAccumulate(false, true, m, k, n, 1.0f, on->grad.data(),
                       bn->data.data(), an->grad.data());
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        GemmAccumulate(true, false, k, n, m, 1.0f, an->data.data(),
                       on->grad.data(), bn->grad.data());
      }
    };
  }
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), d = a.cols(), n = b.rows();
  Tensor out = NewOp("matmul_nt", m, n, {a, b});
  GemmAccumulate(false, true, m, n, d, 1.0f, a.data(), b.data(), out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, m, n, d]() {
      if (an->requires_grad) {
        an->EnsureGrad();
        // dA = dC * B : (m x n)(n x d)
        GemmAccumulate(false, false, m, d, n, 1.0f, on->grad.data(),
                       bn->data.data(), an->grad.data());
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        // dB = dC^T * A : (n x m)(m x d)
        GemmAccumulate(true, false, n, d, m, 1.0f, on->grad.data(),
                       an->data.data(), bn->grad.data());
      }
    };
  }
  return out;
}

namespace {

template <typename Fwd, typename BwdA, typename BwdB>
Tensor ElementwiseBinary(const char* name, const Tensor& a, const Tensor& b,
                         Fwd fwd, BwdA da_of, BwdB db_of) {
  IMCAT_CHECK_EQ(a.rows(), b.rows());
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  Tensor out = NewOp(name, a.rows(), a.cols(), {a, b});
  const int64_t size = a.size();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < size; ++i) po[i] = fwd(pa[i], pb[i]);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, size, da_of, db_of]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < size; ++i)
          ga[i] += g[i] * da_of(an->data[i], bn->data[i]);
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        float* gb = bn->grad.data();
        for (int64_t i = 0; i < size; ++i)
          gb[i] += g[i] * db_of(an->data[i], bn->data[i]);
      }
    };
  }
  return out;
}

template <typename Fwd, typename BwdScale>
Tensor ElementwiseUnary(const char* name, const Tensor& a, Fwd fwd,
                        BwdScale dscale) {
  Tensor out = NewOp(name, a.rows(), a.cols(), {a});
  const int64_t size = a.size();
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < size; ++i) po[i] = fwd(pa[i]);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, size, dscale]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t i = 0; i < size; ++i)
        ga[i] += g[i] * dscale(an->data[i], on->data[i]);
    };
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  IMCAT_CHECK_EQ(bias.rows(), 1);
  IMCAT_CHECK_EQ(bias.cols(), a.cols());
  Tensor out = NewOp("add_row_broadcast", a.rows(), a.cols(), {a, bias});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] + pb[c];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = bias.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < rows * cols; ++i) ga[i] += g[i];
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        float* gb = bn->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c) gb[c] += g[r * cols + c];
      }
    };
  }
  return out;
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& col) {
  IMCAT_CHECK_EQ(col.cols(), 1);
  IMCAT_CHECK_EQ(col.rows(), a.rows());
  Tensor out = NewOp("mul_col_broadcast", a.rows(), a.cols(), {a, col});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pc = col.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] * pc[r];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), cn = col.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, cn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            ga[r * cols + c] += g[r * cols + c] * cn->data[r];
      }
      if (cn->requires_grad) {
        cn->EnsureGrad();
        float* gc = cn->grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (int64_t c = 0; c < cols; ++c)
            acc += g[r * cols + c] * an->data[r * cols + c];
          gc[r] += acc;
        }
      }
    };
  }
  return out;
}

Tensor AddColBroadcast(const Tensor& a, const Tensor& col) {
  IMCAT_CHECK_EQ(col.cols(), 1);
  IMCAT_CHECK_EQ(col.rows(), a.rows());
  Tensor out = NewOp("add_col_broadcast", a.rows(), a.cols(), {a, col});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pc = col.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] + pc[r];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), cn = col.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, cn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t i = 0; i < rows * cols; ++i) ga[i] += g[i];
      }
      if (cn->requires_grad) {
        cn->EnsureGrad();
        float* gc = cn->grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (int64_t c = 0; c < cols; ++c) acc += g[r * cols + c];
          gc[r] += acc;
        }
      }
    };
  }
  return out;
}

Tensor MulRowBroadcast(const Tensor& a, const Tensor& row) {
  IMCAT_CHECK_EQ(row.rows(), 1);
  IMCAT_CHECK_EQ(row.cols(), a.cols());
  Tensor out = NewOp("mul_row_broadcast", a.rows(), a.cols(), {a, row});
  const int64_t rows = a.rows(), cols = a.cols();
  const float* pa = a.data();
  const float* pr = row.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] * pr[c];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), rn = row.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, rn, on, rows, cols]() {
      const float* g = on->grad.data();
      if (an->requires_grad) {
        an->EnsureGrad();
        float* ga = an->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            ga[r * cols + c] += g[r * cols + c] * rn->data[c];
      }
      if (rn->requires_grad) {
        rn->EnsureGrad();
        float* gr = rn->grad.data();
        for (int64_t r = 0; r < rows; ++r)
          for (int64_t c = 0; c < cols; ++c)
            gr[c] += g[r * cols + c] * an->data[r * cols + c];
      }
    };
  }
  return out;
}

Tensor ScalarMul(const Tensor& a, float s) {
  return ElementwiseUnary(
      "scalar_mul", a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor ScalarAdd(const Tensor& a, float s) {
  return ElementwiseUnary(
      "scalar_add", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Pow(const Tensor& a, float p) {
  return ElementwiseUnary(
      "pow", a, [p](float x) { return std::pow(x, p); },
      [p](float x, float) { return p * std::pow(x, p - 1.0f); });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(
      "sigmoid", a,
      [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor LogSigmoid(const Tensor& a) {
  return ElementwiseUnary(
      "log_sigmoid", a,
      [](float x) {
        // Stable: logsig(x) = min(x,0) - log1p(exp(-|x|)).
        const float m = x < 0.0f ? x : 0.0f;
        return m - std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(x)); });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return ElementwiseUnary(
      "leaky_relu", a,
      [negative_slope](float x) { return x >= 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x >= 0.0f ? 1.0f : negative_slope;
      });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return ElementwiseUnary(
      "log", a, [eps](float x) { return std::log(x > eps ? x : eps); },
      [eps](float x, float) { return 1.0f / (x > eps ? x : eps); });
}

Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices) {
  const int64_t cols = table.cols();
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out = NewOp("gather", n, cols, {table});
  const float* pt = table.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    IMCAT_CHECK(indices[i] >= 0 && indices[i] < table.rows());
    std::memcpy(po + i * cols, pt + indices[i] * cols,
                sizeof(float) * static_cast<size_t>(cols));
  }
  if (NeedsGrad(out)) {
    auto tn = table.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [tn, on, indices, n, cols]() {
      if (!tn->requires_grad) return;
      tn->EnsureGrad();
      const float* g = on->grad.data();
      float* gt = tn->grad.data();
      for (int64_t i = 0; i < n; ++i) {
        float* row = gt + indices[i] * cols;
        const float* gi = g + i * cols;
        for (int64_t c = 0; c < cols; ++c) row[c] += gi[c];
      }
    };
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end) {
  IMCAT_CHECK(begin >= 0 && begin < end && end <= a.cols());
  const int64_t rows = a.rows(), cols = a.cols(), width = end - begin;
  Tensor out = NewOp("slice_cols", rows, width, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(po + r * width, pa + r * cols + begin,
                sizeof(float) * static_cast<size_t>(width));
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, begin, width]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < width; ++c)
          ga[r * cols + begin + c] += g[r * width + c];
    };
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  IMCAT_CHECK(!parts.empty());
  const int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  bool needs_grad = false;
  for (const Tensor& p : parts) {
    IMCAT_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
    needs_grad = needs_grad || p.node_ptr()->requires_grad;
  }
  Tensor out(rows, total_cols);
  Node* on = out.node_ptr().get();
  on->op_name = "concat_cols";
  on->requires_grad = needs_grad;
  for (const Tensor& p : parts) on->parents.push_back(p.node_ptr());

  float* po = out.data();
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const float* pp = p.data();
    const int64_t pc = p.cols();
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(po + r * total_cols + offset, pp + r * pc,
                  sizeof(float) * static_cast<size_t>(pc));
    }
    offset += pc;
  }
  if (needs_grad) {
    std::vector<std::shared_ptr<Node>> pnodes;
    std::vector<int64_t> widths;
    for (const Tensor& p : parts) {
      pnodes.push_back(p.node_ptr());
      widths.push_back(p.cols());
    }
    on->backward_fn = [on, pnodes, widths, rows, total_cols]() {
      const float* g = on->grad.data();
      int64_t offset = 0;
      for (size_t k = 0; k < pnodes.size(); ++k) {
        Node* pn = pnodes[k].get();
        const int64_t w = widths[k];
        if (pn->requires_grad) {
          pn->EnsureGrad();
          float* gp = pn->grad.data();
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t c = 0; c < w; ++c)
              gp[r * w + c] += g[r * total_cols + offset + c];
        }
        offset += w;
      }
    };
  }
  return out;
}

Tensor RowSum(const Tensor& a) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("row_sum", rows, 1, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += pa[r * cols + c];
    po[r] = acc;
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c) ga[r * cols + c] += g[r];
    };
  }
  return out;
}

Tensor Sum(const Tensor& a) {
  Tensor out = NewOp("sum", 1, 1, {a});
  const float* pa = a.data();
  const int64_t size = a.size();
  double acc = 0.0;
  for (int64_t i = 0; i < size; ++i) acc += pa[i];
  out.data()[0] = static_cast<float>(acc);
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, size]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float g = on->grad[0];
      float* ga = an->grad.data();
      for (int64_t i = 0; i < size; ++i) ga[i] += g;
    };
  }
  return out;
}

Tensor Mean(const Tensor& a) {
  IMCAT_CHECK_GT(a.size(), 0);
  Tensor s = Sum(a);
  return ScalarMul(s, 1.0f / static_cast<float>(a.size()));
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("l2_normalize_rows", rows, cols, {a});
  const float* pa = a.data();
  float* po = out.data();
  std::vector<float> norms(rows);
  for (int64_t r = 0; r < rows; ++r) {
    float ss = 0.0f;
    for (int64_t c = 0; c < cols; ++c) ss += pa[r * cols + c] * pa[r * cols + c];
    float n = std::sqrt(ss);
    norms[r] = n > eps ? n : eps;
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] / norms[r];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, norms, eps]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      const float* y = on->data.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        const float inv_n = 1.0f / norms[r];
        // If the norm was clamped to eps, the denominator is constant.
        const bool clamped = norms[r] <= eps;
        float dot = 0.0f;
        if (!clamped) {
          for (int64_t c = 0; c < cols; ++c) dot += g[r * cols + c] * y[r * cols + c];
        }
        for (int64_t c = 0; c < cols; ++c) {
          ga[r * cols + c] +=
              inv_n * (g[r * cols + c] - (clamped ? 0.0f : dot * y[r * cols + c]));
        }
      }
    };
  }
  return out;
}

Tensor RowNormalize(const Tensor& a, float eps) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("row_normalize", rows, cols, {a});
  const float* pa = a.data();
  float* po = out.data();
  std::vector<float> sums(rows);
  for (int64_t r = 0; r < rows; ++r) {
    float s = 0.0f;
    for (int64_t c = 0; c < cols; ++c) s += pa[r * cols + c];
    sums[r] = s > eps ? s : eps;
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] = pa[r * cols + c] / sums[r];
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols, sums]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      const float* y = on->data.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c) dot += g[r * cols + c] * y[r * cols + c];
        const float inv_s = 1.0f / sums[r];
        for (int64_t c = 0; c < cols; ++c)
          ga[r * cols + c] += inv_s * (g[r * cols + c] - dot);
      }
    };
  }
  return out;
}

Tensor SpMM(const SparseMatrix& s, const Tensor& a) {
  IMCAT_CHECK_EQ(s.cols(), a.rows());
  const int64_t cols = a.cols();
  Tensor out = NewOp("spmm", s.rows(), cols, {a});
  s.Multiply(a.data(), cols, out.data());
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    // The sparse matrix must outlive any Backward() call on this graph;
    // adjacency matrices are owned by the models for their whole lifetime.
    const SparseMatrix* sp = &s;
    out.node_ptr()->backward_fn = [an, on, sp, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      // dA += S^T dOut, computed by scattering over S's rows.
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      const auto& indptr = sp->indptr();
      const auto& indices = sp->indices();
      const auto& values = sp->values();
      for (int64_t r = 0; r < sp->rows(); ++r) {
        const float* gr = g + r * cols;
        for (int64_t k = indptr[r]; k < indptr[r + 1]; ++k) {
          float* row = ga + indices[k] * cols;
          const float v = values[k];
          for (int64_t c = 0; c < cols; ++c) row[c] += v * gr[c];
        }
      }
    };
  }
  return out;
}

Tensor PairwiseSqDist(const Tensor& a, const Tensor& b) {
  IMCAT_CHECK_EQ(a.cols(), b.cols());
  const int64_t n = a.rows(), k = b.rows(), d = a.cols();
  Tensor out = NewOp("pairwise_sqdist", n, k, {a, b});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* ai = pa + i * d;
    for (int64_t j = 0; j < k; ++j) {
      const float* bj = pb + j * d;
      float acc = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        const float diff = ai[c] - bj[c];
        acc += diff * diff;
      }
      po[i * k + j] = acc;
    }
  }
  if (NeedsGrad(out)) {
    auto an = a.node_ptr(), bn = b.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, bn, on, n, k, d]() {
      const float* g = on->grad.data();
      const float* pa = an->data.data();
      const float* pb = bn->data.data();
      if (an->requires_grad) an->EnsureGrad();
      if (bn->requires_grad) bn->EnsureGrad();
      float* ga = an->requires_grad ? an->grad.data() : nullptr;
      float* gb = bn->requires_grad ? bn->grad.data() : nullptr;
      // One nest per gradient combination, so the element loop carries no
      // branch. PairwiseSqDist(a, a) points ga and gb at one buffer: the
      // per-element order (a's update, then b's) is part of the result.
      auto nest = [&](auto grad_a, auto grad_b) {
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < k; ++j) {
            const float gij = 2.0f * g[i * k + j];
            if (gij == 0.0f) continue;
            for (int64_t c = 0; c < d; ++c) {
              const float diff = pa[i * d + c] - pb[j * d + c];
              if constexpr (grad_a) ga[i * d + c] += gij * diff;
              if constexpr (grad_b) gb[j * d + c] -= gij * diff;
            }
          }
        }
      };
      if (ga != nullptr && gb != nullptr) {
        nest(std::true_type{}, std::true_type{});
      } else if (ga != nullptr) {
        nest(std::true_type{}, std::false_type{});
      } else {
        nest(std::false_type{}, std::true_type{});
      }
    };
  }
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int64_t>& targets,
                           const std::vector<float>& weights) {
  const int64_t rows = logits.rows(), cols = logits.cols();
  IMCAT_CHECK_EQ(static_cast<int64_t>(targets.size()), rows);
  IMCAT_CHECK_EQ(static_cast<int64_t>(weights.size()), rows);
  Tensor out = NewOp("softmax_xent", 1, 1, {logits});
  const float* pl = logits.data();
  // Cache the softmax probabilities for the backward pass.
  std::vector<float> probs(static_cast<size_t>(rows * cols));
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    IMCAT_CHECK(targets[r] >= 0 && targets[r] < cols);
    const float* lr = pl + r * cols;
    float mx = lr[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, lr[c]);
    double z = 0.0;
    for (int64_t c = 0; c < cols; ++c) z += std::exp(static_cast<double>(lr[c] - mx));
    const double log_z = std::log(z) + mx;
    for (int64_t c = 0; c < cols; ++c) {
      probs[r * cols + c] =
          static_cast<float>(std::exp(static_cast<double>(lr[c]) - log_z));
    }
    loss += weights[r] * (log_z - lr[targets[r]]);
  }
  out.data()[0] = static_cast<float>(loss);
  if (NeedsGrad(out)) {
    auto ln = logits.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [ln, on, probs = std::move(probs), targets,
                                   weights, rows, cols]() {
      if (!ln->requires_grad) return;
      ln->EnsureGrad();
      const float g = on->grad[0];
      float* gl = ln->grad.data();
      for (int64_t r = 0; r < rows; ++r) {
        const float w = g * weights[r];
        for (int64_t c = 0; c < cols; ++c)
          gl[r * cols + c] += w * probs[r * cols + c];
        gl[r * cols + targets[r]] -= w;
      }
    };
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out = NewOp("transpose", cols, rows, {a});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) po[c * rows + r] = pa[r * cols + c];
  if (NeedsGrad(out)) {
    auto an = a.node_ptr();
    Node* on = out.node_ptr().get();
    out.node_ptr()->backward_fn = [an, on, rows, cols]() {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      const float* g = on->grad.data();
      float* ga = an->grad.data();
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c) ga[r * cols + c] += g[c * rows + r];
    };
  }
  return out;
}

Tensor Detach(const Tensor& a) { return a.DetachedCopy(); }

}  // namespace ops
}  // namespace imcat
