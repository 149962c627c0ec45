// Tests for vector.h, matrix.h, sparse.h, nn_ops.h.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "tensor/matrix.h"
#include "tensor/nn_ops.h"
#include "tensor/sparse.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

// --- vector ------------------------------------------------------------------

TEST(VectorTest, Axpy) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{10.0, 20.0, 30.0};
  Axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{12.0, 24.0, 36.0}));
}

TEST(VectorTest, AxpySizeMismatchThrows) {
  std::vector<double> x{1.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(Axpy(1.0, x, y), CheckError);
}

TEST(VectorTest, DotAndNorm) {
  std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(SumOfSquares(a), 25.0);
}

TEST(VectorTest, ScaleZeroClip) {
  std::vector<double> v{-10.0, 0.5, 10.0};
  Scale(0.5, v);
  EXPECT_EQ(v, (std::vector<double>{-5.0, 0.25, 5.0}));
  ClipInPlace(v, 1.0);
  EXPECT_EQ(v, (std::vector<double>{-1.0, 0.25, 1.0}));
  Zero(v);
  EXPECT_EQ(v, (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(VectorTest, ClipRequiresPositiveBound) {
  std::vector<double> v{1.0};
  EXPECT_THROW(ClipInPlace(v, 0.0), CheckError);
}

TEST(VectorTest, SubAndAllFinite) {
  std::vector<double> a{5.0, 7.0};
  std::vector<double> b{2.0, 3.0};
  std::vector<double> out(2);
  Sub(a, b, out);
  EXPECT_EQ(out, (std::vector<double>{3.0, 4.0}));
  EXPECT_TRUE(AllFinite(out));
  out[0] = std::nan("");
  EXPECT_FALSE(AllFinite(out));
  out[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(AllFinite(out));
}

// --- matrix ------------------------------------------------------------------

TEST(MatrixTest, ViewIndexing) {
  std::vector<double> storage{1, 2, 3, 4, 5, 6};
  MatrixView m(storage, 2, 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  EXPECT_THROW(m.at(2, 0), CheckError);
  m.at(0, 1) = 42.0;
  EXPECT_DOUBLE_EQ(storage[1], 42.0);
}

TEST(MatrixTest, ViewSizeMismatchThrows) {
  std::vector<double> storage(5);
  EXPECT_THROW(MatrixView(storage, 2, 3), CheckError);
}

TEST(MatrixTest, RowSpan) {
  std::vector<double> storage{1, 2, 3, 4, 5, 6};
  ConstMatrixView m(storage, 2, 3);
  auto row = m.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
}

TEST(MatrixTest, Gemv) {
  std::vector<double> storage{1, 2, 3, 4};  // [[1,2],[3,4]]
  ConstMatrixView m(storage, 2, 2);
  std::vector<double> x{1.0, 1.0};
  std::vector<double> y(2);
  Gemv(m, x, y);
  EXPECT_EQ(y, (std::vector<double>{3.0, 7.0}));
}

TEST(MatrixTest, GemvTransposed) {
  std::vector<double> storage{1, 2, 3, 4};
  ConstMatrixView m(storage, 2, 2);
  std::vector<double> x{1.0, 1.0};
  std::vector<double> y(2);
  GemvTransposed(m, x, y);
  EXPECT_EQ(y, (std::vector<double>{4.0, 6.0}));
}

TEST(MatrixTest, AddOuterProduct) {
  std::vector<double> storage(4, 0.0);
  MatrixView m(storage, 2, 2);
  std::vector<double> u{1.0, 2.0};
  std::vector<double> v{3.0, 4.0};
  AddOuterProduct(m, 2.0, u, v);
  EXPECT_EQ(storage, (std::vector<double>{6.0, 8.0, 12.0, 16.0}));
}

TEST(MatrixTest, GemvTransposeConsistency) {
  // <W x, y> == <x, W^T y> for random-ish data.
  std::vector<double> storage{0.5, -1.0, 2.0, 0.25, 1.5, -0.75};
  ConstMatrixView w(storage, 2, 3);
  std::vector<double> x{1.0, -2.0, 0.5};
  std::vector<double> y{0.3, -0.7};
  std::vector<double> wx(2), wty(3);
  Gemv(w, x, wx);
  GemvTransposed(w, y, wty);
  EXPECT_NEAR(Dot(wx, y), Dot(x, wty), 1e-12);
}

// --- sparse ------------------------------------------------------------------

TEST(SparseTest, ScatterAdd) {
  SparseUpdate update;
  update.Add(1, 2.0);
  update.Add(3, -1.0);
  std::vector<double> dest(5, 1.0);
  update.ScatterAdd(2.0, dest);
  EXPECT_EQ(dest, (std::vector<double>{1.0, 5.0, 1.0, -1.0, 1.0}));
}

TEST(SparseTest, ScatterOutOfRangeThrows) {
  SparseUpdate update;
  update.Add(10, 1.0);
  std::vector<double> dest(5, 0.0);
  EXPECT_THROW(update.ScatterAdd(1.0, dest), CheckError);
}

TEST(SparseTest, CoalesceSortsAndSums) {
  SparseUpdate update;
  update.Add(5, 1.0);
  update.Add(2, 2.0);
  update.Add(5, 3.0);
  update.Add(2, -1.0);
  update.Coalesce();
  ASSERT_EQ(update.nnz(), 2u);
  EXPECT_EQ(update.indices()[0], 2u);
  EXPECT_DOUBLE_EQ(update.values()[0], 1.0);
  EXPECT_EQ(update.indices()[1], 5u);
  EXPECT_DOUBLE_EQ(update.values()[1], 4.0);
}

// Duplicates sum in entry order: index 7's entries 0.1, 0.2, 3.0 give
// (0.1 + 0.2) + 3.0, which differs in the last bit from both other orders.
TEST(SparseTest, CoalesceSumsDuplicatesInEntryOrder) {
  SparseUpdate update;
  update.Add(7, 0.1);
  update.Add(3, 0.5);
  update.Add(7, 0.2);
  update.Add(1, 2.0);
  update.Add(7, 3.0);
  update.Coalesce();
  const double want = (0.1 + 0.2) + 3.0;
  ASSERT_NE(want, (0.2 + 3.0) + 0.1);  // the pin is order-sensitive
  ASSERT_NE(want, (0.1 + 3.0) + 0.2);
  ASSERT_EQ(update.nnz(), 3u);
  EXPECT_EQ(update.indices()[0], 1u);
  EXPECT_EQ(update.indices()[1], 3u);
  EXPECT_EQ(update.indices()[2], 7u);
  EXPECT_EQ(update.values()[0], 2.0);
  EXPECT_EQ(update.values()[1], 0.5);
  EXPECT_EQ(update.values()[2], want);
}

TEST(SparseTest, CoalesceLeavesCanonicalInputAsIs) {
  SparseUpdate update;
  update.Add(0, -0.0);
  update.Add(4, 0.1);
  update.Add(9, 1e20);
  const SparseUpdate before = update;
  update.Coalesce();
  ASSERT_EQ(update.nnz(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(update.indices()[i], before.indices()[i]);
    EXPECT_EQ(std::signbit(update.values()[i]),
              std::signbit(before.values()[i]));
    EXPECT_EQ(update.values()[i], before.values()[i]);
  }
}

TEST(SparseTest, CoalescePreservesScatterSemantics) {
  SparseUpdate a;
  a.Add(0, 1.0);
  a.Add(2, 2.0);
  a.Add(0, 3.0);
  SparseUpdate b = a;
  b.Coalesce();
  std::vector<double> da(3, 0.0), db(3, 0.0);
  a.ScatterAdd(1.0, da);
  b.ScatterAdd(1.0, db);
  EXPECT_EQ(da, db);
}

TEST(SparseTest, ScaleValuesAndWireBytes) {
  SparseUpdate update;
  update.Add(1, 2.0);
  update.Add(2, 4.0);
  update.ScaleValues(0.5);
  EXPECT_DOUBLE_EQ(update.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(update.values()[1], 2.0);
  EXPECT_EQ(update.wire_bytes(), 32u);
}

TEST(SparseTest, ToDense) {
  SparseUpdate update;
  update.Add(0, 1.5);
  update.Add(3, -2.0);
  const auto dense = ToDense(update, 4);
  EXPECT_EQ(dense, (std::vector<double>{1.5, 0.0, 0.0, -2.0}));
}

TEST(SparseTest, EmptyAndClear) {
  SparseUpdate update;
  EXPECT_TRUE(update.empty());
  update.Add(0, 1.0);
  EXPECT_FALSE(update.empty());
  update.Clear();
  EXPECT_TRUE(update.empty());
  EXPECT_EQ(update.wire_bytes(), 0u);
}

// --- nn_ops ------------------------------------------------------------------

TEST(NnOpsTest, SoftmaxSumsToOne) {
  std::vector<double> x{1.0, 2.0, 3.0};
  SoftmaxInPlace(x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0, 1e-12);
  EXPECT_GT(x[2], x[1]);
  EXPECT_GT(x[1], x[0]);
}

TEST(NnOpsTest, SoftmaxNumericallyStable) {
  std::vector<double> x{1000.0, 1000.0};
  SoftmaxInPlace(x);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
  EXPECT_TRUE(AllFinite(x));
}

TEST(NnOpsTest, ReluAndBackward) {
  std::vector<double> x{-1.0, 0.0, 2.0};
  std::vector<double> out(3);
  Relu(x, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 2.0}));
  std::vector<double> grad_out{1.0, 1.0, 1.0};
  std::vector<double> grad_in(3);
  ReluBackward(x, grad_out, grad_in);
  EXPECT_EQ(grad_in, (std::vector<double>{0.0, 0.0, 1.0}));
}

TEST(NnOpsTest, CrossEntropy) {
  std::vector<double> probs{0.1, 0.7, 0.2};
  EXPECT_NEAR(CrossEntropy(probs, 1), -std::log(0.7), 1e-12);
  EXPECT_THROW(CrossEntropy(probs, 3), CheckError);
}

TEST(NnOpsTest, CrossEntropyFloorsAtZeroProbability) {
  std::vector<double> probs{1.0, 0.0};
  EXPECT_TRUE(std::isfinite(CrossEntropy(probs, 1)));
}

TEST(NnOpsTest, ArgMax) {
  std::vector<double> x{1.0, 5.0, 3.0, 5.0};
  EXPECT_EQ(ArgMax(x), 1u);  // first max on ties
}

}  // namespace
}  // namespace specsync
