// Model tests: numerical gradient checks (the key property test for every
// model), loss semantics, and trainability.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "data/synthetic.h"
#include "models/matrix_factorization.h"
#include "models/mlp.h"
#include "models/softmax_regression.h"

namespace specsync {
namespace {

std::shared_ptr<const ClassificationDataset> SmallClassData(
    std::uint64_t seed, std::size_t n = 60, std::size_t d = 6,
    std::size_t c = 3) {
  Rng rng(seed);
  ClassificationSpec spec;
  spec.num_examples = n;
  spec.feature_dim = d;
  spec.num_classes = c;
  return std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
}

std::shared_ptr<const RatingsDataset> SmallRatings(std::uint64_t seed) {
  Rng rng(seed);
  RatingsSpec spec;
  spec.num_users = 12;
  spec.num_items = 9;
  spec.num_ratings = 80;
  spec.true_rank = 3;
  return std::make_shared<RatingsDataset>(GenerateRatings(spec, rng));
}

// Central-difference gradient check on a batch. Sparse gradients are
// densified. Checks a strided subset of coordinates for speed. A `summed`
// gradient must be batch times the derivative of the mean loss.
void CheckGradient(const Model& model, std::uint64_t seed,
                   double tolerance = 1e-5, bool summed = false) {
  Rng rng(seed);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);

  std::vector<std::size_t> batch(std::min<std::size_t>(7, model.dataset_size()));
  std::iota(batch.begin(), batch.end(), 0u);

  Gradient grad;
  model.LossAndGradient(params, batch, grad);
  const std::vector<double> dense =
      grad.is_sparse() ? ToDense(grad.sparse(), params.size()) : grad.dense();

  const double eps = 1e-6;
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 40);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double up = model.Loss(params, batch);
    params[i] = saved - eps;
    const double down = model.Loss(params, batch);
    params[i] = saved;
    const double scale = summed ? static_cast<double>(batch.size()) : 1.0;
    const double numeric = scale * (up - down) / (2.0 * eps);
    EXPECT_NEAR(dense[i], numeric, scale * tolerance)
        << model.name() << " param " << i;
  }
}

TEST(GradientCheckTest, SoftmaxRegression) {
  SoftmaxRegressionModel model(SmallClassData(1), {});
  CheckGradient(model, 11);
}

TEST(GradientCheckTest, SoftmaxRegressionNoReg) {
  SoftmaxRegressionModel model(SmallClassData(2), {.regularization = 0.0});
  CheckGradient(model, 12);
}

TEST(GradientCheckTest, MlpOneHidden) {
  MlpClassifierModel model(SmallClassData(3), {.hidden = {5}});
  CheckGradient(model, 13, 1e-4);
}

TEST(GradientCheckTest, MlpTwoHidden) {
  MlpClassifierModel model(SmallClassData(4),
                           {.hidden = {6, 4}, .regularization = 1e-3});
  CheckGradient(model, 14, 1e-4);
}

TEST(GradientCheckTest, MlpNoHiddenIsSoftmaxTopology) {
  MlpClassifierModel model(SmallClassData(5), {.hidden = {}});
  CheckGradient(model, 15);
}

TEST(GradientCheckTest, MatrixFactorization) {
  // The MF gradient sums the per-rating gradients: batch times the
  // derivative of the reported mean loss.
  MatrixFactorizationConfig config;
  config.rank = 3;
  config.regularization = 0.05;
  MatrixFactorizationModel model(SmallRatings(6), config);
  CheckGradient(model, 16, 1e-5, /*summed=*/true);
}

TEST(MfModelTest, ParamLayoutOffsets) {
  MatrixFactorizationConfig config;
  config.rank = 4;
  MatrixFactorizationModel model(SmallRatings(11), config);
  EXPECT_EQ(model.param_dim(), (12 + 9) * 4u);
  EXPECT_EQ(model.user_offset(2), 8u);
  EXPECT_EQ(model.item_offset(0), 48u);
  EXPECT_THROW(model.user_offset(12), CheckError);
  EXPECT_THROW(model.item_offset(9), CheckError);
}

TEST(MfModelTest, GradientIsSparseAndTouchesOnlyBatchRows) {
  MatrixFactorizationConfig config;
  config.rank = 2;
  auto data = SmallRatings(12);
  MatrixFactorizationModel model(data, config);
  EXPECT_TRUE(model.prefers_sparse_gradients());
  Rng rng(13);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> batch{0};
  Gradient grad;
  model.LossAndGradient(params, batch, grad);
  ASSERT_TRUE(grad.is_sparse());
  // One rating touches exactly 2*rank coordinates.
  EXPECT_EQ(grad.sparse().nnz(), 4u);
}

TEST(SoftmaxModelTest, UniformInitGivesLogCLoss) {
  auto data = SmallClassData(14, 90, 6, 3);
  SoftmaxRegressionModel model(data, {.regularization = 0.0});
  std::vector<double> params(model.param_dim(), 0.0);
  std::vector<std::size_t> batch(30);
  std::iota(batch.begin(), batch.end(), 0u);
  EXPECT_NEAR(model.Loss(params, batch), std::log(3.0), 1e-9);
}

TEST(SoftmaxModelTest, TrainingImprovesAccuracy) {
  auto data = SmallClassData(15, 300, 8, 3);
  SoftmaxRegressionModel model(data, {});
  Rng rng(16);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  const double acc_before = model.Accuracy(params);

  std::vector<std::size_t> all(data->size());
  std::iota(all.begin(), all.end(), 0u);
  Gradient grad;
  for (int step = 0; step < 200; ++step) {
    model.LossAndGradient(params, all, grad);
    Axpy(-0.5, grad.dense(), params);
  }
  EXPECT_GT(model.Accuracy(params), acc_before);
  EXPECT_GT(model.Accuracy(params), 0.5);
}

TEST(MlpModelTest, ParamDimMatchesTopology) {
  auto data = SmallClassData(17, 30, 6, 3);
  MlpClassifierModel model(data, {.hidden = {5, 4}});
  // (6*5+5) + (5*4+4) + (4*3+3) = 35 + 24 + 15.
  EXPECT_EQ(model.param_dim(), 74u);
  EXPECT_EQ(model.num_layers(), 3u);
}

TEST(MlpModelTest, FullBatchTrainingReducesLoss) {
  auto data = SmallClassData(18, 200, 8, 4);
  MlpClassifierModel model(data, {.hidden = {16}});
  Rng rng(19);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> all(data->size());
  std::iota(all.begin(), all.end(), 0u);
  const double loss_before = model.Loss(params, all);
  Gradient grad;
  for (int step = 0; step < 150; ++step) {
    model.LossAndGradient(params, all, grad);
    Axpy(-0.5, grad.dense(), params);
  }
  EXPECT_LT(model.Loss(params, all), loss_before * 0.8);
}

TEST(ModelTest, FullLossSubsampleApproximatesFull) {
  auto data = SmallClassData(20, 500, 8, 4);
  SoftmaxRegressionModel model(data, {});
  Rng rng(21);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  const double full = model.FullLoss(params);
  const double sub = model.FullLoss(params, 250);
  EXPECT_NEAR(sub, full, 0.1 * std::abs(full) + 0.05);
}

TEST(GradientTest, DenseAddToAndClear) {
  Gradient g = Gradient::Dense(3);
  g.dense()[0] = 1.0;
  g.dense()[2] = -2.0;
  std::vector<double> dest(3, 10.0);
  g.AddTo(2.0, dest);
  EXPECT_EQ(dest, (std::vector<double>{12.0, 10.0, 6.0}));
  EXPECT_EQ(g.wire_bytes(), 24u);
  g.Clear();
  EXPECT_EQ(g.dense(), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(GradientTest, SparseAddTo) {
  Gradient g = Gradient::Sparse();
  g.sparse().Add(1, 3.0);
  std::vector<double> dest(3, 0.0);
  g.AddTo(-1.0, dest);
  EXPECT_EQ(dest, (std::vector<double>{0.0, -3.0, 0.0}));
}

}  // namespace
}  // namespace specsync
