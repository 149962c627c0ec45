#include "models/matrix_factorization.h"

#include <cstdint>

#include "common/check.h"

namespace specsync {

MatrixFactorizationModel::MatrixFactorizationModel(
    std::shared_ptr<const RatingsDataset> data,
    MatrixFactorizationConfig config)
    : data_(std::move(data)), config_(config) {
  SPECSYNC_CHECK(data_ != nullptr);
  SPECSYNC_CHECK_GT(config_.rank, 0u);
  SPECSYNC_CHECK_GE(config_.regularization, 0.0);
}

std::size_t MatrixFactorizationModel::param_dim() const {
  return (data_->num_users() + data_->num_items()) * config_.rank;
}

std::size_t MatrixFactorizationModel::user_offset(std::size_t user) const {
  SPECSYNC_CHECK_LT(user, data_->num_users());
  return user * config_.rank;
}

std::size_t MatrixFactorizationModel::item_offset(std::size_t item) const {
  SPECSYNC_CHECK_LT(item, data_->num_items());
  return (data_->num_users() + item) * config_.rank;
}

void MatrixFactorizationModel::InitParams(std::span<double> params,
                                          Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  for (double& v : params) {
    v = rng.Uniform(-config_.init_scale, config_.init_scale);
  }
}

namespace {

// Prefetch distances, in ratings ahead of the one being computed. A batch
// names ratings at random places in the dataset, and each rating names two
// rows at random places in the parameter vector and the accumulator, so a
// rating costs up to five cache misses when its worker's snapshot is cold
// (40 simulated workers hold 40 snapshots). The rating record is fetched
// far ahead, because its row numbers must arrive before its rows can be
// fetched; the rows are fetched nearer, once the record is in cache. At
// ~50 ns of work per rank-8 rating, 4 ratings ahead cover a miss to L3.
// Pairs from 8/4 to 32/8 timed alike in BM_MfGradientCold.
constexpr std::size_t kRatingPrefetchDistance = 16;
constexpr std::size_t kRowPrefetchDistance = 4;

// Prefetches every cache line of `rank` doubles at `row`, for reading
// (kWrite = 0) or writing (kWrite = 1).
template <int kWrite>
void PrefetchRow(const double* row, std::size_t rank) {
  constexpr std::uintptr_t kLine = 64;
  const auto end = reinterpret_cast<std::uintptr_t>(row + rank);
  for (auto line = reinterpret_cast<std::uintptr_t>(row) & ~(kLine - 1);
       line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), kWrite);
  }
}

}  // namespace

double MatrixFactorizationModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  const std::span<const Rating> ratings = data_->ratings();
  // Every index is checked before the sum is opened or its first bit set,
  // so a bad batch throws leaving both as they were.
  for (const std::size_t idx : batch) SPECSYNC_CHECK_LT(idx, ratings.size());

  const std::size_t n = batch.size();
  const std::size_t r = config_.rank;
  const std::size_t users = data_->num_users();
  const std::size_t rows = users + data_->num_items();
  const double inv_batch = 1.0 / static_cast<double>(n);
  const double reg = config_.regularization;
  // A plain call is a sum of one call, on this thread's workspace.
  const bool plain = !grad.sum_open();
  if (plain) grad.OpenSum(SumWorkspace::ThisThread());
  // Each rating touches at most two rows.
  SumWorkspace& ws = grad.SparseTerms(rows, r, 2 * n);

  const double* p = params.data();
  double* acc = ws.acc.data();
  OccupancyBitmap& occupied = ws.occupied;
  // Adds one rating's contribution to factor row `row` (whose parameters
  // are `own`; `other` is the rating's other row): d/dU_uk = err * V_ik +
  // reg * U_uk on the user side, d/dV_ik = err * U_uk + reg * V_ik on the
  // item side. The first contribution is assigned rather than added to 0.0,
  // so a lone -0.0 keeps its sign as an appended entry would.
  const auto accumulate = [&](std::size_t row, const double* own,
                              const double* other, double err) {
    double* a = acc + row * r;
    if (occupied.Set(row)) {
      for (std::size_t k = 0; k < r; ++k) {
        a[k] = err * other[k] + reg * own[k];
      }
    } else {
      for (std::size_t k = 0; k < r; ++k) {
        a[k] += err * other[k] + reg * own[k];
      }
    }
  };

  // One pass: each rating's error and loss term, then its user-row and
  // item-row contributions. User and item rows are disjoint, so every row
  // sums its contributions in batch order.
  double loss = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j + kRatingPrefetchDistance < n) {
      __builtin_prefetch(&ratings[batch[j + kRatingPrefetchDistance]]);
    }
    if (j + kRowPrefetchDistance < n) {
      const Rating& ahead = ratings[batch[j + kRowPrefetchDistance]];
      const std::size_t uo = ahead.user * r;
      const std::size_t io = (users + ahead.item) * r;
      PrefetchRow<0>(p + uo, r);
      PrefetchRow<0>(p + io, r);
      PrefetchRow<1>(acc + uo, r);
      PrefetchRow<1>(acc + io, r);
    }
    const Rating& rating = ratings[batch[j]];
    const std::size_t user_row = rating.user;
    const std::size_t item_row = users + rating.item;
    const double* u = p + user_row * r;
    const double* v = p + item_row * r;
    double dot = 0.0;
    for (std::size_t k = 0; k < r; ++k) dot += u[k] * v[k];
    const double err = dot - rating.value;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) reg_term += u[k] * u[k] + v[k] * v[k];
    loss += 0.5 * err * err + 0.5 * reg * reg_term;
    accumulate(user_row, u, v, err);
    accumulate(item_row, v, u, err);
  }

  // A plain call emits its rows now, an open sum at its close: each touched
  // row as its `rank` entries, index-sorted with no duplicates.
  if (plain) grad.CloseSum(1.0);
  return loss * inv_batch;
}

double MatrixFactorizationModel::Loss(std::span<const double> params,
                                      std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  const std::size_t r = config_.rank;
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Rating& rating = data_->rating(idx);
    const std::size_t uo = user_offset(rating.user);
    const std::size_t io = item_offset(rating.item);
    double dot = 0.0;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      dot += params[uo + k] * params[io + k];
      reg_term += params[uo + k] * params[uo + k] +
                  params[io + k] * params[io + k];
    }
    const double err = dot - rating.value;
    loss += 0.5 * err * err + 0.5 * config_.regularization * reg_term;
  }
  return loss / static_cast<double>(batch.size());
}

}  // namespace specsync
