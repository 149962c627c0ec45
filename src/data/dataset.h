// In-memory datasets.
//
// Two shapes cover the paper's three workloads: dense feature/label examples
// (CIFAR-10 / ImageNet proxies) and sparse (user, item, rating) triples
// (MovieLens proxy for matrix factorization).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace specsync {

// One dense supervised example.
struct Example {
  std::vector<double> features;
  std::uint32_t label = 0;
};

class ClassificationDataset {
 public:
  ClassificationDataset(std::size_t feature_dim, std::size_t num_classes)
      : feature_dim_(feature_dim), num_classes_(num_classes) {}

  void Add(Example example) {
    SPECSYNC_CHECK_EQ(example.features.size(), feature_dim_);
    SPECSYNC_CHECK_LT(example.label, num_classes_);
    examples_.push_back(std::move(example));
  }

  std::size_t size() const { return examples_.size(); }
  std::size_t feature_dim() const { return feature_dim_; }
  std::size_t num_classes() const { return num_classes_; }
  const Example& example(std::size_t i) const {
    SPECSYNC_CHECK_LT(i, examples_.size());
    return examples_[i];
  }

 private:
  std::size_t feature_dim_;
  std::size_t num_classes_;
  std::vector<Example> examples_;
};

// One observed rating.
struct Rating {
  std::uint32_t user = 0;
  std::uint32_t item = 0;
  double value = 0.0;
};

class RatingsDataset {
 public:
  RatingsDataset(std::size_t num_users, std::size_t num_items)
      : num_users_(num_users), num_items_(num_items) {}

  void Add(Rating rating) {
    SPECSYNC_CHECK_LT(rating.user, num_users_);
    SPECSYNC_CHECK_LT(rating.item, num_items_);
    ratings_.push_back(rating);
  }

  std::size_t size() const { return ratings_.size(); }
  std::size_t num_users() const { return num_users_; }
  std::size_t num_items() const { return num_items_; }
  const Rating& rating(std::size_t i) const {
    SPECSYNC_CHECK_LT(i, ratings_.size());
    return ratings_[i];
  }
  // Every rating, unchecked: for kernels that validate their indices once.
  std::span<const Rating> ratings() const { return ratings_; }

 private:
  std::size_t num_users_;
  std::size_t num_items_;
  std::vector<Rating> ratings_;
};

}  // namespace specsync
