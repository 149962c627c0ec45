// The shared harness of the seeded property suites: the base seed every
// suite derives its trials from, and the greedy ddmin list shrinker the
// suites with list-shaped counterexamples use.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace specsync {

// The base seed of a property suite: SPECSYNC_PROPERTY_SEED when set, else
// the suite's own `fallback`. The variable must be an unsigned decimal
// integer; anything else throws, naming the value, so a typo never silently
// reruns some other seed.
inline std::uint64_t PropertySeed(std::uint64_t fallback) {
  const char* env = std::getenv("SPECSYNC_PROPERTY_SEED");
  if (env == nullptr) return fallback;
  const std::string_view text(env);
  std::uint64_t seed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), seed);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size()) {
    throw std::invalid_argument("SPECSYNC_PROPERTY_SEED='" +
                                std::string(text) +
                                "' is not an unsigned decimal integer");
  }
  return seed;
}

// Greedy ddmin over one list: repeatedly delete the largest run of elements
// whose removal keeps the failure, halving the run until single elements
// survive. `keep` is the fewest elements the list may shrink to.
template <typename T, typename Fails>
void ShrinkList(std::vector<T>& items, std::size_t keep, const Fails& fails) {
  std::size_t run = std::max<std::size_t>(1, items.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < items.size() && items.size() > keep) {
      std::vector<T> candidate = items;
      const std::size_t end =
          std::min({offset + run, candidate.size(),
                    offset + (candidate.size() - keep)});
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(offset),
                      candidate.begin() + static_cast<std::ptrdiff_t>(end));
      if (fails(candidate)) {
        items = std::move(candidate);
        removed_any = true;
      } else {
        offset += run;
      }
    }
    if (run == 1) {
      if (!removed_any) break;
    } else {
      run /= 2;
    }
  }
}

}  // namespace specsync
