// Occupancy bitmap for a dense accumulator.
//
// A sparse-into-dense accumulation (ChunkMerger's merge, the MF gradient
// kernel's row sums) keeps a dense buffer of slots and this bitmap beside
// it. The first write to a slot sets its bit and assigns the slot; later
// writes add to it, so a slot never needs zeroing and a lone -0.0 keeps its
// sign. Drain then visits the set slots in ascending order by scanning only
// the words between the lowest and highest touched word, and clears every
// bit it reads: between accumulations the bitmap is all zero.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace specsync {

class OccupancyBitmap {
 public:
  // Covers at least `slots` slots. Grows and never shrinks, so one bitmap
  // can serve accumulations of different sizes; call it between them.
  void Reserve(std::size_t slots) {
    const std::size_t words = (slots + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  // Marks `slot` (< the reserved size) occupied. Returns true if it was
  // empty, so the caller assigns the slot, and false if it adds.
  bool Set(std::size_t slot) {
    const std::size_t word = slot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    const std::uint64_t old = words_[word];
    words_[word] = old | bit;
    if (word < first_word_) first_word_ = word;
    if (word >= end_word_) end_word_ = word + 1;
    return (old & bit) == 0;
  }

  // Calls visit(slot) for every occupied slot in ascending order and leaves
  // the bitmap empty.
  template <typename Visit>
  void Drain(Visit&& visit) {
    for (std::size_t word = first_word_; word < end_word_; ++word) {
      std::uint64_t bits = words_[word];
      words_[word] = 0;
      for (; bits != 0; bits &= bits - 1) {
        visit(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
    first_word_ = kNoWord;
    end_word_ = 0;
  }

 private:
  static constexpr std::size_t kNoWord = std::numeric_limits<std::size_t>::max();

  std::vector<std::uint64_t> words_;
  // Touched words are within [first_word_, end_word_); empty when first >= end.
  std::size_t first_word_ = kNoWord;
  std::size_t end_word_ = 0;
};

}  // namespace specsync
