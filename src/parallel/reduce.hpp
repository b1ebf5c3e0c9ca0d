#pragma once

// Deterministic merge of thread-private partial results — the host-side
// analogue of the torus tree reduction the BG/Q model assumes for K-matrix
// assembly (bgq/collectives.cpp).
//
// A sum whose shape follows the threads (one partial per thread, each
// holding whichever tasks that thread happened to claim) changes in the
// last bits from run to run. Here the partials belong to fixed units of
// work instead (the J/K builder's task chunks), and they merge along a
// binary tree fixed by their count alone, so the total is the same bit
// for bit under any thread count, schedule or completion order.

#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace mthfx::parallel {

/// Sums `nparts` partials along the fixed binary tree over their indices:
/// the node at level L and index i covers parts [i·2^L, (i+1)·2^L) and is
/// its left child plus its right child, or its left child alone where the
/// right one would lie past the end.
///
/// The merge runs while the parts are still being made. finish() hands
/// in one complete part; whoever finishes the second of two siblings adds
/// the right one into the left one and climbs on, so only the roots of
/// finished subtrees stay alive. Parts freed by a merge are handed out
/// again by recycle(). Part needs `Part& operator+=(const Part&)`.
///
/// recycle() and finish() may be called from any threads at once; each
/// index is finished exactly once, and take() runs after the last finish.
template <class Part>
class TreeMerge {
 public:
  explicit TreeMerge(std::size_t nparts) : nparts_(nparts) {
    for (std::size_t width = nparts; width > 1; width = (width + 1) / 2)
      waiting_.emplace_back(width / 2);
  }

  /// A part freed by an earlier merge (holding stale values), if any.
  std::optional<Part> recycle() {
    std::lock_guard lock(mutex_);
    if (free_.empty()) return std::nullopt;
    std::optional<Part> part(std::move(free_.back()));
    free_.pop_back();
    return part;
  }

  /// Hand in part `index`, complete.
  void finish(std::size_t index, Part part) {
    std::size_t width = nparts_;
    for (std::size_t level = 0; width > 1;
         ++level, index /= 2, width = (width + 1) / 2) {
      if ((index ^ 1) >= width) continue;  // no right sibling: pass up
      std::optional<Part> sibling;
      {
        std::lock_guard lock(mutex_);
        std::optional<Part>& slot = waiting_[level][index / 2];
        if (!slot) {
          slot.emplace(std::move(part));
          return;
        }
        sibling.swap(slot);
      }
      if (index & 1) std::swap(part, *sibling);  // part is now the left one
      part += *sibling;
      std::lock_guard lock(mutex_);
      free_.push_back(std::move(*sibling));
    }
    std::lock_guard lock(mutex_);
    root_.emplace(std::move(part));
  }

  /// The total (nullopt when nparts is 0).
  std::optional<Part> take() {
    std::lock_guard lock(mutex_);
    return std::exchange(root_, std::nullopt);
  }

 private:
  const std::size_t nparts_;
  std::mutex mutex_;
  /// Per level, per parent node: the first of its two children to finish.
  std::vector<std::vector<std::optional<Part>>> waiting_;
  std::vector<Part> free_;
  std::optional<Part> root_;
};

}  // namespace mthfx::parallel
