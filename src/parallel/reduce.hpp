#pragma once

// Ordered chunks and the deterministic merge of their partial results —
// the host-side analogue of the torus tree reduction the BG/Q model
// assumes for K-matrix assembly (bgq/collectives.cpp).
//
// A sum whose shape follows the threads (one partial per thread, each
// holding whichever tasks that thread happened to claim) changes in the
// last bits from run to run. Here the partials belong to fixed chunks of
// consecutive items cut by cost alone (cut_chunks, shared by J/K, XC and
// the gradient) and merge along a binary tree fixed by their count alone
// (TreeMerge), so the total is the same bit for bit under any thread
// count, schedule or completion order.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mthfx::parallel {

/// Most chunks per cut: enough to balance a pool of a few threads over
/// items of uneven cost. Each chunk costs one partial and one merge, and
/// the merge tree is ceil(log2(chunks)) levels deep.
inline constexpr std::size_t kMaxChunks = 64;

/// Chunk ends over items of the given costs (any arithmetic type): at
/// most kMaxChunks runs of consecutive items of near-equal total cost.
/// Chunk c is items [c ? end[c - 1] : 0, end[c]); it closes at the first
/// item where the running cost reaches (c + 1) / kMaxChunks of the total,
/// or at the last item. When no cost is positive every item counts as 1.
/// The cut depends on the costs alone, never on the threads.
template <class Cost>
std::vector<std::size_t> cut_chunks(const std::vector<Cost>& costs) {
  double total = 0.0;
  for (const Cost c : costs) total += static_cast<double>(c);
  const bool unit = !(total > 0.0);
  const double whole = unit ? static_cast<double>(costs.size()) : total;
  std::vector<std::size_t> end;
  double seen = 0.0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    seen += unit ? 1.0 : static_cast<double>(costs[i]);
    const bool full = end.size() + 1 < kMaxChunks &&
                      seen * kMaxChunks >=
                          static_cast<double>(end.size() + 1) * whole;
    if (full || i + 1 == costs.size()) end.push_back(i + 1);
  }
  return end;
}

/// Sums `nparts` partials along the fixed binary tree over their indices:
/// the node at level L and index i covers parts [i·2^L, (i+1)·2^L) and is
/// its left child plus its right child, or its left child alone where the
/// right one would lie past the end.
///
/// The merge runs while the parts are still being made. finish() hands
/// in one complete part; whoever finishes the second of two siblings adds
/// the right one into the left one and climbs on, so only the roots of
/// finished subtrees stay alive. Parts freed by a merge are handed out
/// again by recycle(), or by open() cleared. Part needs
/// `Part& operator+=(const Part&)`, and open() also `void clear()`.
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

  /// A zeroed part for the next chunk: a recycled one after clear(), or
  /// else make().
  template <class Make>
  Part open(Make make) {
    if (std::optional<Part> part = recycle()) {
      part->clear();
      return std::move(*part);
    }
    return make();
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

/// A partial that is a vector of summable values, such as per-atom
/// gradients; T{} is its zero.
template <class T>
struct VectorPart {
  std::vector<T> v;
  void clear() { std::fill(v.begin(), v.end(), T{}); }
  VectorPart& operator+=(const VectorPart& other) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = v[i] + other.v[i];
    return *this;
  }
};

/// Runs body(begin, end, part) for every chunk of `chunk_end` into its
/// own zeroed part (TreeMerge::open(make)) and returns the merged total,
/// or make() if there are no chunks. Pool threads claim chunks
/// dynamically; without a pool the calling thread runs them in order.
template <class Make, class Body>
auto run_chunks(const std::vector<std::size_t>& chunk_end, ThreadPool* pool,
                Make make, Body body) {
  using Part = std::invoke_result_t<Make&>;
  TreeMerge<Part> merge(chunk_end.size());
  const auto run = [&](std::size_t c, std::size_t) {
    Part part = merge.open(make);
    body(c ? chunk_end[c - 1] : 0, chunk_end[c], part);
    merge.finish(c, std::move(part));
  };
  if (pool) {
    pool->parallel_for(0, chunk_end.size(), run);
  } else {
    for (std::size_t c = 0; c < chunk_end.size(); ++c) run(c, 0);
  }
  std::optional<Part> total = merge.take();
  return total ? std::move(*total) : make();
}

}  // namespace mthfx::parallel
