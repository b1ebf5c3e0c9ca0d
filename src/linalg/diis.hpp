#pragma once

// DIIS (direct inversion in the iterative subspace; Pulay mixing).
//
// Accelerates SCF convergence by extrapolating the Fock matrix from a
// short history of (F, error) pairs, where the error vector is the
// commutator e = F P S − S P F expressed in the orthonormal basis.

#include <cstddef>
#include <deque>
#include <span>

#include "linalg/matrix.hpp"

namespace mthfx::linalg {

class Diis {
 public:
  /// `max_history`: number of (F, e) pairs retained. 6–8 is typical.
  explicit Diis(std::size_t max_history = 8) : max_history_(max_history) {}

  /// Record a Fock/error pair and return the DIIS-extrapolated Fock
  /// matrix. Falls back to returning `fock` unchanged while the history
  /// holds fewer than two pairs or when the B-system is singular.
  Matrix extrapolate(const Matrix& fock, const Matrix& error);

  /// The same step for several Fock matrices that share one set of
  /// coefficients, as the spin channels of an unrestricted SCF must:
  /// B_ij sums <e_i, e_j> over the channels, so the step minimizes their
  /// combined error. Each channel records its pair in its own history;
  /// histories of unequal length keep their newest common pairs. Replaces
  /// each focks[c] by its extrapolation.
  static void extrapolate_jointly(std::span<Diis* const> channels,
                                  std::span<Matrix> focks,
                                  std::span<const Matrix> errors);

  std::size_t history_size() const { return focks_.size(); }
  void reset();

  /// Checkpoint access: the retained (F, e) pairs, oldest first.
  const std::deque<Matrix>& fock_history() const { return focks_; }
  const std::deque<Matrix>& error_history() const { return errors_; }

  /// Restart from a serialized history (oldest first); keeps at most the
  /// newest max_history pairs. Sizes must match.
  void restore_history(const std::vector<Matrix>& focks,
                       const std::vector<Matrix>& errors) {
    focks_.assign(focks.begin(), focks.end());
    errors_.assign(errors.begin(), errors.end());
    while (focks_.size() > max_history_) focks_.pop_front();
    while (errors_.size() > max_history_) errors_.pop_front();
  }

  /// Largest |e_ij| of the most recent error matrix; the usual SCF
  /// convergence measure.
  double last_error_norm() const { return last_error_norm_; }

 private:
  std::size_t max_history_;
  std::deque<Matrix> focks_;
  std::deque<Matrix> errors_;
  double last_error_norm_ = 0.0;
};

}  // namespace mthfx::linalg
