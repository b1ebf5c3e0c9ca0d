#include "linalg/diis.hpp"

#include <algorithm>

#include "linalg/cholesky.hpp"

namespace mthfx::linalg {

void Diis::reset() {
  focks_.clear();
  errors_.clear();
  last_error_norm_ = 0.0;
}

Matrix Diis::extrapolate(const Matrix& fock, const Matrix& error) {
  Matrix out = fock;
  Diis* self = this;
  extrapolate_jointly({&self, 1}, {&out, 1}, {&error, 1});
  return out;
}

void Diis::extrapolate_jointly(std::span<Diis* const> channels,
                               std::span<Matrix> focks,
                               std::span<const Matrix> errors) {
  std::size_t m = 0;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    Diis& d = *channels[c];
    d.focks_.push_back(focks[c]);
    d.errors_.push_back(errors[c]);
    if (d.focks_.size() > d.max_history_) {
      d.focks_.pop_front();
      d.errors_.pop_front();
    }
    d.last_error_norm_ = max_abs(errors[c]);
    m = c == 0 ? d.focks_.size() : std::min(m, d.focks_.size());
  }
  for (Diis* d : channels)
    while (d->focks_.size() > m) {
      d->focks_.pop_front();
      d->errors_.pop_front();
    }
  if (m < 2) return;

  // Augmented Pulay system:
  //   [ B   -1 ] [ c ]   [ 0 ]
  //   [ -1ᵀ  0 ] [ λ ] = [ -1 ],   B_ij = sum over channels <e_i, e_j>.
  Matrix b(m + 1, m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const auto dot = [&](std::size_t c) {
        return frobenius_dot(channels[c]->errors_[i], channels[c]->errors_[j]);
      };
      double v = dot(0);
      for (std::size_t c = 1; c < channels.size(); ++c) v += dot(c);
      b(i, j) = v;
      b(j, i) = v;
    }
    b(i, m) = -1.0;
    b(m, i) = -1.0;
  }
  Vector rhs(m + 1, 0.0);
  rhs[m] = -1.0;

  const auto sol = lu_solve(b, rhs);
  if (!sol) {
    // Singular B (e.g. two identical error vectors): drop the oldest pair
    // and use the raw Focks this iteration.
    for (Diis* d : channels) {
      d->focks_.pop_front();
      d->errors_.pop_front();
    }
    return;
  }

  for (std::size_t c = 0; c < channels.size(); ++c) {
    Matrix mixed(focks[c].rows(), focks[c].cols());
    for (std::size_t i = 0; i < m; ++i) {
      const double ci = (*sol)[i];
      const auto fi = channels[c]->focks_[i].flat();
      auto out = mixed.flat();
      for (std::size_t k = 0; k < out.size(); ++k) out[k] += ci * fi[k];
    }
    focks[c] = std::move(mixed);
  }
}

}  // namespace mthfx::linalg
