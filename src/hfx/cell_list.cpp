#include "hfx/cell_list.hpp"

#include <algorithm>
#include <cmath>

namespace mthfx::hfx {

std::vector<double> shell_extent_radii(const chem::BasisSet& basis) {
  const std::size_t ns = basis.num_shells();
  std::vector<double> radii(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const chem::Shell& sh = basis.shell(s);
    const double l_slack =
        kExtentLogSlack + 4.0 * static_cast<double>(sh.l());
    radii[s] = std::sqrt(l_slack / (2.0 * sh.min_exponent()));
  }
  return radii;
}

bool within_extent_range(const chem::BasisSet& basis,
                         const std::vector<double>& radii, std::size_t s,
                         std::size_t t) {
  const chem::Vec3& c = basis.shell(s).center();
  const chem::Vec3& ct = basis.shell(t).center();
  const double dx = ct.x - c.x;
  const double dy = ct.y - c.y;
  const double dz = ct.z - c.z;
  const double cut = radii[s] + radii[t];
  return dx * dx + dy * dy + dz * dz <= cut * cut;
}

CellList::CellList(const chem::BasisSet& basis, std::vector<double> radii)
    : basis_(&basis), radii_(std::move(radii)) {
  const std::size_t ns = basis.num_shells();
  for (const double r : radii_) max_radius_ = std::max(max_radius_, r);
  // Bounding box of shell centers.
  double lox = 0.0, loy = 0.0, loz = 0.0;
  double hix = 0.0, hiy = 0.0, hiz = 0.0;
  for (std::size_t s = 0; s < ns; ++s) {
    const chem::Vec3& c = basis.shell(s).center();
    if (s == 0) {
      lox = hix = c.x;
      loy = hiy = c.y;
      loz = hiz = c.z;
    } else {
      lox = std::min(lox, c.x);
      hix = std::max(hix, c.x);
      loy = std::min(loy, c.y);
      hiy = std::max(hiy, c.y);
      loz = std::min(loz, c.z);
      hiz = std::max(hiz, c.z);
    }
  }
  ox_ = lox;
  oy_ = loy;
  oz_ = loz;
  cell_size_ = std::max(1.0, max_radius_);
  nx_ = static_cast<std::size_t>((hix - lox) / cell_size_) + 1;
  ny_ = static_cast<std::size_t>((hiy - loy) / cell_size_) + 1;
  nz_ = static_cast<std::size_t>((hiz - loz) / cell_size_) + 1;
  cells_.resize(nx_ * ny_ * nz_);
  for (std::size_t s = 0; s < ns; ++s) {
    const chem::Vec3& c = basis.shell(s).center();
    const std::size_t ix = static_cast<std::size_t>((c.x - ox_) / cell_size_);
    const std::size_t iy = static_cast<std::size_t>((c.y - oy_) / cell_size_);
    const std::size_t iz = static_cast<std::size_t>((c.z - oz_) / cell_size_);
    cells_[(ix * ny_ + iy) * nz_ + iz].push_back(
        static_cast<std::uint32_t>(s));
  }
}

void CellList::candidates(std::size_t s,
                          std::vector<std::uint32_t>* out) const {
  const chem::Vec3& c = basis_->shell(s).center();
  // Any partner within reach lies inside radii[s] + max_radius_ of s.
  const double reach = radii_[s] + max_radius_;
  const auto lo_cell = [&](double v, double o) {
    const double t = (v - o - reach) / cell_size_;
    return t <= 0.0 ? std::size_t{0} : static_cast<std::size_t>(t);
  };
  const auto hi_cell = [&](double v, double o, std::size_t n) {
    const double t = (v - o + reach) / cell_size_;
    const std::size_t i = t <= 0.0 ? 0 : static_cast<std::size_t>(t);
    return std::min(i, n - 1);
  };
  const std::size_t x0 = lo_cell(c.x, ox_), x1 = hi_cell(c.x, ox_, nx_);
  const std::size_t y0 = lo_cell(c.y, oy_), y1 = hi_cell(c.y, oy_, ny_);
  const std::size_t z0 = lo_cell(c.z, oz_), z1 = hi_cell(c.z, oz_, nz_);
  for (std::size_t ix = x0; ix <= x1; ++ix) {
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      for (std::size_t iz = z0; iz <= z1; ++iz) {
        for (const std::uint32_t t : cells_[(ix * ny_ + iy) * nz_ + iz])
          if (t <= s && within_extent_range(*basis_, radii_, s, t))
            out->push_back(t);
      }
    }
  }
}

}  // namespace mthfx::hfx
