#pragma once

// Contracted Cartesian Gaussian basis sets.
//
// A Shell is one contracted Gaussian of angular momentum l centered on an
// atom; it expands into (l+1)(l+2)/2 Cartesian components (6d convention
// for d shells, matching the Pople-basis reference energies we validate
// against). The BasisSet flattens a molecule's shells into a global AO
// index space used by the integral and SCF code.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "chem/molecule.hpp"

namespace mthfx::chem {

/// Number of Cartesian components for angular momentum l.
constexpr std::size_t num_cartesians(int l) {
  return static_cast<std::size_t>((l + 1) * (l + 2) / 2);
}

/// (lx, ly, lz) exponent triple of one Cartesian component.
struct CartPowers {
  int x = 0, y = 0, z = 0;
};

/// Component list for angular momentum l, in canonical order
/// (lx descending, then ly descending).
std::vector<CartPowers> cartesian_powers(int l);

/// Double factorial (2n-1)!! with (-1)!! = 1.
double odd_double_factorial(int n);

/// Normalization constant of the primitive Cartesian Gaussian
/// x^i y^j z^k exp(-a r^2).
double primitive_norm(double a, int i, int j, int k);

/// One contracted shell.
class Shell {
 public:
  /// `coefs` are contraction coefficients over *normalized* primitives
  /// (the EMSL/Basis-Set-Exchange convention). The constructor applies
  /// the overall contraction normalization.
  Shell(int l, std::size_t atom_index, Vec3 center,
        std::vector<double> exponents, std::vector<double> coefs);

  int l() const { return l_; }
  std::size_t atom_index() const { return atom_index_; }
  const Vec3& center() const { return center_; }
  std::size_t num_primitives() const { return exponents_.size(); }
  std::size_t num_functions() const { return num_cartesians(l_); }

  const std::vector<double>& exponents() const { return exponents_; }

  /// Contraction coefficient of primitive p including the contraction
  /// normalization but excluding the per-component primitive norm.
  double coef(std::size_t p) const { return coefs_[p]; }

  /// Fully normalized coefficient for primitive p and Cartesian
  /// component c: coef(p) * primitive_norm(exponent(p), powers of c).
  double norm_coef(std::size_t p, std::size_t c) const {
    return norm_coefs_[p * num_functions() + c];
  }

  /// Smallest primitive exponent — sets the spatial extent of the shell.
  double min_exponent() const;

 private:
  int l_;
  std::size_t atom_index_;
  Vec3 center_;
  std::vector<double> exponents_;
  std::vector<double> coefs_;
  std::vector<double> norm_coefs_;  // nprim x ncart, row-major
};

/// A molecule's full basis: shells plus the AO index map.
class BasisSet {
 public:
  BasisSet() = default;

  /// Build the named basis ("sto-3g", "6-31g", "6-31g*") for `mol`.
  /// Throws std::runtime_error for unknown basis names or elements the
  /// basis does not cover.
  static BasisSet build(const Molecule& mol, std::string_view name);

  void add_shell(Shell shell);

  const std::vector<Shell>& shells() const { return shells_; }
  std::size_t num_shells() const { return shells_.size(); }
  const Shell& shell(std::size_t s) const { return shells_.at(s); }

  /// Total number of atomic orbitals (Cartesian components).
  std::size_t num_functions() const { return nao_; }

  /// First AO index of shell s.
  std::size_t first_function(std::size_t s) const { return offsets_.at(s); }

  /// Evaluate every AO and its Cartesian gradient at a point. Each
  /// vector is resized to num_functions().
  void evaluate_with_gradient(const Vec3& point, std::vector<double>& val,
                              std::vector<double>& dx, std::vector<double>& dy,
                              std::vector<double>& dz) const;

  /// Evaluate one shell's AOs and gradients at a point, writing
  /// shell(s).num_functions() entries starting at each pointer. The XC
  /// integrator (dft/xc_integrator.hpp) uses this to cache only the
  /// shells whose extent covers a grid point; the full
  /// evaluate_with_gradient above is this call looped over every shell.
  void evaluate_shell_with_gradient(std::size_t s, const Vec3& point,
                                    double* val, double* dx, double* dy,
                                    double* dz) const;

  /// Second Cartesian derivatives of one shell's AOs at a point (the GGA
  /// XC gradient: d(sigma)/dR pulls in AO Hessians), writing
  /// shell(s).num_functions() entries starting at each of the six
  /// pointers, in xx, xy, xz, yy, yz, zz order.
  void evaluate_shell_with_hessian(std::size_t s, const Vec3& point,
                                   double* dxx, double* dxy, double* dxz,
                                   double* dyy, double* dyz,
                                   double* dzz) const;

 private:
  std::vector<Shell> shells_;
  std::vector<std::size_t> offsets_;
  std::size_t nao_ = 0;
};

namespace detail {
/// One element's shells in a basis table (exponents + per-l coefficients).
struct ElementBasisEntry {
  int l;
  std::vector<double> exponents;
  std::vector<double> coefs;
};

/// Shells for element z in the named basis. Implemented in basis_data.cpp.
std::vector<ElementBasisEntry> element_basis(std::string_view name, int z);
}  // namespace detail

}  // namespace mthfx::chem
