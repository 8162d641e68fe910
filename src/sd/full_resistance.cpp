#include "sd/full_resistance.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sd/assembly_engine.hpp"
#include "sd/rpy.hpp"
#include "util/stats.hpp"

namespace mrhs::sd {

dense::Matrix far_field_resistance_dense(const ParticleSystem& system,
                                         double viscosity) {
  const dense::Matrix mobility = rpy_mobility_dense(system, viscosity);
  const std::size_t n = mobility.rows();
  // Invert through the eigendecomposition with a spectral floor: the
  // minimum-image truncation of RPY loses positive definiteness in
  // small crowded boxes, so eigenvalues below floor_fraction * max are
  // clamped before inverting (the standard "filtered mobility"
  // regularization; exact when M_inf is comfortably SPD).
  const auto es = dense::eigen_symmetric(mobility);
  const double floor_value = 1e-4 * es.eigenvalues.back();
  dense::Matrix inverse(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double lam = std::max(es.eigenvalues[k], floor_value);
        s += es.eigenvectors(i, k) * es.eigenvectors(j, k) / lam;
      }
      inverse(i, j) = s;
      inverse(j, i) = s;
    }
  }
  return inverse;
}

dense::Matrix full_resistance_dense(const ParticleSystem& system,
                                    const ResistanceParams& params) {
  if (3 * system.size() > 4096) {
    throw std::runtime_error("full_resistance_dense: system too large");
  }
  dense::Matrix r = far_field_resistance_dense(system, params.viscosity);

  ResistanceParams lub_only = params;
  lub_only.include_far_field = false;
  const auto lub_dense =
      AssemblyEngine(lub_only).assemble_full(system).matrix.to_dense();
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      r(i, j) += lub_dense(i, j);
    }
  }
  return r;
}

double sparse_model_velocity_error(const ParticleSystem& system,
                                   const ResistanceParams& params,
                                   std::span<const double> force) {
  const std::size_t n = 3 * system.size();
  if (force.size() != n) {
    throw std::invalid_argument("sparse_model_velocity_error: force size");
  }
  const dense::Matrix r_full = full_resistance_dense(system, params);
  const auto r_sparse =
      AssemblyEngine(params).assemble_full(system).matrix.to_dense();

  std::vector<double> u_full(force.begin(), force.end());
  std::vector<double> u_sparse(force.begin(), force.end());
  dense::Cholesky(r_full).solve_in_place(u_full);
  dense::Cholesky(r_sparse).solve_in_place(u_sparse);
  return util::diff_norm2(u_sparse, u_full) / util::norm2(u_full);
}

}  // namespace mrhs::sd
