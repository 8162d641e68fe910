#include "core/stepper.hpp"

#include <cmath>
#include <limits>
#include <memory>

#include "dense/matrix.hpp"
#include "obs/obs.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/refinement.hpp"
#include "solver/operator.hpp"
#include "sd/mobility_operator.hpp"
#include "sparse/multivector.hpp"
#include "util/contracts.hpp"
#include "util/fault_injection.hpp"
#include "util/stats.hpp"

namespace mrhs::core {

namespace {

solver::CgOptions cg_options(const SdConfig& config) {
  solver::CgOptions opts;
  opts.tol = config.solver_tol;
  opts.max_iters = config.solver_max_iters;
  return opts;
}

/// One explicit-midpoint update given the step-start snapshot:
/// the half step moved the system to r + dt/2 u1; the full step
/// restarts from the snapshot with the midpoint velocity u2.
void full_step_from(sd::ParticleSystem& system,
                    const sd::ParticleSystem::Snapshot& start,
                    std::span<const double> u_mid, double dt,
                    double max_step) {
  MRHS_ASSERT_ALL_FINITE(u_mid.data(), u_mid.size());
  system.restore(start);
  system.advance(u_mid, dt, max_step);
  // Chaos sites (compiled out unless MRHS_FAULTS): corrupt the state
  // *after* the step completed, past every solver-level defense — only
  // the post-step health monitor can catch these.
  if (MRHS_FAULT_FIRED("stepper.position.nan")) {
    system.positions()[0].x = std::numeric_limits<double>::quiet_NaN();
  }
  if (MRHS_FAULT_FIRED("stepper.position.overlap") && system.size() > 1) {
    // Teleport particle 0 deep into particle 1: finite, but unphysical.
    const auto pos = system.positions();
    const double pair_radius =
        0.5 * (system.radii()[0] + system.radii()[1]);
    pos[0] = system.box().wrap(pos[1] +
                               sd::Vec3{0.05 * pair_radius, 0.0, 0.0});
  }
}

/// The Construct phase: R at the current configuration. The matrix
/// is the engine's, valid until its next assembly, and no step reads
/// R_k after it constructs R_{k+1/2}.
const sparse::BcrsMatrix& construct(SdSimulation& sim, RunStats& stats) {
  util::ScopedPhase t(stats.timers, phase::kConstruct);
  return sim.engine().assemble(sim.system());
}

/// Midpoint half-step, second solve seeded with u, full step from the
/// step-start snapshot — the shared tail of sd_step and the MRHS chunk
/// head.
void midpoint_and_advance(SdSimulation& sim, RunStats& stats, StepRecord& rec,
                          const std::vector<double>& f,
                          const std::vector<double>& u) {
  const SdConfig& config = sim.config();
  const double dt = sim.dt();
  const double max_step = sim.max_step_length();

  const auto start = sim.system().snapshot();
  sim.system().advance(u, 0.5 * dt, max_step);
  const sparse::BcrsMatrix& r_half = construct(sim, stats);
  solver::BcrsOperator op_half(r_half, config.threads);
  std::vector<double> u_mid = u;
  {
    util::ScopedPhase t(stats.timers, phase::kSecondSolve);
    const auto result = solver::conjugate_gradient(op_half, f, u_mid,
                                                   cg_options(config));
    rec.iters_second_solve = result.iterations;
    stats.solver_status =
        solver::worse_status(stats.solver_status, result.status);
  }
  full_step_from(sim.system(), start, u_mid, dt, max_step);
  stats.steps.push_back(rec);
}

}  // namespace

void fall_back_to_zero_guesses(sparse::MultiVector& guesses,
                               RunStats& stats) {
  guesses.set_zero();
  ++stats.guess_fallbacks;
  stats.solver_status = solver::worse_status(stats.solver_status,
                                             solver::SolveStatus::kRecovered);
  OBS_INSTANT("mrhs.chunk_guesses_dropped");
}

void RunStats::merge(const RunStats& other) {
  timers.merge(other.timers);
  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
  block_iterations += other.block_iterations;
  seconds_total += other.seconds_total;
  solver_status = solver::worse_status(solver_status, other.solver_status);
  guess_fallbacks += other.guess_fallbacks;
  rollbacks += other.rollbacks;
  degradations += other.degradations;
  recovery_promotions += other.recovery_promotions;
  resilience_gave_up = resilience_gave_up || other.resilience_gave_up;
}

double RunStats::mean_first_solve_iters() const {
  if (steps.empty()) return 0.0;
  double s = 0.0;
  for (const auto& rec : steps) {
    s += static_cast<double>(rec.iters_first_solve);
  }
  return s / static_cast<double>(steps.size());
}

OriginalAlgorithm::OriginalAlgorithm(SdSimulation& sim, AlgorithmConfig config)
    : sim_(&sim),
      bounds_refresh_(config.bounds_refresh == 0 ? 1 : config.bounds_refresh) {
}

AlgorithmState OriginalAlgorithm::export_state() const {
  return {step_, bounds_, have_bounds_};
}

void OriginalAlgorithm::import_state(const AlgorithmState& state) {
  step_ = state.step;
  bounds_ = state.bounds;
  have_bounds_ = state.have_bounds;
}

RunStats OriginalAlgorithm::run(std::size_t count) {
  RunStats stats;
  util::WallTimer total;
  for (std::size_t local = 0; local < count; ++local, ++step_) {
    sd_step(*sim_, step_, bounds_,
            !have_bounds_ || step_ % bounds_refresh_ == 0, {}, stats);
    have_bounds_ = true;
  }
  stats.seconds_total = total.seconds();
  return stats;
}

CholeskyAlgorithm::CholeskyAlgorithm(SdSimulation& sim, AlgorithmConfig config)
    : sim_(&sim) {
  if (sim.dof() > config.max_dense_dof) {
    throw std::invalid_argument(
        "CholeskyAlgorithm: system too large for the dense O(n^3) path");
  }
}

RunStats CholeskyAlgorithm::run(std::size_t count) {
  RunStats stats;
  const SdConfig& config = sim_->config();
  const std::size_t n = sim_->dof();
  const double dt = sim_->dt();
  const double amplitude = std::sqrt(2.0 * config.kT / dt);
  const double max_step = sim_->max_step_length();

  std::vector<double> z(n), f(n), u(n), u_mid(n);
  util::WallTimer total;

  for (std::size_t local = 0; local < count; ++local, ++step_) {
    OBS_SPAN_VAR(step_span, "step.cholesky");
    step_span.arg("step", static_cast<double>(step_));
    OBS_COUNTER_ADD("stepper.steps", 1);
    StepRecord rec;
    rec.step = step_;

    const sparse::BcrsMatrix& r_k = construct(*sim_, stats);

    // One factorization serves the Brownian force and both solves.
    std::unique_ptr<dense::Cholesky> chol;
    {
      util::ScopedPhase t(stats.timers, phase_direct::kFactor);
      chol = std::make_unique<dense::Cholesky>(r_k.to_dense());
    }

    // f_B = -amplitude * L z: cov(L z) = L L^T = R exactly.
    sim_->noise(step_, z);
    {
      util::ScopedPhase t(stats.timers, phase_direct::kBrownian);
      const dense::Matrix& l = chol->factor();
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        const auto row = l.row(i);
        for (std::size_t j = 0; j <= i; ++j) s += row[j] * z[j];
        f[i] = -amplitude * s;
      }
    }

    // First solve: direct.
    {
      util::ScopedPhase t(stats.timers, phase::kFirstSolve);
      std::copy(f.begin(), f.end(), u.begin());
      chol->solve_in_place(u);
      rec.iters_first_solve = 0;
    }

    // Midpoint solve: iterative refinement with the frozen factor,
    // seeded by u_k (the paper's optimization).
    const auto start = sim_->system().snapshot();
    sim_->system().advance(u, 0.5 * dt, max_step);
    const sparse::BcrsMatrix& r_half = construct(*sim_, stats);
    solver::BcrsOperator op_half(r_half, config.threads);
    u_mid = u;
    {
      util::ScopedPhase t(stats.timers, phase::kSecondSolve);
      const auto result = solver::iterative_refinement(
          op_half, f, u_mid,
          [&](std::span<double> r) { chol->solve_in_place(r); },
          config.solver_tol);
      rec.iters_second_solve = result.iterations;
      stats.solver_status =
          solver::worse_status(stats.solver_status, result.status);
    }
    full_step_from(sim_->system(), start, u_mid, dt, max_step);
    stats.steps.push_back(rec);
  }
  stats.seconds_total = total.seconds();
  return stats;
}

BrownianDynamicsAlgorithm::BrownianDynamicsAlgorithm(SdSimulation& sim,
                                                     AlgorithmConfig config)
    : sim_(&sim),
      bounds_refresh_(config.bounds_refresh == 0 ? 1 : config.bounds_refresh) {
}

AlgorithmState BrownianDynamicsAlgorithm::export_state() const {
  return {step_, bounds_, have_bounds_};
}

void BrownianDynamicsAlgorithm::import_state(const AlgorithmState& state) {
  step_ = state.step;
  bounds_ = state.bounds;
  have_bounds_ = state.have_bounds;
}

RunStats BrownianDynamicsAlgorithm::run(std::size_t count) {
  RunStats stats;
  const SdConfig& config = sim_->config();
  const std::size_t n = sim_->dof();
  const double dt = sim_->dt();
  // dr = sqrt(2 kT dt) * sqrt(M) z gives cov(dr) = 2 kT dt M.
  const double amplitude = std::sqrt(2.0 * config.kT * dt);
  const double max_step = sim_->max_step_length();

  std::vector<double> z(n), dr(n), u(n);
  util::WallTimer total;

  for (std::size_t local = 0; local < count; ++local, ++step_) {
    OBS_SPAN_VAR(step_span, "step.brownian_dynamics");
    step_span.arg("step", static_cast<double>(step_));
    OBS_COUNTER_ADD("stepper.steps", 1);
    StepRecord rec;
    rec.step = step_;

    const sd::RpyMobilityOperator mobility(sim_->system(),
                                           config.viscosity);
    if (!have_bounds_ || step_ % bounds_refresh_ == 0) {
      util::ScopedPhase t(stats.timers, phase::kEigBounds);
      bounds_ = solver::lanczos_bounds(mobility);
      have_bounds_ = true;
    }
    const solver::ChebyshevSqrt cheb(bounds_, config.chebyshev_order);

    sim_->noise(step_, z);
    {
      util::ScopedPhase t(stats.timers, phase::kChebSingle);
      cheb.apply(mobility, z, dr);
    }
    // Convert the displacement into a velocity for the shared advance
    // path (u dt = amplitude * S(M) z).
    const double scale = amplitude / dt;
    for (std::size_t i = 0; i < n; ++i) u[i] = scale * dr[i];
    sim_->system().advance(u, dt, max_step);
    stats.steps.push_back(rec);
  }
  stats.seconds_total = total.seconds();
  return stats;
}

MrhsAlgorithm::MrhsAlgorithm(SdSimulation& sim, AlgorithmConfig config)
    : sim_(&sim),
      rhs_(config.rhs == 0 ? 1 : config.rhs),
      autotune_(config.autotune),
      autotune_max_m_(config.autotune_max_m == 0 ? 1 : config.autotune_max_m) {}

void MrhsAlgorithm::maybe_retune() {
  if (!autotune_) return;
  if (!tuner_.has_value()) {
    // No matrix shape before the first chunk's assembly: the first
    // chunk runs at config.rhs, then the tuner takes over with the
    // model's static pick (crossover_m of the probed B/F).
    if (tuner_nnzb_ == 0) return;
    const perf::MachineParams machine = perf::measure_machine_quick();
    perf::GspmvModel model;
    model.block_rows = static_cast<double>(tuner_block_rows_);
    model.nonzero_blocks = static_cast<double>(tuner_nnzb_);
    model.bandwidth = machine.bandwidth;
    model.flops = machine.flops;
    perf::MTunerOptions topts;
    topts.max_m = autotune_max_m_;
    tuner_.emplace(model, topts);
    rhs_ = tuner_->current_m();
    OBS_GAUGE_SET("mrhs.autotuned_m", static_cast<double>(rhs_));
    return;
  }
  // Online refinement: fold the achieved GB/s since the last boundary
  // into the tuner. Counter deltas only exist when metrics are armed
  // (bench harness, --metrics-out); without them the tuner simply
  // keeps its static model pick.
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    const double bytes = registry.counter("gspmv.bytes")->value();
    const double seconds = registry.counter("gspmv.seconds")->value();
    tuner_->observe_bandwidth(bytes - tuner_bytes_seen_,
                              seconds - tuner_seconds_seen_);
    tuner_bytes_seen_ = bytes;
    tuner_seconds_seen_ = seconds;
  }
  const std::size_t previous = rhs_;
  // Bypass set_rhs: the tuner proposed this value, so it must not be
  // treated as an external imposition (force_current would erase the
  // tracking state the proposal came from).
  rhs_ = tuner_->reselect();
  OBS_GAUGE_SET("mrhs.autotuned_m", static_cast<double>(rhs_));
  if (rhs_ != previous) {
    OBS_COUNTER_ADD("mrhs.retunes", 1);
  }
}

void MrhsAlgorithm::set_horizon(std::size_t total_remaining) {
  horizon_set_ = true;
  horizon_end_ = step_ + total_remaining;
}

MrhsState MrhsAlgorithm::export_state() const {
  MrhsState s;
  s.step = step_;
  s.horizon_set = horizon_set_;
  s.horizon_end = horizon_end_;
  s.chunk_active = chunk_active_;
  s.chunk_start = chunk_start_;
  s.chunk_len = chunk_len_;
  s.chunk_pos = chunk_pos_;
  s.chunk_guesses_ok = chunk_guesses_ok_;
  s.chunk_bounds = chunk_bounds_;
  s.chunk_guesses = chunk_guesses_;
  return s;
}

void MrhsAlgorithm::import_state(MrhsState s) {
  step_ = s.step;
  horizon_set_ = s.horizon_set;
  horizon_end_ = s.horizon_end;
  chunk_active_ = s.chunk_active;
  chunk_start_ = s.chunk_start;
  chunk_len_ = s.chunk_len;
  chunk_pos_ = s.chunk_pos;
  chunk_guesses_ok_ = s.chunk_guesses_ok;
  chunk_bounds_ = s.chunk_bounds;
  chunk_guesses_ = std::move(s.chunk_guesses);
}

RunStats MrhsAlgorithm::run(std::size_t count) {
  RunStats stats;
  util::WallTimer total;
  const std::size_t target = step_ + count;
  while (step_ < target) {
    if (!chunk_active_) {
      begin_chunk(stats, target);
    } else {
      step_in_chunk(stats);
    }
  }
  stats.seconds_total = total.seconds();
  return stats;
}

void MrhsAlgorithm::begin_chunk(RunStats& stats, std::size_t call_end) {
  maybe_retune();
  const SdConfig& config = sim_->config();
  const std::size_t n = sim_->dof();
  chunk_start_ = step_;
  // With a horizon, chunk boundaries depend only on the absolute step
  // index; without one, chunk against the current run() call (legacy).
  const std::size_t end =
      (horizon_set_ && horizon_end_ > step_) ? horizon_end_ : call_end;
  chunk_len_ = std::min(rhs_, end - step_);
  chunk_pos_ = 0;
  const std::size_t m = chunk_len_;
  OBS_SPAN_VAR(chunk_span, "mrhs.chunk");
  chunk_span.arg("m", static_cast<double>(m));
  chunk_span.arg("first_step", static_cast<double>(step_));
  OBS_COUNTER_ADD("stepper.chunks", 1);
  const double dt = sim_->dt();
  const double amplitude = std::sqrt(2.0 * config.kT / dt);

  // Construct R_0 and calibrate the Chebyshev interval on it.
  const sparse::BcrsMatrix& r_0 = construct(*sim_, stats);
  if (autotune_) {
    // Shape for the tuner's GSPMV model; the tuner itself is built
    // lazily at the next boundary so the machine probe never delays
    // the first chunk.
    tuner_block_rows_ = r_0.block_rows();
    tuner_nnzb_ = r_0.nnzb();
  }
  solver::BcrsOperator base_op(r_0, config.threads);
  // Test seam: route block applications through the fault injector so
  // a failed augmented solve can be exercised deterministically.
  std::optional<solver::FaultInjectingOperator> faulty;
  if (fault_plan_.has_value()) faulty.emplace(base_op, *fault_plan_);
  const solver::LinearOperator& op0 =
      faulty.has_value() ? static_cast<const solver::LinearOperator&>(*faulty)
                         : base_op;
  {
    util::ScopedPhase t(stats.timers, phase::kEigBounds);
    chunk_bounds_ = solver::lanczos_bounds(base_op);
  }
  const solver::ChebyshevSqrt cheb(chunk_bounds_, config.chebyshev_order);

  // All m noise vectors for the chunk are available up front: Z.
  sparse::MultiVector z_block(n, m);
  std::vector<double> z(n);
  for (std::size_t k = 0; k < m; ++k) {
    sim_->noise(step_ + k, z);
    z_block.copy_col_in(k, z);
  }

  // F_B = amplitude * S(R_0) Z, computed with block Chebyshev (GSPMV).
  sparse::MultiVector rhs_block(n, m);
  {
    util::ScopedPhase t(stats.timers, phase::kChebVectors);
    cheb.apply_block(op0, z_block, rhs_block);
    rhs_block.scale(-amplitude);
  }

  // Augmented solve R_0 U = F_B (the "Calc guesses" phase). Column 0
  // is the exact step-0 solution; columns 1..m-1 seed the coming
  // steps.
  chunk_guesses_ = sparse::MultiVector(n, m);
  {
    util::ScopedPhase t(stats.timers, phase::kCalcGuesses);
    solver::BlockCgOptions bopts;
    bopts.tol = config.solver_tol;
    bopts.max_iters = config.solver_max_iters;
    const auto result = solver::block_conjugate_gradient(
        op0, rhs_block, chunk_guesses_, bopts);
    stats.block_iterations += result.iterations;
    chunk_guesses_ok_ = result.converged();
    if (!chunk_guesses_ok_) fall_back_to_zero_guesses(chunk_guesses_, stats);
  }

  // Step 0 of the chunk, completed inside begin_chunk so a checkpoint
  // taken between steps only ever needs the guesses and the interval —
  // never R_0 or the rhs block.
  OBS_SPAN_VAR(step_span, "step.sd");
  step_span.arg("step", static_cast<double>(step_));
  OBS_COUNTER_ADD("stepper.steps", 1);
  StepRecord rec;
  rec.step = step_;
  std::vector<double> f(n), u(n);
  rhs_block.copy_col_out(0, f);
  if (chunk_guesses_ok_) {
    // The augmented solve already produced u_0 and f_0.
    chunk_guesses_.copy_col_out(0, u);
    rec.iters_first_solve = 0;
    rec.guess_rel_error = 0.0;
  } else {
    std::fill(u.begin(), u.end(), 0.0);
    util::ScopedPhase t(stats.timers, phase::kFirstSolve);
    const auto result =
        solver::conjugate_gradient(base_op, f, u, cg_options(config));
    rec.iters_first_solve = result.iterations;
    stats.solver_status =
        solver::worse_status(stats.solver_status, result.status);
  }
  midpoint_and_advance(*sim_, stats, rec, f, u);
  ++step_;
  chunk_pos_ = 1;
  chunk_active_ = chunk_pos_ < chunk_len_;
}

void MrhsAlgorithm::step_in_chunk(RunStats& stats) {
  std::vector<double> guess;
  if (chunk_guesses_ok_) {
    guess.resize(sim_->dof());
    chunk_guesses_.copy_col_out(chunk_pos_, guess);
  }
  sd_step(*sim_, step_, chunk_bounds_, false, guess, stats);
  ++step_;
  ++chunk_pos_;
  if (chunk_pos_ >= chunk_len_) chunk_active_ = false;
}

StepRecord sd_step(SdSimulation& sim, std::size_t step,
                   solver::EigBounds& bounds, bool calibrate,
                   std::span<const double> guess, RunStats& stats) {
  const SdConfig& config = sim.config();
  const std::size_t n = sim.dof();
  const double dt = sim.dt();
  const double amplitude = std::sqrt(2.0 * config.kT / dt);

  OBS_SPAN_VAR(step_span, "step.sd");
  step_span.arg("step", static_cast<double>(step));
  OBS_COUNTER_ADD("stepper.steps", 1);
  StepRecord rec;
  rec.step = step;

  const sparse::BcrsMatrix& r_k = construct(sim, stats);
  solver::BcrsOperator op(r_k, config.threads);
  if (calibrate) {
    util::ScopedPhase t(stats.timers, phase::kEigBounds);
    bounds = solver::lanczos_bounds(op);
  }

  // f_k = -amplitude * S(R_k) z_k at the *current* configuration,
  // against the (possibly just recalibrated) Chebyshev interval.
  std::vector<double> z(n), f(n), u(n);
  sim.noise(step, z);
  {
    util::ScopedPhase t(stats.timers, phase::kChebSingle);
    const solver::ChebyshevSqrt cheb_k(bounds, config.chebyshev_order);
    cheb_k.apply(op, z, f);
    for (double& v : f) v *= -amplitude;
  }
  const bool have_guess = !guess.empty();
  if (have_guess) std::copy(guess.begin(), guess.end(), u.begin());
  {
    util::ScopedPhase t(stats.timers, phase::kFirstSolve);
    const auto result = solver::conjugate_gradient(op, f, u,
                                                   cg_options(config));
    rec.iters_first_solve = result.iterations;
    stats.solver_status =
        solver::worse_status(stats.solver_status, result.status);
  }
  if (have_guess) {
    const double u_norm = util::norm2(u);
    rec.guess_rel_error =
        u_norm > 0.0 ? util::diff_norm2(u, guess) / u_norm : 0.0;
    OBS_HISTOGRAM_OBSERVE("mrhs.guess_rel_error", rec.guess_rel_error,
                          obs::exponential_buckets(1e-6, 10.0, 8));
  }
  midpoint_and_advance(sim, stats, rec, f, u);
  return rec;
}

}  // namespace mrhs::core
