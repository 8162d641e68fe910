#include "ensemble/ensemble_runner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "sd/vec3.hpp"
#include "solver/block_cg.hpp"
#include "util/checksum.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace mrhs::ensemble {

namespace {

[[nodiscard]] bool all_finite(const double* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace

EnsembleRunner::EnsembleRunner(const core::SdConfig& base,
                               EnsembleOptions options)
    : base_(base), options_(options) {
  if (options_.rhs == 0) options_.rhs = 1;
  // Pack once; every member adopts this pristine configuration through
  // the restore constructor, so the ensemble shares one t=0 state and
  // the reference operator below is membership-invariant by
  // construction.
  core::SdSimulation base_sim(base_);
  pristine_ = base_sim.system();
  dt0_ = base_sim.dt();
  mean_radius_ = base_sim.mean_radius();
  ref_matrix_ = base_sim.assemble().matrix;
  ref_op_.emplace(ref_matrix_, base_.threads);
  ref_bounds_ = solver::lanczos_bounds(*ref_op_);
  ref_cheb_.emplace(ref_bounds_, base_.chebyshev_order);
}

std::uint64_t EnsembleRunner::add_member(const Scenario& scenario) {
  Member m;
  m.scenario = scenario;
  if (m.scenario.id == 0) {
    m.scenario.id = static_cast<std::uint64_t>(members_.size()) + 1;
  }
  core::SdConfig config = base_;
  config.seed = m.scenario.noise_seed;
  if (m.scenario.kT > 0.0) config.kT = m.scenario.kT;
  // The restore constructor skips packing: the member adopts the
  // shared pristine configuration verbatim, and its config.seed drives
  // only the counter-keyed noise stream.
  m.sim.emplace(config, pristine_, dt0_, mean_radius_);
  // The health monitor is created in run(): it holds a reference to
  // the sim, and members_ may still reallocate while members are being
  // added.
  members_.push_back(std::move(m));
  return members_.back().scenario.id;
}

void EnsembleRunner::begin_member_round(Member& m) {
  m.round_cols = std::min(options_.rhs, m.scenario.steps - m.step);
  m.guesses_ok = false;
  // Snapshot before any assembly: the round's first step assembles and
  // calibrates, and a replay re-runs both from this same engine state.
  m.ladder.open_epoch(m.step, *m.sim);
}

bool EnsembleRunner::contain(Member& m, core::HealthCheck why) {
  m.last_fault = why;
  // Member-only rollback: the ladder restores the round-start snapshot.
  // Healthy members are untouched — their state lives in their own sims.
  const bool replay = m.ladder.strike(*m.sim, m.stats);
  m.step = m.ladder.snapshot_step();
  m.monitor->rebase();
  if (!replay) {
    // The batch continues at K-1; the member is reported with its last
    // good (round-start) state.
    OBS_COUNTER_ADD("ensemble.evictions", 1);
    finalize(m, MemberState::kEvicted);
    return false;
  }
  m.sim->set_dt(m.ladder.rung() == 0 ? dt0_ : 0.5 * dt0_);
  return true;
}

void EnsembleRunner::pack_member_columns(Member& m, sparse::MultiVector& pack,
                                         std::size_t first_col) {
  const std::size_t n = m.sim->dof();
  const std::size_t cols = m.round_cols;
  sparse::MultiVector zm(n, cols);
  std::vector<double> z(n);
  while (m.state == MemberState::kActive) {
    for (std::size_t k = 0; k < cols; ++k) {
      m.sim->noise(m.step + k, z);
      zm.copy_col_in(k, z);
    }
    // Chaos site: one hit per member per pack attempt, so a schedule
    // like `ensemble.member.rhs.nan@2` deterministically poisons the
    // third packed member of the first round.
    MRHS_FAULT_POINT("ensemble.member.rhs.nan", zm.data(), n * cols);
    if (all_finite(zm.data(), n * cols)) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto src = zm.row(i);
        const auto dst = pack.row(i).subspan(first_col, cols);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      return;
    }
    // Pack-stage firewall: the poisoned block never reaches the shared
    // kernel. Contain (and possibly evict) this member alone; the
    // counter-keyed noise regenerates bitwise on retry.
    OBS_COUNTER_ADD("ensemble.rhs_corruptions", 1);
    if (!contain(m, core::HealthCheck::kNonFinite)) break;
  }
  // Evicted mid-pack: leave zeros in the slice. Zero columns are
  // finite, ride the shared apply inertly, and are never read back
  // (the member's guess solve and stepping are skipped).
  for (std::size_t i = 0; i < n; ++i) {
    auto dst = pack.row(i).subspan(first_col, cols);
    std::fill(dst.begin(), dst.end(), 0.0);
  }
}

void EnsembleRunner::solve_member_guesses(Member& m,
                                          const sparse::MultiVector& forces,
                                          std::size_t first_col) {
  const std::size_t n = m.sim->dof();
  const std::size_t cols = m.round_cols;
  // Member amplitude: -sqrt(2 kT_m / dt_m) against the member's
  // *current* dt (a halved-dt member keeps consistent physics).
  const double amplitude =
      std::sqrt(2.0 * m.sim->config().kT / m.sim->dt());
  sparse::MultiVector b(n, cols);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = forces.row(i).subspan(first_col, cols);
    auto dst = b.row(i);
    for (std::size_t j = 0; j < cols; ++j) dst[j] = -amplitude * src[j];
  }
  m.guesses = sparse::MultiVector(n, cols);
  solver::BlockCgOptions bopts;
  bopts.tol = base_.solver_tol;
  bopts.max_iters = base_.solver_max_iters;
  util::ScopedPhase t(m.stats.timers, core::phase::kCalcGuesses);
  const auto result =
      solver::block_conjugate_gradient(*ref_op_, b, m.guesses, bopts);
  m.stats.block_iterations += result.iterations;
  // Guesses are an optimization, never load-bearing: a failed solve
  // (or a non-finite guess, which would poison the member's first
  // solve) drops them, as at an MRHS chunk head.
  m.guesses_ok =
      result.converged() && all_finite(m.guesses.data(), n * cols);
  if (!m.guesses_ok) core::fall_back_to_zero_guesses(m.guesses, m.stats);
}

void EnsembleRunner::step_member(Member& m) {
  const std::size_t n = m.sim->dof();
  std::vector<double> guess;
  std::size_t k = 0;
  while (m.state == MemberState::kActive && k < m.round_cols) {
    std::span<const double> guess_span;
    if (m.guesses_ok) {
      guess.resize(n);
      m.guesses.copy_col_out(k, guess);
      guess_span = guess;
    }
    // The round's first step calibrates the member's interval on its
    // own current matrix; a replay restarts at k = 0 and recalibrates.
    const core::StepRecord rec = core::sd_step(
        *m.sim, m.step, m.round_bounds, k == 0, guess_span, m.stats);
    if (k == 0) m.monitor->set_bounds(m.round_bounds);
    if (post_step_hook_) {
      post_step_hook_(m.scenario.id, m.step, m.sim->system());
    }
    const core::HealthVerdict verdict = m.monitor->check(rec);
    if (verdict.corrupt()) {
      OBS_COUNTER_ADD("ensemble.corrupt_verdicts", 1);
      if (!contain(m, verdict.check)) return;
      // Replay the round from the snapshot. The stashed guesses are
      // finite and deterministic, so a transient fault replays
      // bitwise identically to a round that never faulted.
      k = 0;
      continue;
    }
    ++m.step;
    ++k;
  }
  if (m.state != MemberState::kActive) return;
  // A round without a rollback promotes a halved-dt member back.
  if (m.ladder.close_epoch(m.stats)) m.sim->set_dt(dt0_);
  if (m.step >= m.scenario.steps) finalize(m, MemberState::kCompleted);
}

void EnsembleRunner::finalize(Member& m, MemberState state) {
  m.state = state;
  if (state == MemberState::kCompleted) {
    OBS_COUNTER_ADD("ensemble.completions", 1);
  } else if (state == MemberState::kTimedOut) {
    OBS_COUNTER_ADD("ensemble.timeouts", 1);
  }
}

std::vector<MemberReport> EnsembleRunner::run() {
  std::vector<MemberReport> reports;
  if (ran_) return reports;
  ran_ = true;
  util::WallTimer total;

  for (Member& m : members_) {
    // Membership is frozen now, so sims no longer move; the monitor's
    // reference into its member's sim stays valid for the whole run.
    m.monitor.emplace(*m.sim, options_.health);
    if (m.scenario.steps == 0) finalize(m, MemberState::kCompleted);
  }

  std::size_t prev_active = 0;
  bool have_prev = false;
  while (true) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      Member& m = members_[i];
      if (m.state != MemberState::kActive) continue;
      if (deadline_hook_ && deadline_hook_(m.scenario.id)) {
        finalize(m, MemberState::kTimedOut);
        continue;
      }
      active.push_back(i);
    }
    if (active.empty()) break;
    if (have_prev && active.size() < prev_active) {
      ++repacks_;
      OBS_COUNTER_ADD("ensemble.repacks", 1);
    }
    prev_active = active.size();
    have_prev = true;
    ++rounds_;
    OBS_COUNTER_ADD("ensemble.rounds", 1);
    OBS_SPAN_VAR(round_span, "ensemble.round");
    round_span.arg("members", static_cast<double>(active.size()));

    // 1. Per-member round start (round width, own rollback snapshot).
    std::size_t total_cols = 0;
    for (const std::size_t i : active) {
      begin_member_round(members_[i]);
      total_cols += members_[i].round_cols;
    }
    round_span.arg("columns", static_cast<double>(total_cols));

    // 2. Pack every member's validated noise columns into one block.
    //    The pack-stage firewall contains per-member RHS corruption
    //    here, before anything shared runs. A width-1 pack is padded
    //    with a zero column: GSPMV's m == 1 specialization is a
    //    mul+add SPMV that is not bitwise-consistent with the FMA
    //    paths every m > 1 width shares, and membership invariance
    //    requires every shared apply to stay on the FMA paths.
    const std::size_t n = members_[active.front()].sim->dof();
    if (total_cols == 1) total_cols = 2;
    sparse::MultiVector pack(n, total_cols);
    std::size_t col = 0;
    for (const std::size_t i : active) {
      pack_member_columns(members_[i], pack, col);
      col += members_[i].round_cols;
    }

    // 3. ONE shared block Chebyshev over the fixed reference operator:
    //    the K-way amortized matrix traffic. Per-column independence
    //    of the recurrence + GSPMV makes each member's slice bitwise
    //    independent of its neighbors.
    sparse::MultiVector forces(n, total_cols);
    {
      util::ScopedPhase t(shared_stats_.timers, core::phase::kChebVectors);
      ref_cheb_->apply_block(*ref_op_, pack, forces);
    }
    OBS_COUNTER_ADD("ensemble.columns_packed", static_cast<double>(total_cols));

    // 4. Per-member initial-guess solves against R_ref, then
    //    per-member stepping with health checks and containment.
    col = 0;
    for (const std::size_t i : active) {
      Member& m = members_[i];
      if (m.state == MemberState::kActive) {
        solve_member_guesses(m, forces, col);
      }
      col += m.round_cols;
    }
    for (const std::size_t i : active) {
      Member& m = members_[i];
      if (m.state == MemberState::kActive) step_member(m);
    }
  }
  shared_stats_.seconds_total = total.seconds();

  reports.reserve(members_.size());
  for (Member& m : members_) {
    MemberReport report;
    report.id = m.scenario.id;
    report.state = m.state;
    report.steps_done = m.step;
    report.last_fault = m.last_fault;
    report.msd = m.sim->system().mean_squared_displacement();
    const auto positions = m.sim->system().positions();
    report.positions_crc =
        util::crc32(positions.data(), positions.size() * sizeof(sd::Vec3));
    report.stats = std::move(m.stats);
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace mrhs::ensemble
