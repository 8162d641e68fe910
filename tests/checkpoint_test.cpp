// Checkpoint/restart tests: bitwise-identical resumed trajectories,
// binary-format validation (corruption, truncation, version skew), and
// state round-trips for the auxiliary solver caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/sd_simulation.hpp"
#include "core/status.hpp"
#include "core/stepper.hpp"
#include "solver/reusable_preconditioner.hpp"
#include "sparse/bcrs.hpp"
#include "util/checksum.hpp"

namespace {

using namespace mrhs;

core::SdConfig small_config(std::size_t particles = 80,
                            std::uint64_t seed = 11) {
  core::SdConfig config;
  config.particles = particles;
  config.phi = 0.35;
  config.seed = seed;
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Little-endian field access into a raw checkpoint image.
std::uint64_t get_le(const std::vector<char>& bytes, std::size_t offset,
                     std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
             << (8 * i);
  }
  return value;
}

void put_le(std::vector<char>& bytes, std::size_t offset, std::uint64_t value,
            std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

/// Write `pristine` with one 8-byte field replaced and the payload CRC
/// resealed, load it back, and return the status code.
core::StatusCode load_patched(const std::vector<char>& pristine,
                              const std::string& path, std::size_t offset,
                              std::uint64_t value) {
  constexpr std::size_t kHeader = 20;  // magic, u32 version, u64 size
  auto bytes = pristine;
  put_le(bytes, offset, value, 8);
  const std::size_t payload = bytes.size() - kHeader - 4;
  put_le(bytes, kHeader + payload,
         util::crc32(bytes.data() + kHeader, payload), 4);
  write_file(path, bytes);
  core::Checkpoint loaded;
  return core::load_checkpoint(path, loaded).code();
}

void expect_bitwise_equal_positions(const core::SdSimulation& a,
                                    const core::SdSimulation& b) {
  ASSERT_EQ(a.system().size(), b.system().size());
  const auto pa = a.system().positions();
  const auto pb = b.system().positions();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    // Exact double equality: resume must reproduce the uninterrupted
    // trajectory bit for bit, not merely to solver tolerance.
    ASSERT_EQ(pa[i].x, pb[i].x) << "particle " << i;
    ASSERT_EQ(pa[i].y, pb[i].y) << "particle " << i;
    ASSERT_EQ(pa[i].z, pb[i].z) << "particle " << i;
  }
}

// --- bitwise kill-and-resume -------------------------------------------

TEST(CheckpointResume, MrhsMidChunkResumeIsBitwise) {
  const auto config = small_config();
  constexpr std::size_t kTotal = 10;
  constexpr std::size_t kRhs = 4;
  constexpr std::size_t kStopAfter = 6;  // lands mid-chunk ([4,8) pos 2)

  // Straight run: 10 steps in one go under a 10-step horizon.
  core::SdSimulation straight(config);
  core::MrhsAlgorithm straight_alg(straight, {.rhs = kRhs});
  straight_alg.set_horizon(kTotal);
  (void)straight_alg.run(kTotal);

  // Interrupted run: 6 steps, checkpoint to disk, fresh objects
  // restored from the file, 4 more steps.
  core::SdSimulation first(config);
  core::MrhsAlgorithm first_alg(first, {.rhs = kRhs});
  first_alg.set_horizon(kTotal);
  (void)first_alg.run(kStopAfter);
  const std::string path = temp_path("mrhs_midchunk.ckpt");
  const auto ck = core::capture_checkpoint(first, first_alg);
  ASSERT_TRUE(core::save_checkpoint(ck, path).is_ok());

  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());
  EXPECT_EQ(loaded.algorithm, core::CheckpointAlgorithm::kMrhs);
  EXPECT_EQ(loaded.mrhs_state.step, kStopAfter);
  EXPECT_TRUE(loaded.mrhs_state.chunk_active);

  std::optional<core::SdSimulation> resumed;
  ASSERT_TRUE(core::restore_simulation(loaded, resumed).is_ok());
  core::MrhsAlgorithm resumed_alg(*resumed, {.rhs = loaded.mrhs_rhs});
  resumed_alg.import_state(loaded.mrhs_state);
  EXPECT_EQ(resumed_alg.current_step(), kStopAfter);
  (void)resumed_alg.run(kTotal - kStopAfter);

  EXPECT_EQ(resumed_alg.current_step(), kTotal);
  expect_bitwise_equal_positions(straight, *resumed);
}

TEST(CheckpointResume, OriginalAlgorithmResumeIsBitwise) {
  const auto config = small_config(60, 3);
  constexpr std::size_t kTotal = 6;
  constexpr std::size_t kStopAfter = 3;

  core::SdSimulation straight(config);
  core::OriginalAlgorithm straight_alg(straight);
  (void)straight_alg.run(kTotal);

  core::SdSimulation first(config);
  core::OriginalAlgorithm first_alg(first);
  (void)first_alg.run(kStopAfter);
  const std::string path = temp_path("original.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(first, first_alg), path)
          .is_ok());

  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());
  EXPECT_EQ(loaded.algorithm, core::CheckpointAlgorithm::kOriginal);
  // The Lanczos interval cache must survive the round trip — without
  // it the resumed run would recalibrate at the wrong step.
  EXPECT_TRUE(loaded.scalar_state.have_bounds);

  std::optional<core::SdSimulation> resumed;
  ASSERT_TRUE(core::restore_simulation(loaded, resumed).is_ok());
  core::OriginalAlgorithm resumed_alg(*resumed);
  resumed_alg.import_state(loaded.scalar_state);
  (void)resumed_alg.run(kTotal - kStopAfter);

  expect_bitwise_equal_positions(straight, *resumed);
}

TEST(CheckpointResume, HorizonMakesSplitRunsMatchStraightRuns) {
  // Same process, no disk: run(3)+run(7) under a horizon must chunk
  // exactly like run(10) — the property the resume path relies on.
  const auto config = small_config(50, 7);
  core::SdSimulation a(config);
  core::MrhsAlgorithm alg_a(a, {.rhs = 4});
  alg_a.set_horizon(10);
  (void)alg_a.run(10);

  core::SdSimulation b(config);
  core::MrhsAlgorithm alg_b(b, {.rhs = 4});
  alg_b.set_horizon(10);
  (void)alg_b.run(3);
  (void)alg_b.run(7);

  expect_bitwise_equal_positions(a, b);
}

// --- round trip & validation -------------------------------------------

TEST(CheckpointFormat, RoundTripPreservesEveryField) {
  const auto config = small_config(40, 9);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 3});
  alg.set_horizon(7);
  (void)alg.run(4);  // leaves a chunk in flight (chunk [3,6) pos 1)

  const auto ck = core::capture_checkpoint(sim, alg);
  const std::string path = temp_path("roundtrip.ckpt");
  ASSERT_TRUE(core::save_checkpoint(ck, path).is_ok());
  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());

  EXPECT_EQ(loaded.config.particles, config.particles);
  EXPECT_EQ(loaded.config.seed, config.seed);
  EXPECT_EQ(loaded.dt, sim.dt());
  EXPECT_EQ(loaded.mean_radius, sim.mean_radius());
  EXPECT_EQ(loaded.box_length, sim.system().box().length());
  EXPECT_EQ(loaded.mrhs_rhs, 3u);
  EXPECT_EQ(loaded.mrhs_state.step, 4u);
  EXPECT_EQ(loaded.mrhs_state.horizon_end, 7u);
  EXPECT_TRUE(loaded.mrhs_state.horizon_set);
  EXPECT_EQ(loaded.mrhs_state.chunk_start, ck.mrhs_state.chunk_start);
  EXPECT_EQ(loaded.mrhs_state.chunk_pos, ck.mrhs_state.chunk_pos);
  EXPECT_EQ(loaded.mrhs_state.chunk_guesses_ok,
            ck.mrhs_state.chunk_guesses_ok);
  ASSERT_EQ(loaded.mrhs_state.chunk_guesses.rows(),
            ck.mrhs_state.chunk_guesses.rows());
  ASSERT_EQ(loaded.mrhs_state.chunk_guesses.cols(),
            ck.mrhs_state.chunk_guesses.cols());
  const std::size_t total = loaded.mrhs_state.chunk_guesses.rows() *
                            loaded.mrhs_state.chunk_guesses.cols();
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(loaded.mrhs_state.chunk_guesses.data()[i],
              ck.mrhs_state.chunk_guesses.data()[i]);
  }
  for (std::size_t i = 0; i < loaded.positions.size(); ++i) {
    EXPECT_EQ(loaded.positions[i].x, ck.positions[i].x);
    EXPECT_EQ(loaded.unwrapped[i].x, ck.unwrapped[i].x);
    EXPECT_EQ(loaded.radii[i], ck.radii[i]);
  }
  // The JSON sidecar exists next to the binary.
  EXPECT_FALSE(read_file(path + ".json").empty());
}

TEST(CheckpointFormat, CorruptedPayloadIsRejected) {
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("corrupt.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());

  auto bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit
  write_file(path, bytes);

  core::Checkpoint loaded;
  const core::Status s = core::load_checkpoint(path, loaded);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), core::StatusCode::kCorruptData);
}

TEST(CheckpointFormat, TruncatedFileIsRejected) {
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("truncated.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());

  auto bytes = read_file(path);
  bytes.resize(bytes.size() / 2);
  write_file(path, bytes);

  core::Checkpoint loaded;
  const core::Status s = core::load_checkpoint(path, loaded);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), core::StatusCode::kCorruptData);
}

TEST(CheckpointFormat, WrongVersionIsRejected) {
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("version.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());

  const auto pristine = read_file(path);
  // 4: the format before pair references took the canonical order.
  for (const char version : {char{99}, char{4}}) {
    auto bytes = pristine;
    bytes[8] = version;  // version field sits right after the 8-byte magic
    write_file(path, bytes);

    core::Checkpoint loaded;
    const core::Status s = core::load_checkpoint(path, loaded);
    EXPECT_FALSE(s.is_ok()) << "version " << int{version};
    EXPECT_EQ(s.code(), core::StatusCode::kVersionMismatch)
        << "version " << int{version};
  }
}

// A CRC-valid file can still carry a config that would size the
// Chebyshev polynomial or the worker pool absurdly on resume. Patch one
// field, re-seal the CRC, and expect a typed rejection, not a crash.
TEST(CheckpointFormat, OutOfRangeConfigIsRejected) {
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("limits.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());
  const auto pristine = read_file(path);

  // Header: 8-byte magic, u32 version, u64 payload size. The payload
  // opens with the config, eight bytes per field: chebyshev_order is
  // the 6th field and threads the 14th.
  constexpr std::size_t kHeader = 20;
  constexpr std::size_t kOrder = kHeader + 5 * 8;
  constexpr std::size_t kThreads = kHeader + 13 * 8;
  ASSERT_EQ(get_le(pristine, kOrder, 8), config.chebyshev_order);
  ASSERT_EQ(get_le(pristine, kThreads, 8), 0u);

  const struct {
    std::size_t offset;
    std::uint64_t value;
  } patches[] = {{kOrder, 0},
                 {kOrder, std::uint64_t{1} << 40},
                 {kThreads, 1000000}};
  for (const auto& patch : patches) {
    EXPECT_EQ(load_patched(pristine, path, patch.offset, patch.value),
              core::StatusCode::kCorruptData)
        << "offset " << patch.offset << " value " << patch.value;
  }
}

TEST(CheckpointFormat, BadAssemblyFieldsAreRejected) {
  // A NaN skin or reach used to abort in the cell-list sizing, a
  // negative skin silently dropped active pairs, and a NaN tolerance
  // never recomputed one.
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("assembly_fields.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());
  const auto pristine = read_file(path);

  // Config fields 11 (lubrication_cutoff) and 13 (assembly_tolerance).
  // The payload ends with the assembly state: f64 tolerance, f64 skin,
  // u64 epoch, u8 has_pattern, then two u64 counts, both 0 without a
  // pattern; the u32 CRC follows.
  constexpr std::size_t kHeader = 20;
  constexpr std::size_t kCutoff = kHeader + 10 * 8;
  constexpr std::size_t kConfigTolerance = kHeader + 12 * 8;
  const std::size_t kTolerance = pristine.size() - 4 - 41;
  const std::size_t kSkin = kTolerance + 8;
  ASSERT_EQ(get_le(pristine, kCutoff, 8),
            std::bit_cast<std::uint64_t>(config.lubrication_cutoff));
  ASSERT_EQ(get_le(pristine, kConfigTolerance, 8), 0u);
  ASSERT_EQ(get_le(pristine, kTolerance, 8), 0u);
  ASSERT_EQ(get_le(pristine, kSkin, 8), 0u);
  ASSERT_EQ(get_le(pristine, kSkin + 16, 1), 0u);  // has_pattern

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t offset :
       {kCutoff, kConfigTolerance, kTolerance, kSkin}) {
    for (const double value : {nan, inf, -1.0}) {
      EXPECT_EQ(load_patched(pristine, path, offset,
                             std::bit_cast<std::uint64_t>(value)),
                core::StatusCode::kCorruptData)
          << "offset " << offset << " value " << value;
    }
  }
  EXPECT_EQ(load_patched(pristine, path, kCutoff, 0u),
            core::StatusCode::kCorruptData);
  // The same fields with legal values still load.
  EXPECT_EQ(load_patched(pristine, path, kSkin,
                         std::bit_cast<std::uint64_t>(0.25)),
            core::StatusCode::kOk);
}

// A chunk in flight resumes at column chunk_pos of its guess block; a
// CRC-valid file whose cursor does not fit that block must be a typed
// rejection, not a crash on resume.
TEST(CheckpointFormat, ChunkCursorMustFitGuesses) {
  core::SdSimulation sim(small_config(30, 13));
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  alg.set_horizon(12);
  (void)alg.run(5);  // mid-chunk: start 4, length 4, position 1
  const std::string path = temp_path("cursor.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());
  const auto pristine = read_file(path);
  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());

  // Find the cursor: u8 chunk_active = 1, then u64 chunk_start,
  // chunk_len and chunk_pos.
  std::vector<char> cursor(25, 0);
  cursor[0] = 1;
  put_le(cursor, 1, 4, 8);
  put_le(cursor, 9, 4, 8);
  put_le(cursor, 17, 1, 8);
  std::size_t at = 0;
  std::size_t matches = 0;
  for (std::size_t k = 0; k + cursor.size() <= pristine.size(); ++k) {
    if (std::equal(cursor.begin(), cursor.end(), pristine.begin() + k)) {
      at = k;
      ++matches;
    }
  }
  ASSERT_EQ(matches, 1u);
  const std::size_t len_at = at + 9;
  const std::size_t pos_at = at + 17;

  constexpr std::size_t kHeader = 20;
  const struct {
    std::size_t offset;
    std::uint64_t value;
  } patches[] = {{pos_at, 0}, {pos_at, 4}, {pos_at, 7}, {len_at, 9}};
  for (const auto& patch : patches) {
    auto bytes = pristine;
    put_le(bytes, patch.offset, patch.value, 8);
    const std::size_t payload = bytes.size() - kHeader - 4;
    put_le(bytes, kHeader + payload,
           util::crc32(bytes.data() + kHeader, payload), 4);
    write_file(path, bytes);
    const core::Status s = core::load_checkpoint(path, loaded);
    EXPECT_EQ(s.code(), core::StatusCode::kCorruptData)
        << "offset " << patch.offset << " value " << patch.value;
  }
}

// A CRC-valid file can carry geometry the cell grid cannot bin: a box
// or a position that is not finite, or a radius that is NaN or not
// positive. Restore refuses it. A finite but huge box restores, and its
// first assembly searches on a grid capped at
// CellList::kMaxCellsPerSide cells per side.
TEST(CheckpointFormat, AbsurdGeometryIsRefusedOnRestore) {
  const auto config = small_config(30, 13);
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  const std::string path = temp_path("geometry.ckpt");
  ASSERT_TRUE(
      core::save_checkpoint(core::capture_checkpoint(sim, alg), path)
          .is_ok());
  const auto pristine = read_file(path);

  // After the 14 config fields: f64 dt, f64 mean_radius, f64 box, u64
  // count, then n positions and n unwrapped positions (3 f64 each) and
  // n radii.
  constexpr std::size_t kHeader = 20;
  constexpr std::size_t kBox = kHeader + 16 * 8;
  constexpr std::size_t kPositions = kBox + 16;
  const std::size_t n = config.particles;
  const std::size_t kRadius = kPositions + 2 * 3 * 8 * n + 7 * 8;
  ASSERT_EQ(get_le(pristine, kBox, 8),
            std::bit_cast<std::uint64_t>(sim.system().box().length()));
  ASSERT_EQ(get_le(pristine, kRadius, 8),
            std::bit_cast<std::uint64_t>(sim.system().radii()[7]));

  auto restore_patched = [&](std::size_t offset, double value,
                             std::optional<core::SdSimulation>& restored) {
    auto bytes = pristine;
    put_le(bytes, offset, std::bit_cast<std::uint64_t>(value), 8);
    const std::size_t payload = bytes.size() - kHeader - 4;
    put_le(bytes, kHeader + payload,
           util::crc32(bytes.data() + kHeader, payload), 4);
    write_file(path, bytes);
    core::Checkpoint loaded;
    if (core::Status s = core::load_checkpoint(path, loaded); !s.is_ok()) {
      return s.code();
    }
    return core::restore_simulation(loaded, restored).code();
  };

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    std::size_t offset;
    double value;
  } patches[] = {{kBox, inf},           {kRadius, nan},
                 {kRadius, -1.0},       {kRadius, 0.0},
                 {kRadius, inf},        {kPositions, inf},
                 {kPositions + 8, nan}, {kPositions + 24 * (n - 1) + 16, -inf}};
  for (const auto& patch : patches) {
    std::optional<core::SdSimulation> restored;
    EXPECT_EQ(restore_patched(patch.offset, patch.value, restored),
              core::StatusCode::kCorruptData)
        << "offset " << patch.offset << " value " << patch.value;
    EXPECT_FALSE(restored.has_value());
  }

  std::optional<core::SdSimulation> huge;
  ASSERT_EQ(restore_patched(kBox, 1e300, huge), core::StatusCode::kOk);
  const auto assembled = huge->assemble();
  EXPECT_EQ(assembled.matrix.rows(), 3 * n);
}

// The same caps guard an in-memory checkpoint handed to restore.
TEST(CheckpointFormat, OutOfRangeConfigIsRefusedOnRestore) {
  core::SdSimulation sim(small_config(30, 13));
  core::MrhsAlgorithm alg(sim, {.rhs = 2});
  auto ck = core::capture_checkpoint(sim, alg);
  ck.config.threads = static_cast<int>(core::kMaxCheckpointThreads) + 1;
  std::optional<core::SdSimulation> restored;
  EXPECT_EQ(core::restore_simulation(ck, restored).code(),
            core::StatusCode::kCorruptData);
  EXPECT_FALSE(restored.has_value());
}

TEST(CheckpointFormat, NotACheckpointFileIsRejected) {
  const std::string path = temp_path("garbage.ckpt");
  write_file(path, std::vector<char>(256, 'x'));
  core::Checkpoint loaded;
  const core::Status s = core::load_checkpoint(path, loaded);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), core::StatusCode::kCorruptData);
}

TEST(CheckpointFormat, MissingFileIsIoError) {
  core::Checkpoint loaded;
  const core::Status s =
      core::load_checkpoint(temp_path("does_not_exist.ckpt"), loaded);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), core::StatusCode::kIoError);
}

TEST(CheckpointFormat, StatusMessagesAreDescriptive) {
  core::Checkpoint loaded;
  const core::Status s =
      core::load_checkpoint(temp_path("nope.ckpt"), loaded);
  EXPECT_NE(s.to_string().find("io_error"), std::string::npos);
  EXPECT_TRUE(core::Status::ok().is_ok());
  EXPECT_EQ(core::Status::ok().to_string(), "ok");
}

// --- auxiliary solver-state round trips --------------------------------

TEST(CheckpointState, ReusablePreconditionerStateRoundTrips) {
  const auto a = sparse::make_random_bcrs(20, 6.0, 3);
  solver::ReusablePreconditioner pre(1.5);
  (void)pre.get(a);
  pre.report(10);  // baseline
  pre.report(12);  // within budget
  const auto state = pre.export_state();
  EXPECT_TRUE(state.have_baseline);
  EXPECT_EQ(state.baseline_iterations, 10u);
  EXPECT_EQ(state.rebuilds, 1u);

  solver::ReusablePreconditioner restored;
  restored.import_state(state);
  // Restoring schedules one rebuild (the factor is not serialized)...
  EXPECT_TRUE(restored.rebuild_pending());
  (void)restored.get(a);
  EXPECT_EQ(restored.rebuilds(), 2u);
  // ...and the degradation policy picks up where it left off.
  restored.report(11);
  EXPECT_FALSE(restored.rebuild_pending());
  restored.report(100);
  EXPECT_TRUE(restored.rebuild_pending());
}

TEST(CheckpointState, CholeskyAlgorithmStateCarriesCursor) {
  const auto config = small_config(30, 21);
  core::SdSimulation sim(config);
  core::CholeskyAlgorithm alg(sim);
  (void)alg.run(2);
  const auto state = alg.export_state();
  EXPECT_EQ(state.step, 2u);

  core::SdSimulation sim2(config);
  core::CholeskyAlgorithm alg2(sim2);
  alg2.import_state(state);
  EXPECT_EQ(alg2.current_step(), 2u);
}

}  // namespace
