#include "core/checkpoint.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "perf/machine.hpp"
#include "util/binary_io.hpp"
#include "util/checksum.hpp"
#include "util/fault_injection.hpp"

namespace mrhs::core {

namespace {

using util::crc32;

constexpr std::array<char, 8> kMagic = {'M', 'R', 'H', 'S',
                                        'C', 'K', 'P', 'T'};

// The binary framing lives in util/binary_io.hpp (shared with the
// ensemble job journal); these aliases keep the serialization helpers
// below reading as before.
using Writer = util::BinaryWriter;
using Reader = util::BinaryReader;

void write_config(Writer& w, const SdConfig& c) {
  w.put_u64(c.particles);
  w.put_f64(c.phi);
  w.put_u64(c.seed);
  w.put_f64(c.kT);
  w.put_f64(c.viscosity);
  w.put_u64(c.chebyshev_order);
  w.put_f64(c.solver_tol);
  w.put_u64(c.solver_max_iters);
  w.put_f64(c.rms_step_fraction);
  w.put_f64(c.max_step_fraction);
  w.put_f64(c.lubrication_cutoff);
  w.put_f64(c.packing_pad);
  w.put_f64(c.assembly_tolerance);
  w.put_u64(static_cast<std::uint64_t>(c.threads));
}

void read_config(Reader& r, SdConfig& c) {
  c.particles = r.get_u64();
  c.phi = r.get_f64();
  c.seed = r.get_u64();
  c.kT = r.get_f64();
  c.viscosity = r.get_f64();
  c.chebyshev_order = r.get_u64();
  c.solver_tol = r.get_f64();
  c.solver_max_iters = r.get_u64();
  c.rms_step_fraction = r.get_f64();
  c.max_step_fraction = r.get_f64();
  c.lubrication_cutoff = r.get_f64();
  c.packing_pad = r.get_f64();
  c.assembly_tolerance = r.get_f64();
  // A count past the cap maps to -1, which check_config_caps rejects.
  const std::uint64_t threads = r.get_u64();
  c.threads =
      threads <= kMaxCheckpointThreads ? static_cast<int>(threads) : -1;
}

[[nodiscard]] Status check_config_caps(const SdConfig& c) {
  if (c.chebyshev_order == 0 ||
      c.chebyshev_order > kMaxCheckpointChebyshevOrder) {
    return Status::corrupt_data("Chebyshev order out of range");
  }
  if (c.threads < 0 ||
      static_cast<std::size_t>(c.threads) > kMaxCheckpointThreads) {
    return Status::corrupt_data("thread count out of range");
  }
  // NaN fails every comparison, so these reject it too; a non-finite
  // reach would size the cell list from garbage.
  if (!(c.assembly_tolerance >= 0.0) || !std::isfinite(c.assembly_tolerance) ||
      !(c.lubrication_cutoff > 0.0) || !std::isfinite(c.lubrication_cutoff)) {
    return Status::corrupt_data("assembly tolerance or lubrication cutoff "
                                "out of range");
  }
  return Status::ok();
}

/// A negative skin silently drops active pairs from the pattern, and a
/// NaN tolerance never recomputes one.
[[nodiscard]] Status check_assembly_state(const sd::AssemblyEngineState& a) {
  if (!(a.tolerance >= 0.0) || !std::isfinite(a.tolerance) ||
      !(a.skin >= 0.0) || !std::isfinite(a.skin)) {
    return Status::corrupt_data("assembly tolerance or skin out of range");
  }
  return Status::ok();
}

void write_vec3s(Writer& w, const std::vector<sd::Vec3>& v) {
  w.put_u64(v.size());
  for (const auto& p : v) {
    w.put_f64(p.x);
    w.put_f64(p.y);
    w.put_f64(p.z);
  }
}

[[nodiscard]] bool read_vec3s(Reader& r, std::vector<sd::Vec3>& v) {
  const std::uint64_t count = r.get_u64();
  if (!r.plausible_count(count, 3 * sizeof(double))) return false;
  v.resize(count);
  for (auto& p : v) {
    p.x = r.get_f64();
    p.y = r.get_f64();
    p.z = r.get_f64();
  }
  return true;
}

std::vector<std::uint8_t> encode_payload(const Checkpoint& ck) {
  Writer w;
  write_config(w, ck.config);
  w.put_f64(ck.dt);
  w.put_f64(ck.mean_radius);
  w.put_f64(ck.box_length);

  const std::uint64_t n = ck.positions.size();
  w.put_u64(n);
  for (const auto& p : ck.positions) {
    w.put_f64(p.x);
    w.put_f64(p.y);
    w.put_f64(p.z);
  }
  for (const auto& p : ck.unwrapped) {
    w.put_f64(p.x);
    w.put_f64(p.y);
    w.put_f64(p.z);
  }
  w.put_doubles(ck.radii.data(), ck.radii.size());

  w.put_u8(static_cast<std::uint8_t>(ck.algorithm));
  w.put_u64(ck.scalar_state.step);
  w.put_f64(ck.scalar_state.bounds.lambda_min);
  w.put_f64(ck.scalar_state.bounds.lambda_max);
  w.put_u8(ck.scalar_state.have_bounds ? 1 : 0);

  const bool has_mrhs = ck.algorithm == CheckpointAlgorithm::kMrhs;
  w.put_u8(has_mrhs ? 1 : 0);
  if (has_mrhs) {
    const MrhsState& s = ck.mrhs_state;
    w.put_u64(ck.mrhs_rhs);
    w.put_u64(s.step);
    w.put_u8(s.horizon_set ? 1 : 0);
    w.put_u64(s.horizon_end);
    w.put_u8(s.chunk_active ? 1 : 0);
    w.put_u64(s.chunk_start);
    w.put_u64(s.chunk_len);
    w.put_u64(s.chunk_pos);
    w.put_u8(s.chunk_guesses_ok ? 1 : 0);
    w.put_f64(s.chunk_bounds.lambda_min);
    w.put_f64(s.chunk_bounds.lambda_max);
    w.put_u64(s.chunk_guesses.rows());
    w.put_u64(s.chunk_guesses.cols());
    w.put_doubles(s.chunk_guesses.data(),
                  s.chunk_guesses.rows() * s.chunk_guesses.cols());
  }

  // v2: cumulative run outcome (worst solver status + resilience
  // counters), so a resumed run reports the whole trajectory.
  w.put_u8(static_cast<std::uint8_t>(ck.stats.solver_status));
  w.put_u64(ck.stats.guess_fallbacks);
  w.put_u64(ck.stats.rollbacks);
  w.put_u64(ck.stats.degradations);
  w.put_u64(ck.stats.recovery_promotions);
  w.put_u8(ck.stats.resilience_gave_up ? 1 : 0);

  // v3: assembly-engine state; v5: pair references in canonical
  // candidate order. Tensors are not stored — import recomputes them
  // from the reference positions bitwise.
  w.put_f64(ck.assembly.tolerance);
  w.put_f64(ck.assembly.skin);
  w.put_u64(ck.assembly.pattern_epoch);
  w.put_u8(ck.assembly.has_pattern ? 1 : 0);
  write_vec3s(w, ck.assembly.pattern_refs);
  write_vec3s(w, ck.assembly.pair_refs);
  return w.bytes();
}

Status decode_payload(const std::uint8_t* data, std::size_t size,
                      Checkpoint& ck) {
  Reader r(data, size);
  read_config(r, ck.config);
  if (Status s = check_config_caps(ck.config); !s.is_ok()) return s;
  ck.dt = r.get_f64();
  ck.mean_radius = r.get_f64();
  ck.box_length = r.get_f64();

  const std::uint64_t n = r.get_u64();
  if (!r.ok() || !r.plausible_count(n, 7 * sizeof(double))) {
    return Status::corrupt_data("implausible particle count");
  }
  ck.positions.resize(n);
  for (auto& p : ck.positions) {
    p.x = r.get_f64();
    p.y = r.get_f64();
    p.z = r.get_f64();
  }
  ck.unwrapped.resize(n);
  for (auto& p : ck.unwrapped) {
    p.x = r.get_f64();
    p.y = r.get_f64();
    p.z = r.get_f64();
  }
  ck.radii.resize(n);
  r.get_doubles(ck.radii.data(), n);

  const std::uint8_t algo = r.get_u8();
  if (algo > static_cast<std::uint8_t>(CheckpointAlgorithm::kMrhs)) {
    return Status::corrupt_data("unknown algorithm tag");
  }
  ck.algorithm = static_cast<CheckpointAlgorithm>(algo);
  ck.scalar_state.step = r.get_u64();
  ck.scalar_state.bounds.lambda_min = r.get_f64();
  ck.scalar_state.bounds.lambda_max = r.get_f64();
  ck.scalar_state.have_bounds = r.get_u8() != 0;

  const bool has_mrhs = r.get_u8() != 0;
  if (has_mrhs) {
    MrhsState& s = ck.mrhs_state;
    ck.mrhs_rhs = r.get_u64();
    s.step = r.get_u64();
    s.horizon_set = r.get_u8() != 0;
    s.horizon_end = r.get_u64();
    s.chunk_active = r.get_u8() != 0;
    s.chunk_start = r.get_u64();
    s.chunk_len = r.get_u64();
    s.chunk_pos = r.get_u64();
    s.chunk_guesses_ok = r.get_u8() != 0;
    s.chunk_bounds.lambda_min = r.get_f64();
    s.chunk_bounds.lambda_max = r.get_f64();
    const std::uint64_t rows = r.get_u64();
    const std::uint64_t cols = r.get_u64();
    if (!r.ok() || cols > rows + 1 ||
        !r.plausible_count(rows * cols, sizeof(double))) {
      return Status::corrupt_data("implausible guess-block shape");
    }
    // A chunk in flight resumes at column chunk_pos of its guesses,
    // one row per degree of freedom.
    if (s.chunk_active &&
        !(0 < s.chunk_pos && s.chunk_pos < s.chunk_len &&
          s.chunk_len == cols && rows == 3 * n)) {
      return Status::corrupt_data("chunk cursor does not fit its guesses");
    }
    s.chunk_guesses = sparse::MultiVector(rows, cols);
    r.get_doubles(s.chunk_guesses.data(), rows * cols);
  }

  const std::uint8_t status = r.get_u8();
  if (status > static_cast<std::uint8_t>(solver::SolveStatus::kRecovered)) {
    return Status::corrupt_data("unknown solver status tag");
  }
  ck.stats.solver_status = static_cast<solver::SolveStatus>(status);
  ck.stats.guess_fallbacks = r.get_u64();
  ck.stats.rollbacks = r.get_u64();
  ck.stats.degradations = r.get_u64();
  ck.stats.recovery_promotions = r.get_u64();
  ck.stats.resilience_gave_up = r.get_u8() != 0;

  ck.assembly.tolerance = r.get_f64();
  ck.assembly.skin = r.get_f64();
  ck.assembly.pattern_epoch = r.get_u64();
  ck.assembly.has_pattern = r.get_u8() != 0;
  if (!read_vec3s(r, ck.assembly.pattern_refs) ||
      !read_vec3s(r, ck.assembly.pair_refs)) {
    return Status::corrupt_data("implausible assembly-state count");
  }
  if (Status s = check_assembly_state(ck.assembly); !s.is_ok()) return s;

  if (!r.ok()) return Status::corrupt_data("payload truncated");
  if (!r.exhausted()) {
    return Status::corrupt_data("payload has trailing bytes");
  }
  return Status::ok();
}

void write_sidecar(const Checkpoint& ck, const std::string& path,
                   std::size_t payload_bytes, std::uint32_t crc) {
  std::ofstream out(path + ".json", std::ios::trunc);
  if (!out) return;  // the sidecar is advisory; the binary is canonical
  out << "{\n"
      << "  \"format\": \"mrhs-checkpoint\",\n"
      << "  \"version\": " << kCheckpointVersion << ",\n"
      << "  \"algorithm\": \"" << to_string(ck.algorithm) << "\",\n"
      << "  \"step\": " << ck.scalar_state.step << ",\n"
      << "  \"particles\": " << ck.positions.size() << ",\n"
      << "  \"seed\": " << ck.config.seed << ",\n"
      << "  \"rhs\": " << ck.mrhs_rhs << ",\n"
      << "  \"chunk_active\": "
      << (ck.mrhs_state.chunk_active ? "true" : "false") << ",\n"
      << "  \"solver_status\": \"" << solver::to_string(ck.stats.solver_status)
      << "\",\n"
      << "  \"guess_fallbacks\": " << ck.stats.guess_fallbacks << ",\n"
      << "  \"rollbacks\": " << ck.stats.rollbacks << ",\n"
      << "  \"degradations\": " << ck.stats.degradations << ",\n"
      << "  \"recovery_promotions\": " << ck.stats.recovery_promotions
      << ",\n"
      << "  \"resilience_gave_up\": "
      << (ck.stats.resilience_gave_up ? "true" : "false") << ",\n"
      << "  \"assembly_tolerance\": " << ck.assembly.tolerance << ",\n"
      << "  \"assembly_pattern_epoch\": " << ck.assembly.pattern_epoch
      << ",\n"
      << "  \"assembly_has_pattern\": "
      << (ck.assembly.has_pattern ? "true" : "false") << ",\n";
  // Machine B/F, if this process probed them: a resume re-installs the
  // values (set_machine_quick) so the autotuner re-seeds from the SAME
  // crossover the original run used, keeping tuned-m trajectories
  // reproducible across restarts. Full precision — these round-trip.
  if (const auto machine = perf::machine_quick_if_probed();
      machine.has_value()) {
    const auto prev = out.precision(17);
    out << "  \"machine_bandwidth\": " << machine->bandwidth << ",\n"
        << "  \"machine_flops\": " << machine->flops << ",\n";
    out.precision(prev);
  }
  out << "  \"payload_bytes\": " << payload_bytes << ",\n"
      << "  \"crc32\": " << crc << "\n"
      << "}\n";
}

Checkpoint capture_common(const SdSimulation& sim) {
  Checkpoint ck;
  ck.config = sim.config();
  ck.dt = sim.dt();
  ck.mean_radius = sim.mean_radius();
  ck.box_length = sim.system().box().length();
  SdSimulation::State state = sim.state();
  ck.positions = std::move(state.system.positions);
  ck.unwrapped = std::move(state.system.unwrapped);
  ck.radii.assign(sim.system().radii().begin(), sim.system().radii().end());
  ck.assembly = std::move(state.assembly);
  return ck;
}

}  // namespace

Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const MrhsAlgorithm& alg) {
  Checkpoint ck = capture_common(sim);
  ck.algorithm = CheckpointAlgorithm::kMrhs;
  ck.mrhs_rhs = alg.rhs();
  ck.mrhs_state = alg.export_state();
  ck.scalar_state.step = ck.mrhs_state.step;
  return ck;
}

Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const OriginalAlgorithm& alg) {
  Checkpoint ck = capture_common(sim);
  ck.algorithm = CheckpointAlgorithm::kOriginal;
  ck.scalar_state = alg.export_state();
  return ck;
}

Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const BrownianDynamicsAlgorithm& alg) {
  Checkpoint ck = capture_common(sim);
  ck.algorithm = CheckpointAlgorithm::kBrownianDynamics;
  ck.scalar_state = alg.export_state();
  return ck;
}

Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const CholeskyAlgorithm& alg) {
  Checkpoint ck = capture_common(sim);
  ck.algorithm = CheckpointAlgorithm::kCholesky;
  ck.scalar_state = alg.export_state();
  return ck;
}

Status save_checkpoint(const Checkpoint& ck, const std::string& path) {
  if (path.empty()) {
    return Status::invalid_argument("checkpoint path is empty");
  }
  if (ck.positions.size() != ck.radii.size() ||
      ck.positions.size() != ck.unwrapped.size()) {
    return Status::invalid_argument(
        "checkpoint state arrays have mismatched sizes");
  }
  OBS_SPAN_VAR(span, "checkpoint.save");
  const std::vector<std::uint8_t> payload = encode_payload(ck);
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  span.arg("bytes", static_cast<double>(payload.size()));

  Writer header;
  for (char c : kMagic) header.put_u8(static_cast<std::uint8_t>(c));
  header.put_u32(kCheckpointVersion);
  header.put_u64(payload.size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::io_error("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(header.bytes().data()),
            static_cast<std::streamsize>(header.bytes().size()));
  // Chaos site: a torn write (full disk, power loss, killed process)
  // that the writing process never notices. The load-side defenses —
  // payload-size check and CRC trailer — are what must catch it.
  if (MRHS_FAULT_FIRED("checkpoint.write.truncate")) {
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size() / 2));
    out.flush();
    OBS_COUNTER_ADD("checkpoint.saves", 1);
    return Status::ok();
  }
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  Writer trailer;
  trailer.put_u32(crc);
  out.write(reinterpret_cast<const char*>(trailer.bytes().data()), 4);
  out.flush();
  if (!out) {
    return Status::io_error("short write: " + path);
  }
  write_sidecar(ck, path, payload.size(), crc);
  OBS_COUNTER_ADD("checkpoint.saves", 1);
  return Status::ok();
}

Status load_checkpoint(const std::string& path, Checkpoint& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::io_error("cannot open: " + path);
  }
  std::vector<std::uint8_t> file(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::io_error("read failed: " + path);
  }

  constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
  if (file.size() < kHeaderBytes + 4) {
    return Status::corrupt_data("file too short to be a checkpoint");
  }
  if (std::memcmp(file.data(), kMagic.data(), kMagic.size()) != 0) {
    return Status::corrupt_data("bad magic (not a checkpoint file)");
  }
  Reader header(file.data() + kMagic.size(), kHeaderBytes - kMagic.size());
  const std::uint32_t version = header.get_u32();
  const std::uint64_t payload_size = header.get_u64();
  if (version != kCheckpointVersion) {
    std::ostringstream msg;
    msg << "checkpoint version " << version << ", expected "
        << kCheckpointVersion;
    return Status::version_mismatch(msg.str());
  }
  if (payload_size != file.size() - kHeaderBytes - 4) {
    return Status::corrupt_data("truncated payload");
  }

  const std::uint8_t* payload = file.data() + kHeaderBytes;
  Reader trailer(payload + payload_size, 4);
  const std::uint32_t stored_crc = trailer.get_u32();
  const std::uint32_t actual_crc = crc32(payload, payload_size);
  if (stored_crc != actual_crc) {
    return Status::corrupt_data("CRC mismatch (file corrupted)");
  }

  Checkpoint ck;
  if (Status s = decode_payload(payload, payload_size, ck); !s.is_ok()) {
    return s;
  }
  OBS_COUNTER_ADD("checkpoint.loads", 1);
  out = std::move(ck);
  return Status::ok();
}

Status load_machine_sidecar(const std::string& path,
                            perf::MachineParams& out) {
  std::ifstream in(path + ".json");
  if (!in) {
    return Status::io_error("cannot open sidecar: " + path + ".json");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // The sidecar is our own flat JSON (write_sidecar above): one
  // "key": value pair per line, no nesting — a key scan is exact
  // for this grammar and avoids dragging in a JSON parser.
  const auto parse_key = [&text](const char* key, double& value) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos) return false;
    const char* start = text.c_str() + pos + needle.size();
    char* end = nullptr;
    const double parsed = std::strtod(start, &end);
    if (end == start || !std::isfinite(parsed) || parsed <= 0.0) return false;
    value = parsed;
    return true;
  };
  perf::MachineParams params;
  if (!parse_key("machine_bandwidth", params.bandwidth) ||
      !parse_key("machine_flops", params.flops)) {
    return Status::corrupt_data(
        "sidecar has no machine_bandwidth/machine_flops (pre-dispatch "
        "checkpoint, or the saving process never probed)");
  }
  out = params;
  return Status::ok();
}

Status restore_simulation(const Checkpoint& ck,
                          std::optional<SdSimulation>& sim) {
  if (Status s = check_config_caps(ck.config); !s.is_ok()) return s;
  if (Status s = check_assembly_state(ck.assembly); !s.is_ok()) return s;
  if (ck.positions.size() != ck.radii.size() ||
      ck.positions.size() != ck.unwrapped.size()) {
    return Status::corrupt_data("state arrays have mismatched sizes");
  }
  if (ck.positions.size() != ck.config.particles) {
    return Status::corrupt_data(
        "particle count does not match the stored config");
  }
  if (!(ck.dt > 0.0) || !(ck.box_length > 0.0) || !(ck.mean_radius > 0.0)) {
    return Status::corrupt_data("non-positive dt, box, or mean radius");
  }
  // The cell grid sizes itself from the box and bins particles by
  // position: both must be finite, and every radius a real size.
  if (!std::isfinite(ck.box_length)) {
    return Status::corrupt_data("non-finite box length");
  }
  for (std::size_t i = 0; i < ck.radii.size(); ++i) {
    if (!std::isfinite(ck.radii[i]) || !(ck.radii[i] > 0.0)) {
      return Status::corrupt_data("radius " + std::to_string(i) +
                                  " is not finite and positive");
    }
    const sd::Vec3& p = ck.positions[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return Status::corrupt_data("position " + std::to_string(i) +
                                  " is not finite");
    }
  }
  sim.emplace(ck.config,
              sd::ParticleSystem(ck.positions, ck.radii,
                                 sd::PeriodicBox(ck.box_length)),
              ck.dt, ck.mean_radius);
  sim->restore({{ck.positions, ck.unwrapped}, ck.assembly});
  return Status::ok();
}

}  // namespace mrhs::core
