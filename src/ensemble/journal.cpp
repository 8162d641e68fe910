#include "ensemble/journal.hpp"

#include <unistd.h>

#include <array>
#include <cstring>
#include <fstream>

#include "obs/obs.hpp"
#include "util/binary_io.hpp"
#include "util/checksum.hpp"
#include "util/fault_injection.hpp"

namespace mrhs::ensemble {

namespace {

constexpr std::array<char, 8> kMagic = {'M', 'R', 'H', 'S',
                                        'J', 'R', 'N', 'L'};

enum : std::uint8_t {
  kRecordSubmit = 1,
  kRecordRetry = 2,
  kRecordFinal = 3,
};

void write_spec(util::BinaryWriter& w, const JobSpec& spec) {
  w.put_u64(spec.noise_seed);
  w.put_u64(spec.steps);
  w.put_f64(spec.kT);
  w.put_f64(spec.deadline_seconds);
  w.put_u32(spec.max_attempts);
}

void read_spec(util::BinaryReader& r, JobSpec& spec) {
  spec.noise_seed = r.get_u64();
  spec.steps = r.get_u64();
  spec.kT = r.get_f64();
  spec.deadline_seconds = r.get_f64();
  spec.max_attempts = r.get_u32();
}

void write_result(util::BinaryWriter& w, const JobResult& result) {
  w.put_u64(result.id);
  w.put_u8(static_cast<std::uint8_t>(result.state));
  w.put_u64(result.steps_done);
  w.put_u32(result.rollbacks);
  w.put_u32(result.attempts);
  w.put_f64(result.msd);
  w.put_u32(result.positions_crc);
}

void read_result(util::BinaryReader& r, JobResult& result) {
  result.id = r.get_u64();
  result.state = static_cast<JobState>(r.get_u8());
  result.steps_done = r.get_u64();
  result.rollbacks = r.get_u32();
  result.attempts = r.get_u32();
  result.msd = r.get_f64();
  result.positions_crc = r.get_u32();
}

}  // namespace

JobJournal::~JobJournal() { close(); }

core::Status JobJournal::open(const std::string& path) {
  close();
  // "a" keeps every write at end-of-file even if the file grew behind
  // our back; the header goes in only when the file is new or empty.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return core::Status::io_error("journal: cannot open " + path);
  }
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size == 0) {
    util::BinaryWriter header;
    for (const char c : kMagic) {
      header.put_u8(static_cast<std::uint8_t>(c));
    }
    header.put_u32(kJournalVersion);
    if (std::fwrite(header.bytes().data(), 1, header.bytes().size(), f) !=
            header.bytes().size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      return core::Status::io_error("journal: cannot write header to " +
                                    path);
    }
  } else if (size < 0) {
    std::fclose(f);
    return core::Status::io_error("journal: cannot stat " + path);
  }
  file_ = f;
  path_ = path;
  return core::Status::ok();
}

void JobJournal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

core::Status JobJournal::append_record(
    std::uint8_t type, const std::vector<std::uint8_t>& payload) {
  if (file_ == nullptr) {
    return core::Status::invalid_argument("journal: append before open");
  }
  util::BinaryWriter frame;
  frame.put_u8(type);
  frame.put_u32(static_cast<std::uint32_t>(payload.size()));
  for (const std::uint8_t b : payload) frame.put_u8(b);
  std::uint32_t crc = util::crc32_init();
  crc = util::crc32_update(crc, &type, 1);
  crc = util::crc32_update(crc, payload.data(), payload.size());
  frame.put_u32(util::crc32_final(crc));

  std::size_t bytes = frame.bytes().size();
  // Chaos site: a crash between write and flush leaves half a record
  // on disk. The CRC frame turns that into a detectable torn tail.
  if (MRHS_FAULT_FIRED("ensemble.journal.torn")) {
    bytes /= 2;
    static_cast<void>(std::fwrite(frame.bytes().data(), 1, bytes, file_));
    static_cast<void>(std::fflush(file_));
    OBS_COUNTER_ADD("ensemble.journal.torn_writes", 1);
    return core::Status::io_error(
        "journal: append torn mid-record (fault injection)");
  }
  if (std::fwrite(frame.bytes().data(), 1, bytes, file_) != bytes ||
      std::fflush(file_) != 0) {
    return core::Status::io_error("journal: short write to " + path_);
  }
  // fsync so the record survives power loss, not just process death.
  if (::fsync(::fileno(file_)) != 0) {
    return core::Status::io_error("journal: fsync failed for " + path_);
  }
  OBS_COUNTER_ADD("ensemble.journal.appends", 1);
  return core::Status::ok();
}

core::Status JobJournal::append_submit(std::uint64_t id,
                                       const JobSpec& spec) {
  util::BinaryWriter w;
  w.put_u64(id);
  write_spec(w, spec);
  return append_record(kRecordSubmit, w.bytes());
}

core::Status JobJournal::append_retry(std::uint64_t id,
                                      std::uint32_t attempt) {
  util::BinaryWriter w;
  w.put_u64(id);
  w.put_u32(attempt);
  return append_record(kRecordRetry, w.bytes());
}

core::Status JobJournal::append_final(const JobResult& result) {
  util::BinaryWriter w;
  write_result(w, result);
  return append_record(kRecordFinal, w.bytes());
}

core::Status JobJournal::replay(const std::string& path, Replay& out) {
  Replay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Nothing journaled yet — a fresh queue, not an error.
    out = std::move(replay);
    return core::Status::ok();
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.size() < kMagic.size() + 4) {
    return core::Status::corrupt_data("journal: short header in " + path);
  }
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return core::Status::corrupt_data("journal: bad magic in " + path);
  }
  util::BinaryReader header(bytes.data() + kMagic.size(), 4);
  const std::uint32_t version = header.get_u32();
  if (version != kJournalVersion) {
    return core::Status::version_mismatch(
        "journal: version " + std::to_string(version) + " (expected " +
        std::to_string(kJournalVersion) + ")");
  }

  std::size_t pos = kMagic.size() + 4;
  while (pos < bytes.size()) {
    // Frame: u8 type | u32 len | payload | u32 crc. Anything that does
    // not parse from here on is a torn tail: the append path persists
    // records atomically-or-not-at-all from the reader's perspective
    // (write+flush+fsync before success), so a half frame can only be
    // the final, interrupted append.
    const std::size_t start = pos;
    if (bytes.size() - pos < 5) break;
    const std::uint8_t type = bytes[pos];
    util::BinaryReader len_reader(bytes.data() + pos + 1, 4);
    const std::uint32_t len = len_reader.get_u32();
    if (bytes.size() - pos < 5 + static_cast<std::size_t>(len) + 4) break;
    const std::uint8_t* payload = bytes.data() + pos + 5;
    util::BinaryReader crc_reader(payload + len, 4);
    const std::uint32_t stored_crc = crc_reader.get_u32();
    std::uint32_t crc = util::crc32_init();
    crc = util::crc32_update(crc, &type, 1);
    crc = util::crc32_update(crc, payload, len);
    if (util::crc32_final(crc) != stored_crc) break;
    pos += 5 + len + 4;

    util::BinaryReader r(payload, len);
    switch (type) {
      case kRecordSubmit: {
        const std::uint64_t id = r.get_u64();
        JobSpec spec;
        read_spec(r, spec);
        if (!r.ok()) {
          return core::Status::corrupt_data(
              "journal: malformed submit record in " + path);
        }
        if (spec.max_attempts > kMaxAttemptsLimit) {
          return core::Status::corrupt_data(
              "journal: submit record with max_attempts " +
              std::to_string(spec.max_attempts) + " in " + path);
        }
        replay.submitted.emplace_back(id, spec);
        break;
      }
      case kRecordRetry: {
        const std::uint64_t id = r.get_u64();
        const std::uint32_t attempt = r.get_u32();
        if (!r.ok()) {
          return core::Status::corrupt_data(
              "journal: malformed retry record in " + path);
        }
        replay.retries.emplace_back(id, attempt);
        break;
      }
      case kRecordFinal: {
        JobResult result;
        read_result(r, result);
        if (!r.ok() || !is_terminal(result.state)) {
          return core::Status::corrupt_data(
              "journal: malformed final record in " + path);
        }
        result.resumed = true;
        replay.finals.push_back(result);
        break;
      }
      default:
        // Unknown record type with a valid CRC: a newer writer. The
        // version gate above should have caught this; treat as
        // corruption rather than guessing.
        return core::Status::corrupt_data(
            "journal: unknown record type in " + path);
    }
    static_cast<void>(start);
  }
  replay.torn_bytes = bytes.size() - pos;
  out = std::move(replay);
  return core::Status::ok();
}

}  // namespace mrhs::ensemble
