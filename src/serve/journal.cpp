#include "serve/journal.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "store/wal.hpp"

namespace sttgpu::serve {

namespace {

constexpr std::string_view kJournalMeta = "meta sttgpu-journal v1";

std::string sub_payload(std::uint64_t id, const std::string& options_json) {
  return "sub " + std::to_string(id) + " " + options_json;
}

std::string done_payload(std::uint64_t id) { return "done " + std::to_string(id); }

/// write(2)s all of @p bytes; false (errno set) on failure.
bool write_fully(int fd, std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

std::string Journal::derive_path(const std::string& csv_path) {
  constexpr std::string_view kCsv = ".csv";
  if (csv_path.size() > kCsv.size() &&
      csv_path.compare(csv_path.size() - kCsv.size(), kCsv.size(), kCsv) == 0) {
    return csv_path.substr(0, csv_path.size() - kCsv.size()) + ".journal";
  }
  return csv_path + ".journal";
}

void Journal::say(const std::string& line) const {
  if (log_) log_("[serve] " + line);
}

Journal::Journal(std::string path, std::function<void(const std::string&)> log)
    : path_(std::move(path)), log_(std::move(log)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw JournalError("cannot open journal " + path_ + ": " + std::strerror(errno));
  }

  // Read the whole log (journals are proportional to open submissions — a
  // handful of frames — so a full read is the simple, correct choice).
  std::string buf;
  {
    char chunk[4096];
    for (;;) {
      const ssize_t k = ::read(fd_, chunk, sizeof chunk);
      if (k < 0) {
        if (errno == EINTR) continue;
        const std::string why = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw JournalError("cannot read journal " + path_ + ": " + why);
      }
      if (k == 0) break;
      buf.append(chunk, static_cast<std::size_t>(k));
    }
  }

  bool meta_seen = false;
  std::string bad_meta;
  std::size_t retired = 0;
  const auto on_record = [&](std::uint64_t, std::string_view payload) {
    if (payload.rfind("meta ", 0) == 0) {
      if (payload != kJournalMeta) {
        bad_meta = std::string(payload);
        return;
      }
      meta_seen = true;
      return;
    }
    if (payload.rfind("sub ", 0) == 0) {
      char* end = nullptr;
      const std::uint64_t id = std::strtoull(payload.data() + 4, &end, 10);
      if (id == 0 || end == nullptr || *end != ' ') return;  // malformed: skip
      const char* json = end + 1;
      open_[id] = std::string(json, static_cast<std::size_t>(
                                        payload.data() + payload.size() - json));
      if (id > max_id_) max_id_ = id;
      return;
    }
    if (payload.rfind("done ", 0) == 0) {
      const std::uint64_t id = std::strtoull(payload.data() + 5, nullptr, 10);
      if (open_.erase(id) > 0) ++retired;
      if (id > max_id_) max_id_ = id;
      return;
    }
    // Unknown record kind: ignore (forward compatibility within v1).
  };
  const store::WalScanReport report = store::scan_wal_buffer(buf, 0, on_record);

  if (!bad_meta.empty()) {
    ::close(fd_);
    fd_ = -1;
    throw JournalError("journal " + path_ + " carries unsupported format marker '" +
                       bad_meta + "' (this build writes '" + std::string(kJournalMeta) +
                       "')");
  }
  if (report.torn_tail) {
    // Exactly the crashed-mid-append case: drop the prefix, keep the rest.
    say("journal: truncating torn tail of " + std::to_string(report.torn_bytes) +
        " byte(s) at offset " + std::to_string(report.scanned_end));
  }
  if (report.corrupt_ranges > 0) {
    say("journal: skipped " + std::to_string(report.corrupt_ranges) +
        " corrupt range(s) (" + std::to_string(report.corrupt_bytes) + " byte(s))");
  }

  for (const auto& [id, json] : open_) recovered_.push_back({id, json});

  // A fresh file gets its meta frame written in place, with no fsync:
  // nothing has been acknowledged yet, and the first record_submission's
  // fsync makes the meta frame durable together with its `sub`. A crash
  // before that leaves an empty file (reopens as fresh) or a torn frame
  // (truncated as a torn tail by the rewrite below).
  //
  // A dirty file (retired pairs, corruption, torn tail) is compacted to
  // just the meta + open subs by atomic_write_file (temp + fsync + rename +
  // directory fsync), so the `sub` records later fsync'd into the new inode
  // cannot be lost with a rename that never reached the disk. Neither path
  // goes through wal_append and its crash-injection budget — only live
  // appends do.
  const bool fresh = buf.empty();
  const bool dirty = retired > 0 || !report.clean();
  if (fresh) {
    const std::string meta = store::frame_record(kJournalMeta);
    if (!write_fully(fd_, meta)) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw JournalError("cannot write journal " + path_ + ": " + why);
    }
    bytes_ = meta.size();
  } else if (dirty) {
    std::string out;
    out += store::frame_record(kJournalMeta);
    for (const auto& [id, json] : open_) out += store::frame_record(sub_payload(id, json));
    ::close(fd_);
    fd_ = -1;
    try {
      atomic_write_file(path_, [&](std::ostream& os) {
        os.write(out.data(), static_cast<std::streamsize>(out.size()));
      });
    } catch (const SimError& e) {
      throw JournalError("cannot rewrite journal " + path_ + ": " + e.what());
    }
    fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      throw JournalError("cannot reopen journal " + path_ + ": " + std::strerror(errno));
    }
    bytes_ = out.size();
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      throw JournalError("cannot seek journal " + path_ + ": " + std::strerror(errno));
    }
  } else {
    if (!meta_seen) {
      ::close(fd_);
      fd_ = -1;
      throw JournalError("journal " + path_ + " carries no format marker");
    }
    bytes_ = report.scanned_end;
    if (::lseek(fd_, static_cast<off_t>(report.scanned_end), SEEK_SET) < 0) {
      throw JournalError("cannot seek journal " + path_ + ": " + std::strerror(errno));
    }
  }

  if (!recovered_.empty()) {
    say("journal: " + std::to_string(recovered_.size()) +
        " acknowledged submission(s) pending replay");
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<Journal::Pending> Journal::recovered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recovered_;
}

std::uint64_t Journal::max_id() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_id_;
}

void Journal::record_submission(std::uint64_t id, const std::string& options_json) {
  const std::string frame = store::frame_record(sub_payload(id, options_json));
  std::lock_guard<std::mutex> lk(mu_);
  store::wal_append(fd_, frame, path_, /*sync=*/true);
  open_[id] = options_json;
  if (id > max_id_) max_id_ = id;
  ++records_;
  bytes_ += frame.size();
}

void Journal::record_done(std::uint64_t id) noexcept {
  try {
    const std::string frame = store::frame_record(done_payload(id));
    std::lock_guard<std::mutex> lk(mu_);
    store::wal_append(fd_, frame, path_, /*sync=*/true);
    open_.erase(id);
    ++records_;
    bytes_ += frame.size();
  } catch (const std::exception& e) {
    // Losing a `done` is harmless: replaying a finished submission resolves
    // as pure store hits. Losing a `sub` would be data loss; this is not.
    say(std::string("journal: done record failed (ignored): ") + e.what());
  }
}

Journal::Stats Journal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {open_.size(), records_, bytes_};
}

}  // namespace sttgpu::serve
