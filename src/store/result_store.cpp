#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "store/file_lock.hpp"
#include "store/wal.hpp"

namespace sttgpu::store {

namespace {

constexpr char kQuarantineTag[] = "#quarantine ";

void write_all_fd(int fd, const char* data, std::size_t n, const std::string& path) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw SimError("store: write to " + path + " failed (" + std::strerror(errno) +
                     ")");
    }
    done += static_cast<std::size_t>(w);
  }
}

/// Walks the quarantine sidecar counting incidents and their payload bytes.
/// Tolerant by design: a mangled sidecar must never take the store down.
std::pair<std::size_t, std::uint64_t> quarantine_totals(const std::string& qpath) {
  std::ifstream in(qpath, std::ios::binary);
  if (!in) return {0, 0};
  std::size_t incidents = 0;
  std::uint64_t bytes = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kQuarantineTag, 0) != 0) continue;
    const std::size_t at = line.find(" bytes=");
    if (at == std::string::npos) continue;
    std::uint64_t n = 0;
    std::istringstream ss(line.substr(at + 7));
    if (!(ss >> n)) continue;
    ++incidents;
    bytes += n;
    // Skip the preserved payload (may itself contain newlines) + its '\n'.
    in.ignore(static_cast<std::streamsize>(n) + 1);
  }
  return {incidents, bytes};
}

}  // namespace

ResultStore::ResultStore(std::string path, StoreOptions opts)
    : path_(std::move(path)),
      quarantine_path_(quarantine_path_for(path_)),
      opts_(std::move(opts)) {
  lock_fd_ = open_lock_file(path_);
  std::lock_guard<std::mutex> io(io_mu_);
  FileLock ex(lock_fd_, FileLock::Mode::kExclusive,
              {opts_.cancel, opts_.lock_timeout_s}, lock_path_for(path_));
  open_log_locked();
  rescan_locked(/*repair=*/true);
}

ResultStore::~ResultStore() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void ResultStore::say(const std::string& line) const {
  if (opts_.log) opts_.log(line);
}

std::optional<ResultRow> ResultStore::get(std::uint64_t fingerprint, double scale,
                                          const std::string& arch,
                                          const std::string& benchmark) const {
  const std::string key = store_key(fingerprint, scale_text(scale), arch, benchmark);
  std::lock_guard<std::mutex> g(index_mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second.row;
}

void ResultStore::put(std::uint64_t fingerprint, double scale, const ResultRow& row) {
  put_many(fingerprint, scale, {row});
}

void ResultStore::put_many(std::uint64_t fingerprint, double scale,
                           const std::vector<ResultRow>& rows) {
  if (rows.empty()) return;
  const std::string scale17 = scale_text(scale);
  for (const ResultRow& r : rows) {
    validate_key_token("arch", r.arch);
    validate_key_token("benchmark", r.benchmark);
  }
  std::lock_guard<std::mutex> io(io_mu_);
  FileLock ex(lock_fd_, FileLock::Mode::kExclusive,
              {opts_.cancel, opts_.lock_timeout_s}, lock_path_for(path_));
  // Fold in whatever other writers appended since we last looked — the
  // append must land at the true end of the log, and the dead-record
  // accounting must see their overwrites.
  catch_up_locked(/*repair=*/true);

  std::string batch;
  if (log_size_locked() == 0) batch += frame_record(kMetaPayload);
  for (const ResultRow& r : rows) {
    batch += frame_record(encode_put(fingerprint, scale17, r));
  }
  wal_append(log_fd_, batch, path_, /*sync=*/true);
  scanned_end_ += batch.size();

  for (const ResultRow& r : rows) {
    PutRecord rec;
    rec.fingerprint = fingerprint;
    rec.scale17 = scale17;
    rec.row = r;
    apply_put_locked(rec);
  }
  maybe_compact_locked();
}

void ResultStore::refresh() {
  std::lock_guard<std::mutex> io(io_mu_);
  FileLock sh(lock_fd_, FileLock::Mode::kShared,
              {opts_.cancel, opts_.lock_timeout_s}, lock_path_for(path_));
  catch_up_locked(/*repair=*/false);
}

std::vector<ResultRow> ResultStore::rows_for(std::uint64_t fingerprint,
                                             double scale) const {
  const std::string scale17 = scale_text(scale);
  std::vector<ResultRow> rows;
  {
    std::lock_guard<std::mutex> g(index_mu_);
    for (const auto& [key, e] : index_) {
      if (e.fingerprint == fingerprint && e.scale17 == scale17) rows.push_back(e.row);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const ResultRow& a, const ResultRow& b) {
    if (a.arch != b.arch) return a.arch < b.arch;
    return a.benchmark < b.benchmark;
  });
  return rows;
}

void ResultStore::compact() {
  std::lock_guard<std::mutex> io(io_mu_);
  FileLock ex(lock_fd_, FileLock::Mode::kExclusive,
              {opts_.cancel, opts_.lock_timeout_s}, lock_path_for(path_));
  catch_up_locked(/*repair=*/true);
  compact_locked("requested");
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> g(index_mu_);
  return index_.size();
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> io(io_mu_);
  return stats_locked();
}

std::string ResultStore::derive_path(const std::string& csv_path) {
  constexpr std::string_view kCsv = ".csv";
  if (csv_path.size() > kCsv.size() &&
      csv_path.compare(csv_path.size() - kCsv.size(), kCsv.size(), kCsv) == 0) {
    return csv_path.substr(0, csv_path.size() - kCsv.size()) + ".store";
  }
  return csv_path + ".store";
}

std::string ResultStore::quarantine_path_for(const std::string& store_path) {
  return store_path + ".quarantine";
}

FsckReport ResultStore::fsck(const std::string& path, StoreOptions opts) {
  FsckReport r;
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    // No store — but a lingering quarantine from a since-deleted store still
    // deserves attention.
    const auto [qi, qb] = quarantine_totals(quarantine_path_for(path));
    r.stats.quarantine_incidents = qi;
    r.stats.quarantine_bytes = qb;
    return r;
  }
  r.present = true;
  ResultStore store(path, std::move(opts));  // runs full recovery
  r.stats = store.stats();
  return r;
}

// --- private: I/O under io_mu_ + flock --------------------------------------

void ResultStore::open_log_locked() {
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd_ < 0) {
    throw SimError("store: cannot open " + path_ + " (" + std::strerror(errno) + ")");
  }
  struct stat st {};
  if (::fstat(log_fd_, &st) != 0) {
    throw SimError("store: fstat of " + path_ + " failed (" + std::strerror(errno) +
                   ")");
  }
  log_dev_ = static_cast<std::uint64_t>(st.st_dev);
  log_ino_ = static_cast<std::uint64_t>(st.st_ino);
}

bool ResultStore::reopen_if_replaced_locked() {
  // Another process compacting renames a fresh file over the log; our fd
  // would keep reading the unlinked old inode forever. stat-by-path vs the
  // fd's identity detects that.
  struct stat st {};
  if (::stat(path_.c_str(), &st) == 0 &&
      static_cast<std::uint64_t>(st.st_dev) == log_dev_ &&
      static_cast<std::uint64_t>(st.st_ino) == log_ino_) {
    return false;
  }
  open_log_locked();
  return true;
}

std::uint64_t ResultStore::log_size_locked() const {
  struct stat st {};
  if (::fstat(log_fd_, &st) != 0) {
    throw SimError("store: fstat of " + path_ + " failed (" + std::strerror(errno) +
                   ")");
  }
  return static_cast<std::uint64_t>(st.st_size);
}

std::string ResultStore::read_range_locked(std::uint64_t offset,
                                           std::uint64_t len) const {
  std::string buf(static_cast<std::size_t>(len), '\0');
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t r = ::pread(log_fd_, buf.data() + done, buf.size() - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw SimError("store: read of " + path_ + " failed (" + std::strerror(errno) +
                     ")");
    }
    if (r == 0) {  // shrank under us; scan what we got
      buf.resize(done);
      break;
    }
    done += static_cast<std::size_t>(r);
  }
  return buf;
}

void ResultStore::apply_record_locked(std::string_view payload, std::uint64_t offset,
                                      std::vector<Incident>* bad) {
  if (is_meta(payload)) {
    if (!meta_supported(payload)) {
      throw SimError("store: " + path_ + " is format '" + std::string(payload) +
                     "' but this build reads '" + std::string(kMetaPayload) +
                     "' — refusing to touch a store written by a newer version");
    }
    return;
  }
  const std::optional<PutRecord> rec = decode_put(payload);
  if (!rec) {
    // The frame verified (CRC ok) but the payload is not a record we know.
    // With the version guard above, that means damage, not a newer writer.
    bad->push_back({offset, std::string(payload), "undecodable"});
    return;
  }
  apply_put_locked(*rec);
}

void ResultStore::apply_put_locked(const PutRecord& rec) {
  const std::string key =
      store_key(rec.fingerprint, rec.scale17, rec.row.arch, rec.row.benchmark);
  std::lock_guard<std::mutex> g(index_mu_);
  ++applied_records_;
  if (!index_.insert_or_assign(key, rec).second) ++dead_records_;
}

void ResultStore::rescan_locked(bool repair) {
  {
    std::lock_guard<std::mutex> g(index_mu_);
    index_.clear();
  }
  applied_records_ = 0;
  dead_records_ = 0;

  const std::uint64_t size = log_size_locked();
  const std::string buf = read_range_locked(0, size);
  std::vector<Incident> bad;
  const WalScanReport report = scan_wal_buffer(
      buf, 0,
      [&](std::uint64_t off, std::string_view payload) {
        apply_record_locked(payload, off, &bad);
      },
      [&](std::uint64_t off, std::string_view bytes) {
        bad.push_back({off, std::string(bytes), "corrupt"});
      });
  scanned_end_ = report.scanned_end;
  if (!repair) return;  // readers observe the verified records, mutate nothing

  if (!bad.empty()) {
    quarantine_locked(bad);
    if (report.torn_tail) repaired_torn_bytes_ += report.torn_bytes;
    // Compacting rewrites the log from the surviving index — this excises
    // the corrupt ranges (and any torn tail) in one atomic replace.
    compact_locked("corruption excised");
    std::uint64_t quarantined = 0;
    for (const Incident& in : bad) quarantined += in.bytes.size();
    say("[store] " + path_ + ": quarantined " + std::to_string(bad.size()) +
        " corrupt range" + (bad.size() == 1 ? "" : "s") + " (" +
        std::to_string(quarantined) + " bytes) to " + quarantine_path_ +
        " — affected results will re-simulate");
  } else if (report.torn_tail) {
    if (::ftruncate(log_fd_, static_cast<off_t>(report.scanned_end)) != 0) {
      throw SimError("store: truncating torn tail of " + path_ + " failed (" +
                     std::strerror(errno) + ")");
    }
    if (::fsync(log_fd_) != 0) {
      throw SimError("store: fsync of " + path_ + " failed (" + std::strerror(errno) +
                     ")");
    }
    repaired_torn_bytes_ += report.torn_bytes;
    say("[store] " + path_ + ": truncated a torn tail of " +
        std::to_string(report.torn_bytes) +
        " bytes (interrupted append) — recovered to the last complete record");
  }
}

void ResultStore::catch_up_locked(bool repair) {
  if (reopen_if_replaced_locked()) {
    rescan_locked(repair);
    return;
  }
  const std::uint64_t size = log_size_locked();
  if (size < scanned_end_) {  // truncated externally: start over
    rescan_locked(repair);
    return;
  }
  if (size == scanned_end_) return;

  const std::string buf = read_range_locked(scanned_end_, size - scanned_end_);
  std::vector<Incident> bad;
  const WalScanReport report = scan_wal_buffer(
      buf, scanned_end_,
      [&](std::uint64_t off, std::string_view payload) {
        apply_record_locked(payload, off, &bad);
      },
      [&](std::uint64_t off, std::string_view bytes) {
        bad.push_back({off, std::string(bytes), "corrupt"});
      });
  scanned_end_ = report.scanned_end;
  if ((!report.clean() || !bad.empty()) && repair) {
    // Anomalies in the tail: redo the whole pass with repair, which owns
    // the quarantine/truncate logic. (Readers just stop at the last
    // verified frame.)
    rescan_locked(true);
  }
}

void ResultStore::quarantine_locked(const std::vector<Incident>& incidents) {
  const int qfd = ::open(quarantine_path_.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (qfd < 0) {
    throw SimError("store: cannot open quarantine sidecar " + quarantine_path_ +
                   " (" + std::strerror(errno) + ")");
  }
  std::string blob;
  for (const Incident& in : incidents) {
    blob += kQuarantineTag;
    blob += "offset=" + std::to_string(in.offset) +
            " bytes=" + std::to_string(in.bytes.size()) + " reason=" + in.reason +
            "\n";
    blob += in.bytes;
    blob += '\n';
  }
  try {
    write_all_fd(qfd, blob.data(), blob.size(), quarantine_path_);
  } catch (...) {
    ::close(qfd);
    throw;
  }
  ::fsync(qfd);  // best effort: the log compaction below is the durable step
  ::close(qfd);
  quarantined_new_incidents_ += incidents.size();
  for (const Incident& in : incidents) quarantined_new_bytes_ += in.bytes.size();
}

void ResultStore::compact_locked(const char* reason) {
  std::vector<PutRecord> live;
  {
    std::lock_guard<std::mutex> g(index_mu_);
    for (const auto& [key, e] : index_) live.push_back(e);
  }
  std::sort(live.begin(), live.end(), [](const PutRecord& a, const PutRecord& b) {
    if (a.fingerprint != b.fingerprint) return a.fingerprint < b.fingerprint;
    if (a.scale17 != b.scale17) return a.scale17 < b.scale17;
    if (a.row.arch != b.row.arch) return a.row.arch < b.row.arch;
    return a.row.benchmark < b.row.benchmark;
  });

  const std::uint64_t before = log_size_locked();
  atomic_write_file(path_, [&](std::ostream& out) {
    out << frame_record(kMetaPayload);
    for (const PutRecord& e : live) {
      out << frame_record(encode_put(e.fingerprint, e.scale17, e.row));
    }
  });
  open_log_locked();  // the old fd points at the replaced (unlinked) inode
  scanned_end_ = log_size_locked();
  applied_records_ = live.size();
  dead_records_ = 0;
  ++compactions_;
  say("[store] " + path_ + ": compacted (" + reason + ") — " +
      std::to_string(live.size()) + " live rows, " + std::to_string(before) +
      " -> " + std::to_string(scanned_end_) + " bytes");
}

void ResultStore::maybe_compact_locked() {
  if (!opts_.auto_compact) return;
  if (applied_records_ < opts_.compact_min_records) return;
  if (dead_records_ * 2 <= applied_records_) return;  // compact once dead > live
  compact_locked("dead records dominate");
}

StoreStats ResultStore::stats_locked() const {
  StoreStats st;
  st.file_bytes = log_size_locked();
  std::set<std::pair<std::uint64_t, std::string>> groups;
  {
    std::lock_guard<std::mutex> g(index_mu_);
    st.live_rows = index_.size();
    for (const auto& [key, e] : index_) groups.emplace(e.fingerprint, e.scale17);
  }
  st.groups = groups.size();
  st.applied_records = applied_records_;
  st.dead_records = dead_records_;
  st.compactions = compactions_;
  st.repaired_torn_bytes = repaired_torn_bytes_;
  st.quarantined_new_incidents = quarantined_new_incidents_;
  st.quarantined_new_bytes = quarantined_new_bytes_;
  const auto [qi, qb] = quarantine_totals(quarantine_path_);
  st.quarantine_incidents = qi;
  st.quarantine_bytes = qb;
  return st;
}

}  // namespace sttgpu::store
