// Crash-safe result store.
//
// One append-only WAL (wal.hpp framing) on disk, one hash index in memory.
// The contract the rest of the simulator builds on:
//
//   * put() is durable: by the time it returns, the record is fsync'd. A
//     crash (SIGKILL, power cut) at ANY byte offset loses at most the
//     in-flight record; recovery truncates the torn tail and every earlier
//     record is intact.
//   * Corruption (bit rot, a truncated-then-appended log) is quarantined,
//     never fatal: the damaged byte range moves to "<store>.quarantine",
//     the log is compacted down to its verified records, and the caller
//     simply recomputes whatever went missing.
//   * Multiple processes coordinate through an advisory flock on
//     "<store>.lock": writers append under the exclusive lock (first
//     tail-scanning to pick up other writers' appends), readers snapshot
//     under the shared lock. Two matrix invocations on disjoint slices
//     merge without lost rows.
//
// The in-memory index sits behind its own mutex (index_mu_), apart from
// io_mu_: the append path serializes on io_mu_ across its fsync (flock does
// not exclude threads sharing a fd), and a reader's get() must not wait on
// that.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "store/record.hpp"

namespace sttgpu::store {

struct StoreOptions {
  /// Sink for "[store] ..." progress/repair lines. Null = silent.
  std::function<void(const std::string&)> log;
  const CancelToken* cancel = nullptr;  ///< observed while waiting for the flock
  double lock_timeout_s = 30.0;
  bool auto_compact = true;  ///< compact when dead records dominate
  /// auto_compact only fires once the log holds at least this many applied
  /// records — rewriting a tiny log is churn, not savings.
  std::size_t compact_min_records = 64;
};

struct StoreStats {
  std::uint64_t file_bytes = 0;         ///< current log size
  std::size_t live_rows = 0;            ///< distinct keys in the index
  std::size_t groups = 0;               ///< distinct (fingerprint, scale) pairs
  std::size_t applied_records = 0;      ///< put records applied from the log
  std::size_t dead_records = 0;         ///< applied records since overwritten
  std::size_t compactions = 0;          ///< performed by this handle
  std::uint64_t repaired_torn_bytes = 0;      ///< torn tail truncated by this handle
  std::size_t quarantined_new_incidents = 0;  ///< quarantined by this handle
  std::uint64_t quarantined_new_bytes = 0;
  std::size_t quarantine_incidents = 0;  ///< total in the sidecar (all time)
  std::uint64_t quarantine_bytes = 0;
};

struct FsckReport {
  bool present = false;  ///< the store file exists
  StoreStats stats;

  /// "Nothing needs human attention": no un-acknowledged quarantine.
  bool healthy() const { return stats.quarantine_incidents == 0; }
};

class ResultStore {
 public:
  /// Opens (creating if absent) the store at @p path: takes the exclusive
  /// lock, replays the log, repairs a torn tail, quarantines corruption.
  /// Throws SimError if the log was written by an unsupported (newer)
  /// format version, or on I/O failure.
  ResultStore(std::string path, StoreOptions opts = {});
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Index lookup; no I/O. Call refresh() first to observe other processes.
  std::optional<ResultRow> get(std::uint64_t fingerprint, double scale,
                               const std::string& arch,
                               const std::string& benchmark) const;

  /// Durably appends one result (exclusive lock, append, fsync). Last
  /// writer wins on key collision.
  void put(std::uint64_t fingerprint, double scale, const ResultRow& row);

  /// Durably appends a batch under ONE lock acquisition and ONE fsync —
  /// the migration path writes 80 rows as one I/O burst, not 80.
  void put_many(std::uint64_t fingerprint, double scale,
                const std::vector<ResultRow>& rows);

  /// Re-reads the log tail under the shared lock, folding in records other
  /// processes appended. Never repairs (repair mutates; readers must not).
  void refresh();

  /// All rows for one (fingerprint, scale) group, sorted by
  /// (arch, benchmark) — the CSV export order.
  std::vector<ResultRow> rows_for(std::uint64_t fingerprint, double scale) const;

  /// Rewrites the log to live records only (atomic tmp+fsync+rename), under
  /// the exclusive lock.
  void compact();

  std::size_t size() const;  ///< live rows
  StoreStats stats() const;

  const std::string& path() const { return path_; }

  /// "<x>.csv" -> "<x>.store"; anything else gets ".store" appended. The
  /// store that shadows a given CSV cache path.
  static std::string derive_path(const std::string& csv_path);

  /// "<store>.quarantine" — where corrupt byte ranges are preserved.
  static std::string quarantine_path_for(const std::string& store_path);

  /// Opens the store (running recovery, like the constructor) and reports.
  /// @p report_only_missing: a missing store file yields {present=false}
  /// without creating it.
  static FsckReport fsck(const std::string& path, StoreOptions opts = {});

 private:
  /// One quarantinable byte range found during a scan.
  struct Incident {
    std::uint64_t offset = 0;
    std::string bytes;
    const char* reason = "corrupt";
  };

  void say(const std::string& line) const;

  // All *_locked members require io_mu_ held AND the corresponding flock.
  void open_log_locked();
  bool reopen_if_replaced_locked();
  void rescan_locked(bool repair);
  void catch_up_locked(bool repair);
  void apply_record_locked(std::string_view payload, std::uint64_t offset,
                           std::vector<Incident>* bad);
  void apply_put_locked(const PutRecord& rec);
  void quarantine_locked(const std::vector<Incident>& incidents);
  void compact_locked(const char* reason);
  void maybe_compact_locked();
  std::uint64_t log_size_locked() const;
  std::string read_range_locked(std::uint64_t offset, std::uint64_t len) const;
  StoreStats stats_locked() const;

  std::string path_;
  std::string quarantine_path_;
  StoreOptions opts_;
  int lock_fd_ = -1;
  int log_fd_ = -1;

  /// Serializes this handle's I/O state (flock is per-fd, not per-thread).
  mutable std::mutex io_mu_;
  std::uint64_t scanned_end_ = 0;  ///< log offset our index reflects
  std::uint64_t log_dev_ = 0, log_ino_ = 0;
  std::size_t applied_records_ = 0;
  std::size_t dead_records_ = 0;
  std::size_t compactions_ = 0;
  std::uint64_t repaired_torn_bytes_ = 0;
  std::size_t quarantined_new_incidents_ = 0;
  std::uint64_t quarantined_new_bytes_ = 0;

  /// Guards index_; taken inside io_mu_ when both are held.
  mutable std::mutex index_mu_;
  std::unordered_map<std::string, PutRecord> index_;  ///< store key -> latest record
};

}  // namespace sttgpu::store
