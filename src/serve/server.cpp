#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cancel.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/sandbox.hpp"
#include "sim/executor.hpp"
#include "sim/knobs.hpp"
#include "sim/runner.hpp"
#include "sim/supervisor.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "workload/benchmarks.hpp"

namespace sttgpu::serve {

namespace {

/// Splits a comma-separated knob value; empty input yields an empty list.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t comma = s.find(',', begin);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > begin) out.push_back(s.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

int close_quiet(int fd) noexcept { return fd >= 0 ? ::close(fd) : 0; }

/// Deterministic JSON of a validated knob set (sorted keys, string values) —
/// the journal's record of an acknowledged submission.
std::string config_json(const Config& cfg) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  for (const auto& [k, v] : cfg.all()) w.key(k).value(v);
  w.end_object();
  return os.str();
}

}  // namespace

struct SweepServer::Impl {
  // --- model ---------------------------------------------------------------

  /// One unique (fingerprint, scale, arch, benchmark) simulation in flight.
  /// Shared by every submission that wants the row; simulated exactly once.
  struct Task {
    std::string key;       ///< store_key — the dedupe identity
    std::uint64_t fp = 0;  ///< config fingerprint of the row
    SandboxJob job;        ///< what the sandbox worker simulates
    CancelToken token;                    ///< supervisor external source
    std::vector<std::uint64_t> waiters;   ///< submission ids awaiting the row
  };

  struct Submission {
    std::uint64_t id = 0;
    std::uint64_t fp = 0;
    double scale = 0.5;
    std::string scale17;
    sttl2::FaultInjectionConfig faults;
    std::vector<std::pair<std::string, std::string>> pairs;  ///< (arch, bench)
    std::set<std::string> pending;  ///< outstanding task keys
    std::size_t total = 0, hits = 0, simulated = 0, failed = 0;
    bool touched_store = false;  ///< any task simulated → re-export the CSV
    bool journaled = false;   ///< has an open journal record to retire
    bool recovered = false;   ///< replayed from the journal after a restart
    std::string state = "running";  ///< running|complete|failed|cancelled
    bool complete = false;
    std::vector<std::string> events;  ///< NDJSON backlog for watchers
  };

  explicit Impl(ServerOptions o)
      : opts(std::move(o)), started_at(std::chrono::steady_clock::now()) {}

  ServerOptions opts;
  std::unique_ptr<store::ResultStore> store;
  std::unique_ptr<Journal> journal;
  int unix_fd = -1;
  unsigned workers = 1;
  std::chrono::steady_clock::time_point started_at;

  std::mutex mu;
  std::condition_variable cv_queue;   ///< workers wait for tasks
  std::condition_variable cv_events;  ///< watchers wait for event appends
  bool stopping = false;
  bool stopped = false;
  bool started = false;
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, Submission> submissions;
  std::map<std::string, std::shared_ptr<Task>> inflight;  ///< key → task
  std::deque<std::shared_ptr<Task>> queue;  ///< FIFO, one local user
  std::set<int> conns;  ///< open connection fds (shutdown on stop)

  // Monotonic counters (mu-free reads).
  std::atomic<std::uint64_t> n_submissions{0}, n_simulated{0}, n_failed{0},
      n_store_hits{0}, n_attached{0};
  std::atomic<std::uint64_t> n_child_spawns{0}, n_child_kills{0}, n_child_crashes{0},
      n_retries{0}, n_replayed{0};

  std::thread accept_thread;
  std::vector<std::thread> worker_threads;
  // Connection handler threads: live ones are registered by token; a
  // finishing handler moves its own handle to the zombie list, which the
  // accept loop joins every poll tick — the registry stays bounded by
  // *live* connections instead of growing for the daemon's lifetime.
  std::uint64_t next_conn_token = 1;
  std::map<std::uint64_t, std::thread> conn_live;
  std::vector<std::thread> conn_zombies;

  void say(const std::string& line) const {
    if (opts.log) opts.log("[serve] " + line);
  }

  // --- listener ------------------------------------------------------------

  void bind_unix() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socket_path.size() >= sizeof(addr.sun_path)) {
      throw BindError("socket path too long: " + opts.socket_path);
    }
    std::strncpy(addr.sun_path, opts.socket_path.c_str(), sizeof(addr.sun_path) - 1);

    // A leftover socket file from a dead server would make bind() fail with
    // EADDRINUSE forever. Probe it: a live server accepts the connection
    // (that is a real conflict); a dead one refuses, and the stale file is
    // safe to reclaim.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
        close_quiet(probe);
        throw BindError("another server is already listening on " + opts.socket_path);
      }
      close_quiet(probe);
      ::unlink(opts.socket_path.c_str());
    }

    unix_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (unix_fd < 0) throw BindError(std::string("socket: ") + std::strerror(errno));
    if (::bind(unix_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      close_quiet(unix_fd);
      unix_fd = -1;
      throw BindError("cannot bind " + opts.socket_path + ": " + why);
    }
    if (::listen(unix_fd, 16) != 0) {
      const std::string why = std::strerror(errno);
      close_quiet(unix_fd);
      unix_fd = -1;
      throw BindError("cannot listen on " + opts.socket_path + ": " + why);
    }
  }

  // --- event plumbing (mu held) --------------------------------------------

  void append_event_locked(Submission& sub, const std::string& line) {
    sub.events.push_back(line);
    cv_events.notify_all();
  }

  static std::string task_event(const char* event, const Task& t, const char* status,
                                const std::string& detail_key,
                                const std::string& detail) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("event").value(event);
    w.key("arch").value(t.job.arch);
    w.key("benchmark").value(t.job.bench);
    if (status != nullptr) w.key("status").value(status);
    if (!detail_key.empty()) w.key(detail_key).value(detail);
    w.end_object();
    return os.str();
  }

  std::string complete_event(const Submission& sub) const {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("event").value("complete");
    w.key("id").value(sub.id);
    w.key("state").value(sub.state);
    w.key("total").value(static_cast<std::uint64_t>(sub.total));
    w.key("hits").value(static_cast<std::uint64_t>(sub.hits));
    w.key("simulated").value(static_cast<std::uint64_t>(sub.simulated));
    w.key("failed").value(static_cast<std::uint64_t>(sub.failed));
    w.end_object();
    return os.str();
  }

  /// Marks @p sub terminal and emits its "complete" event. mu held.
  void complete_submission_locked(Submission& sub) {
    sub.complete = true;
    if (sub.state == "running") sub.state = sub.failed > 0 ? "failed" : "complete";
    append_event_locked(sub, complete_event(sub));
    // Retire the journal record only now — every row of the submission is
    // durably in the store (or accounted failed/cancelled), so a crash
    // after this point loses nothing that was promised.
    if (sub.journaled && journal) journal->record_done(sub.id);
    say("submission " + std::to_string(sub.id) + " " + sub.state + " (" +
        std::to_string(sub.hits) + " hits, " + std::to_string(sub.simulated) +
        " simulated, " + std::to_string(sub.failed) + " failed)");
  }

  // --- CSV export (call WITHOUT mu) ----------------------------------------

  /// run_matrix's own export, so the CSV this daemon publishes is
  /// byte-identical to a direct run's.
  void export_csv(double scale, const sttl2::FaultInjectionConfig& faults) {
    try {
      sim::export_cache(*store, opts.cache_path, scale, faults);
    } catch (const std::exception& e) {
      // The WAL already holds every row durably; a failed export is a
      // nuisance, not data loss — the next completion retries.
      say(std::string("CSV export failed: ") + e.what());
    }
  }

  // --- task lifecycle ------------------------------------------------------

  /// Records a finished task into every waiting submission. mu held.
  /// Returns the (scale, faults) export jobs for submissions that just
  /// completed (performed by the caller after releasing mu).
  struct ExportJob {
    double scale;
    sttl2::FaultInjectionConfig faults;
  };
  /// Removes @p t from the in-flight table iff it is still the registered
  /// task for its key — a cancelled task may have been replaced by a fresh
  /// one for the same config, which must not be evicted. mu held.
  void drop_inflight_locked(const std::shared_ptr<Task>& t) {
    const auto it = inflight.find(t->key);
    if (it != inflight.end() && it->second == t) inflight.erase(it);
  }

  std::vector<ExportJob> finish_task_locked(const std::shared_ptr<Task>& t,
                                            const char* status,
                                            const std::string& error,
                                            const store::ResultRow* row) {
    drop_inflight_locked(t);
    std::vector<ExportJob> exports;
    for (const std::uint64_t id : t->waiters) {
      const auto it = submissions.find(id);
      if (it == submissions.end()) continue;
      Submission& sub = it->second;
      sub.pending.erase(t->key);
      if (row != nullptr) {
        ++sub.simulated;
        sub.touched_store = true;
        append_event_locked(
            sub, task_event("done", *t, status, "row",
                            store::encode_put(t->fp, sub.scale17, *row)));
      } else {
        ++sub.failed;
        append_event_locked(sub, task_event("failed", *t, status, "error", error));
      }
      if (sub.pending.empty() && !sub.complete) {
        complete_submission_locked(sub);
        if (sub.touched_store) exports.push_back({sub.scale, sub.faults});
      }
    }
    return exports;
  }

  /// Delivers one ready-made event line to every submission waiting on @p t.
  /// Runs on the simulating/supervising thread.
  void fan_out_event(const Task& t, const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    for (const std::uint64_t id : t.waiters) {
      const auto it = submissions.find(id);
      if (it != submissions.end()) append_event_locked(it->second, line);
    }
  }

  void run_task(const std::shared_ptr<Task>& t, Sandbox& sandbox) {
    // One supervised job per task, whose every attempt runs in this worker
    // thread's sandbox (serve/sandbox.hpp): the per-task token is the
    // supervisor's external cancellation source, so the `cancel` verb, the
    // watchdog, the per-job timeout, and retry/backoff are the matrix
    // runner's own semantics. keep_going: the outcome is recorded per task;
    // a failing task must never tear the service down.
    sim::SupervisorOptions sup;
    sup.external = &t->token;
    sup.watchdog_s = opts.watchdog_s;
    sup.job_timeout_s = opts.job_timeout_s;
    sup.retries = opts.retries;
    sup.keep_going = true;

    SandboxCounters children;
    std::optional<store::ResultRow> row;
    std::vector<sim::Job> jobs(1);
    jobs[0].label = t->job.arch + "/" + t->job.bench;
    jobs[0].fn = [&](const sim::JobControl& ctl) {
      const std::string line =
          sandbox.run(t->job, ctl, children,
                      [this, &t](const std::string& event) { fan_out_event(*t, event); });
      // The row crossed the channel as the store's own put-record line;
      // decoding and re-putting it is byte-exact by the record codec's
      // round-trip contract, so sandboxed rows match direct-run rows.
      const auto rec = store::decode_put(line);
      if (!rec || rec->fingerprint != t->fp) {
        throw SimError("sandbox returned an undecodable result row");
      }
      // Durable write-through before the row is announced.
      store->put(t->fp, t->job.base.scale, rec->row);
      row = rec->row;
    };
    const sim::SupervisedResult res = sim::run_supervised(std::move(jobs), 1, sup);
    const sim::JobOutcome& o = res.outcomes.at(0);
    n_child_spawns.fetch_add(children.spawns, std::memory_order_relaxed);
    n_child_kills.fetch_add(children.kills, std::memory_order_relaxed);
    n_child_crashes.fetch_add(children.crashes, std::memory_order_relaxed);
    if (o.attempts > 1) n_retries.fetch_add(o.attempts - 1, std::memory_order_relaxed);

    std::vector<ExportJob> exports;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (o.status == sim::JobStatus::kOk && row) {
        n_simulated.fetch_add(1, std::memory_order_relaxed);
        exports = finish_task_locked(t, "ok", "", &*row);
      } else {
        n_failed.fetch_add(1, std::memory_order_relaxed);
        exports =
            finish_task_locked(t, sim::job_status_name(o.status), o.error, nullptr);
      }
    }
    for (const ExportJob& e : exports) export_csv(e.scale, e.faults);
  }

  void worker_loop() {
    // Spawned at this thread's first attempt, reused by every later one, and
    // closed (the idle worker exits on EOF) when the thread drains.
    Sandbox sandbox(opts.mem_limit_bytes);
    for (;;) {
      std::shared_ptr<Task> t;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_queue.wait(lk, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        t = std::move(queue.front());
        queue.pop_front();
        if (t->waiters.empty()) {
          // Every submitter cancelled before the task started; nothing to
          // report to and nothing worth simulating.
          drop_inflight_locked(t);
          n_failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (const std::uint64_t id : t->waiters) {
          const auto it = submissions.find(id);
          if (it != submissions.end()) {
            append_event_locked(it->second, task_event("start", *t, nullptr, "", ""));
          }
        }
      }
      run_task(t, sandbox);
    }
  }

  // --- verb handlers -------------------------------------------------------

  /// Shared options plumbing: JSON object → Config → registry validation.
  static Config options_config(const JsonValue& req, sim::KnobCommand cmd,
                               const std::string& name) {
    const JsonValue* ov = req.find("options");
    Config cfg = ov != nullptr ? sim::config_from_json(*ov) : Config{};
    sim::validate_knobs(cfg, cmd, name);
    return cfg;
  }

  struct SubmitOutcome {
    std::uint64_t id = 0;
    std::size_t total = 0, hits = 0, scheduled = 0, attached = 0;
  };

  /// The submit core, shared by the `submit` verb and journal replay.
  /// @p forced_id reuses a journaled id (0 = allocate); @p recovered marks a
  /// replay, which is not journaled again (its record is already on disk).
  SubmitOutcome submit_config(const Config& cfg, std::uint64_t forced_id,
                              bool recovered) {
    constexpr auto kCmd = sim::kKnobSubmit;
    const sim::RunOptions base = sim::run_options_from_knobs(cfg, kCmd);
    const bool want_telemetry = sim::knob_bool(cfg, kCmd, "telemetry");
    const std::int64_t interval = sim::knob_int(cfg, kCmd, "interval");
    STTGPU_REQUIRE(interval > 0, "interval= must be a positive cycle count");

    std::vector<sim::Architecture> archs;
    const std::string arch_csv = sim::knob_string(cfg, kCmd, "archs");
    if (arch_csv.empty()) {
      archs = sim::all_architectures();
    } else {
      for (const std::string& a : split_csv(arch_csv)) {
        archs.push_back(sim::architecture_from_string(a));
      }
    }
    std::vector<std::string> benchmarks = split_csv(sim::knob_string(cfg, kCmd, "benchmarks"));
    const std::vector<std::string> known = workload::benchmark_names();
    if (benchmarks.empty()) {
      benchmarks = known;
    } else {
      for (const std::string& b : benchmarks) {
        STTGPU_REQUIRE(std::find(known.begin(), known.end(), b) != known.end(),
                       "unknown benchmark '" + b + "' (see `sttgpu list`)");
      }
    }

    const std::uint64_t fp = sim::config_fingerprint(base.faults);
    const std::string scale17 = store::scale_text(base.scale);
    // The journal record is the options object as validated — serialized
    // before taking mu so the lock never covers string building.
    const std::string options_json = config_json(cfg);
    // Observe rows other processes appended before deciding what to run.
    store->refresh();

    SubmitOutcome out;
    std::optional<ExportJob> replay_export;
    {
      std::lock_guard<std::mutex> lk(mu);
      STTGPU_REQUIRE(!stopping, "server is draining — submission refused");

      out.id = forced_id != 0 ? forced_id : next_id++;
      if (forced_id >= next_id) next_id = forced_id + 1;

      // Durable ack BEFORE any state mutation: if the journal append fails
      // the submission is cleanly refused (the skipped id is harmless).
      // Pure store hits are worth journaling too — the promise covers the
      // CSV export, not just simulation work.
      const bool journal_it = !recovered && journal != nullptr;
      if (journal_it) journal->record_submission(out.id, options_json);

      Submission& sub = submissions[out.id];
      sub.id = out.id;
      sub.fp = fp;
      sub.scale = base.scale;
      sub.scale17 = scale17;
      sub.faults = base.faults;
      sub.journaled = journal_it || recovered;
      sub.recovered = recovered;
      // A replayed submission must republish the CSV even when every row is
      // already in the store — the crash may have landed before the export.
      if (recovered) sub.touched_store = true;
      for (const sim::Architecture a : archs) {
        const std::string arch_name = sim::make_arch(a).name;
        for (const std::string& bench : benchmarks) {
          sub.pairs.emplace_back(arch_name, bench);
          const std::string key = store::store_key(fp, scale17, arch_name, bench);
          const auto live = inflight.find(key);
          if (live != inflight.end()) {
            live->second->waiters.push_back(out.id);
            sub.pending.insert(key);
            ++out.attached;
            n_attached.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (store->get(fp, base.scale, arch_name, bench)) {
            ++sub.hits;
            n_store_hits.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          auto t = std::make_shared<Task>();
          t->key = key;
          t->fp = fp;
          t->job.arch = arch_name;
          t->job.bench = bench;
          t->job.base = base;
          t->job.want_telemetry = want_telemetry;
          t->job.interval = static_cast<Cycle>(interval);
          t->waiters.push_back(out.id);
          inflight.emplace(key, t);
          queue.push_back(std::move(t));
          sub.pending.insert(key);
          ++out.scheduled;
        }
      }
      sub.total = sub.pairs.size();
      out.total = sub.total;
      out.hits = sub.hits;
      n_submissions.fetch_add(1, std::memory_order_relaxed);

      {
        std::ostringstream os;
        JsonWriter w(os);
        w.begin_object();
        w.key("event").value("scheduled");
        w.key("id").value(out.id);
        w.key("total").value(static_cast<std::uint64_t>(sub.total));
        w.key("hits").value(static_cast<std::uint64_t>(sub.hits));
        w.key("scheduled").value(static_cast<std::uint64_t>(out.scheduled));
        w.key("attached").value(static_cast<std::uint64_t>(out.attached));
        w.end_object();
        append_event_locked(sub, os.str());
      }
      if (sub.pending.empty()) {
        complete_submission_locked(sub);  // pure hit
        if (sub.touched_store) replay_export = ExportJob{sub.scale, sub.faults};
      }
      say("submit " + std::to_string(out.id) + ": " + std::to_string(sub.total) +
          " configs, " + std::to_string(sub.hits) + " store hits, " +
          std::to_string(out.scheduled) + " scheduled, " + std::to_string(out.attached) +
          " attached");
    }
    cv_queue.notify_all();
    if (replay_export) export_csv(replay_export->scale, replay_export->faults);
    return out;
  }

  std::string handle_submit(const JsonValue& req) {
    const Config cfg = options_config(req, sim::kKnobSubmit, "submit");
    const SubmitOutcome out = submit_config(cfg, /*forced_id=*/0, /*recovered=*/false);
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("ok").value(true);
    w.key("id").value(out.id);
    w.key("total").value(static_cast<std::uint64_t>(out.total));
    w.key("hits").value(static_cast<std::uint64_t>(out.hits));
    w.key("scheduled").value(static_cast<std::uint64_t>(out.scheduled));
    w.key("attached").value(static_cast<std::uint64_t>(out.attached));
    w.end_object();
    return os.str();
  }

  /// Re-submits every acknowledged-but-unfinished submission found in the
  /// journal. Runs from start() before the accept loop exists, but after the
  /// workers could be spawned — call it before spawning threads so replayed
  /// work is queued when the first worker wakes.
  void replay_journal() {
    if (!journal) return;
    const std::vector<Journal::Pending> pending = journal->recovered();
    if (pending.empty()) return;
    say("journal: replaying " + std::to_string(pending.size()) + " submission(s)");
    for (const Journal::Pending& p : pending) {
      try {
        const JsonValue opts_json = parse_json(p.options_json);
        Config cfg = sim::config_from_json(opts_json);
        sim::validate_knobs(cfg, sim::kKnobSubmit, "submit");
        submit_config(cfg, p.id, /*recovered=*/true);
        n_replayed.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        // A record this build cannot parse any more (or a submit that now
        // fails validation) must not wedge the daemon in a replay loop on
        // every restart: report it loudly and retire it.
        say("journal: replay of submission " + std::to_string(p.id) + " failed (" +
            e.what() + ") — retiring it");
        journal->record_done(p.id);
      }
    }
  }

  ServerStats stats_snapshot() {
    ServerStats s;
    s.submissions = n_submissions.load(std::memory_order_relaxed);
    s.tasks_simulated = n_simulated.load(std::memory_order_relaxed);
    s.tasks_failed = n_failed.load(std::memory_order_relaxed);
    s.store_hits = n_store_hits.load(std::memory_order_relaxed);
    s.attached = n_attached.load(std::memory_order_relaxed);
    s.store_rows = store->size();
    s.workers = workers;
    s.child_spawns = n_child_spawns.load(std::memory_order_relaxed);
    s.child_kills = n_child_kills.load(std::memory_order_relaxed);
    s.child_crashes = n_child_crashes.load(std::memory_order_relaxed);
    s.task_retries = n_retries.load(std::memory_order_relaxed);
    s.replayed = n_replayed.load(std::memory_order_relaxed);
    s.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               started_at)
                     .count();
    if (journal) {
      const Journal::Stats js = journal->stats();
      s.journal_pending = js.open;
      s.journal_records = js.records;
    }
    std::lock_guard<std::mutex> lk(mu);
    s.queued = queue.size();
    s.inflight = inflight.size();
    s.connections = conn_live.size();
    return s;
  }

  std::string handle_health() {
    const ServerStats s = stats_snapshot();
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("ok").value(true);
    w.key("health").begin_object();
    w.key("uptime_s").value(s.uptime_s);
    w.key("workers").value(s.workers);
    w.key("queued").value(static_cast<std::uint64_t>(s.queued));
    w.key("inflight").value(static_cast<std::uint64_t>(s.inflight));
    w.key("connections").value(static_cast<std::uint64_t>(s.connections));
    w.key("submissions").value(s.submissions);
    w.key("tasks_simulated").value(s.tasks_simulated);
    w.key("tasks_failed").value(s.tasks_failed);
    w.key("store_hits").value(s.store_hits);
    w.key("attached").value(s.attached);
    w.key("child_spawns").value(s.child_spawns);
    w.key("child_kills").value(s.child_kills);
    w.key("child_crashes").value(s.child_crashes);
    w.key("task_retries").value(s.task_retries);
    w.key("replayed").value(s.replayed);
    w.key("journal_pending").value(s.journal_pending);
    w.key("journal_records").value(s.journal_records);
    w.key("store_rows").value(static_cast<std::uint64_t>(s.store_rows));
    w.end_object();
    w.end_object();
    return os.str();
  }

  std::string handle_status(const JsonValue& req) {
    const JsonValue* idv = req.find("id");
    const std::uint64_t id = idv != nullptr ? static_cast<std::uint64_t>(idv->as_int()) : 0;
    std::ostringstream os;
    JsonWriter w(os);
    if (id == 0) {
      const ServerStats s = stats_snapshot();
      w.begin_object();
      w.key("protocol_version").value(kProtocolVersion);
      w.key("ok").value(true);
      w.key("server").begin_object();
      w.key("submissions").value(s.submissions);
      w.key("tasks_simulated").value(s.tasks_simulated);
      w.key("tasks_failed").value(s.tasks_failed);
      w.key("store_hits").value(s.store_hits);
      w.key("attached").value(s.attached);
      w.key("queued").value(static_cast<std::uint64_t>(s.queued));
      w.key("store_rows").value(static_cast<std::uint64_t>(s.store_rows));
      w.key("workers").value(s.workers);
      w.end_object();
      w.end_object();
      return os.str();
    }
    std::lock_guard<std::mutex> lk(mu);
    const auto it = submissions.find(id);
    STTGPU_REQUIRE(it != submissions.end(),
                   "no submission with id " + std::to_string(id));
    const Submission& sub = it->second;
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("ok").value(true);
    w.key("id").value(sub.id);
    w.key("state").value(sub.state);
    w.key("total").value(static_cast<std::uint64_t>(sub.total));
    w.key("hits").value(static_cast<std::uint64_t>(sub.hits));
    w.key("simulated").value(static_cast<std::uint64_t>(sub.simulated));
    w.key("failed").value(static_cast<std::uint64_t>(sub.failed));
    w.key("pending").value(static_cast<std::uint64_t>(sub.pending.size()));
    w.end_object();
    return os.str();
  }

  std::string handle_cancel(const JsonValue& req) {
    const std::uint64_t id = static_cast<std::uint64_t>(req.at("id").as_int());
    STTGPU_REQUIRE(id > 0, "cancel needs id=<submission>");
    std::lock_guard<std::mutex> lk(mu);
    const auto it = submissions.find(id);
    STTGPU_REQUIRE(it != submissions.end(),
                   "no submission with id " + std::to_string(id));
    Submission& sub = it->second;
    if (!sub.complete) {
      // Detach from every outstanding task; a task nobody waits for any
      // more is cancelled (running: via its token at the next supervision
      // checkpoint; queued: skipped at pop). Tasks other submissions still
      // wait on keep running — cancelling one client never steals another
      // client's result.
      for (const std::string& key : sub.pending) {
        const auto task = inflight.find(key);
        if (task == inflight.end()) continue;
        auto& waiters = task->second->waiters;
        waiters.erase(std::remove(waiters.begin(), waiters.end(), id), waiters.end());
        if (waiters.empty()) {
          // Nobody wants the row any more: cancel the run (queued tasks are
          // skipped at pop) and un-register the key so a later submission
          // of the same config schedules a fresh task.
          task->second->token.request(CancelReason::kUser);
          inflight.erase(task);
        }
      }
      sub.failed += sub.pending.size();
      sub.pending.clear();
      sub.state = "cancelled";
      complete_submission_locked(sub);
    }
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("ok").value(true);
    w.key("id").value(sub.id);
    w.key("state").value(sub.state);
    w.end_object();
    return os.str();
  }

  std::string handle_result(const JsonValue& req) {
    const JsonValue* idv = req.find("id");
    const std::uint64_t id = idv != nullptr ? static_cast<std::uint64_t>(idv->as_int()) : 0;

    std::uint64_t fp = 0;
    double scale = 0.5;
    std::string scale17;
    std::vector<std::pair<std::string, std::string>> pairs;
    std::string state = "complete";
    if (id > 0) {
      std::lock_guard<std::mutex> lk(mu);
      const auto it = submissions.find(id);
      STTGPU_REQUIRE(it != submissions.end(),
                     "no submission with id " + std::to_string(id));
      const Submission& sub = it->second;
      fp = sub.fp;
      scale = sub.scale;
      scale17 = sub.scale17;
      pairs = sub.pairs;
      state = sub.state;
    } else {
      // Row lookup by (arch, benchmark, scale): the same registry rows the
      // CLI validates against, baseline (fault-free) fingerprint.
      constexpr auto kCmd = sim::kKnobResult;
      const Config cfg = options_config(req, kCmd, "result");
      const sim::RunOptions ro = sim::run_options_from_knobs(cfg, kCmd);
      const std::string arch = sim::knob_string(cfg, kCmd, "arch");
      // Resolve through the registry so an unknown arch fails loudly here.
      sim::architecture_from_string(arch);
      fp = sim::config_fingerprint(ro.faults);
      scale = ro.scale;
      scale17 = store::scale_text(scale);
      pairs.emplace_back(arch, sim::knob_string(cfg, kCmd, "benchmark"));
    }

    store->refresh();
    std::vector<std::string> rows;
    std::vector<std::string> missing;
    for (const auto& [arch, bench] : pairs) {
      const auto row = store->get(fp, scale, arch, bench);
      if (row) {
        rows.push_back(store::encode_put(fp, scale17, *row));
      } else {
        missing.push_back(arch + "/" + bench);
      }
    }
    STTGPU_REQUIRE(id > 0 || !rows.empty(),
                   "no stored result for " + missing.front() + " at scale " + scale17);

    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("ok").value(true);
    if (id > 0) w.key("id").value(id);
    w.key("state").value(state);
    w.key("scale").value(scale17);
    w.key("rows").begin_array();
    for (const std::string& r : rows) w.value(r);
    w.end_array();
    w.key("missing").begin_array();
    for (const std::string& m : missing) w.value(m);
    w.end_array();
    w.end_object();
    return os.str();
  }

  void handle_watch(int fd, const JsonValue& req) {
    const std::uint64_t id = static_cast<std::uint64_t>(req.at("id").as_int());
    {
      std::lock_guard<std::mutex> lk(mu);
      STTGPU_REQUIRE(submissions.find(id) != submissions.end(),
                     "no submission with id " + std::to_string(id));
    }
    {
      std::ostringstream os;
      JsonWriter w(os);
      w.begin_object();
      w.key("protocol_version").value(kProtocolVersion);
      w.key("ok").value(true);
      w.key("id").value(id);
      w.end_object();
      write_frame(fd, os.str());
    }
    // Replay the backlog, then follow live appends. The terminal "complete"
    // event is always the last line; the client stops there.
    std::size_t idx = 0;
    for (;;) {
      std::vector<std::string> batch;
      bool done = false;
      {
        std::unique_lock<std::mutex> lk(mu);
        Submission& sub = submissions.at(id);
        cv_events.wait(lk, [&] { return sub.events.size() > idx || sub.complete; });
        while (idx < sub.events.size()) batch.push_back(sub.events[idx++]);
        done = sub.complete && idx == sub.events.size();
      }
      for (const std::string& line : batch) write_event_line(fd, line);
      if (done) return;
    }
  }

  // --- connection handling -------------------------------------------------

  void handle_connection(int fd) {
    try {
      const std::optional<std::string> payload = read_frame(fd);
      if (payload) {
        if (payload->empty()) {
          throw ProtocolMismatch("zero-length request frame");
        }
        const JsonValue req = parse_json(*payload);
        require_version(req);
        const std::string verb = req.at("verb").as_string();
        if (verb == "watch") {
          handle_watch(fd, req);
        } else if (verb == "submit") {
          write_frame(fd, handle_submit(req));
        } else if (verb == "status") {
          write_frame(fd, handle_status(req));
        } else if (verb == "cancel") {
          write_frame(fd, handle_cancel(req));
        } else if (verb == "result") {
          write_frame(fd, handle_result(req));
        } else if (verb == "health") {
          write_frame(fd, handle_health());
        } else {
          throw SimError("unknown verb '" + verb +
                         "' (expected submit, status, watch, cancel, result or "
                         "health)");
        }
      }
    } catch (const ProtocolMismatch& e) {
      try {
        write_frame(fd, error_response(e.what(), /*protocol_mismatch=*/true));
      } catch (...) {
      }
    } catch (const std::exception& e) {
      try {
        write_frame(fd, error_response(e.what()));
      } catch (...) {
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      conns.erase(fd);
    }
    close_quiet(fd);
  }

  /// Last act of a connection handler: move its own thread handle from the
  /// live registry to the zombie list the accept loop joins.
  void finish_conn(std::uint64_t token) {
    std::lock_guard<std::mutex> lk(mu);
    const auto it = conn_live.find(token);
    if (it != conn_live.end()) {
      conn_zombies.push_back(std::move(it->second));
      conn_live.erase(it);
    }
  }

  void reap_conn_zombies() {
    std::vector<std::thread> dead;
    {
      std::lock_guard<std::mutex> lk(mu);
      dead.swap(conn_zombies);
    }
    for (std::thread& t : dead) {
      if (t.joinable()) t.join();
    }
  }

  void accept_loop() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(mu);
        if (stopping) return;
      }
      reap_conn_zombies();
      // Time out every 200 ms to re-check stopping; a poll error (EINTR,
      // ENOMEM) is retried the same way rather than ending the daemon.
      pollfd pfd{unix_fd, POLLIN, 0};
      if (::poll(&pfd, 1, /*ms=*/200) <= 0) continue;
      const int conn = ::accept4(unix_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (conn < 0) continue;
      std::lock_guard<std::mutex> lk(mu);
      if (stopping) {
        close_quiet(conn);
        continue;
      }
      conns.insert(conn);
      const std::uint64_t token = next_conn_token++;
      conn_live.emplace(token, std::thread([this, conn, token] {
                          handle_connection(conn);
                          finish_conn(token);
                        }));
    }
  }
};

SweepServer::SweepServer(ServerOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {
  Impl& s = *impl_;
  STTGPU_REQUIRE(!s.opts.cache_path.empty(), "serve: cache= must not be empty");
  s.workers = s.opts.jobs == 0 ? sim::default_jobs() : s.opts.jobs;

  store::StoreOptions so;
  so.log = s.opts.log;
  // A long-lived daemon must not pause submissions for a compaction sweep;
  // `sttgpu store compact` remains available offline.
  so.auto_compact = false;
  s.store = std::make_unique<store::ResultStore>(
      store::ResultStore::derive_path(s.opts.cache_path), so);

  // Open (and recover) the submission journal before listening: replayed
  // ids must never be reissued, so the id counter seeds past the journal.
  s.journal = std::make_unique<Journal>(Journal::derive_path(s.opts.cache_path),
                                        s.opts.log);
  s.next_id = s.journal->max_id() + 1;

  s.bind_unix();
}

SweepServer::~SweepServer() {
  try {
    stop();
  } catch (...) {
  }
}

void SweepServer::start() {
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    STTGPU_REQUIRE(!s.started, "server already started");
    s.started = true;
  }
  // Replay before spawning threads: recovered work is already queued when
  // the first worker wakes, and no client can race the replayed ids.
  s.replay_journal();
  s.accept_thread = std::thread([&s] { s.accept_loop(); });
  for (unsigned i = 0; i < s.workers; ++i) {
    s.worker_threads.emplace_back([&s] { s.worker_loop(); });
  }
  s.say("listening on " + s.opts.socket_path + " (" + std::to_string(s.workers) +
        " worker" + (s.workers == 1 ? "" : "s") +
        ", store " + s.store->path() + ")");
}

void SweepServer::stop() {
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.stopped) return;
    s.stopped = true;
    s.stopping = true;
  }
  s.cv_queue.notify_all();
  s.cv_events.notify_all();
  if (s.accept_thread.joinable()) s.accept_thread.join();
  close_quiet(s.unix_fd);
  ::unlink(s.opts.socket_path.c_str());
  // Drain: workers finish every queued and running task (completing their
  // submissions and publishing CSV exports) before exiting.
  for (std::thread& t : s.worker_threads) {
    if (t.joinable()) t.join();
  }
  // Idle connections still waiting for a request see EOF; watchers have
  // already streamed their terminal event (every submission is complete).
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const int fd : s.conns) ::shutdown(fd, SHUT_RDWR);
  }
  // Handlers unblock (EOF), move themselves to the zombie list,
  // and are joined here; loop until the live registry drains.
  for (;;) {
    std::vector<std::thread> dead;
    bool live = false;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      dead.swap(s.conn_zombies);
      live = !s.conn_live.empty();
    }
    for (std::thread& t : dead) {
      if (t.joinable()) t.join();
    }
    if (!live && dead.empty()) break;
    if (dead.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s.say("drained and stopped");
}

const std::string& SweepServer::socket_path() const { return impl_->opts.socket_path; }

ServerStats SweepServer::stats() const { return impl_->stats_snapshot(); }

}  // namespace sttgpu::serve
