#include "serve/sandbox.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "sim/supervisor.hpp"
#include "store/record.hpp"

namespace sttgpu::serve {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Collapses a multi-line error message into one pipe line.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// --- child side ------------------------------------------------------------

/// Writes one pipe line. The child is single-threaded, so lines need no
/// lock; they stay well under PIPE_BUF.
void put_line(int fd, std::string s) {
  s.push_back('\n');
  const char* p = s.data();
  std::size_t n = s.size();
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return;  // parent is gone; PDEATHSIG will reap us shortly
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// STTGPU_SANDBOX_FAULT="<arch>/<bench>=<abort|oom|hang>[@attempt],..." —
/// returns the fault mode matching this (job, attempt), or "".
std::string fault_mode(const std::string& arch, const std::string& bench,
                       unsigned attempt) {
  const char* env = std::getenv("STTGPU_SANDBOX_FAULT");
  if (env == nullptr || *env == '\0') return "";
  const std::string want = arch + "/" + bench + "=";
  std::istringstream is(env);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.compare(0, want.size(), want) != 0) continue;
    std::string mode = entry.substr(want.size());
    const std::size_t at = mode.find('@');
    if (at != std::string::npos) {
      const unsigned only = static_cast<unsigned>(std::atoi(mode.c_str() + at + 1));
      if (only != attempt) continue;
      mode.resize(at);
    }
    return mode;
  }
  return "";
}

[[noreturn]] void apply_fault(const std::string& mode) {
  if (mode == "abort") std::abort();
  if (mode == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  // "oom": allocate until the RLIMIT_AS installed above makes operator new
  // throw (tests always pair this mode with a mem_limit).
  std::vector<std::unique_ptr<char[]>> hog;
  for (;;) hog.push_back(std::make_unique<char[]>(16u << 20));
}

[[noreturn]] void run_child(const SandboxJob& job, const SandboxOptions& opts,
                            unsigned attempt, int wfd,
                            std::atomic<std::uint64_t>* heartbeat) {
  // Die with the daemon: an orphaned child must never outlive a SIGKILLed
  // parent holding the store lock or a listener backlog open.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(1);  // parent already gone before prctl
  if (opts.in_child) opts.in_child();
  if (opts.mem_limit_bytes > 0) {
    rlimit rl{};
    rl.rlim_cur = opts.mem_limit_bytes;
    rl.rlim_max = opts.mem_limit_bytes;
    ::setrlimit(RLIMIT_AS, &rl);
  }

  int code = 0;
  try {
    const std::string mode = fault_mode(job.arch, job.bench, attempt);
    if (!mode.empty()) apply_fault(mode);
    sim::RunOptions ro = job.base;
    ro.heartbeat = heartbeat;
    std::unique_ptr<Telemetry> tel;
    if (job.want_telemetry) {
      tel = std::make_unique<Telemetry>(job.interval);
      tel->set_on_frame([&](const Telemetry& T, std::size_t frame) {
        put_line(wfd, "tel " + telemetry_event_json(job.arch, job.bench, T, frame));
      });
      ro.telemetry = tel.get();
    }
    const sim::Metrics m = sim::run_one(job.arch_id, job.bench, ro);
    put_line(wfd, "row " + store::encode_put(job.fp, job.scale17, sim::to_store_row(m)));
  } catch (const std::bad_alloc&) {
    put_line(wfd, "err address-space limit reached (mem_limit)");
    code = 3;
  } catch (const std::exception& e) {
    put_line(wfd, "err " + one_line(e.what()));
    code = 2;
  }
  // _exit: never run the daemon's static destructors (store, listeners)
  // from inside a forked copy.
  ::_exit(code);
}

// --- parent side -----------------------------------------------------------

// The parent reads the child's heartbeat straight out of shared memory, which
// is only sound for an atomic that never falls back to a (process-private)
// lock.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "a heartbeat shared across fork() must be a lock-free atomic");

/// One MAP_SHARED anonymous page holding a child's cycle-count heartbeat:
/// mapped before fork(), so the child's Gpu stores into the very word the
/// parent's poll loop reads. Unmapped on destruction, after the child is
/// reaped.
class SharedHeartbeat {
 public:
  SharedHeartbeat() {
    void* p = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) beat_ = new (p) std::atomic<std::uint64_t>(0);
  }
  ~SharedHeartbeat() {
    if (beat_ != nullptr) ::munmap(beat_, sizeof *beat_);
  }
  SharedHeartbeat(const SharedHeartbeat&) = delete;
  SharedHeartbeat& operator=(const SharedHeartbeat&) = delete;

  /// Null when the mapping failed.
  std::atomic<std::uint64_t>* get() const noexcept { return beat_; }

 private:
  std::atomic<std::uint64_t>* beat_ = nullptr;
};

struct AttemptOutcome {
  SandboxStatus status = SandboxStatus::kFailed;
  std::string error;
  std::string row_line;
  bool killed = false;
};

AttemptOutcome run_attempt(const SandboxJob& job, const SandboxOptions& opts,
                           unsigned attempt,
                           const std::function<void(const std::string&)>& on_event) {
  const SharedHeartbeat page;
  std::atomic<std::uint64_t>* const beat = page.get();
  if (beat == nullptr) {
    return {SandboxStatus::kFailed,
            std::string("sandbox heartbeat mmap failed: ") + std::strerror(errno), "", false};
  }
  int p[2];
  if (::pipe2(p, O_CLOEXEC) != 0) {
    return {SandboxStatus::kFailed,
            std::string("sandbox pipe failed: ") + std::strerror(errno), "", false};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(p[0]);
    ::close(p[1]);
    return {SandboxStatus::kFailed,
            std::string("sandbox fork failed: ") + std::strerror(errno), "", false};
  }
  if (pid == 0) {
    ::close(p[0]);
    run_child(job, opts, attempt, p[1], beat);  // never returns
  }
  ::close(p[1]);

  AttemptOutcome out;
  std::string buf;
  // Progress is anchored at the attempt start until the first beat change,
  // as in the thread supervisor's monitor.
  std::uint64_t last_beat = 0;
  const std::int64_t start = now_ms();
  std::int64_t last_progress = start;
  bool eof = false;
  while (!eof && !out.killed) {
    pollfd pfd{p[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*ms=*/50);
    if (rc > 0) {
      char chunk[4096];
      const ssize_t k = ::read(p[0], chunk, sizeof chunk);
      if (k > 0) {
        buf.append(chunk, static_cast<std::size_t>(k));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
          const std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          if (line.rfind("tel ", 0) == 0) {
            if (on_event) on_event(line.substr(4));
          } else if (line.rfind("row ", 0) == 0) {
            out.row_line = line.substr(4);
            last_progress = now_ms();
          } else if (line.rfind("err ", 0) == 0) {
            out.error = line.substr(4);
            last_progress = now_ms();
          }
        }
      } else if (k == 0 || (k < 0 && errno != EINTR)) {
        eof = true;
      }
    }
    const std::int64_t now = now_ms();
    const std::uint64_t b = beat->load(std::memory_order_relaxed);
    if (b != last_beat) {
      last_beat = b;
      last_progress = now;
    }
    if (!eof && opts.cancel != nullptr && opts.cancel->requested()) {
      out.status = SandboxStatus::kCancelled;
      out.error = "cancelled";
      out.killed = true;
    } else if (!eof && opts.watchdog_s > 0 &&
               now - last_progress > static_cast<std::int64_t>(opts.watchdog_s * 1000.0)) {
      out.status = SandboxStatus::kWatchdog;
      out.error = "no heartbeat progress for " + std::to_string(opts.watchdog_s) +
                  "s — child killed";
      out.killed = true;
    } else if (!eof && opts.job_timeout_s > 0 &&
               now - start > static_cast<std::int64_t>(opts.job_timeout_s * 1000.0)) {
      out.status = SandboxStatus::kTimeout;
      out.error = "attempt exceeded " + std::to_string(opts.job_timeout_s) +
                  "s — child killed";
      out.killed = true;
    }
  }
  if (out.killed) ::kill(pid, SIGKILL);
  ::close(p[0]);
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  if (out.killed) return out;

  if (WIFSIGNALED(st)) {
    const int sig = WTERMSIG(st);
    const char* name = ::strsignal(sig);
    out.status = SandboxStatus::kCrashed;
    out.error = "child killed by signal " + std::to_string(sig) +
                (name != nullptr ? std::string(" (") + name + ")" : "");
    return out;
  }
  const int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  if (code == 0 && !out.row_line.empty()) {
    out.status = SandboxStatus::kOk;
    out.error.clear();
    return out;
  }
  if (code == 3) {
    out.status = SandboxStatus::kOom;
    if (out.error.empty()) out.error = "address-space limit reached (mem_limit)";
    return out;
  }
  out.status = SandboxStatus::kFailed;
  if (out.error.empty()) {
    out.error = code == 0 ? "child exited without a result row"
                          : "child exited with status " + std::to_string(code);
  }
  return out;
}

}  // namespace

const char* sandbox_status_name(SandboxStatus s) noexcept {
  switch (s) {
    case SandboxStatus::kOk: return "ok";
    case SandboxStatus::kFailed: return "failed";
    case SandboxStatus::kCrashed: return "crashed";
    case SandboxStatus::kOom: return "oom";
    case SandboxStatus::kWatchdog: return "watchdog";
    case SandboxStatus::kTimeout: return "timeout";
    case SandboxStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

SandboxResult run_sandboxed(const SandboxJob& job, const SandboxOptions& opts,
                            const std::function<void(const std::string&)>& on_event) {
  SandboxResult res;
  const std::string label = job.arch + "/" + job.bench;
  for (unsigned attempt = 0;; ++attempt) {
    if (opts.cancel != nullptr && opts.cancel->requested()) {
      res.status = SandboxStatus::kCancelled;
      res.error = "cancelled before start";
      return res;
    }
    const AttemptOutcome a = run_attempt(job, opts, attempt + 1, on_event);
    res.attempts = attempt + 1;
    res.status = a.status;
    res.error = a.error;
    res.row_line = a.row_line;
    if (a.killed) ++res.kills;
    if (a.status == SandboxStatus::kCrashed || a.status == SandboxStatus::kOom) {
      ++res.crashes;
    }
    switch (a.status) {
      case SandboxStatus::kOk:
      case SandboxStatus::kCancelled:
      case SandboxStatus::kWatchdog:  // a livelocked run would livelock again
      case SandboxStatus::kTimeout:
        return res;
      default:
        break;
    }
    if (attempt >= opts.retries) return res;
    // Same deterministic pacing as the thread supervisor's retries.
    const std::int64_t deadline =
        now_ms() + static_cast<std::int64_t>(
                       sim::retry_backoff_seconds(opts.retry_backoff_s, label, attempt) *
                       1000.0);
    while (now_ms() < deadline) {
      if (opts.cancel != nullptr && opts.cancel->requested()) {
        res.status = SandboxStatus::kCancelled;
        res.error = "cancelled during retry backoff";
        return res;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

std::string telemetry_event_json(const std::string& arch, const std::string& bench,
                                 const Telemetry& tel, std::size_t frame) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("event").value("telemetry");
  w.key("arch").value(arch);
  w.key("benchmark").value(bench);
  w.key("cycle").value(static_cast<std::uint64_t>(tel.frame_cycle(frame)));
  w.key("counters").begin_object();
  for (std::size_t k = 0; k < tel.track_count(); ++k) {
    if (!tel.track_is_counter(k)) continue;
    const auto& s = tel.track_samples(k);
    const double prev = frame > 0 ? s[frame - 1] : 0.0;
    w.key(tel.track_name(k)).value(s[frame] - prev);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (std::size_t k = 0; k < tel.track_count(); ++k) {
    if (tel.track_is_counter(k)) continue;
    w.key(tel.track_name(k)).value(tel.track_samples(k)[frame]);
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace sttgpu::serve
