#include "serve/sandbox.hpp"

#include <algorithm>
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

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "store/record.hpp"

namespace sttgpu::serve {

namespace {

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

/// The watch stream's telemetry event JSON for one closed frame.
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

/// Closes every descriptor the child inherited except stdio and @p keep. A
/// copy held by a child would keep its peer from ever seeing EOF while the
/// child lives: the daemon's listener (a restarting daemon would read the
/// stale socket as "another server is alive"), a client connection, or
/// another worker's attempt pipe that was open when this child forked.
void close_inherited_fds(int keep) {
  const unsigned k = static_cast<unsigned>(keep);
  if (k > 3) ::close_range(3, k - 1, 0);
  ::close_range(std::max(3u, k + 1), ~0u, 0);
}

[[noreturn]] void run_child(const SandboxJob& job, const SandboxOptions& opts,
                            unsigned attempt, int wfd,
                            std::atomic<std::uint64_t>* heartbeat) {
  close_inherited_fds(wfd);
  // Die with the daemon: an orphaned child must never outlive a SIGKILLed
  // parent holding the store lock.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(1);  // parent already gone before prctl
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
    put_line(wfd, "row " + store::encode_put(job.fp, job.scale17, m));
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

/// Throws the SimError for a child that ended without a row. @p reported is
/// the child's own "err" line, if it wrote one.
[[noreturn]] void throw_child_failure(int st, const std::string& reported,
                                      SandboxCounters& counters) {
  if (WIFSIGNALED(st)) {
    ++counters.crashes;
    const int sig = WTERMSIG(st);
    const char* name = ::strsignal(sig);
    throw SimError("child killed by signal " + std::to_string(sig) +
                   (name != nullptr ? std::string(" (") + name + ")" : ""));
  }
  const int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  if (code == 3) ++counters.crashes;  // the mem_limit, caught as bad_alloc
  if (!reported.empty()) throw SimError(reported);
  throw SimError(code == 0 ? "child exited without a result row"
                           : "child exited with status " + std::to_string(code));
}

}  // namespace

std::string run_sandboxed(const SandboxJob& job, const SandboxOptions& opts,
                          const sim::JobControl& ctl, SandboxCounters& counters,
                          const std::function<void(const std::string&)>& on_event) {
  ctl.checkpoint();  // a cancelled job forks nothing
  const SharedHeartbeat page;
  std::atomic<std::uint64_t>* const beat = page.get();
  if (beat == nullptr) {
    throw SimError(std::string("sandbox heartbeat mmap failed: ") + std::strerror(errno));
  }
  int p[2];
  if (::pipe2(p, O_CLOEXEC) != 0) {
    throw SimError(std::string("sandbox pipe failed: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string why = std::strerror(errno);
    ::close(p[0]);
    ::close(p[1]);
    throw SimError("sandbox fork failed: " + why);
  }
  const unsigned attempt = ++counters.forks;
  if (pid == 0) {
    ::close(p[0]);
    run_child(job, opts, attempt, p[1], beat);  // never returns
  }
  ::close(p[1]);

  // The child's last line is its "row" or "err" line, and it exits right
  // after writing it, so the loop ends there rather than waiting for EOF;
  // EOF ends it only for a child that died without either line.
  std::string buf, row, error;
  bool done = false, killed = false;
  while (!done && !killed) {
    pollfd pfd{p[0], POLLIN, 0};
    if (::poll(&pfd, 1, /*ms=*/50) > 0) {
      char chunk[4096];
      const ssize_t k = ::read(p[0], chunk, sizeof chunk);
      if (k > 0) {
        buf.append(chunk, static_cast<std::size_t>(k));
        std::size_t nl;
        while (!done && (nl = buf.find('\n')) != std::string::npos) {
          const std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          if (line.rfind("tel ", 0) == 0) {
            if (on_event) on_event(line.substr(4));
          } else if (line.rfind("row ", 0) == 0) {
            row = line.substr(4);
            done = true;
          } else if (line.rfind("err ", 0) == 0) {
            error = line.substr(4);
            done = true;
          }
        }
      } else if (k == 0 || errno != EINTR) {
        done = true;
      }
    }
    // The supervisor's watchdog reads the copy; its kills come back as a
    // cancelled token, like user cancellation.
    ctl.beat(beat->load(std::memory_order_relaxed));
    killed = !done && ctl.cancelled();
  }
  if (killed) {
    ::kill(pid, SIGKILL);
    ++counters.kills;
  }
  ::close(p[0]);
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  if (killed) {
    const CancelReason r = ctl.cancel->reason();
    throw Cancelled(r, std::string("cancelled (") + cancel_reason_name(r) +
                           ") — child killed");
  }
  if (WIFEXITED(st) && WEXITSTATUS(st) == 0 && !row.empty()) return row;
  throw_child_failure(st, error, counters);
}

}  // namespace sttgpu::serve
