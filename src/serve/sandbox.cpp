#include "serve/sandbox.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "sim/knobs.hpp"
#include "store/record.hpp"

namespace sttgpu::serve {

namespace {

/// Where the worker finds the channel and the heartbeat page.
constexpr int kChannelFd = 3;
constexpr int kHeartbeatFd = 4;
/// "<daemon pid>:<mem_limit bytes>" in a worker's environment.
constexpr const char* kWorkerEnv = "STTGPU_SANDBOX_WORKER";
constexpr const char* kWorkerName = "sttgpu-sandbox";  ///< as ps shows it

// Both processes use the heartbeat straight in shared memory, which is only
// sound for an atomic that never falls back to a (process-private) lock.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "a heartbeat shared between processes must be a lock-free atomic");

/// Maps the heartbeat page of memfd @p fd; null when the mapping fails.
std::atomic<std::uint64_t>* map_heartbeat(int fd) {
  void* p = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>), PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd, 0);
  return p == MAP_FAILED ? nullptr : new (p) std::atomic<std::uint64_t>(0);
}

/// Writes one channel line; MSG_NOSIGNAL, so a dead peer cannot SIGPIPE the
/// writer (its reader sees the EOF instead).
void put_line(int fd, std::string s) {
  s.push_back('\n');
  for (std::size_t done = 0; done < s.size();) {
    const ssize_t k = ::send(fd, s.data() + done, s.size() - done, MSG_NOSIGNAL);
    if (k < 0 && errno != EINTR) return;
    if (k > 0) done += static_cast<std::size_t>(k);
  }
}

/// Appends what @p fd has to @p buf, blocking; false at EOF or on an error.
bool read_more(int fd, std::string& buf) {
  char chunk[4096];
  ssize_t k;
  while ((k = ::read(fd, chunk, sizeof chunk)) < 0 && errno == EINTR) {
  }
  if (k > 0) buf.append(chunk, static_cast<std::size_t>(k));
  return k > 0;
}

/// Moves the first complete line of @p buf into @p line; false when none.
bool pop_line(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buf, 0, nl);
  buf.erase(0, nl + 1);
  return true;
}

/// STTGPU_SANDBOX_FAULT="<arch>/<bench>=<abort|oom|hang>[@attempt],..." —
/// returns the fault mode matching this (job, attempt), or "".
std::string fault_mode(const std::string& arch, const std::string& bench,
                       unsigned attempt) {
  const char* env = std::getenv("STTGPU_SANDBOX_FAULT");
  std::istringstream is(env != nullptr ? env : "");
  const std::string want = arch + "/" + bench + "=";
  for (std::string entry; std::getline(is, entry, ',');) {
    if (entry.compare(0, want.size(), want) != 0) continue;
    const std::size_t at = entry.find('@', want.size());
    if (at == std::string::npos) return entry.substr(want.size());
    if (std::strtoul(entry.c_str() + at + 1, nullptr, 10) == attempt) {
      return entry.substr(want.size(), at - want.size());
    }
  }
  return "";
}

// --- worker side: runs before main(), so it relies on no namespace-scope
// object of another file (the simulator's registries are function-local).

[[noreturn]] void apply_fault(const std::string& mode) {
  if (mode == "abort") std::abort();
  if (mode == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  // "oom": allocate until the worker's RLIMIT_AS makes operator new throw
  // (tests always pair this mode with a mem_limit).
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
  for (const bool counters : {true, false}) {  // counters as per-frame deltas
    w.key(counters ? "counters" : "gauges").begin_object();
    for (std::size_t k = 0; k < tel.track_count(); ++k) {
      if (tel.track_is_counter(k) != counters) continue;
      const auto& s = tel.track_samples(k);
      w.key(tel.track_name(k)).value(s[frame] - (counters && frame > 0 ? s[frame - 1] : 0.0));
    }
    w.end_object();
  }
  w.end_object();
  return os.str();
}

/// Runs one job line and answers it with its "row" line (returns 0), or
/// with an "err" line and the exit code the worker then leaves with.
int run_job(const std::string& line, std::atomic<std::uint64_t>* heartbeat) {
  try {
    const JsonValue job = parse_json(line);
    const std::string& arch = job.at("arch").as_string();
    const std::string& bench = job.at("bench").as_string();
    if (!job.at("fault").as_string().empty()) apply_fault(job.at("fault").as_string());
    sim::RunOptions ro = sim::run_options_from_knobs(
        sim::config_from_json(job.at("options")), sim::kKnobSubmit);
    ro.heartbeat = heartbeat;
    std::unique_ptr<Telemetry> tel;
    if (job.at("telemetry").as_bool()) {
      tel = std::make_unique<Telemetry>(static_cast<Cycle>(job.at("interval").as_int()));
      tel->set_on_frame([&](const Telemetry& T, std::size_t frame) {
        put_line(kChannelFd, "tel " + telemetry_event_json(arch, bench, T, frame));
      });
      ro.telemetry = tel.get();
    }
    const sim::Metrics m = sim::run_one(sim::architecture_from_string(arch), bench, ro);
    put_line(kChannelFd, "row " + store::encode_put(sim::config_fingerprint(ro.faults),
                                                    store::scale_text(ro.scale), m));
    return 0;
  } catch (const std::bad_alloc&) {
    put_line(kChannelFd, "err address-space limit reached (mem_limit)");
    return 3;
  } catch (const std::exception& e) {
    std::string what = e.what();
    std::replace(what.begin(), what.end(), '\n', ' ');  // one channel line
    put_line(kChannelFd, "err " + what);
    return 2;
  }
}

[[noreturn]] void worker_main(const char* spec) {
  int parent = 0;
  unsigned long long mem_limit = 0;
  std::sscanf(spec, "%d:%llu", &parent, &mem_limit);
  // Die with the daemon: an orphaned worker must never outlive a SIGKILLed
  // parent holding the store lock.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) std::_Exit(1);  // parent already gone before prctl
  ::prctl(PR_SET_NAME, kWorkerName);
  // A terminal's Ctrl-C reaches the whole process group; the daemon's drain,
  // not the signal, decides when the worker ends.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  if (mem_limit > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = mem_limit;
    ::setrlimit(RLIMIT_AS, &rl);
  }
  std::atomic<std::uint64_t>* const heartbeat = map_heartbeat(kHeartbeatFd);
  if (heartbeat == nullptr) std::_Exit(1);
  std::string buf, line;
  for (;;) {
    while (!pop_line(buf, line)) {
      // EOF, the Sandbox is done: exit, not _exit, so gcov and LSan see us.
      if (!read_more(kChannelFd, buf)) std::exit(0);
    }
    if (const int code = run_job(line, heartbeat); code != 0) std::exit(code);
  }
}

// The worker's entry: a spawned /proc/self/exe never reaches its main().
[[maybe_unused]] const bool kIsWorker = [] {
  if (const char* spec = std::getenv(kWorkerEnv)) worker_main(spec);
  return false;
}();

// --- parent side -----------------------------------------------------------

/// One job as the worker's JSON line.
std::string job_line(const SandboxJob& job, const std::string& fault) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("arch").value(job.arch);
  w.key("bench").value(job.bench);
  w.key("telemetry").value(job.want_telemetry);
  w.key("interval").value(static_cast<std::uint64_t>(job.interval));
  w.key("fault").value(fault);
  w.key("options");
  sim::run_options_to_json(w, job.base);
  w.end_object();
  return os.str();
}

/// Throws the SimError for a worker that ended without a row. @p reported
/// is the worker's own "err" line, if it wrote one.
[[noreturn]] void throw_worker_failure(int st, const std::string& reported,
                                       SandboxCounters& counters) {
  const int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  // Exit code 3 is the mem_limit, caught as bad_alloc.
  if (WIFSIGNALED(st) || code == 3) ++counters.crashes;
  if (WIFSIGNALED(st)) {
    const char* name = ::strsignal(WTERMSIG(st));
    throw SimError("child killed by signal " + std::to_string(WTERMSIG(st)) +
                   (name != nullptr ? std::string(" (") + name + ")" : ""));
  }
  if (!reported.empty()) throw SimError(reported);
  throw SimError(code == 0 ? "child exited without a result row"
                           : "child exited with status " + std::to_string(code));
}

}  // namespace

Sandbox::~Sandbox() {
  if (pid_ > 0) end_worker(/*kill=*/false);
  if (beat_ != nullptr) ::munmap(beat_, sizeof *beat_);
  if (beat_fd_ >= 0) ::close(beat_fd_);
}

void Sandbox::spawn(SandboxCounters& counters) {
  if (beat_ == nullptr) {  // one heartbeat page serves every worker
    beat_fd_ = ::memfd_create("sttgpu-heartbeat", MFD_CLOEXEC);
    if (beat_fd_ < 0 || ::ftruncate(beat_fd_, sizeof *beat_) != 0 ||
        (beat_ = map_heartbeat(beat_fd_)) == nullptr) {
      throw SimError(std::string("sandbox heartbeat failed: ") + std::strerror(errno));
    }
  }
  const std::string marker = std::string(kWorkerEnv) + "=" + std::to_string(::getpid()) +
                             ":" + std::to_string(mem_limit_bytes_);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  envp.push_back(const_cast<char*>(marker.c_str()));
  envp.push_back(nullptr);
  char* argv[] = {const_cast<char*>(kWorkerName), nullptr};
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw SimError(std::string("sandbox socketpair failed: ") + std::strerror(errno));
  }
  // Each descriptor reaches its fixed number through a slot above both
  // sources, so no dup2 overwrites a source before it is copied; closefrom
  // then drops the slots and whatever else the daemon holds open.
  const int slot = std::max(sv[1], beat_fd_) + 1;
  posix_spawn_file_actions_t fa;
  ::posix_spawn_file_actions_init(&fa);
  ::posix_spawn_file_actions_adddup2(&fa, sv[1], slot);
  ::posix_spawn_file_actions_adddup2(&fa, beat_fd_, slot + 1);
  ::posix_spawn_file_actions_adddup2(&fa, slot, kChannelFd);
  ::posix_spawn_file_actions_adddup2(&fa, slot + 1, kHeartbeatFd);
  ::posix_spawn_file_actions_addclosefrom_np(&fa, kHeartbeatFd + 1);
  const int rc = ::posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr, argv, envp.data());
  ::posix_spawn_file_actions_destroy(&fa);
  ::close(sv[1]);
  if (rc != 0) {
    ::close(sv[0]);
    pid_ = -1;
    throw SimError(std::string("sandbox spawn failed: ") + std::strerror(rc));
  }
  fd_ = sv[0];
  ++counters.spawns;
}

int Sandbox::end_worker(bool kill) {
  if (kill) ::kill(pid_, SIGKILL);
  ::close(fd_);  // an idle worker sees EOF and exits
  int st = 0;
  while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return st;
}

std::string Sandbox::run(const SandboxJob& job, const sim::JobControl& ctl,
                         SandboxCounters& counters,
                         const std::function<void(const std::string&)>& on_event) {
  ctl.checkpoint();  // a cancelled job spawns nothing
  const unsigned attempt = ++counters.attempts;
  // A worker that died while idle is replaced; its death is not this job's.
  if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == pid_) {
    ::close(fd_);
    pid_ = -1;
  }
  if (pid_ < 0) spawn(counters);
  beat_->store(0, std::memory_order_relaxed);
  // A failed send means the worker is gone; the reads below see its EOF.
  put_line(fd_, job_line(job, fault_mode(job.arch, job.bench, attempt)));

  // The answer ends with a "row" line, or with an "err" line after which the
  // worker exits; EOF means it died.
  std::string buf, line, error;
  bool eof = false;
  try {
    while (!eof && error.empty() && !ctl.cancelled()) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, /*ms=*/50) > 0) eof = !read_more(fd_, buf);
      while (error.empty() && pop_line(buf, line)) {
        if (line.rfind("row ", 0) == 0) return line.substr(4);  // the worker stays
        if (line.rfind("err ", 0) == 0) error = line.substr(4);
        if (on_event && line.rfind("tel ", 0) == 0) on_event(line.substr(4));
      }
      // The supervisor's watchdog reads the copy; its kills come back as a
      // cancelled token, like user cancellation.
      ctl.beat(beat_->load(std::memory_order_relaxed));
    }
  } catch (...) {
    end_worker(/*kill=*/true);  // a job abandoned mid-run must not linger
    throw;
  }
  const bool killed = !eof && error.empty();
  const int st = end_worker(killed);
  if (killed) {
    ++counters.kills;
    const CancelReason r = ctl.cancel->reason();
    throw Cancelled(r, std::string("cancelled (") + cancel_reason_name(r) +
                           ") — child killed");
  }
  throw_worker_failure(st, error, counters);
}

}  // namespace sttgpu::serve
