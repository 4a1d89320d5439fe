// Robustness tests of the hardened sweep service: frame-parser abuse over a
// raw socket, stop() with silent clients connected, the health verb, crash
// containment through the server, and journal replay on restart.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace sttgpu::serve {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sttgpu_robust_XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

struct FaultEnv {
  explicit FaultEnv(const char* spec) { ::setenv("STTGPU_SANDBOX_FAULT", spec, 1); }
  ~FaultEnv() { ::unsetenv("STTGPU_SANDBOX_FAULT"); }
};

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Raw unix-socket connection, for speaking *broken* protocol on purpose.
struct RawConn {
  int fd = -1;
  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const void* buf, std::size_t n) { write_all(fd, buf, n); }
};

class RobustServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions so) {
    so.socket_path = dir_.path + "/s.sock";
    so.cache_path = dir_.path + "/c.csv";
    server_ = std::make_unique<SweepServer>(std::move(so));
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  Client connect() { return Client::connect(server_->socket_path()); }

  static std::string submit_request(const std::string& archs,
                                    const std::string& benchmarks,
                                    const char* scale = "0.05") {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value("submit");
    w.key("options").begin_object();
    w.key("archs").value(archs);
    w.key("benchmarks").value(benchmarks);
    w.key("scale").value(scale);
    w.end_object();
    w.end_object();
    return os.str();
  }

  static std::string verb_request(const std::string& verb, std::int64_t id = 0) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value(verb);
    if (id > 0) w.key("id").value(id);
    w.end_object();
    return os.str();
  }

  /// The server must still answer ordinary requests — the liveness probe
  /// after every abuse case.
  void ExpectServerAlive() {
    const JsonValue resp = connect().request(verb_request("health"));
    EXPECT_TRUE(resp.at("ok").as_bool());
  }

  TempDir dir_;
  std::unique_ptr<SweepServer> server_;
};

TEST_F(RobustServeTest, GarbageBytesGetAProtocolErrorNotAHang) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  conn.send(garbage, sizeof garbage - 1);
  // The server answers with a well-formed "protocol" error frame.
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  const JsonValue resp = parse_json(*reply);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, OversizedLengthIsRefusedWithoutAllocating) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  std::string header(kFrameMagic, sizeof kFrameMagic);
  const std::uint32_t huge = kMaxFramePayload + 1;
  header.append(reinterpret_cast<const char*>(&huge), sizeof huge);
  conn.send(header.data(), header.size());
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parse_json(*reply).at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, ZeroLengthFrameIsAProtocolError) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  std::string header(kFrameMagic, sizeof kFrameMagic);
  const std::uint32_t zero = 0;
  header.append(reinterpret_cast<const char*>(&zero), sizeof zero);
  conn.send(header.data(), header.size());
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parse_json(*reply).at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, TruncatedMagicThenHangupDoesNotWedgeTheServer) {
  StartServer(ServerOptions{});
  {
    RawConn conn(server_->socket_path());
    conn.send("SW", 2);  // half a magic, then close
  }
  ExpectServerAlive();
}

TEST_F(RobustServeTest, StopReleasesASilentClient) {
  StartServer(ServerOptions{});
  RawConn silent(server_->socket_path());  // connects and says nothing
  RawConn half(server_->socket_path());
  half.send("SW", 2);  // half a frame magic, and no hangup
  // Both handlers are blocked in read_frame; stop() must shut their sockets
  // down and join them instead of waiting for the clients to hang up.
  for (int i = 0; i < 500 && server_->stats().connections < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->stats().connections, 2u);
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  char byte = 0;
  EXPECT_EQ(::read(silent.fd, &byte, 1), 0);  // clean EOF
  EXPECT_EQ(::read(half.fd, &byte, 1), 0);
}

TEST_F(RobustServeTest, HealthVerbReportsTheRobustnessCounters) {
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(verb_request("health"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  const JsonValue& h = resp.at("health");
  EXPECT_GE(h.at("uptime_s").as_double(), 0.0);
  EXPECT_EQ(h.at("queued").as_int(), 0);
  EXPECT_EQ(h.at("inflight").as_int(), 0);
  EXPECT_EQ(h.at("child_kills").as_int(), 0);
  EXPECT_EQ(h.at("child_crashes").as_int(), 0);
  EXPECT_EQ(h.at("journal_pending").as_int(), 0);
  EXPECT_EQ(h.at("replayed").as_int(), 0);
  EXPECT_GE(h.at("connections").as_int(), 1);  // ours
}

TEST_F(RobustServeTest, CrashingChildIsQuarantinedOthersUnaffected) {
  const FaultEnv env("C1/bfs=abort");
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(submit_request("C1,C2", "bfs"));
  std::string failed_status, failed_error;
  const JsonValue final_event = connect().stream(
      verb_request("watch", resp.at("id").as_int()),
      [&](const std::string&, const JsonValue& ev) {
        if (ev.at("event").as_string() != "failed") return;
        failed_status = ev.at("status").as_string();
        failed_error = ev.at("error").as_string();
      });
  EXPECT_EQ(final_event.at("state").as_string(), "failed");
  EXPECT_EQ(final_event.at("failed").as_int(), 1);    // C1/bfs crashed
  EXPECT_EQ(final_event.at("simulated").as_int(), 1);  // C2/bfs finished
  // The status is the supervisor's; what happened is in the error text.
  EXPECT_EQ(failed_status, "failed");
  EXPECT_NE(failed_error.find("signal"), std::string::npos) << failed_error;
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.child_crashes, 1u);
  EXPECT_EQ(s.tasks_failed, 1u);
  EXPECT_EQ(s.tasks_simulated, 1u);
  ExpectServerAlive();
}

TEST_F(RobustServeTest, WatchdogKillsAWedgedChildOthersUnaffected) {
  const FaultEnv env("C1/bfs=hang");
  ServerOptions so;
  // The healthy C2/bfs child must finish inside the watchdog: ~5 ms in plain
  // builds, ~70 ms under ASan, and ~0.3 s under TSan.
  so.watchdog_s = sanitized() ? 2.0 : 0.3;
  so.retries = 2;  // must be ignored: a wedged run would wedge again
  StartServer(std::move(so));
  const JsonValue resp = connect().request(submit_request("C1,C2", "bfs"));
  std::string failed_status;
  const JsonValue final_event = connect().stream(
      verb_request("watch", resp.at("id").as_int()),
      [&failed_status](const std::string&, const JsonValue& ev) {
        if (ev.at("event").as_string() == "failed") {
          failed_status = ev.at("status").as_string();
        }
      });
  EXPECT_EQ(final_event.at("failed").as_int(), 1);     // C1/bfs wedged
  EXPECT_EQ(final_event.at("simulated").as_int(), 1);  // C2/bfs finished
  EXPECT_EQ(failed_status, "watchdog");
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.child_kills, 1u);
  EXPECT_EQ(s.task_retries, 0u);
  ExpectServerAlive();
}

TEST_F(RobustServeTest, WedgedChildDoesNotStallTheOtherWorker) {
  // Two workers: one sits on the wedged C1/bfs job until the watchdog
  // kills its sandbox process, the other runs the healthy tasks meanwhile in
  // its own. Each healthy attempt must end on its own row line, with the
  // other thread's wedged worker left out of it.
  const FaultEnv env("C1/bfs=hang");
  ServerOptions so;
  so.jobs = 2;
  // The two healthy children take ~10 ms together in plain builds, ~0.15 s
  // under ASan and ~0.6 s under TSan.
  so.watchdog_s = sanitized() ? 4.0 : 1.0;
  StartServer(std::move(so));
  const JsonValue resp = connect().request(submit_request("C1,C2,C3", "bfs"));
  std::vector<std::string> order;
  const JsonValue final_event = connect().stream(
      verb_request("watch", resp.at("id").as_int()),
      [&order](const std::string&, const JsonValue& ev) {
        const std::string kind = ev.at("event").as_string();
        if (kind == "done" || kind == "failed") {
          order.push_back(kind + ":" + ev.at("status").as_string());
        }
      });
  EXPECT_EQ(final_event.at("failed").as_int(), 1);     // C1/bfs wedged
  EXPECT_EQ(final_event.at("simulated").as_int(), 2);  // C2/bfs, C3/bfs
  // Both healthy rows land before the wedged child is killed.
  const std::vector<std::string> want = {"done:ok", "done:ok", "failed:watchdog"};
  EXPECT_EQ(order, want);
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.child_kills, 1u);
  EXPECT_EQ(s.task_retries, 0u);
  ExpectServerAlive();
}

TEST_F(RobustServeTest, JournaledSubmissionIsReplayedOnRestart) {
  // A dead server's journal: submission 7, acknowledged but never run.
  const std::string journal_path = Journal::derive_path(dir_.path + "/c.csv");
  {
    Journal j(journal_path);
    j.record_submission(7, R"({"archs":"C1","benchmarks":"bfs","scale":"0.05"})");
  }

  StartServer(ServerOptions{});  // replays before accepting connections
  // Drain: the replayed submission finishes and retires its record.
  for (int i = 0; i < 600 && server_->stats().journal_pending > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.replayed, 1u);
  EXPECT_EQ(s.journal_pending, 0u);
  EXPECT_EQ(s.tasks_simulated, 1u);

  // The replayed row is served; new ids never collide with journaled ones.
  const JsonValue row = connect().request(verb_request("result", 7));
  EXPECT_EQ(row.at("rows").size(), 1u);
  const JsonValue fresh = connect().request(submit_request("C1", "bfs"));
  EXPECT_GE(fresh.at("id").as_int(), 8);
  EXPECT_EQ(fresh.at("hits").as_int(), 1);  // pure store hit from the replay
}

TEST_F(RobustServeTest, CompletedSubmissionRetiresItsJournalRecord) {
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(submit_request("C1", "bfs"));
  connect().stream(verb_request("watch", resp.at("id").as_int()),
                   [](const std::string&, const JsonValue&) {});
  // sub + done both recorded; nothing left pending.
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.journal_pending, 0u);
  EXPECT_GE(s.journal_records, 2u);
}

}  // namespace
}  // namespace sttgpu::serve
