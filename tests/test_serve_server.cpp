// In-process integration tests of the sweep service: a real SweepServer on
// a temp unix socket, driven through the real Client. Covers the PR's
// acceptance criteria: a resubmission is a pure store hit (zero simulated
// cycles), concurrent overlapping submissions simulate each unique config
// exactly once, and a row fetched through the service prints byte-identically
// to the direct in-process run.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "sim/knobs.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "store/record.hpp"

namespace sttgpu::serve {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sttgpu_serve_XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// One running server + the request plumbing the tests share.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions so;
    so.socket_path = dir_.path + "/s.sock";
    so.cache_path = dir_.path + "/c.csv";
    so.jobs = 2;
    server_ = std::make_unique<SweepServer>(std::move(so));
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  Client connect() { return Client::connect(server_->socket_path()); }

  static std::string submit_request(const std::string& archs,
                                    const std::string& benchmarks) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value("submit");
    w.key("options").begin_object();
    w.key("archs").value(archs);
    w.key("benchmarks").value(benchmarks);
    w.key("scale").value("0.05");
    w.end_object();
    w.end_object();
    return os.str();
  }

  static std::string id_request(const std::string& verb, std::int64_t id) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value(verb);
    w.key("id").value(id);
    w.end_object();
    return os.str();
  }

  /// Submits and blocks (via watch) until the submission is terminal.
  JsonValue submit_and_wait(const std::string& archs, const std::string& benchmarks) {
    const JsonValue resp = connect().request(submit_request(archs, benchmarks));
    return connect().stream(id_request("watch", resp.at("id").as_int()),
                            [](const std::string&, const JsonValue&) {});
  }

  TempDir dir_;
  std::unique_ptr<SweepServer> server_;
};

TEST_F(ServeTest, ResubmissionIsAPureStoreHit) {
  const JsonValue first = connect().request(submit_request("C1", "bfs"));
  EXPECT_EQ(first.at("scheduled").as_int(), 1);
  EXPECT_EQ(first.at("hits").as_int(), 0);
  connect().stream(id_request("watch", first.at("id").as_int()),
                   [](const std::string&, const JsonValue&) {});
  ASSERT_EQ(server_->stats().tasks_simulated, 1u);

  // The second submission must not touch a worker: all hits, nothing
  // scheduled, the simulation counter frozen.
  const JsonValue second = connect().request(submit_request("C1", "bfs"));
  EXPECT_EQ(second.at("hits").as_int(), 1);
  EXPECT_EQ(second.at("scheduled").as_int(), 0);
  EXPECT_EQ(second.at("attached").as_int(), 0);
  EXPECT_EQ(server_->stats().tasks_simulated, 1u);

  // A pure-hit submission is terminal immediately; its result is served
  // from the store.
  const JsonValue status =
      connect().request(id_request("status", second.at("id").as_int()));
  EXPECT_EQ(status.at("state").as_string(), "complete");
  const JsonValue result =
      connect().request(id_request("result", second.at("id").as_int()));
  EXPECT_EQ(result.at("rows").size(), 1u);
  EXPECT_EQ(result.at("missing").size(), 0u);
}

TEST_F(ServeTest, ConcurrentOverlappingSubmissionsSimulateEachConfigOnce) {
  // Two clients race the same 2-config slice; between the store check and
  // the in-flight attach, each unique (arch, benchmark) may simulate once
  // and only once.
  std::vector<JsonValue> finals(2);
  std::thread a([&] { finals[0] = submit_and_wait("C1,C2", "bfs"); });
  std::thread b([&] { finals[1] = submit_and_wait("C1,C2", "bfs"); });
  a.join();
  b.join();

  for (const JsonValue& f : finals) {
    EXPECT_EQ(f.at("state").as_string(), "complete");
    EXPECT_EQ(f.at("total").as_int(), 2);
    EXPECT_EQ(f.at("failed").as_int(), 0);
  }
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.tasks_simulated, 2u);  // C1/bfs and C2/bfs, once each
  EXPECT_EQ(s.store_hits + s.attached, 2u);  // the other client's two entries
}

TEST_F(ServeTest, ResultByKeyIsByteIdenticalToDirectRun) {
  submit_and_wait("C1", "bfs");

  std::ostringstream req;
  JsonWriter w(req);
  w.begin_object();
  w.key("protocol_version").value(kProtocolVersion);
  w.key("verb").value("result");
  w.key("options").begin_object();
  w.key("arch").value("C1");
  w.key("benchmark").value("bfs");
  w.key("scale").value("0.05");
  w.end_object();
  w.end_object();
  const JsonValue resp = connect().request(req.str());
  ASSERT_EQ(resp.at("rows").size(), 1u);
  const auto rec = store::decode_put(resp.at("rows").at(0).as_string());
  ASSERT_TRUE(rec.has_value());

  std::ostringstream via_serve;
  sim::print_metrics_block(via_serve, sim::from_store_row(rec->row), 0.05);

  sim::RunOptions direct_opts;
  direct_opts.scale = 0.05;
  const sim::Metrics direct =
      sim::run_one(sim::architecture_from_string("C1"), "bfs", direct_opts);
  std::ostringstream direct_out;
  sim::print_metrics_block(direct_out, direct, 0.05);

  EXPECT_EQ(via_serve.str(), direct_out.str());
}

TEST_F(ServeTest, RejectsProtocolMismatchAndUnknownKnobs) {
  EXPECT_THROW(
      connect().request(R"({"protocol_version":99,"verb":"status","id":0})"),
      ProtocolMismatch);
  try {
    connect().request(R"({"protocol_version":)" + std::to_string(kProtocolVersion) +
                      R"(,"verb":"submit","options":{"scail":0.5}})");
    FAIL() << "expected SimError";
  } catch (const ProtocolMismatch&) {
    FAIL() << "a bad knob is a normal error, not a protocol mismatch";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scail"), std::string::npos);
    EXPECT_NE(msg.find("scale"), std::string::npos);  // lists valid knobs
  }
}

TEST_F(ServeTest, SecondServerOnTheSameSocketFailsToBind) {
  ServerOptions so;
  so.socket_path = server_->socket_path();
  so.cache_path = dir_.path + "/other.csv";
  EXPECT_THROW(SweepServer{std::move(so)}, BindError);
}

TEST_F(ServeTest, CancelStopsAPendingSubmission) {
  // Occupy both workers with a larger slice, then cancel a queued one.
  const JsonValue busy = connect().request(submit_request("C1,C2,C3", "bfs"));
  const JsonValue victim = connect().request(submit_request("sram", "nw"));
  const JsonValue cancelled =
      connect().request(id_request("cancel", victim.at("id").as_int()));
  EXPECT_EQ(cancelled.at("state").as_string(), "cancelled");
  // The cancelled submission is terminal; watch returns immediately.
  const JsonValue final_event =
      connect().stream(id_request("watch", victim.at("id").as_int()),
                       [](const std::string&, const JsonValue&) {});
  EXPECT_EQ(final_event.at("state").as_string(), "cancelled");
  // The busy submission is unaffected.
  const JsonValue busy_final =
      connect().stream(id_request("watch", busy.at("id").as_int()),
                       [](const std::string&, const JsonValue&) {});
  EXPECT_EQ(busy_final.at("state").as_string(), "complete");
  EXPECT_EQ(busy_final.at("failed").as_int(), 0);
}

}  // namespace
}  // namespace sttgpu::serve
