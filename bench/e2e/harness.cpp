#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace e2e {

namespace {

/// Scratch space inside the build tree of the checkout the benchmark runs
/// from (run.sh and the self-test both start it at the checkout root).
constexpr char kScratchRoot[] = ".bench_build/e2e/tmp";

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::gate(const std::string& what, bool ok) {
  const auto it = std::find_if(gates_.begin(), gates_.end(),
                               [&](const Gate& g) { return g.what == what; });
  Gate& g = it != gates_.end() ? *it : gates_.emplace_back(Gate{what, 0, 0});
  ++g.checks;
  if (!ok) {
    ++g.failures;
    correct_ = false;
    ++failed_;
  }
}

std::string Report::json(const Args* identity) const {
  std::ostringstream os;
  os << std::setprecision(17);
  sttgpu::JsonWriter w(os);
  w.begin_object();
  if (identity != nullptr) {
    w.key("workload").value(identity->workload);
    w.key("seed").value(identity->seed);
    w.key("seconds").value(identity->seconds);
    w.key("trace").value(identity->trace);
    w.key("quick").value(identity->quick);
  }
  w.key("correct").value(correct());
  w.key("attempted").value(std::max<std::uint64_t>(attempted_, 1));
  w.key("failed").value(failed_);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

void Report::print(const Args& args) const {
  std::cout << "workload " << args.workload << "  seed " << args.seed << "  seconds "
            << args.seconds << "  trace " << (args.trace ? 1 : 0)
            << (args.quick ? "  quick" : "") << '\n';
  for (const Gate& g : gates_) {
    std::cout << "gate  " << (g.failures == 0 ? "ok    " : "FAILED") << "  " << g.what << "  ("
              << g.checks - g.failures << '/' << g.checks << ")\n";
  }
  for (const std::string& n : notes_) std::cout << n << '\n';
  for (const Metric& m : metrics_) {
    std::cout << "  " << std::left << std::setw(28) << m.name << ' ' << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' ' << m.unit << '\n';
  }
  std::cout << json(nullptr) << std::endl;
}

void Report::write(const Args& args, const std::string& path) const {
  std::ofstream out(path);
  out << json(&args) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  const double q = v.size() < 10 ? 1.0 : 1.0 - 10.0 / static_cast<double>(v.size());
  return percentile(std::move(v), q);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Passes::add(double wall, const std::vector<double>& request_ms) {
  wall_s.push_back(wall);
  requests_per_pass = request_ms.size();
  p50_ms.push_back(median(request_ms));
  tail_ms.push_back(tail(request_ms));
}

bool Passes::another(Clock::time_point start, double seconds) const {
  return seconds_since(start) + median(wall_s) <= seconds;
}

void Passes::emit(Report& report) const {
  report.note("samples: passes " + std::to_string(wall_s.size()) + ", requests per pass " +
              std::to_string(requests_per_pass) + ", set-ups " +
              std::to_string(setup_s.size()));
  report.metric("wall_s", median(wall_s), "s");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("latency_p50_ms", median(p50_ms), "ms");
  report.metric("latency_tail_ms", median(tail_ms), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

ScratchDir::ScratchDir(const std::string& prefix) {
  std::filesystem::create_directories(kScratchRoot);
  std::string tmpl = std::string(kScratchRoot) + "/" + prefix + "-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + std::string(kScratchRoot));
  }
  path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace e2e
