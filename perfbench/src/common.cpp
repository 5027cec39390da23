#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/simd.h"
#include "core/inference.h"
#include "edge/protocol.h"
#include "models/accounting.h"
#include "sim/cost_model.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace perfbench {

using namespace lcrs;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// ---------------------------------------------------------------------
// Report

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!metrics_.empty()) metrics_ += ", ";
  metrics_ += quoted(name) + ": {\"value\": " + json_number(value) +
              ", \"unit\": " + quoted(unit) + "}";
}

void Report::fact(const std::string& key, double value) {
  facts_.emplace_back(key, json_number(value));
}

void Report::fact(const std::string& key, const std::string& value) {
  facts_.emplace_back(key, quoted(value));
}

void Report::fact_json(const std::string& key, const std::string& json) {
  facts_.emplace_back(key, json);
}

void Report::print(bool correct, std::int64_t attempted,
                   std::int64_t failed) const {
  std::string facts = "{\"facts\": {";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    if (i > 0) facts += ", ";
    facts += quoted(facts_[i].first) + ": " + facts_[i].second;
  }
  facts += "}}";
  std::cout << facts << "\n"
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics_ << "}}" << std::endl;
}

// ---------------------------------------------------------------------
// Process counters

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.csw = ru.ru_nvcsw + ru.ru_nivcsw;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    std::int64_t v = 0;
    stat >> v;
    u.host_total += v;
    if (field == 7) u.host_steal = v;
  }
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int proc_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// ---------------------------------------------------------------------
// Oracle and accounting

bool matches(const Answer& want, std::int64_t label, const Tensor& probs) {
  return label == want.label && probs.shape() == want.probs.shape() &&
         std::memcmp(probs.data(), want.probs.data(),
                     sizeof(float) * static_cast<std::size_t>(probs.numel())) ==
             0;
}

void Tally::merge(const Tally& o) {
  attempted += o.attempted;
  completed += o.completed;
  mismatched += o.mismatched;
  busy += o.busy;
  fallback += o.fallback;
  transport += o.transport;
  missed += o.missed;
  browser_exits += o.browser_exits;
  oracle_exits += o.oracle_exits;
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(latency_ms, o.latency_ms);
  cat(latency_at_s, o.latency_at_s);
  cat(lateness_ms, o.lateness_ms);
  cat(conv1_us, o.conv1_us);
  cat(branch_us, o.branch_us);
  cat(encode_us, o.encode_us);
  cat(roundtrip_us, o.roundtrip_us);
  cat(decode_us, o.decode_us);
  upload_bytes += o.upload_bytes;
}

Tally merged(const std::vector<Tally>& parts) {
  Tally t;
  for (const auto& p : parts) t.merge(p);
  return t;
}

std::vector<double> poisson_offsets(Rng& rng, double rate_per_s,
                                    double horizon_s) {
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= horizon_s) return out;
    out.push_back(t);
  }
}

bool overloaded(const std::vector<double>& offsets, std::size_t i,
                Clock::time_point t0, Clock::time_point start,
                Clock::time_point end, Tally& t) {
  if (Clock::now() < after_s(end, kOverloadGraceS)) return false;
  for (; i < offsets.size(); ++i) {
    const auto due = after_s(t0, offsets[i]);
    if (due >= start && due < end) {
      ++t.attempted;
      ++t.missed;
    }
  }
  return true;
}

Clock::time_point await_due(Clock::time_point due, Clock::time_point start,
                            Tally& t) {
  if (Clock::now() < due) {
    std::this_thread::sleep_until(due);
    if (due >= start) t.lateness_ms.push_back(ms_between(due, Clock::now()));
  }
  return due;
}

void run_threads(int n, const std::function<void(int)>& body,
                 const std::function<void()>& while_running) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  std::exception_ptr main_error;
  try {
    while_running();
  } catch (...) {
    main_error = std::current_exception();
  }
  for (auto& t : threads) t.join();
  if (main_error) std::rethrow_exception(main_error);
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ---------------------------------------------------------------------
// Models and the edge server

std::shared_ptr<core::CompositeNetwork> build_net(
    const models::ModelConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<core::CompositeNetwork>(
      core::CompositeNetwork::build(cfg, rng));
}

webinfer::Engine export_engine(core::CompositeNetwork& net,
                               const models::ModelConfig& cfg) {
  const webinfer::WebModel model = webinfer::export_browser_model(
      net, cfg.in_channels, cfg.in_h, cfg.in_w);
  return webinfer::Engine::from_bytes(webinfer::serialize(model));
}

edge::BatchCompletionFn timed_completion(edge::BatchCompletionFn inner,
                                         CompletionTimer* timer) {
  return [inner = std::move(inner), timer](const Tensor& batch) {
    const auto t0 = Clock::now();
    std::vector<edge::CompleteResponse> out = inner(batch);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    timer->ns.fetch_add(ns, std::memory_order_relaxed);
    timer->rows.fetch_add(batch.dim(0), std::memory_order_relaxed);
    return out;
  };
}

std::shared_ptr<const edge::ServableModel> servable(
    std::uint32_t model_id, std::uint32_t version,
    std::shared_ptr<core::CompositeNetwork> net,
    edge::BatchCompletionFn complete) {
  auto m = std::make_shared<edge::ServableModel>();
  m->model_id = model_id;
  m->version = version;
  m->name = "perfbench";
  m->complete = std::move(complete);
  m->net = std::move(net);
  return m;
}

void install_timed_model(Report& r, edge::ModelRegistry& registry,
                         std::shared_ptr<core::CompositeNetwork> net,
                         edge::BatchCompletionFn complete,
                         CompletionTimer* timer) {
  auto model = servable(0, 2, std::move(net),
                        timed_completion(std::move(complete), timer));
  const auto ti = Clock::now();
  registry.install(std::move(model));
  const auto tj = Clock::now();
  while (registry.live_models() != registry.size()) {
    std::this_thread::yield();
  }
  r.metric("registry.install_ms", ms_between(ti, tj), "ms");
  r.metric("registry.drain_ms", ms_between(ti, Clock::now()), "ms");
}

Answer main_branch_answer(core::CompositeNetwork& prepared,
                          const Tensor& shared) {
  const core::MainBatchCompletion done =
      core::complete_main_batch(prepared, shared);
  Answer a;
  a.label = done.labels.front();
  a.probs = done.probabilities.slice_outer(0, 1);
  return a;
}

std::vector<std::uint8_t> encode_request(const Tensor& shared,
                                         std::uint32_t model_id,
                                         std::uint64_t trace_id) {
  return edge::encode_frame(edge::Frame{edge::MsgType::kCompleteRequest,
                                        edge::make_complete_request(shared),
                                        trace_id, model_id});
}

edge::Socket connect_and_ping(std::uint16_t port) {
  edge::Socket s = edge::connect_local(port);
  s.send_frame(edge::Frame{edge::MsgType::kPing, {}});
  const std::optional<edge::Frame> pong = s.recv_frame();
  LCRS_CHECK(pong.has_value() && pong->type == edge::MsgType::kPong,
             "edge server did not answer the setup ping");
  return s;
}

ServerReading ServerReading::read(const edge::EdgeServer& server,
                                  const CompletionTimer* timer) {
  ServerReading r;
  r.requests = server.requests_served();
  r.batches = server.batches_dispatched();
  r.rejected_busy = server.rejected_busy();
  const obs::Snapshot snap = server.metrics().snapshot();
  if (const auto* h = snap.find_histogram(obs::names::kServerQueueWaitUs)) {
    r.queue_wait_us = *h;
  }
  if (timer != nullptr) {
    r.completion_ns = timer->ns.load();
    r.completion_rows = timer->rows.load();
  }
  return r;
}

double Window::mean_batch() const {
  const std::int64_t b = server1.batches - server0.batches;
  return b > 0 ? static_cast<double>(server1.requests - server0.requests) /
                     static_cast<double>(b)
               : 0.0;
}

Window observe_window(Clock::time_point start, Clock::time_point end,
                      const edge::EdgeServer& server,
                      const CompletionTimer* timer) {
  Window w;
  std::this_thread::sleep_until(start);
  w.usage0 = usage_now();
  w.server0 = ServerReading::read(server, timer);
  Usage mark = w.usage0;
  auto next_mark = after_s(start, 1.0);
  for (;;) {
    const auto now = Clock::now();
    if (now >= next_mark || now >= end) {
      const Usage u = usage_now();
      const auto total = static_cast<double>(u.host_total - mark.host_total);
      w.steal_by_second.push_back(
          total > 0 ? static_cast<double>(u.host_steal - mark.host_steal) / total
                    : 0.0);
      w.cpu_s_by_second.push_back(u.cpu_s - mark.cpu_s);
      mark = u;
      next_mark = after_s(next_mark, 1.0);
      if (now >= end) break;
    }
    w.peak_threads = std::max(w.peak_threads, proc_threads());
    std::this_thread::sleep_until(std::min(
        {end, next_mark, Clock::now() + std::chrono::milliseconds(50)}));
  }
  w.usage1 = usage_now();
  w.server1 = ServerReading::read(server, timer);
  return w;
}

namespace {
/// Queue-wait histogram restricted to the window (bucket-count delta).
obs::HistogramSnapshot window_histogram(const obs::HistogramSnapshot& a,
                                        const obs::HistogramSnapshot& b) {
  obs::HistogramSnapshot d = b;
  if (a.counts.size() == b.counts.size()) {
    for (std::size_t i = 0; i < d.counts.size(); ++i) {
      d.counts[i] -= a.counts[i];
    }
    d.count -= a.count;
    d.sum -= a.sum;
  }
  return d;
}
}  // namespace

void report_server(Report& r, const Window& w, double window_s,
                   double roundtrip_p50_us, std::int64_t completed) {
  const obs::HistogramSnapshot wait =
      window_histogram(w.server0.queue_wait_us, w.server1.queue_wait_us);
  r.metric("server.queue_wait_p50_us", wait.percentile(0.50), "us");
  r.metric("server.queue_wait_p99_us", wait.percentile(0.99), "us");
  r.metric("server.batch_size_mean", w.mean_batch(), "count");
  const double rows =
      static_cast<double>(w.server1.completion_rows - w.server0.completion_rows);
  const double busy_us =
      static_cast<double>(w.server1.completion_ns - w.server0.completion_ns) /
      1e3;
  const double per_req = rows > 0 ? busy_us / rows : 0.0;
  r.metric("server.completion_us_per_req", per_req, "us");
  const edge::ServerOptions defaults;
  r.metric("server.completion_busy_frac",
           busy_us / (window_s * 1e6 * defaults.num_workers), "fraction");
  r.metric("server.overhead_us_per_req", roundtrip_p50_us - per_req, "us");
  r.metric("server.rejected_busy",
           static_cast<double>(w.server1.rejected_busy -
                               w.server0.rejected_busy),
           "count");
  r.metric("process.threads", w.peak_threads, "count");
  r.metric("process.csw_per_req",
           completed > 0 ? static_cast<double>(w.usage1.csw - w.usage0.csw) /
                               static_cast<double>(completed)
                         : 0.0,
           "1/req");
}

namespace {

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + json_number(v[i]);
  }
  return s + "]";
}

/// A statistic of one sub-window: its latency samples and its index.
using SecondStat =
    std::function<double(const std::vector<double>&, std::size_t)>;

SecondStat pct(double p) {
  return [p](const std::vector<double>& v, std::size_t) {
    return percentile(v, p);
  };
}

/// The measurement window cut into one-second sub-windows: the latency
/// samples due in each, and the indices of the quarter (at least three)
/// with the least hypervisor steal.
struct Seconds {
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::size_t> quiet;

  Seconds(const Tally& t, const Window& w, double window_s) {
    const auto n =
        static_cast<std::size_t>(std::max(1.0, std::floor(window_s)));
    latency_ms.resize(n);
    for (std::size_t i = 0; i < t.latency_ms.size(); ++i) {
      const auto b =
          static_cast<std::size_t>(std::max(0.0, t.latency_at_s[i]));
      latency_ms[std::min(b, n - 1)].push_back(t.latency_ms[i]);
    }
    for (std::size_t i = 0; i < n; ++i) quiet.push_back(i);
    auto steal = [&](std::size_t i) {
      return i < w.steal_by_second.size() ? w.steal_by_second[i] : 1.0;
    };
    std::stable_sort(quiet.begin(), quiet.end(),
                     [&](std::size_t a, std::size_t b) {
                       return steal(a) < steal(b);
                     });
    quiet.resize(std::min(n, std::max<std::size_t>(3, n / 4)));
  }

  /// `stat` of every sub-window, in time order.
  std::vector<double> each(const SecondStat& stat) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      out.push_back(stat(latency_ms[i], i));
    }
    return out;
  }

  /// Median of `stat` over the quiet sub-windows.
  double quiet_median(const SecondStat& stat) const {
    std::vector<double> v;
    for (std::size_t i : quiet) v.push_back(stat(latency_ms[i], i));
    return percentile(v, 0.5);
  }
};

}  // namespace

void report_end_to_end(Report& r, const Tally& t, const Window& w,
                       double window_s, double setup_s) {
  const Seconds sec(t, w, window_s);
  r.metric("latency_p50_ms", sec.quiet_median(pct(0.50)), "ms");
  r.metric("latency_p90_ms", sec.quiet_median(pct(0.90)), "ms");
  r.metric("throughput_rps",
           sec.quiet_median([](const std::vector<double>& v, std::size_t) {
             return static_cast<double>(v.size());
           }),
           "1/s");
  r.metric("cpu_us_per_req",
           sec.quiet_median([&](const std::vector<double>& v, std::size_t i) {
             return v.empty() || i >= w.cpu_s_by_second.size()
                        ? 0.0
                        : w.cpu_s_by_second[i] * 1e6 /
                              static_cast<double>(v.size());
           }),
           "us");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("setup_s", setup_s, "s");

  r.fact("latency_samples", static_cast<double>(t.latency_ms.size()));
  r.fact("latency_p99_ms", sec.quiet_median(pct(0.99)));
  r.fact("window_s", window_s);
  r.fact("whole_window_p50_ms", percentile(t.latency_ms, 0.50));
  r.fact("whole_window_p99_ms", percentile(t.latency_ms, 0.99));
  r.fact("whole_window_max_ms", percentile(t.latency_ms, 1.0));
  r.fact("whole_window_throughput_rps",
         static_cast<double>(t.completed) / window_s);
  r.fact("whole_window_cpu_us_per_req",
         t.completed > 0 ? (w.usage1.cpu_s - w.usage0.cpu_s) * 1e6 /
                               static_cast<double>(t.completed)
                         : 0.0);
  r.fact("lateness_p99_ms", percentile(t.lateness_ms, 0.99));
  r.fact_json("p50_by_second_ms", json_array(sec.each(pct(0.50))));
  r.fact_json("p99_by_second_ms", json_array(sec.each(pct(0.99))));
  r.fact_json("steal_by_second", json_array(w.steal_by_second));
  const auto host =
      static_cast<double>(w.usage1.host_total - w.usage0.host_total);
  r.fact("host_steal_frac",
         host > 0 ? static_cast<double>(w.usage1.host_steal -
                                        w.usage0.host_steal) / host
                  : 0.0);
}

std::int64_t report_trace_overhead(Report& r,
                                   const std::vector<Tally>& reference,
                                   const std::vector<Tally>& traced) {
  std::int64_t differ = 0, compared = 0;
  for (std::size_t i = 0; i < std::min(reference.size(), traced.size()); ++i) {
    const auto& a = reference[i].codes;
    const auto& b = traced[i].codes;
    for (std::size_t j = 0; j < std::min(a.size(), b.size()); ++j) {
      if (a[j] < 0 || b[j] < 0) continue;  // failed ops are tallied apart
      ++compared;
      if (a[j] != b[j]) ++differ;
    }
  }
  const Tally ref = merged(reference);
  const Tally tr = merged(traced);
  r.metric("trace.latency_p50_ms", percentile(tr.latency_ms, 0.5), "ms");
  r.metric("trace.untraced_latency_p50_ms", percentile(ref.latency_ms, 0.5),
           "ms");
  r.fact("trace_answers_compared", static_cast<double>(compared));
  r.fact("trace_answers_differing", static_cast<double>(differ));
  return differ;
}

// ---------------------------------------------------------------------
// Raw-socket load

std::vector<Tally> run_raw_load(const RawLoad& load,
                                std::vector<edge::Socket>& socks,
                                std::uint16_t port, Clock::time_point t0,
                                Clock::time_point start, Clock::time_point end,
                                bool traced,
                                const std::function<void()>& while_running) {
  const int n = static_cast<int>(socks.size());
  std::vector<Tally> tallies(socks.size());
  const double horizon_s = ms_between(t0, end) / 1e3;
  run_threads(
      n,
      [&](int c) {
        tighten_timer_slack();
        Tally& t = tallies[static_cast<std::size_t>(c)];
        edge::Socket& sock = socks[static_cast<std::size_t>(c)];
        Rng rng(load.seed * 1000003u + static_cast<std::uint64_t>(c) + 1);
        Rng arrivals = rng.fork();
        const std::vector<double> offsets =
            load.open_loop
                ? poisson_offsets(arrivals, load.rate_per_conn, horizon_s)
                : std::vector<double>();
        const auto n_slots = static_cast<std::int64_t>(load.model_ids.size());
        for (std::size_t i = 0;; ++i) {
          Clock::time_point due;
          if (load.open_loop) {
            if (i >= offsets.size() || overloaded(offsets, i, t0, start, end, t)) {
              break;
            }
            due = await_due(after_s(t0, offsets[i]), start, t);
          } else {
            due = Clock::now();
            if (due >= end) break;
          }
          const auto slot =
              static_cast<std::size_t>(rng.randint(0, n_slots - 1));
          const auto& frames = load.frames[slot];
          const auto idx = static_cast<std::size_t>(
              rng.randint(0, static_cast<std::int64_t>(frames.size()) - 1));
          const bool counted = due >= start && due < end;
          const std::vector<std::uint8_t>& bytes = frames[idx];
          enum { kOk, kBusy, kTransport, kMismatch } outcome = kOk;
          std::int64_t label = -1;
          const auto ts = Clock::now();
          auto tr = ts, td = ts;
          try {
            sock.send_all(bytes.data(), bytes.size());
            const std::optional<edge::Frame> reply = sock.recv_frame();
            tr = Clock::now();
            if (reply.has_value() && reply->type == edge::MsgType::kBusy) {
              outcome = kBusy;
            } else if (!reply.has_value() ||
                       reply->type != edge::MsgType::kCompleteResponse ||
                       reply->model_id != load.model_ids[slot]) {
              outcome = kTransport;
            } else {
              const edge::CompleteResponse resp =
                  edge::parse_complete_response(reply->payload);
              td = Clock::now();
              label = resp.label;
              if (!matches(load.answers[slot][idx], resp.label,
                           resp.probabilities)) {
                outcome = kMismatch;
              }
            }
          } catch (const Error& e) {
            std::cerr << "perfbench: transport error: " << e.what() << "\n";
            outcome = kTransport;
            sock = edge::connect_local(port);
          }
          t.codes.push_back(outcome == kOk ? answer_code(label, false) : -1);
          if (!counted) continue;
          ++t.attempted;
          switch (outcome) {
            case kBusy: ++t.busy; continue;
            case kTransport: ++t.transport; continue;
            case kMismatch: ++t.mismatched; continue;
            case kOk: break;
          }
          ++t.completed;
          t.record_latency(start, due, td);
          if (traced) {
            t.roundtrip_us.push_back(us_between(ts, tr));
            t.decode_us.push_back(us_between(tr, td));
            t.upload_bytes += static_cast<std::int64_t>(bytes.size());
          }
        }
      },
      while_running);
  return tallies;
}

// ---------------------------------------------------------------------
// Per-layer timings outside the serving path

void report_webinfer(Report& r, const std::vector<double>& conv1_us,
                     const std::vector<double>& branch_us,
                     core::CompositeNetwork& net) {
  const double conv1 = percentile(conv1_us, 0.5);
  const double branch = percentile(branch_us, 0.5);
  const auto profile = models::profile_layers(
      net.binary_branch(),
      Shape{net.shared_out_c(), net.shared_out_h(), net.shared_out_w()});
  const double ops = static_cast<double>(models::summarize(profile).total_flops);
  r.metric("webinfer.conv1_us", conv1, "us");
  r.metric("webinfer.branch_us", branch, "us");
  r.metric("webinfer.branch_gops", branch > 0 ? ops / (branch * 1e3) : 0.0,
           "Gop/s");
}

namespace {
std::string kind_group(const std::string& kind) {
  if (kind == "conv2d") return "conv";
  if (kind == "linear") return "linear";
  return "other";
}
}  // namespace

double report_main_layers(Report& r, core::CompositeNetwork& prepared,
                          const std::vector<Tensor>& conv1_maps, int batch_n,
                          int reps) {
  nn::Sequential& rest = prepared.main_rest();
  const auto profile = models::profile_layers(
      rest, Shape{prepared.shared_out_c(), prepared.shared_out_h(),
                  prepared.shared_out_w()});
  const std::size_t n_layers = rest.size();
  std::vector<std::vector<double>> median_us(2);  // [b1, bN][layer]
  for (int pass = 0; pass < 2; ++pass) {
    const int batch = pass == 0 ? 1 : batch_n;
    std::vector<Tensor> parts;
    for (int i = 0; i < batch; ++i) {
      parts.push_back(conv1_maps[static_cast<std::size_t>(i) % conv1_maps.size()]);
    }
    const Tensor input = stack_outer(parts);
    std::vector<std::vector<double>> us(n_layers);
    rest.forward(input, false);  // untimed: wakes the kernel pool, warms caches
    for (int rep = 0; rep < reps; ++rep) {
      Tensor x = input;
      for (std::size_t l = 0; l < n_layers; ++l) {
        const auto t0 = Clock::now();
        Tensor y = rest.layer(l).forward(x, false);
        us[l].push_back(us_between(t0, Clock::now()));
        x = std::move(y);
      }
    }
    const std::string prefix = pass == 0 ? "main.b1." : "main.bN.";
    std::map<std::string, double> group_us, group_flops;
    double total_us = 0.0;
    for (const char* g : {"conv", "linear", "other"}) {
      group_us[g] = 0.0;
      group_flops[g] = 0.0;
    }
    for (std::size_t l = 0; l < n_layers; ++l) {
      const double t = percentile(us[l], 0.5);
      median_us[static_cast<std::size_t>(pass)].push_back(t);
      const std::string g = kind_group(rest.layer(l).kind());
      group_us[g] += t;
      group_flops[g] += static_cast<double>(profile[l].flops) * batch;
      total_us += t;
    }
    for (const char* g : {"conv", "linear", "other"}) {
      r.metric(prefix + g + "_us", group_us[g], "us");
    }
    for (const char* g : {"conv", "linear"}) {
      r.metric(prefix + g + "_gflops",
               group_us[g] > 0 ? group_flops[g] / (group_us[g] * 1e3) : 0.0,
               "GFLOP/s");
    }
    r.metric(prefix + "total_us", total_us, "us");
  }
  r.metric("main.batch_n", batch_n, "count");

  std::ostringstream table;
  table << "[";
  for (std::size_t l = 0; l < n_layers; ++l) {
    const double b1 = median_us[0][l], bn = median_us[1][l];
    const double flops = static_cast<double>(profile[l].flops);
    table << (l ? ", " : "") << "{\"layer\": \"main." << l << "."
          << rest.layer(l).kind() << "\", \"b1_us\": " << json_number(b1)
          << ", \"bN_us\": " << json_number(bn) << ", \"b1_gflops\": "
          << json_number(b1 > 0 ? flops / (b1 * 1e3) : 0.0)
          << ", \"bN_gflops\": "
          << json_number(bn > 0 ? flops * batch_n / (bn * 1e3) : 0.0) << "}";
  }
  table << "]";
  r.fact_json("main_layers", table.str());
  double b1_total_us = 0.0;
  for (double t : median_us[0]) b1_total_us += t;
  return b1_total_us / 1e3;
}

void report_cost_model(Report& r, core::CompositeNetwork& net,
                       const models::ModelConfig& cfg,
                       double measured_browser_ms, double measured_edge_ms) {
  const sim::CostModel cost = sim::CostModel::paper_default();
  const auto shared = models::profile_layers(
      net.shared_stage(), Shape{cfg.in_channels, cfg.in_h, cfg.in_w});
  const Shape conv1{net.shared_out_c(), net.shared_out_h(), net.shared_out_w()};
  const auto branch = models::profile_layers(net.binary_branch(), conv1);
  const auto rest = models::profile_layers(net.main_rest(), conv1);
  std::ostringstream os;
  os << "{\"predicted_browser_ms\": "
     << json_number(cost.browser_compute_ms(shared, 0, shared.size()) +
                    cost.browser_compute_ms(branch, 0, branch.size()))
     << ", \"measured_browser_ms\": " << json_number(measured_browser_ms)
     << ", \"predicted_edge_ms\": "
     << json_number(cost.edge_compute_ms(rest, 0, rest.size()))
     << ", \"measured_edge_ms\": " << json_number(measured_edge_ms) << "}";
  r.fact_json("cost_model", os.str());
}

void report_traced_tally(Report& r, const Tally& t) {
  const double attempted = static_cast<double>(std::max<std::int64_t>(1, t.attempted));
  r.metric("core.exit_frac", static_cast<double>(t.browser_exits) / attempted,
           "fraction");
  r.metric("protocol.encode_us", percentile(t.encode_us, 0.5), "us");
  r.metric("protocol.decode_us", percentile(t.decode_us, 0.5), "us");
  r.metric("protocol.upload_bytes",
           static_cast<double>(t.upload_bytes) / attempted, "B");
  r.metric("client.roundtrip_p50_us", percentile(t.roundtrip_us, 0.5), "us");
  r.metric("client.roundtrip_p99_us", percentile(t.roundtrip_us, 0.99), "us");
  r.metric("gen.lateness_p99_ms", percentile(t.lateness_ms, 0.99), "ms");
}

void report_host_facts(Report& r, const Args& args, int gen_threads,
                       int gen_connections) {
  r.fact("workload", args.workload);
  r.fact_json("seed", std::to_string(args.seed));
  r.fact("mode", args.trace ? "traced" : "timed");
  r.fact("nproc", nproc());
  r.fact("simd", simd::level_name(simd::active_level()));
  r.fact("compiler", __VERSION__);
  r.fact("build_type", PERFBENCH_BUILD_TYPE);
  r.fact("transport", "loopback");
  r.fact("gen_threads", gen_threads);
  r.fact("gen_connections", gen_connections);
}

void check_generator_budget(int gen_threads, int gen_connections) {
  const int cpus = nproc();
  LCRS_CHECK(gen_threads <= cpus && gen_connections <= cpus,
             "generator needs " << gen_threads << " threads and "
                                << gen_connections
                                << " connections but nproc is " << cpus);
}

}  // namespace perfbench
