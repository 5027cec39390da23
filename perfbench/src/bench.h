// Shared harness for the LCRS end-to-end benchmark (perfbench/README.md).
//
// Everything here lives outside the program under test: the benchmark
// drives the real stack over loopback TCP and times the calls it makes
// into each module's public functions. Nothing under src/ is modified or
// instrumented for it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/obs/metrics.h"
#include "common/rng.h"
#include "core/composite.h"
#include "edge/model_registry.h"
#include "edge/server.h"
#include "edge/tcp.h"
#include "webinfer/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline Clock::time_point after_s(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(s));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Exact nearest-rank percentile of an unsorted sample, p in [0, 1];
/// 0 for an empty sample.
double percentile(std::vector<double> v, double p);

// ---------------------------------------------------------------------
// Result reporting

/// Collects the named metrics and the host/generator facts of one run.
/// print() writes two lines to stdout: {"facts": ...} and then the result
/// object the benchmark contract asks for, which must be the last line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fact(const std::string& key, double value);
  void fact(const std::string& key, const std::string& value);
  /// `json` is inserted verbatim (an object or array built by the caller).
  void fact_json(const std::string& key, const std::string& json);
  void print(bool correct, std::int64_t attempted, std::int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> facts_;
  std::string metrics_;
};

std::string json_number(double v);

// ---------------------------------------------------------------------
// Process-level counters (getrusage, /proc/self/status)

struct Usage {
  double cpu_s = 0.0;         // user + system, all threads
  std::int64_t csw = 0;       // voluntary + involuntary context switches
  // Host-wide CPU time from /proc/stat (jiffies): all states, and the
  // part stolen by a hypervisor from this VM.
  std::int64_t host_total = 0;
  std::int64_t host_steal = 0;
};
Usage usage_now();
double peak_rss_mb();
int proc_threads();
/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Sets this thread's timer slack to 1 ns so open-loop sleeps wake on
/// time instead of up to 50 us late.
void tighten_timer_slack();

// ---------------------------------------------------------------------
// Oracle and outcome accounting

/// One recognition's expected answer, computed offline from the seed.
struct Answer {
  std::int64_t label = -1;
  lcrs::Tensor probs;  // [1, classes]
  bool exits = false;  // answered in the browser by the binary branch
};

/// Bit-exact comparison of a reply against the oracle.
bool matches(const Answer& want, std::int64_t label, const lcrs::Tensor& probs);

/// Per-generator-thread outcomes inside the measurement window. A failed
/// op is a mismatch, a kBusy refusal, a binary fallback or a transport
/// error; `codes` records every answer in schedule order (-1 = failed)
/// so two passes over the same seed can be compared answer by answer.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t completed = 0;
  std::int64_t mismatched = 0;
  std::int64_t busy = 0;
  std::int64_t fallback = 0;
  std::int64_t transport = 0;
  std::int64_t missed = 0;  // due in the window, never sent (overload)
  std::int64_t browser_exits = 0;
  std::int64_t oracle_exits = 0;
  std::vector<double> latency_ms;
  std::vector<double> latency_at_s;  // due time of each sample, from start
  std::vector<double> lateness_ms;
  std::vector<std::int64_t> codes;
  // Traced pass only: per-call timings around public module functions.
  std::vector<double> conv1_us, branch_us, encode_us, roundtrip_us,
      decode_us;
  std::int64_t upload_bytes = 0;

  void record_latency(Clock::time_point start, Clock::time_point due,
                      Clock::time_point done) {
    latency_ms.push_back(ms_between(due, done));
    latency_at_s.push_back(ms_between(start, due) / 1e3);
  }
  std::int64_t failed() const {
    return mismatched + busy + fallback + transport + missed;
  }
  void merge(const Tally& o);
};

/// Answer code for the cross-pass comparison.
inline std::int64_t answer_code(std::int64_t label, bool browser_exit) {
  return label * 2 + (browser_exit ? 1 : 0);
}

/// An open-loop generator still sending this long after the window has
/// ended stops; arrivals due in the window but never sent count as
/// missed. Long enough that a backlog built up while the hypervisor
/// stole a quarter of the CPU for seconds still drains, short enough to
/// bound a run against a program that cannot keep up at all.
constexpr double kOverloadGraceS = 10.0;

/// True once an open-loop generator at arrival `i` of `offsets` (seconds
/// after t0) is still sending kOverloadGraceS after `end`: it must stop,
/// and the arrivals from `i` on that were due in [start, end) are tallied
/// as attempted and missed.
bool overloaded(const std::vector<double>& offsets, std::size_t i,
                Clock::time_point t0, Clock::time_point start,
                Clock::time_point end, Tally& t);

/// Sleeps until `due`; records generator lateness (due in the window,
/// the generator idle, and woken late) in `t`. Returns `due`.
Clock::time_point await_due(Clock::time_point due, Clock::time_point start,
                            Tally& t);

/// Seeded Poisson arrival offsets (seconds from start) below `horizon_s`.
std::vector<double> poisson_offsets(lcrs::Rng& rng, double rate_per_s,
                                    double horizon_s);

// ---------------------------------------------------------------------
// Models and the edge server

/// LCRS composite built from a seed with untrained weights: kernel cost
/// does not depend on weight values, and the same seed always gives the
/// same weights, so a rebuilt copy answers bit-identically.
std::shared_ptr<lcrs::core::CompositeNetwork> build_net(
    const lcrs::models::ModelConfig& cfg, std::uint64_t seed);

/// Exports the browser part and loads it back from its serialized blob,
/// as a browser would after downloading it.
lcrs::webinfer::Engine export_engine(lcrs::core::CompositeNetwork& net,
                                     const lcrs::models::ModelConfig& cfg);

/// Wall time spent inside the served completion, accumulated by a
/// wrapper around the BatchCompletionFn handed to the server.
struct CompletionTimer {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> rows{0};
};

lcrs::edge::BatchCompletionFn timed_completion(
    lcrs::edge::BatchCompletionFn inner, CompletionTimer* timer);

/// A registry snapshot serving `net` through `complete`.
std::shared_ptr<const lcrs::edge::ServableModel> servable(
    std::uint32_t model_id, std::uint32_t version,
    std::shared_ptr<lcrs::core::CompositeNetwork> net,
    lcrs::edge::BatchCompletionFn complete);

/// Re-installs model 0 as version 2 serving `net` through `complete`
/// wrapped in `timer`, and reports registry.install_ms and
/// registry.drain_ms for that install. Call with no request in flight.
void install_timed_model(Report& r, lcrs::edge::ModelRegistry& registry,
                         std::shared_ptr<lcrs::core::CompositeNetwork> net,
                         lcrs::edge::BatchCompletionFn complete,
                         CompletionTimer* timer);

/// Oracle for edge-completed requests: complete_main_batch row for one
/// conv1 map on a prepared network.
Answer main_branch_answer(lcrs::core::CompositeNetwork& prepared,
                          const lcrs::Tensor& shared);

/// Encoded kCompleteRequest frame carrying one conv1 map.
std::vector<std::uint8_t> encode_request(const lcrs::Tensor& shared,
                                         std::uint32_t model_id,
                                         std::uint64_t trace_id);

/// Connects to the server and completes one kPing/kPong round trip.
lcrs::edge::Socket connect_and_ping(std::uint16_t port);

/// Server-side counters read through the server's public accessors.
struct ServerReading {
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  std::int64_t rejected_busy = 0;
  lcrs::obs::HistogramSnapshot queue_wait_us;
  std::int64_t completion_ns = 0;  // from the CompletionTimer, if any
  std::int64_t completion_rows = 0;

  static ServerReading read(const lcrs::edge::EdgeServer& server,
                            const CompletionTimer* timer);
};

/// Everything the main thread observes about the measurement window.
struct Window {
  Usage usage0, usage1;
  ServerReading server0, server1;
  int peak_threads = 0;
  // Per one-second sub-window of the measurement: the share of host CPU
  // time the hypervisor stole from this VM, and this process's CPU time.
  std::vector<double> steal_by_second;
  std::vector<double> cpu_s_by_second;

  double mean_batch() const;
};

/// Sleeps until `start`, takes the opening readings, samples the thread
/// count until `end`, then takes the closing readings.
Window observe_window(Clock::time_point start, Clock::time_point end,
                      const lcrs::edge::EdgeServer& server,
                      const CompletionTimer* timer);

/// server.* and process.* metrics for the window. `roundtrip_p50_us` is
/// the client-side round trip the per-request overhead is taken from.
void report_server(Report& r, const Window& w, double window_s,
                   double roundtrip_p50_us, std::int64_t completed);

// ---------------------------------------------------------------------
// Per-layer timings taken outside the serving path

/// webinfer.* metrics: Engine::forward_shared / forward_branch per-call
/// p50 over the given samples, and binary-branch ops per second from
/// models::profile_layers.
void report_webinfer(Report& r, const std::vector<double>& conv1_us,
                     const std::vector<double>& branch_us,
                     lcrs::core::CompositeNetwork& net);

/// main.* metrics: times Sequential::layer(i).forward for every layer of
/// the prepared main rest at batch 1 and at `batch_n`, reports per-kind
/// totals and achieved GFLOP/s, and records the per-layer table as a
/// fact. Returns the batch-1 total in ms.
double report_main_layers(Report& r, lcrs::core::CompositeNetwork& prepared,
                          const std::vector<lcrs::Tensor>& conv1_maps,
                          int batch_n, int reps);

/// sim::CostModel's predicted browser/edge compute next to the measured
/// totals (a diagnostic fact, not a metric).
void report_cost_model(Report& r, lcrs::core::CompositeNetwork& net,
                       const lcrs::models::ModelConfig& cfg,
                       double measured_browser_ms, double measured_edge_ms);

/// core.*, protocol.*, client.* and gen.* metrics from the merged tally
/// of the traced pass.
void report_traced_tally(Report& r, const Tally& t);

/// The six end-to-end metrics of the timed run. Latency percentiles,
/// throughput and CPU per request are taken per one-second sub-window,
/// and the median is reported over the quarter of the sub-windows with
/// the least hypervisor steal (at least three): on a shared host other
/// tenants stall this VM for seconds at a time, and those seconds would
/// otherwise decide the run. Whole-window figures are kept as facts.
void report_end_to_end(Report& r, const Tally& t, const Window& w,
                       double window_s, double setup_s);

/// trace.* metrics plus the cross-pass check: answers of the untraced
/// reference pass and of the traced pass must agree on the schedule
/// prefix both passes covered. Returns the number of disagreements.
std::int64_t report_trace_overhead(Report& r,
                                   const std::vector<Tally>& reference,
                                   const std::vector<Tally>& traced);

/// Merges per-thread tallies.
Tally merged(const std::vector<Tally>& parts);

/// Runs body(i) on `n` threads; calls `while_running` on the calling
/// thread meanwhile, then joins them all (also when it throws).
void run_threads(int n, const std::function<void(int)>& body,
                 const std::function<void()>& while_running);

/// Raw-socket load against the edge server: every frame is a
/// pre-encoded kCompleteRequest for one model slot, checked bit-exact.
struct RawLoad {
  bool open_loop = false;
  double rate_per_conn = 0.0;  // open loop only (requests per second)
  std::vector<std::uint32_t> model_ids;  // one slot per served model
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;  // [slot][i]
  std::vector<std::vector<Answer>> answers;                    // [slot][i]
  std::uint64_t seed = 0;
};

/// One generator thread per socket. Requests due (open loop) or sent
/// (closed loop) in [start, end) are tallied; the generator stops at
/// `end`. Each thread draws its slot/frame sequence from the seed, so a
/// second pass with the same seed replays the same requests.
std::vector<Tally> run_raw_load(const RawLoad& load,
                                std::vector<lcrs::edge::Socket>& socks,
                                std::uint16_t port, Clock::time_point t0,
                                Clock::time_point start, Clock::time_point end,
                                bool traced,
                                const std::function<void()>& while_running);

/// Common facts for every result.
void report_host_facts(Report& r, const Args& args, int gen_threads,
                       int gen_connections);

/// Refuses (throws) a generator larger than nproc threads/connections.
void check_generator_budget(int gen_threads, int gen_connections);

/// Median of `reps` timed calls of `setup` in seconds; the last call's
/// state is what `setup` leaves behind for the measurement.
template <typename F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return percentile(s, 0.5);
}

/// Entry points of the three workloads; each returns the process exit
/// code after printing its result.
int run_ar_lenet_open(const Args& args);
int run_edge_alexnet_closed(const Args& args);
int run_edge_two_model_swap(const Args& args);

}  // namespace perfbench
