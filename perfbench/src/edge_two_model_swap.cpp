// edge_two_model_swap: two LeNet models (ids 1 and 2) in one registry.
// Three open-loop raw-socket connections pick a model per frame, 50/50
// from the seed; an operator thread re-installs model 2 at a fixed period
// as a new version with the same weights (alternating between two copies
// built in setup), so every reply keeps one bit-exact oracle while each
// swap re-runs prepare, install and drain beside live traffic.
#include <algorithm>
#include <thread>

#include "bench.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace lcrs;

namespace {

constexpr int kConnections = 3;
constexpr int kGenThreads = kConnections + 1;  // + the operator thread
// Per-connection arrival rate, about a third of this workload's capacity
// on a 4-core x86 VM; frozen so every run sees the same offered load.
constexpr double kRatePerConnS = 600.0;
constexpr double kSwapPeriodS = 0.05;
constexpr std::int64_t kPoolFrames = 128;
constexpr int kSetupReps = 11;
constexpr std::uint32_t kModelIds[2] = {1, 2};

std::uint64_t model_seed(std::uint64_t seed, int slot) {
  return seed * 7919u + 31u + 1000u * static_cast<std::uint64_t>(slot);
}

struct Inputs {
  RawLoad load;
  std::vector<Tensor> conv1_maps;  // model 1's, for the kernel timings
  std::vector<double> conv1_us, branch_us, encode_us;
};

/// MNIST-like frames, each model's conv1 maps through its own webinfer
/// engine, the encoded requests and both models' oracles; untimed.
Inputs make_inputs(const models::ModelConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  const data::Dataset pool =
      data::make_synthetic(data::mnist_like(), kPoolFrames, rng);
  Inputs in;
  in.load.open_loop = true;
  in.load.rate_per_conn = kRatePerConnS;
  in.load.model_ids = {kModelIds[0], kModelIds[1]};
  in.load.seed = seed;
  in.load.frames.resize(2);
  in.load.answers.resize(2);
  for (int slot = 0; slot < 2; ++slot) {
    auto net = build_net(cfg, model_seed(seed, slot));
    const webinfer::Engine engine = export_engine(*net, cfg);
    net->prepare_edge_inference();
    for (std::int64_t i = 0; i < pool.size(); ++i) {
      const auto ta = Clock::now();
      const Tensor shared = engine.forward_shared(pool.image(i));
      const auto tb = Clock::now();
      engine.forward_branch(shared);
      const auto tc = Clock::now();
      in.load.frames[static_cast<std::size_t>(slot)].push_back(encode_request(
          shared, kModelIds[slot], static_cast<std::uint64_t>(i + 1)));
      const auto td = Clock::now();
      in.conv1_us.push_back(us_between(ta, tb));
      in.branch_us.push_back(us_between(tb, tc));
      in.encode_us.push_back(us_between(tc, td));
      in.load.answers[static_cast<std::size_t>(slot)].push_back(
          main_branch_answer(*net, shared));
      if (slot == 0) in.conv1_maps.push_back(shared);
    }
  }
  return in;
}

struct Stage {
  // The served network of each model, and a second copy of model 2 (same
  // weights) that the operator swaps in; the displaced copy becomes the
  // next standby once it has drained.
  std::shared_ptr<core::CompositeNetwork> nets[2];
  std::shared_ptr<core::CompositeNetwork> standby;
  std::shared_ptr<edge::ModelRegistry> registry;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<edge::Socket> socks;
  std::uint32_t version = 0;  // highest version installed for either id

  void reset() {
    socks.clear();
    server.reset();
    registry.reset();
    nets[0].reset();
    nets[1].reset();
    standby.reset();
    version = 0;
  }

  /// `net` prepared for serving as the next version of model `slot`,
  /// wrapped in the completion timer when one is given.
  std::shared_ptr<const edge::ServableModel> prepare(
      int slot, std::shared_ptr<core::CompositeNetwork> net,
      CompletionTimer* timer) {
    edge::BatchCompletionFn complete = edge::main_branch_batch_completion(*net);
    if (timer != nullptr) {
      complete = timed_completion(std::move(complete), timer);
    }
    return servable(kModelIds[slot], ++version, std::move(net),
                    std::move(complete));
  }

  void install(int slot, std::shared_ptr<const edge::ServableModel> model) {
    nets[slot] = model->net;
    registry->install(std::move(model));
  }
};

/// Build both models and model 2's standby copy, export their web models,
/// prepare edge inference, start the server, connect every generator
/// connection.
void setup(Stage& st, const models::ModelConfig& cfg, std::uint64_t seed) {
  st.reset();
  st.registry = std::make_shared<edge::ModelRegistry>();
  for (int slot = 0; slot < 2; ++slot) {
    auto net = build_net(cfg, model_seed(seed, slot));
    export_engine(*net, cfg);
    st.install(slot, st.prepare(slot, std::move(net), nullptr));
  }
  st.standby = build_net(cfg, model_seed(seed, 1));
  st.server = std::make_unique<edge::EdgeServer>(0, st.registry);
  for (int c = 0; c < kConnections; ++c) {
    st.socks.push_back(connect_and_ping(st.server->port()));
  }
}

struct SwapTimes {
  std::vector<double> install_ms, drain_ms;
};

/// The operator: every kSwapPeriodS until `end`, prepare the standby copy
/// of model 2, install it, and wait for the displaced copy to drain.
void operator_loop(Stage& st, Clock::time_point t0, Clock::time_point start,
                   Clock::time_point end, CompletionTimer* timer,
                   SwapTimes* out) {
  for (int k = 1;; ++k) {
    const auto next = after_s(t0, kSwapPeriodS * k);
    if (next >= end) return;
    std::this_thread::sleep_until(next);
    std::shared_ptr<core::CompositeNetwork> displaced = st.nets[1];
    auto model = st.prepare(1, std::move(st.standby), timer);
    const auto ti = Clock::now();
    st.install(1, std::move(model));
    const auto tj = Clock::now();
    while (st.registry->live_models() != st.registry->size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    st.standby = std::move(displaced);
    if (ti >= start) {
      out->install_ms.push_back(ms_between(ti, tj));
      out->drain_ms.push_back(ms_between(ti, Clock::now()));
    }
  }
}

/// One measured pass: the load on the calling thread's helpers plus the
/// operator thread; the main thread observes the window.
std::vector<Tally> run_pass(Stage& st, const Inputs& in, double warm_s,
                            double measure_s, bool traced,
                            CompletionTimer* timer, SwapTimes* swaps,
                            Window* w) {
  const auto t0 = Clock::now();
  const auto start = after_s(t0, warm_s), end = after_s(t0, warm_s + measure_s);
  return run_raw_load(
      in.load, st.socks, st.server->port(), t0, start, end, traced, [&] {
        run_threads(
            1,
            [&](int) {
              operator_loop(st, t0, start, end, timer, swaps);
            },
            [&] { *w = observe_window(start, end, *st.server, timer); });
      });
}

}  // namespace

int run_edge_two_model_swap(const Args& args) {
  check_generator_budget(kGenThreads, kConnections);
  const models::ModelConfig cfg = models::small_config(models::Arch::kLeNet);
  const Inputs in = make_inputs(cfg, args.seed);

  Report r;
  report_host_facts(r, args, kGenThreads, kConnections);
  r.fact("arrival", "open-loop poisson");
  r.fact("rate_per_s", kRatePerConnS * kConnections);
  r.fact("swap_period_s", kSwapPeriodS);

  Stage st;
  const double warm_s = std::min(1.0, 0.1 * args.seconds);
  if (!args.trace) {
    const double setup_s =
        median_setup_s(kSetupReps, [&] { setup(st, cfg, args.seed); });
    SwapTimes swaps;
    Window w;
    const Tally t = merged(
        run_pass(st, in, warm_s, args.seconds, false, nullptr, &swaps, &w));
    report_end_to_end(r, t, w, args.seconds, setup_s);
    r.fact("swaps", static_cast<double>(swaps.install_ms.size()));
    r.print(t.mismatched == 0, t.attempted, t.failed());
    return t.mismatched == 0 ? 0 : 1;
  }

  // Traced run: untraced reference pass, then both models re-installed
  // behind the completion timer and the traced pass, half the run each.
  setup(st, cfg, args.seed);
  const double half = args.seconds / 2.0;
  SwapTimes ref_swaps;
  Window ref_w;
  const std::vector<Tally> ref =
      run_pass(st, in, warm_s, half, false, nullptr, &ref_swaps, &ref_w);
  // No request is in flight between the passes, so both served networks
  // can be re-installed behind the completion timer as they are.
  CompletionTimer timer;
  for (int slot = 0; slot < 2; ++slot) {
    st.install(slot, st.prepare(slot, st.nets[slot], &timer));
  }
  SwapTimes swaps;
  Window w;
  const std::vector<Tally> traced =
      run_pass(st, in, warm_s, half, true, &timer, &swaps, &w);
  Tally t = merged(traced);
  t.encode_us = in.encode_us;
  report_traced_tally(r, t);
  report_webinfer(r, in.conv1_us, in.branch_us, *st.nets[0]);
  report_server(r, w, half, percentile(t.roundtrip_us, 0.5), t.completed);
  report_main_layers(r, *st.nets[0], in.conv1_maps,
                     std::max(1, static_cast<int>(w.mean_batch() + 0.5)), 200);
  r.metric("registry.install_ms", percentile(swaps.install_ms, 0.5), "ms");
  r.metric("registry.drain_ms", percentile(swaps.drain_ms, 0.5), "ms");
  r.fact("swaps", static_cast<double>(swaps.install_ms.size()));
  const std::int64_t differ = report_trace_overhead(r, ref, traced);
  const Tally all = merged({merged(ref), t});
  const bool correct = all.mismatched == 0 && differ == 0;
  r.print(correct, all.attempted, all.failed());
  return correct ? 0 : 1;
}

}  // namespace perfbench
