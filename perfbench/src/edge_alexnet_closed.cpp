// edge_alexnet_closed: the edge-bound workload. Four closed-loop
// raw-socket connections send pre-encoded AlexNet conv1 maps back to
// back, so all measured time is in the edge server and the main-branch
// kernels; the browser engine only runs while the inputs are made.
#include <algorithm>

#include "bench.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace lcrs;

namespace {

constexpr int kConnections = 4;
constexpr std::int64_t kPoolFrames = 128;
constexpr int kSetupReps = 11;

struct Inputs {
  RawLoad load;
  std::vector<Tensor> conv1_maps;
  std::vector<double> conv1_us, branch_us, encode_us;
};

/// Distinct CIFAR10-like frames, their conv1 maps through the webinfer
/// engine, the encoded requests and the oracle; untimed.
Inputs make_inputs(const models::ModelConfig& cfg, std::uint64_t seed,
                   std::uint64_t model_seed) {
  Rng rng(seed);
  const data::Dataset pool =
      data::make_synthetic(data::cifar10_like(), kPoolFrames, rng);
  auto net = build_net(cfg, model_seed);
  const webinfer::Engine engine = export_engine(*net, cfg);
  net->prepare_edge_inference();

  Inputs in;
  in.load.open_loop = false;
  in.load.model_ids = {0};
  in.load.seed = seed;
  in.load.frames.resize(1);
  in.load.answers.resize(1);
  for (std::int64_t i = 0; i < pool.size(); ++i) {
    const auto ta = Clock::now();
    const Tensor shared = engine.forward_shared(pool.image(i));
    const auto tb = Clock::now();
    engine.forward_branch(shared);
    const auto tc = Clock::now();
    in.load.frames[0].push_back(
        encode_request(shared, 0, static_cast<std::uint64_t>(i + 1)));
    const auto td = Clock::now();
    in.conv1_us.push_back(us_between(ta, tb));
    in.branch_us.push_back(us_between(tb, tc));
    in.encode_us.push_back(us_between(tc, td));
    in.load.answers[0].push_back(main_branch_answer(*net, shared));
    in.conv1_maps.push_back(shared);
  }
  return in;
}

struct Stage {
  std::shared_ptr<core::CompositeNetwork> net;
  edge::BatchCompletionFn complete;
  std::shared_ptr<edge::ModelRegistry> registry;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<edge::Socket> socks;

  void reset() {
    socks.clear();
    server.reset();
    registry.reset();
    complete = nullptr;
    net.reset();
  }
};

/// Build the model, export the web model, prepare edge inference, start
/// the server, connect every generator connection.
void setup(Stage& st, const models::ModelConfig& cfg,
           std::uint64_t model_seed) {
  st.reset();
  st.net = build_net(cfg, model_seed);
  export_engine(*st.net, cfg);
  st.complete = edge::main_branch_batch_completion(*st.net);
  st.registry = std::make_shared<edge::ModelRegistry>();
  st.registry->install(servable(0, 1, st.net, st.complete));
  st.server = std::make_unique<edge::EdgeServer>(0, st.registry);
  for (int c = 0; c < kConnections; ++c) {
    st.socks.push_back(connect_and_ping(st.server->port()));
  }
}

}  // namespace

int run_edge_alexnet_closed(const Args& args) {
  check_generator_budget(kConnections, kConnections);
  const models::ModelConfig cfg = models::small_config(models::Arch::kAlexNet);
  const std::uint64_t model_seed = args.seed * 7919u + 23u;
  Inputs in = make_inputs(cfg, args.seed, model_seed);

  Report r;
  report_host_facts(r, args, kConnections, kConnections);
  r.fact("arrival", "closed-loop");

  Stage st;
  const double warm_s = std::min(1.0, 0.1 * args.seconds);
  if (!args.trace) {
    const double setup_s =
        median_setup_s(kSetupReps, [&] { setup(st, cfg, model_seed); });
    const auto t0 = Clock::now();
    const auto start = after_s(t0, warm_s);
    const auto end = after_s(t0, warm_s + args.seconds);
    Window w;
    const Tally t =
        merged(run_raw_load(in.load, st.socks, st.server->port(), t0, start,
                            end, false, [&] {
                              w = observe_window(start, end, *st.server,
                                                 nullptr);
                            }));
    report_end_to_end(r, t, w, args.seconds, setup_s);
    r.print(t.mismatched == 0, t.attempted, t.failed());
    return t.mismatched == 0 ? 0 : 1;
  }

  // Traced run: untraced reference pass, then the traced pass with a
  // timing wrapper around the served completion, half the run each.
  setup(st, cfg, model_seed);
  const double half = args.seconds / 2.0;
  auto t0 = Clock::now();
  const std::vector<Tally> ref =
      run_raw_load(in.load, st.socks, st.server->port(), t0,
                   after_s(t0, warm_s), after_s(t0, warm_s + half), false,
                   [] {});

  CompletionTimer timer;
  install_timed_model(r, *st.registry, st.net, st.complete, &timer);

  t0 = Clock::now();
  const auto start = after_s(t0, warm_s), end = after_s(t0, warm_s + half);
  Window w;
  const std::vector<Tally> traced =
      run_raw_load(in.load, st.socks, st.server->port(), t0, start, end, true,
                   [&] { w = observe_window(start, end, *st.server, &timer); });
  Tally t = merged(traced);
  t.encode_us = in.encode_us;
  report_traced_tally(r, t);
  report_webinfer(r, in.conv1_us, in.branch_us, *st.net);
  report_server(r, w, half, percentile(t.roundtrip_us, 0.5), t.completed);
  const double edge_ms = report_main_layers(
      r, *st.net, in.conv1_maps,
      std::max(1, static_cast<int>(w.mean_batch() + 0.5)), 30);
  report_cost_model(
      r, *st.net, cfg,
      (percentile(in.conv1_us, 0.5) + percentile(in.branch_us, 0.5)) / 1e3,
      edge_ms);
  const std::int64_t differ = report_trace_overhead(r, ref, traced);
  const Tally all = merged({merged(ref), t});
  const bool correct = all.mismatched == 0 && differ == 0;
  r.print(correct, all.attempted, all.failed());
  return correct ? 0 : 1;
}

}  // namespace perfbench
