// ar_lenet_open: the paper's default scenario. Four AR sessions, each a
// thread with its own BrowserClient running the exported webinfer
// engine, classify MNIST-like frames arriving as a seeded Poisson stream.
// About 70% of frames exit in the browser; the rest upload conv1 maps to
// the edge server over loopback TCP.
#include <algorithm>

#include "bench.h"
#include "common/obs/trace.h"
#include "core/entropy.h"
#include "data/synthetic.h"
#include "edge/client.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using namespace lcrs;

namespace {

constexpr int kSessions = 4;
// Total arrival rate over all sessions, about a third of the closed-loop
// capacity of four sessions (~3300/s) on a 4-core x86 VM; frozen so every
// run and every later change sees the same offered load. At half the
// capacity the open loop collapsed into seconds-long backlogs whenever
// the hypervisor stole a fifth of the CPU.
constexpr double kRatePerS = 1200.0;
constexpr std::int64_t kScreenFrames = 1000;  // tau screening set
constexpr std::int64_t kPoolFrames = 1000;   // distinct frames served
constexpr double kExitQuantile = 0.70;       // share exiting in the browser
constexpr int kSetupReps = 11;

struct Inputs {
  std::vector<Tensor> frames;
  std::vector<Answer> answers;
  Tensor warm_frame;  // misses tau: used to open each session's connection
  core::ExitPolicy policy;
};

struct Stage {
  std::shared_ptr<core::CompositeNetwork> net;
  std::unique_ptr<webinfer::Engine> engine;
  edge::BatchCompletionFn complete;
  std::shared_ptr<edge::ModelRegistry> registry;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<std::unique_ptr<edge::BrowserClient>> clients;

  void reset() {
    clients.clear();
    server.reset();
    registry.reset();
    complete = nullptr;
    engine.reset();
    net.reset();
  }
};

double branch_entropy(const webinfer::Engine& engine, const Tensor& frame,
                      Tensor* probs_out, Tensor* shared_out) {
  Tensor shared = engine.forward_shared(frame);
  Tensor probs = softmax_rows(engine.forward_branch(shared));
  const double e = core::normalized_entropy(probs.data(), probs.dim(1));
  if (probs_out != nullptr) *probs_out = std::move(probs);
  if (shared_out != nullptr) *shared_out = std::move(shared);
  return e;
}

/// Frames, tau and the oracle, all from the seed; untimed.
Inputs make_inputs(const models::ModelConfig& cfg, std::uint64_t seed,
                   std::uint64_t model_seed) {
  Rng rng(seed);
  const data::TrainTest sets = data::make_synthetic_pair(
      data::mnist_like(), kScreenFrames, kPoolFrames, rng);
  auto net = build_net(cfg, model_seed);
  const webinfer::Engine engine = export_engine(*net, cfg);
  net->prepare_edge_inference();

  Inputs in;
  std::vector<double> screen;
  double worst = -1.0;
  for (std::int64_t i = 0; i < sets.train.size(); ++i) {
    const Tensor frame = sets.train.image(i);
    const double e = branch_entropy(engine, frame, nullptr, nullptr);
    screen.push_back(e);
    if (e > worst) {
      worst = e;
      in.warm_frame = frame;
    }
  }
  std::sort(screen.begin(), screen.end());
  in.policy.tau = screen[static_cast<std::size_t>(
      kExitQuantile * static_cast<double>(screen.size()))];

  for (std::int64_t i = 0; i < sets.test.size(); ++i) {
    const Tensor frame = sets.test.image(i);
    Tensor probs, shared;
    const double e = branch_entropy(engine, frame, &probs, &shared);
    Answer a;
    if (in.policy.should_exit(e)) {
      a.label = argmax(probs);
      a.probs = probs;
      a.exits = true;
    } else {
      a = main_branch_answer(*net, shared);
    }
    in.frames.push_back(frame);
    in.answers.push_back(std::move(a));
  }
  return in;
}

/// Build models, export the web model, prepare edge inference, start the
/// server, open every session's connection (one warm-up recognition).
void setup(Stage& st, const models::ModelConfig& cfg, std::uint64_t model_seed,
           const Inputs& in) {
  st.reset();
  st.net = build_net(cfg, model_seed);
  st.engine = std::make_unique<webinfer::Engine>(export_engine(*st.net, cfg));
  st.complete = edge::main_branch_batch_completion(*st.net);
  st.registry = std::make_shared<edge::ModelRegistry>();
  st.registry->install(servable(0, 1, st.net, st.complete));
  st.server = std::make_unique<edge::EdgeServer>(0, st.registry);
  for (int s = 0; s < kSessions; ++s) {
    st.clients.push_back(std::make_unique<edge::BrowserClient>(
        *st.engine, in.policy, st.server->port(),
        edge::RetryPolicy::no_retry()));
    const edge::ClientResult r = st.clients.back()->classify(in.warm_frame);
    LCRS_CHECK(r.exit_point == core::ExitPoint::kMainBranch,
               "setup recognition did not complete at the edge");
  }
}

/// Per-session arrival schedule and frame sequence, from the seed.
struct Schedule {
  std::vector<double> offsets;
  std::vector<std::size_t> frame;
};

std::vector<Schedule> make_schedules(std::uint64_t seed, double horizon_s) {
  std::vector<Schedule> out;
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(seed * 1000003u + 7919u * static_cast<std::uint64_t>(s + 1));
    Schedule sc;
    sc.offsets = poisson_offsets(rng, kRatePerS / kSessions, horizon_s);
    for (std::size_t i = 0; i < sc.offsets.size(); ++i) {
      sc.frame.push_back(
          static_cast<std::size_t>(rng.randint(0, kPoolFrames - 1)));
    }
    out.push_back(std::move(sc));
  }
  return out;
}

/// Checks one recognition against the oracle. Every recognition leaves an
/// answer code; only those due inside the window are tallied.
void settle(Tally& t, Clock::time_point start, const Answer& want,
            core::ExitPoint exit_point, std::int64_t label,
            const Tensor& probs, Clock::time_point due,
            Clock::time_point done) {
  const bool counted = due >= start;
  const bool fallback = exit_point == core::ExitPoint::kBinaryBranchFallback;
  const bool browser = exit_point == core::ExitPoint::kBinaryBranch;
  const bool ok =
      !fallback && browser == want.exits && matches(want, label, probs);
  t.codes.push_back(ok ? answer_code(label, browser) : -1);
  if (!counted) return;
  ++t.attempted;
  if (want.exits) ++t.oracle_exits;
  if (fallback) {
    ++t.fallback;
  } else if (!ok) {
    ++t.mismatched;
  } else {
    if (browser) ++t.browser_exits;
    ++t.completed;
    t.record_latency(start, due, done);
  }
}

/// The timed pass: each session runs BrowserClient::classify.
std::vector<Tally> timed_pass(Stage& st, const Inputs& in,
                              const std::vector<Schedule>& sched,
                              Clock::time_point t0, Clock::time_point start,
                              Clock::time_point end,
                              const std::function<void()>& while_running) {
  std::vector<Tally> tallies(kSessions);
  run_threads(
      kSessions,
      [&](int s) {
        tighten_timer_slack();
        Tally& t = tallies[static_cast<std::size_t>(s)];
        edge::BrowserClient& client = *st.clients[static_cast<std::size_t>(s)];
        const Schedule& sc = sched[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < sc.offsets.size(); ++i) {
          if (overloaded(sc.offsets, i, t0, start, end, t)) break;
          const auto due = await_due(after_s(t0, sc.offsets[i]), start, t);
          if (due >= end) break;
          const std::size_t f = sc.frame[i];
          const edge::ClientResult r = client.classify(in.frames[f]);
          settle(t, start, in.answers[f], r.exit_point, r.label,
                 r.probabilities, due, Clock::now());
        }
      },
      while_running);
  return tallies;
}

/// The traced pass: the same recognitions, with the client's stages
/// called one by one (webinfer, core exit policy, protocol, socket) so
/// each can be timed from here.
std::vector<Tally> traced_pass(Stage& st, const Inputs& in,
                               const std::vector<Schedule>& sched,
                               std::vector<edge::Socket>& socks,
                               Clock::time_point t0, Clock::time_point start,
                               Clock::time_point end,
                               const std::function<void()>& while_running) {
  std::vector<Tally> tallies(kSessions);
  run_threads(
      kSessions,
      [&](int s) {
        tighten_timer_slack();
        Tally& t = tallies[static_cast<std::size_t>(s)];
        const webinfer::Engine engine = *st.engine;
        edge::Socket& sock = socks[static_cast<std::size_t>(s)];
        const Schedule& sc = sched[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < sc.offsets.size(); ++i) {
          if (overloaded(sc.offsets, i, t0, start, end, t)) break;
          const auto due = await_due(after_s(t0, sc.offsets[i]), start, t);
          if (due >= end) break;
          const bool counted = due >= start;
          const Tensor& frame = in.frames[sc.frame[i]];
          const auto ta = Clock::now();
          const Tensor shared = engine.forward_shared(frame);
          const auto tb = Clock::now();
          const Tensor logits = engine.forward_branch(shared);
          const auto tc = Clock::now();
          const Tensor probs = softmax_rows(logits);
          const double e = core::normalized_entropy(probs.data(), probs.dim(1));
          std::int64_t label = argmax(probs);
          Tensor answer = probs;
          core::ExitPoint exit_point = core::ExitPoint::kBinaryBranch;
          if (!in.policy.should_exit(e)) {
            const auto td = Clock::now();
            const std::vector<std::uint8_t> bytes =
                encode_request(shared, 0, obs::next_trace_id());
            const auto te = Clock::now();
            sock.send_all(bytes.data(), bytes.size());
            const std::optional<edge::Frame> reply = sock.recv_frame();
            const auto tf = Clock::now();
            if (!reply.has_value() ||
                reply->type != edge::MsgType::kCompleteResponse ||
                reply->model_id != 0) {
              t.codes.push_back(-1);
              if (counted) {
                ++t.attempted;
                ++(reply.has_value() && reply->type == edge::MsgType::kBusy
                       ? t.busy
                       : t.transport);
              }
              continue;
            }
            edge::CompleteResponse resp =
                edge::parse_complete_response(reply->payload);
            const auto tg = Clock::now();
            label = resp.label;
            answer = std::move(resp.probabilities);
            exit_point = core::ExitPoint::kMainBranch;
            if (counted) {
              t.encode_us.push_back(us_between(td, te));
              t.roundtrip_us.push_back(us_between(te, tf));
              t.decode_us.push_back(us_between(tf, tg));
              t.upload_bytes += static_cast<std::int64_t>(bytes.size());
            }
          }
          const auto done = Clock::now();
          if (counted) {
            t.conv1_us.push_back(us_between(ta, tb));
            t.branch_us.push_back(us_between(tb, tc));
          }
          settle(t, start, in.answers[sc.frame[i]], exit_point, label,
                 answer, due, done);
        }
      },
      while_running);
  return tallies;
}

}  // namespace

int run_ar_lenet_open(const Args& args) {
  check_generator_budget(kSessions, kSessions);
  const models::ModelConfig cfg = models::small_config(models::Arch::kLeNet);
  const std::uint64_t model_seed = args.seed * 7919u + 11u;
  const Inputs in = make_inputs(cfg, args.seed, model_seed);

  Report r;
  report_host_facts(r, args, kSessions, kSessions);
  r.fact("arrival", "open-loop poisson");
  r.fact("rate_per_s", kRatePerS);
  r.fact("tau", in.policy.tau);

  Stage st;
  const double warm_s = std::min(1.0, 0.1 * args.seconds);
  if (!args.trace) {
    const double setup_s = median_setup_s(
        kSetupReps, [&] { setup(st, cfg, model_seed, in); });
    const double horizon = warm_s + args.seconds;
    const auto sched = make_schedules(args.seed, horizon);
    const auto t0 = Clock::now();
    const auto start = after_s(t0, warm_s), end = after_s(t0, horizon);
    Window w;
    const Tally t = merged(timed_pass(st, in, sched, t0, start, end, [&] {
      w = observe_window(start, end, *st.server, nullptr);
    }));
    report_end_to_end(r, t, w, args.seconds, setup_s);
    r.print(t.mismatched == 0, t.attempted, t.failed());
    return t.mismatched == 0 ? 0 : 1;
  }

  // Traced run: an untraced reference pass, then the traced pass over the
  // same schedule prefix, each measuring half of the run.
  setup(st, cfg, model_seed, in);
  const double half = args.seconds / 2.0;
  const auto sched = make_schedules(args.seed, warm_s + half);
  auto t0 = Clock::now();
  const std::vector<Tally> ref = timed_pass(
      st, in, sched, t0, after_s(t0, warm_s), after_s(t0, warm_s + half),
      [] {});
  st.clients.clear();  // the traced sessions use their own connections

  std::vector<edge::Socket> socks;
  for (int s = 0; s < kSessions; ++s) {
    socks.push_back(connect_and_ping(st.server->port()));
  }
  CompletionTimer timer;
  install_timed_model(r, *st.registry, st.net, st.complete, &timer);

  t0 = Clock::now();
  const auto start = after_s(t0, warm_s), end = after_s(t0, warm_s + half);
  Window w;
  const std::vector<Tally> traced =
      traced_pass(st, in, sched, socks, t0, start, end, [&] {
        w = observe_window(start, end, *st.server, &timer);
      });
  const Tally t = merged(traced);
  report_traced_tally(r, t);
  report_webinfer(r, t.conv1_us, t.branch_us, *st.net);
  report_server(r, w, half, percentile(t.roundtrip_us, 0.5), t.completed);
  std::vector<Tensor> maps;
  for (std::size_t i = 0; i < 8; ++i) {
    maps.push_back(st.engine->forward_shared(in.frames[i]));
  }
  const double edge_ms = report_main_layers(
      r, *st.net, maps, std::max(1, static_cast<int>(w.mean_batch() + 0.5)),
      200);
  report_cost_model(
      r, *st.net, cfg,
      (percentile(t.conv1_us, 0.5) + percentile(t.branch_us, 0.5)) / 1e3,
      edge_ms);
  const std::int64_t differ = report_trace_overhead(r, ref, traced);
  const Tally all = merged({merged(ref), t});
  const bool correct = all.mismatched == 0 && differ == 0 &&
                       t.browser_exits == t.oracle_exits;
  r.print(correct, all.attempted, all.failed());
  return correct ? 0 : 1;
}

}  // namespace perfbench
