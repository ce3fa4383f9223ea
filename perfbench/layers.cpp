#include "layers.hpp"

#include <array>
#include <cstdlib>
#include <string_view>

#include "acc/pipeline.hpp"
#include "ara/com/local_binding.hpp"
#include "bench_util.hpp"
#include "brake/dear_pipeline.hpp"
#include "dear/tag_codec.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "scenario/runner.hpp"
#include "scenario/workloads.hpp"
#include "sim/kernel.hpp"
#include "sim/sim_executor.hpp"
#include "someip/message.hpp"
#include "someip/timestamp_bypass.hpp"

namespace perfbench {
namespace {

namespace sc = dear::scenario;
namespace obs = dear::obs;
using obs::Counter;

// Shares of the run's seconds spent in each phase. Every phase also
// completes at least one full pass over the scenario list.
constexpr double kUntracedShare = 0.15;
constexpr double kBuildShare = 0.05;
constexpr double kTracedShare = 0.30;
constexpr double kRunnerShare = 0.35;
constexpr double kProbeShare = 0.10;

/// Span ring per thread: holds every tag and reaction span of the longest
/// scenario (brake_long: 2000 frames x 17 spans).
constexpr std::size_t kRingCapacity = std::size_t{1} << 17;

/// Accepted range of trace.closure_share (README.md, "Closure"). Above 1
/// plus probe noise, the split counts some work twice; below the low end,
/// more than 60% of the traced wall is work no probe models.
constexpr double kClosureLow = 0.4;
constexpr double kClosureHigh = 1.05;

/// Keeps probe results observable so no probe loop is optimised away.
volatile std::uint64_t g_sink = 0;

/// Calls body(spec, index) round-robin over `specs` until `seconds` have
/// passed and every spec ran at least once.
template <class Body>
void for_each_until(const std::vector<sc::ScenarioSpec>& specs, double seconds, Body&& body) {
  if (specs.empty()) {
    return;
  }
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::size_t i = 0;
  do {
    body(specs[i % specs.size()], i % specs.size());
    ++i;
  } while (i < specs.size() || Clock::now() < deadline);
}

/// Median ns per op over blocks of `ops` calls, for about `seconds`
/// (at least three blocks).
template <class Op>
double probe_ns(double seconds, std::uint64_t ops, Op&& op) {
  std::vector<double> per_op;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      op(i);
    }
    per_op.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  } while (per_op.size() < 3 || Clock::now() < deadline);
  return median(per_op);
}

/// Median ns per op over batches of `batch` calls of op(i), each batch
/// after an untimed prepare(): isolates the receive half of a layer whose
/// send half must run first. For about `seconds` (at least three batches).
template <class Prepare, class Op>
double probe_batches_ns(double seconds, std::uint64_t batch, Prepare&& prepare, Op&& op) {
  std::vector<double> per_op;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    prepare();
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < batch; ++i) {
      op(i);
    }
    per_op.push_back(seconds_since(start) * 1e9 / static_cast<double>(batch));
  } while (per_op.size() < 3 || Clock::now() < deadline);
  return median(per_op);
}

/// Self times of the tag/level/reaction spans of one traced scenario,
/// folded from the registry's Chrome trace export (one event per line).
struct SpanFold {
  double tag_ns{0.0};
  double tag_self_ns{0.0};
  double level_self_ns{0.0};
  double reaction_self_ns{0.0};
  std::uint64_t spans{0};
};

SpanFold fold_spans(const std::string& trace_json) {
  struct Event {
    double start;
    double duration;
    char category;  // 't'ag, 'l'evel, 'r'eaction, other
    double child{0.0};
  };
  std::vector<Event> events;
  std::size_t line_start = 0;
  while (line_start < trace_json.size()) {
    std::size_t line_end = trace_json.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = trace_json.size();
    }
    const std::string_view line(trace_json.data() + line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.find("\"ph\": \"X\"") == std::string_view::npos) {
      continue;
    }
    // The span name precedes every other field and is JSON-escaped, so
    // the field keys are searched after its closing quote.
    std::size_t pos = line.find("\"name\": \"");
    if (pos == std::string_view::npos) {
      continue;
    }
    pos += 9;
    while (pos < line.size() && line[pos] != '"') {
      pos += line[pos] == '\\' ? 2 : 1;
    }
    const std::string_view rest = line.substr(std::min(pos, line.size()));
    const std::size_t cat = rest.find("\"cat\": \"");
    const std::size_t ts = rest.find("\"ts\": ");
    const std::size_t dur = rest.find("\"dur\": ");
    if (cat == std::string_view::npos || ts == std::string_view::npos ||
        dur == std::string_view::npos) {
      continue;
    }
    // ts/dur are microseconds with six decimals.
    Event event{};
    event.start = std::strtod(rest.data() + ts + 6, nullptr) * 1e3;
    event.duration = std::strtod(rest.data() + dur + 7, nullptr) * 1e3;
    event.category = rest[cat + 8];
    events.push_back(event);
  }
  // Parents first on equal starts, so nesting follows the interval order.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.start != b.start ? a.start < b.start : a.duration > b.duration;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!stack.empty() &&
           events[stack.back()].start + events[stack.back()].duration <= events[i].start) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      events[stack.back()].child += events[i].duration;
    }
    stack.push_back(i);
  }
  SpanFold fold;
  fold.spans = events.size();
  for (const Event& event : events) {
    const double self = event.duration - event.child;
    switch (event.category) {
      case 't':
        fold.tag_ns += event.duration;
        fold.tag_self_ns += self;
        break;
      case 'l':
        fold.level_self_ns += self;
        break;
      case 'r':
        fold.reaction_self_ns += self;
        break;
      default:
        break;
    }
  }
  return fold;
}

/// Times the app construction of one DEAR or ACC scenario (build_only);
/// the nondet pipeline has no build-only mode and returns -1.
double build_seconds(const sc::ScenarioSpec& spec) {
  if (spec.workload == sc::Workload::kBrakeDear) {
    dear::brake::DearScenarioConfig config = sc::to_dear_config(spec);
    config.build_only = true;
    const auto start = Clock::now();
    (void)dear::brake::run_dear_pipeline(config);
    return seconds_since(start);
  }
  if (spec.workload == sc::Workload::kAcc) {
    dear::acc::AccScenarioConfig config = sc::to_acc_config(spec);
    config.build_only = true;
    const auto start = Clock::now();
    (void)dear::acc::run_acc_pipeline(config);
    return seconds_since(start);
  }
  return -1.0;
}

/// SOME/IP datagram size of the brake_long frame path, measured on a short
/// DEAR-over-SOME/IP scenario: the probes encode messages of this size.
std::size_t brake_bytes_per_msg() {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_metrics_enabled(true);
  sc::ScenarioSpec spec;
  spec.workload = sc::Workload::kBrakeDear;
  spec.transport = sc::Transport::kSomeIp;
  spec.frames = 100;
  (void)sc::run_scenario(spec);
  registry.set_metrics_enabled(false);
  const std::uint64_t msgs = registry.counter_total(Counter::kSomeipMsgsSent);
  const std::uint64_t bytes = registry.counter_total(Counter::kSomeipBytesSent);
  registry.reset();
  return msgs > 0 ? static_cast<std::size_t>(bytes / msgs) : dear::someip::kHeaderSize;
}

struct Probes {
  double sim_step_ns{0.0};
  double net_send_ns{0.0};
  double encode_tagged_ns{0.0};
  double decode_tagged_ns{0.0};
  double local_notify_ns{0.0};
  double tag_codec_ns{0.0};
  // Receive halves, for the closure model: work that runs outside tag
  // spans (the send halves run inside the sending reaction).
  double sim_dispatch_ns{0.0};
  double net_deliver_ns{0.0};
  double tag_receive_ns{0.0};
  std::size_t probe_bytes{0};
};

Probes run_probes(double seconds) {
  const double each = seconds / 9.0;
  // Events queued per receive-half batch: a few hundred, so the clock
  // reads around a batch stay below 1% of it.
  constexpr std::uint64_t kBatch = 256;
  Probes probes;
  probes.probe_bytes = brake_bytes_per_msg();
  const std::size_t payload_bytes =
      probes.probe_bytes > dear::someip::kHeaderSize + dear::someip::kTagTrailerSize
          ? probes.probe_bytes - dear::someip::kHeaderSize - dear::someip::kTagTrailerSize
          : 0;
  const std::vector<std::uint8_t> payload(payload_bytes, 0xAB);

  {
    // One schedule_at + step of the DES kernel.
    dear::sim::Kernel kernel;
    std::uint64_t fired = 0;
    probes.sim_step_ns = probe_ns(each, 20000, [&](std::uint64_t) {
      kernel.schedule_at(kernel.now() + dear::kMicrosecond, [&fired] { ++fired; });
      (void)kernel.step();
    });
    // Dispatch only: the events are queued untimed.
    probes.sim_dispatch_ns = probe_batches_ns(
        each, kBatch,
        [&] {
          for (std::uint64_t i = 0; i < kBatch; ++i) {
            kernel.schedule_at(kernel.now() + dear::kMicrosecond * static_cast<std::int64_t>(i + 1),
                               [&fired] { ++fired; });
          }
        },
        [&](std::uint64_t) { (void)kernel.step(); });
    g_sink = g_sink + fired;
  }
  {
    // One datagram through SimNetwork: send (payload copy included), then
    // the kernel step that delivers it to the bound receiver.
    dear::sim::Kernel kernel;
    dear::net::SimNetwork network(kernel, dear::common::Rng(7));
    const dear::net::Endpoint from{1, 100};
    const dear::net::Endpoint to{2, 200};
    std::uint64_t received = 0;
    network.bind(to, [&received](const dear::net::Packet& packet) {
      received += packet.payload.size();
    });
    std::vector<std::uint8_t> wire(probes.probe_bytes, 0xCD);
    probes.net_send_ns = probe_ns(each, 20000, [&](std::uint64_t) {
      network.send(from, to, wire);
      (void)kernel.step();
    });
    // Delivery only: the datagrams are sent untimed.
    probes.net_deliver_ns = probe_batches_ns(
        each, kBatch,
        [&] {
          for (std::uint64_t i = 0; i < kBatch; ++i) {
            network.send(from, to, wire);
          }
        },
        [&](std::uint64_t) { (void)kernel.step(); });
    g_sink = g_sink + received;
  }
  {
    dear::someip::Message message;
    message.service = 0x1234;
    message.method = 0x8001;
    message.client = 0x01;
    message.session = 0x42;
    message.type = dear::someip::MessageType::kNotification;
    message.payload = payload;
    message.tag = dear::someip::WireTag{123'456'789, 2};
    std::vector<std::uint8_t> wire;
    probes.encode_tagged_ns = probe_ns(each, 50000, [&](std::uint64_t i) {
      message.session = static_cast<dear::someip::SessionId>(i);
      message.encode_into(wire);
    });
    dear::someip::Message scratch;
    probes.decode_tagged_ns = probe_ns(each, 50000, [&](std::uint64_t) {
      if (!dear::someip::Message::decode_into(wire.data(), wire.size(), scratch)) {
        std::abort();
      }
    });
    g_sink = g_sink + scratch.session;
  }
  {
    // A tagged notification from one LocalBinding to one subscriber; the
    // handler collects the tag the way a DEAR transactor does.
    dear::sim::Kernel kernel;
    dear::sim::ImmediateSimExecutor executor(kernel);
    dear::ara::com::LocalHub hub;
    const dear::net::Endpoint server_ep{1, 100};
    dear::ara::com::LocalBinding server(hub, executor, server_ep, 0x01);
    dear::ara::com::LocalBinding client(hub, executor, {1, 200}, 0x02);
    constexpr dear::someip::ServiceId kService = 0x0E0E;
    constexpr dear::someip::EventId kEvent = 0x8001;
    std::uint64_t received = 0;
    client.subscribe(server_ep, kService, kEvent,
                     [&received, &client](const dear::someip::Message& message) {
                       received += message.payload.size();
                       (void)client.collect_received_tag();
                     });
    if (server.subscriber_count(kService, kEvent) != 1) {
      std::abort();
    }
    probes.local_notify_ns = probe_ns(each, 20000, [&](std::uint64_t i) {
      server.attach_send_tag(dear::someip::WireTag{static_cast<std::int64_t>(i), 0});
      server.notify(kService, kEvent, payload);
    });
    if (received == 0 && !payload.empty()) {
      std::abort();  // the probe measured no delivery
    }
    g_sink = g_sink + received;
  }
  {
    // Reactor tag -> wire tag -> bypass deposit/collect -> reactor tag.
    dear::someip::TimestampBypass bypass;
    std::uint64_t sum = 0;
    probes.tag_codec_ns = probe_ns(each, 50000, [&](std::uint64_t i) {
      const dear::reactor::Tag tag{static_cast<dear::TimePoint>(i), 1};
      bypass.deposit(dear::transact::to_wire(tag));
      const std::optional<dear::someip::WireTag> wire = bypass.collect();
      sum += static_cast<std::uint64_t>(dear::transact::from_wire(*wire).time);
    });
    // Receive half: the binding deposits the wire tag, the transactor
    // collects and converts it.
    std::vector<dear::someip::WireTag> wires;
    for (std::int64_t i = 0; i < 64; ++i) {
      wires.push_back(dear::transact::to_wire(dear::reactor::Tag{i, 1}));
    }
    probes.tag_receive_ns = probe_ns(each, 50000, [&](std::uint64_t i) {
      bypass.deposit(wires[i % wires.size()]);
      const std::optional<dear::someip::WireTag> wire = bypass.collect();
      sum += static_cast<std::uint64_t>(dear::transact::from_wire(*wire).time);
    });
    g_sink = g_sink + sum;
  }
  return probes;
}

}  // namespace

TracedRun run_traced(const WorkloadDef& workload, std::uint64_t seed, double seconds) {
  auto& registry = obs::Registry::instance();
  registry.set_metrics_enabled(false);
  registry.set_span_mask(0);

  // --- scenario: expansion ----------------------------------------------------
  std::vector<double> expand_us;
  std::vector<sc::ScenarioSpec> specs;
  for (int i = 0; i < 20; ++i) {
    const auto start = Clock::now();
    specs = expand(workload, seed);
    expand_us.push_back(seconds_since(start) * 1e6);
  }
  Reproduction reproduction;

  // --- scenario: untraced serial runs ------------------------------------------
  std::vector<double> untraced_frame_ns;
  std::vector<double> run_us;
  for_each_until(specs, seconds * kUntracedShare,
                 [&](const sc::ScenarioSpec& spec, std::size_t index) {
                   const auto start = Clock::now();
                   const sc::RunOutcome outcome = sc::run_scenario(spec);
                   const double wall = seconds_since(start);
                   reproduction.add(index, outcome);
                   run_us.push_back(wall * 1e6);
                   untraced_frame_ns.push_back(wall * 1e9 / static_cast<double>(spec.frames));
                 });

  // --- scenario/brake/acc: build only ------------------------------------------
  std::vector<sc::ScenarioSpec> buildable;
  for (const sc::ScenarioSpec& spec : specs) {
    if (spec.workload != sc::Workload::kBrakeNondet) {
      buildable.push_back(spec);
    }
  }
  std::vector<double> build_us;
  for_each_until(buildable, seconds * kBuildShare,
                 [&](const sc::ScenarioSpec& spec, std::size_t) {
                   build_us.push_back(build_seconds(spec) * 1e6);
                 });

  // --- traced serial runs: spans and registry counters --------------------------
  registry.set_ring_capacity(kRingCapacity);
  registry.set_metrics_enabled(true);
  registry.set_span_mask(obs::category_bit(obs::SpanCategory::kTag) |
                         obs::category_bit(obs::SpanCategory::kLevel) |
                         obs::category_bit(obs::SpanCategory::kReaction));
  std::array<double, obs::kCounterCount> counts{};
  double counted_frames = 0.0;
  std::size_t counted_runs = 0;
  SpanFold spans;
  double traced_wall_ns = 0.0;
  double traced_frames = 0.0;
  double lost_spans = 0.0;
  std::vector<double> traced_frame_ns;
  for_each_until(specs, seconds * kTracedShare, [&](const sc::ScenarioSpec& spec, std::size_t index) {
    registry.reset();
    const auto start = Clock::now();
    const sc::RunOutcome outcome = sc::run_scenario(spec);
    const double wall_ns = seconds_since(start) * 1e9;
    reproduction.add(index, outcome);
    const auto frames = static_cast<double>(spec.frames);
    traced_frame_ns.push_back(wall_ns / frames);
    traced_wall_ns += wall_ns;
    traced_frames += frames;
    const obs::Snapshot snapshot = registry.snapshot();
    lost_spans += static_cast<double>(snapshot.spans_recorded - snapshot.spans_retained);
    if (counted_runs < specs.size()) {
      for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
        counts[c] += static_cast<double>(snapshot.counters[c]);
      }
      counted_frames += frames;
      ++counted_runs;
    }
    const SpanFold fold = fold_spans(registry.chrome_trace_json());
    spans.tag_ns += fold.tag_ns;
    spans.tag_self_ns += fold.tag_self_ns;
    spans.level_self_ns += fold.level_self_ns;
    spans.reaction_self_ns += fold.reaction_self_ns;
    spans.spans += fold.spans;
  });
  registry.set_span_mask(0);
  registry.set_metrics_enabled(false);
  registry.reset();

  // --- scenario/runner: campaigns -----------------------------------------------
  const std::size_t workers = campaign_workers();
  const std::size_t parallel = parallel_workers();
  std::uint64_t violated = 0;
  const auto campaign = [&](std::size_t campaign_workers) {
    sc::RunnerOptions options;
    options.workers = campaign_workers;
    sc::CampaignReport report = sc::CampaignRunner(options).run(workload.name, specs, seed);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      reproduction.add(i, report.results[i].outcome);
    }
    violated += violated_members(report);
    return report;
  };
  std::vector<double> busy_share;
  std::vector<double> cpu_util;
  std::vector<double> ctx_switches;
  std::vector<double> minor_faults;
  std::vector<double> small_locks;
  std::vector<double> buffer_locks;
  {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds * kRunnerShare / 2);
    do {
      const Usage before = Usage::now();
      const std::uint64_t small0 = registry.counter_total(Counter::kPoolSmallShelfLocks);
      const std::uint64_t buffer0 = registry.counter_total(Counter::kPoolBufferShelfLocks);
      const auto start = Clock::now();
      const sc::CampaignReport report = campaign(workers);
      const double wall = seconds_since(start);
      const Usage used = Usage::now() - before;
      const auto scenarios = static_cast<double>(report.results.size());
      double scenario_wall = 0.0;
      for (const sc::ScenarioResult& row : report.results) {
        scenario_wall += row.wall_seconds;
      }
      const double capacity = static_cast<double>(workers) * wall;
      busy_share.push_back(ratio(scenario_wall, capacity));
      cpu_util.push_back(ratio(used.cpu_s, capacity));
      ctx_switches.push_back(used.context_switches());
      minor_faults.push_back(ratio(used.minor_faults, scenarios));
      small_locks.push_back(ratio(
          static_cast<double>(registry.counter_total(Counter::kPoolSmallShelfLocks) - small0),
          scenarios));
      buffer_locks.push_back(ratio(
          static_cast<double>(registry.counter_total(Counter::kPoolBufferShelfLocks) - buffer0),
          scenarios));
    } while (busy_share.size() < 3 || Clock::now() < deadline);
  }
  // The same scenario list at 1 worker and at min(4, nproc), alternating.
  std::vector<double> wall_1w;
  std::vector<double> wall_nw;
  std::vector<double> scenario_wall_1w;
  std::vector<double> scenario_wall_nw;
  {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds * kRunnerShare / 2);
    do {
      for (const std::size_t n : {std::size_t{1}, parallel}) {
        const auto start = Clock::now();
        const sc::CampaignReport report = campaign(n);
        (n == 1 ? wall_1w : wall_nw).push_back(seconds_since(start));
        for (const sc::ScenarioResult& row : report.results) {
          (n == 1 ? scenario_wall_1w : scenario_wall_nw).push_back(row.wall_seconds);
        }
      }
    } while (wall_1w.size() < 3 || Clock::now() < deadline);
  }

  // --- probes of single layers ---------------------------------------------------
  const Probes probes = run_probes(seconds * kProbeShare);

  // --- metrics -----------------------------------------------------------------
  const auto count = [&](Counter c) { return counts[static_cast<std::size_t>(c)]; };
  const auto per_frame = [&](double value) { return ratio(value, counted_frames); };
  const double traced_ns_per_frame = ratio(traced_wall_ns, traced_frames);
  const double untraced_p50 = median(untraced_frame_ns);
  const double traced_p50 = median(traced_frame_ns);
  const double build_p50 = median(build_us);
  const double run_p50 = median(run_us);
  const double tag_self = ratio(spans.tag_self_ns, traced_frames);
  const double level_self = ratio(spans.level_self_ns, traced_frames);
  const double reactions = ratio(spans.reaction_self_ns, traced_frames);
  const double outside = ratio(traced_wall_ns - spans.tag_ns, traced_frames);

  const double events_pf = per_frame(count(Counter::kSimEventsProcessed));
  const double packets_pf = per_frame(count(Counter::kNetPacketsSent));
  const double someip_pf = per_frame(count(Counter::kSomeipMsgsSent));
  const double local_pf = per_frame(count(Counter::kLocalMsgsSent));
  const double delivered_pf = per_frame(count(Counter::kNetPacketsDelivered));
  const double someip_received_pf = per_frame(count(Counter::kSomeipMsgsReceived));
  const double tagged_received_pf = per_frame(count(Counter::kSomeipTaggedReceived));
  // Closure: the time inside tag spans (tag, level and reaction self
  // times; they hold every send half — encode, SimNetwork::send, local
  // delivery, which runs synchronously in the sender) plus the
  // probe-modelled receive work outside them (kernel dispatch, datagram
  // delivery, SOME/IP decode, tag deposit/collect/from_wire) plus app
  // construction, against the measured traced wall per frame.
  const double modelled_receive =
      std::max(0.0, events_pf - delivered_pf) * probes.sim_dispatch_ns +
      delivered_pf * probes.net_deliver_ns + someip_received_pf * probes.decode_tagged_ns +
      tagged_received_pf * probes.tag_receive_ns;
  const double build_pf =
      ratio(build_p50 * 1e3 * static_cast<double>(traced_frame_ns.size()), traced_frames);
  const double closure =
      ratio(tag_self + level_self + reactions + modelled_receive + build_pf, traced_ns_per_frame);
  const bool closure_ok = closure >= kClosureLow && closure <= kClosureHigh;

  TracedRun run;
  auto add = [&run](const char* name, double value, const char* unit) {
    run.metrics.push_back(Metric{name, value, unit});
  };
  add("scenario.expand_us", median(expand_us), "us");
  add("scenario.build_us_p50", build_p50, "us");
  add("scenario.run_us_p50", run_p50, "us");
  add("scenario.build_share", ratio(build_p50, run_p50), "ratio");
  add("runner.busy_share", median(busy_share), "ratio");
  add("runner.wall_inflation", ratio(median(scenario_wall_nw), median(scenario_wall_1w)), "ratio");
  add("runner.speedup_vs_1w", ratio(median(wall_1w), median(wall_nw)), "ratio");
  add("runner.cpu_util", median(cpu_util), "ratio");
  add("runner.ctx_switches_per_campaign", median(ctx_switches), "count");
  add("runner.minor_faults_per_scenario", median(minor_faults), "count");
  add("pool.small.shelf_locks_per_scenario", median(small_locks), "count");
  add("pool.buffer.shelf_locks_per_scenario", median(buffer_locks), "count");
  add("pool.slab.loans_per_frame", per_frame(count(Counter::kPoolSlabLoans)), "count");
  add("pool.slab.hit_share",
      ratio(count(Counter::kPoolSlabShelfHits), count(Counter::kPoolSlabLoans)), "ratio");
  add("camera.payload_drop_share",
      ratio(count(Counter::kCameraPayloadDrops),
            count(Counter::kCameraPayloadFrames) + count(Counter::kCameraPayloadDrops)),
      "ratio");
  add("sim.events_per_frame", events_pf, "count");
  add("sim.step_ns", probes.sim_step_ns, "ns");
  add("net.packets_per_frame", packets_pf, "count");
  add("net.drop_share",
      ratio(count(Counter::kNetPacketsDropped), count(Counter::kNetPacketsSent)), "ratio");
  add("net.dup_share",
      ratio(count(Counter::kNetPacketsDuplicated), count(Counter::kNetPacketsSent)), "ratio");
  add("net.send_ns", probes.net_send_ns, "ns");
  add("someip.msgs_per_frame", someip_pf, "count");
  add("someip.bytes_per_msg",
      ratio(count(Counter::kSomeipBytesSent), count(Counter::kSomeipMsgsSent)), "B");
  add("someip.dedup_share",
      ratio(count(Counter::kSomeipDedupHits), count(Counter::kSomeipMsgsReceived)), "ratio");
  add("someip.encode_tagged_ns", probes.encode_tagged_ns, "ns");
  add("someip.decode_tagged_ns", probes.decode_tagged_ns, "ns");
  add("local.msgs_per_frame", local_pf, "count");
  add("local.notify_ns", probes.local_notify_ns, "ns");
  add("dear.tag_codec_ns", probes.tag_codec_ns, "ns");
  add("reactor.tags_per_frame", per_frame(count(Counter::kSchedTagsProcessed)), "count");
  add("reactor.reactions_per_frame", per_frame(count(Counter::kSchedReactionsExecuted)), "count");
  add("reactor.levels_per_frame", per_frame(count(Counter::kSchedLevelsRun)), "count");
  add("reactor.tag_self_ns_per_frame", tag_self, "ns");
  add("reactor.reaction_ns_per_frame", reactions, "ns");
  add("scenario.outside_reactor_ns_per_frame", outside, "ns");
  add("ft.retries_per_frame", per_frame(count(Counter::kFtRetries)), "count");
  add("ft.call_faults_per_frame", per_frame(count(Counter::kFtCallFaults)), "count");
  add("ft.degraded_ticks_per_frame", per_frame(count(Counter::kFtDegradedTicks)), "count");
  add("obs.trace_overhead", ratio(traced_p50, untraced_p50), "ratio");
  add("trace.closure_share", closure, "ratio");

  run.consistency.name = std::string("traced/") + workload.name;
  run.consistency.attempted = reproduction.runs();
  run.consistency.failed = std::min(reproduction.mismatches() + violated, reproduction.runs());
  run.consistency.ok = reproduction.mismatches() == 0 && violated == 0;
  run.consistency.detail = std::to_string(reproduction.mismatches()) + " of " +
                           std::to_string(reproduction.runs()) +
                           " scenario runs (untraced, traced, campaigns) differ from their first "
                           "outcome; " +
                           std::to_string(violated) + " campaign rows in violated digest groups";
  run.closure.name = std::string("closure/") + workload.name;
  run.closure.attempted = 1;
  run.closure.ok = closure_ok;
  run.closure.failed = closure_ok ? 0 : 1;
  run.closure.detail = "trace.closure_share " + std::to_string(closure) + " (accepted " +
                       std::to_string(kClosureLow) + " to " + std::to_string(kClosureHigh) + ")";
  run.detail = JsonObject()
                   .num("workers", static_cast<double>(workers))
                   .num("parallel_workers", static_cast<double>(parallel))
                   .num("untraced_frame_ns_p50", untraced_p50)
                   .num("traced_frame_ns_p50", traced_p50)
                   .num("traced_ns_per_frame_mean", traced_ns_per_frame)
                   .num("traced_scenarios", static_cast<double>(traced_frame_ns.size()))
                   .num("spans_folded", static_cast<double>(spans.spans))
                   .num("spans_lost", lost_spans)
                   .num("level_self_ns_per_frame", level_self)
                   .num("outside_reactor_ns_per_frame", outside)
                   .num("modelled_receive_ns_per_frame", modelled_receive)
                   .num("sim_dispatch_ns", probes.sim_dispatch_ns)
                   .num("net_deliver_ns", probes.net_deliver_ns)
                   .num("tag_receive_ns", probes.tag_receive_ns)
                   .num("build_ns_per_frame", build_pf)
                   .num("probe_datagram_bytes", static_cast<double>(probes.probe_bytes))
                   .num("closure_low", kClosureLow)
                   .num("closure_high", kClosureHigh)
                   .num("campaigns_1w", static_cast<double>(wall_1w.size()))
                   .num("campaigns_at_workers", static_cast<double>(busy_share.size()))
                   .str();
  return run;
}

}  // namespace perfbench
