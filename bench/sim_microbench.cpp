// google-benchmark microbenchmarks of the simulator core itself: event
// throughput, end-to-end verbs operation cost, and the hot translation-unit
// path.  These guard the harness's own performance (the Fig 13 dataset
// build issues millions of simulated READs).
#include <benchmark/benchmark.h>

#include <functional>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"

#include "fabric/topology.hpp"
#include "revng/testbed.hpp"
#include "rnic/message.hpp"
#include "rnic/translation.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "verbs/context.hpp"

using namespace ragnar;

static void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Xoshiro256 rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.push(rng(), [&sink] { ++sink; });
    while (!q.empty()) q.pop(nullptr)();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

// The "hold" model at a fixed queue depth: pop the earliest event, run it,
// push one new event a random delay later.  The capture is the rnic
// admission lambda's shape — a pointer, a 136-byte InFlightMsg and two
// timestamps, 160 bytes, the largest capture on the hot path — and the
// depths are about the mean queue depths of the benchmark workloads
// snoop_train (2), covert_lossy (600) and cloud_fabric (2000).
static void BM_EventQueueMsgHold(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  sim::EventQueue q;
  sim::Xoshiro256 rng(1);
  std::uint64_t sink = 0;
  rnic::InFlightMsg msg;
  sim::SimTime now = 0;
  auto push = [&](sim::SimTime at) {
    msg.wire_bytes = at;
    auto fn = [s = &sink, msg, at, now] { *s += msg.wire_bytes + at - now; };
    static_assert(sizeof(fn) == sim::InlineFn::kInlineBytes);
    q.push(at, std::move(fn));
  };
  for (int i = 0; i < depth; ++i) push(rng.uniform_u64(sim::us(1)));
  for (auto _ : state) {
    q.run_next([&now](sim::SimTime at) { now = at; });
    push(now + rng.uniform_u64(sim::us(1)));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueMsgHold)->Arg(2)->Arg(600)->Arg(2000);

// The key heap alone in the same hold model, binary vs 4-ary: why
// EventQueue runs the 4-ary instance.
template <unsigned Arity>
static void BM_KeyHeapHold(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  sim::KeyHeap<Arity> heap;
  sim::Xoshiro256 rng(1);
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    heap.push({rng.uniform_u64(sim::us(1)), seq++});
  }
  for (auto _ : state) {
    const auto k = heap.pop();
    heap.push({k.at + rng.uniform_u64(sim::us(1)), seq++});
  }
  benchmark::DoNotOptimize(heap.top());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_KeyHeapHold, 2)->Arg(2)->Arg(600)->Arg(2000);
BENCHMARK_TEMPLATE(BM_KeyHeapHold, 4)->Arg(2)->Arg(600)->Arg(2000);

static void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sched.after(sim::ns(10), tick);
    };
    sched.after(sim::ns(10), tick);
    sched.run_until_idle();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerEventThroughput);

static void BM_TranslationAccess(benchmark::State& state) {
  auto prof = rnic::make_profile(rnic::DeviceModel::kCX4);
  rnic::TranslationUnit xl(prof, sim::Xoshiro256(2));
  sim::Xoshiro256 rng(3);
  sim::SimTime t = 0;
  for (auto _ : state) {
    rnic::XlRequest r;
    r.mr_id = 1;
    r.offset = rng.uniform_u64(1u << 20);
    r.size = 64;
    r.is_read = true;
    t = xl.access(t, r);
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslationAccess);

static void BM_EndToEndRead(benchmark::State& state) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, 4, 1);
  auto conn = bed.connect(0, 1, 16, 0);
  auto mr = conn.server_pd->register_mr(1u << 20);
  const auto size = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = conn.local_addr();
    wr.length = size;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    conn.qp().post_send(wr);
    conn.cq().run_until_available(1);
    verbs::Wc wc;
    conn.cq().poll_one(&wc);
    benchmark::DoNotOptimize(wc);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated RDMA READ, host-side cost per op");
}
BENCHMARK(BM_EndToEndRead)->Arg(64)->Arg(4096);

// The switched-fabric counterpart of BM_EndToEndRead: same READ, but the
// two hosts sit behind a ToR switch, so every request and reply takes the
// multi-hop path (routing lookup, per-port egress serializer, shared-pool
// accounting) instead of the facade's direct-link delivery.  The pair
// quantifies the topology layer's host-side overhead per hop
// (BENCH_fabric.json).
static void BM_SwitchedRead(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Xoshiro256 rng(4);
  const auto prof = rnic::make_profile(rnic::DeviceModel::kCX5);
  fabric::Topology::Builder builder(sched);
  const auto h0 = builder.add_host(prof, rng.fork());
  const auto h1 = builder.add_host(prof, rng.fork());
  builder.add_switch({});
  builder
      .link(fabric::NodeRef::host(h0), fabric::NodeRef::sw(0),
            fabric::LinkSpec::symmetric(sim::ns(250)))
      .link(fabric::NodeRef::host(h1), fabric::NodeRef::sw(0),
            fabric::LinkSpec::symmetric(sim::ns(250)));
  auto topo = builder.build();
  verbs::Context client(*topo, topo->host(h0), "client");
  verbs::Context server(*topo, topo->host(h1), "server");
  auto client_pd = client.alloc_pd();
  auto server_pd = server.alloc_pd();
  auto client_cq = client.create_cq();
  auto server_cq = server.create_cq();
  auto client_qp = client_pd->create_qp(*client_cq);
  auto server_qp = server_pd->create_qp(*server_cq);
  client_qp->connect(*server_qp);
  auto client_mr = client_pd->register_mr(1u << 20);
  auto server_mr = server_pd->register_mr(1u << 20);
  const auto size = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = client_mr->addr();
    wr.length = size;
    wr.remote_addr = server_mr->addr();
    wr.rkey = server_mr->rkey();
    client_qp->post_send(wr);
    client_cq->run_until_available(1);
    verbs::Wc wc;
    client_cq->poll_one(&wc);
    benchmark::DoNotOptimize(wc);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated RDMA READ through one ToR switch");
}
BENCHMARK(BM_SwitchedRead)->Arg(64)->Arg(4096);

static void BM_PipelinedReads(benchmark::State& state) {
  revng::Testbed bed(rnic::DeviceModel::kCX5, 5, 1);
  auto conn = bed.connect(0, 1, 64, 0);
  auto mr = conn.server_pd->register_mr(1u << 20);
  for (auto _ : state) {
    verbs::SendWr wr;
    wr.opcode = verbs::WrOpcode::kRdmaRead;
    wr.local_addr = conn.local_addr();
    wr.length = 64;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    for (int i = 0; i < 64; ++i) conn.qp().post_send(wr);
    conn.cq().run_until_available(64);
    verbs::Wc wc;
    while (conn.cq().poll_one(&wc)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PipelinedReads);

// Timing output is inherently host-dependent, so this scenario is
// registered as non-deterministic: `ragnar run-all` still executes it, but
// the byte-identical-stdout contract does not apply.  Full mode matches the
// methodology used for before/after comparisons in perf-sensitive PRs
// (3 repetitions, aggregates only); quick mode is a single pass.
RAGNAR_SCENARIO_NONDET(sim_microbench, "perf",
                       "google-benchmark microbench of the simulator core",
                       "single pass per benchmark",
                       "3 repetitions, aggregates only") {
  std::vector<const char*> argv = {"sim_microbench"};
  if (ctx.full) {
    argv.push_back("--benchmark_repetitions=3");
    argv.push_back("--benchmark_report_aggregates_only=true");
  }
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, const_cast<char**>(argv.data()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
