// bench_hotpath — the hot-path perf-regression harness (docs/PERF.md).
//
// Three measurements, one machine-readable JSON artifact:
//
//   1. codec: encode_msg_set-shaped frames through the allocation-lean
//      Encoder vs a replica of the pre-batching per-byte encoder
//      (push_back per byte, no reserve) — reports encoded MB/s;
//   2. event-queue: schedule/run churn through the pooled event store vs a
//      replica of the former std::function + std::priority_queue scheduler —
//      reports events/s;
//   3. end-to-end: a small latency-vs-throughput sweep of the batched
//      C-Abcast and Paxos-Abcast stacks — reports mean/p95 latency and
//      simulated events per wall second.
//
// Emits BENCH_hotpath.json (schema zdc-bench-hotpath-v1) through bench_main
// (bench_util.h): [--quick] [--out FILE] [--seed N], or --validate FILE.
//
// The legacy replicas live in this binary so each run reports the codec and
// event-queue rows side by side with the code they replaced. The ratio is
// reported, not gated: nothing checks it, and the committed event-queue row
// is slower than its replica.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/codec.h"
#include "common/rng.h"
#include "sim/abcast_world.h"
#include "sim/event_queue.h"

namespace zdc::bench {
namespace {

// ---------------------------------------------------------------------------
// Legacy replicas (the pre-PR hot paths, kept verbatim for comparison).

/// The former Encoder: byte-by-byte push_back, no reserve, no reuse.
class LegacyEncoder {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_fixed(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

/// The former EventQueue: one std::function per event inside a
/// std::priority_queue (heap churn moves the fat elements around).
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  void at(TimePoint t, Action fn) {
    if (t < now_) t = now_;
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }
  bool run_next() {
    if (queue_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    return true;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] TimePoint now() const { return now_; }

 private:
  struct Event {
    TimePoint time;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  TimePoint now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Micro 1: codec throughput on consensus-batch-shaped frames.

struct BatchFixture {
  std::vector<std::pair<std::uint64_t, std::string>> msgs;  ///< (seq, payload)
  std::size_t frame_bytes = 0;
};

BatchFixture make_batch(std::size_t batch_size, std::size_t payload_bytes) {
  BatchFixture fx;
  for (std::size_t i = 0; i < batch_size; ++i) {
    fx.msgs.emplace_back(i + 1, std::string(payload_bytes, 'x'));
  }
  fx.frame_bytes = 4 + batch_size * (16 + payload_bytes);
  return fx;
}

template <typename EncodeFrame>
double measure_encode_mb_per_s(const BatchFixture& fx, std::uint64_t iters,
                               EncodeFrame encode) {
  // Untimed warmup iteration (first-touch allocations).
  volatile std::size_t sink = encode().size();
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) sink = encode().size();
  const double dt = now_s() - t0;
  (void)sink;
  const double bytes = static_cast<double>(fx.frame_bytes) *
                       static_cast<double>(iters);
  return bytes / dt / 1e6;
}

double bench_codec_new(const BatchFixture& fx, std::uint64_t iters) {
  return measure_encode_mb_per_s(fx, iters, [&fx] {
    common::Encoder enc(fx.frame_bytes);
    enc.put_u32(static_cast<std::uint32_t>(fx.msgs.size()));
    for (const auto& [seq, payload] : fx.msgs) {
      enc.put_u32(1);
      enc.put_u64(seq);
      enc.put_string(payload);
    }
    return enc.take();
  });
}

double bench_codec_legacy(const BatchFixture& fx, std::uint64_t iters) {
  return measure_encode_mb_per_s(fx, iters, [&fx] {
    LegacyEncoder enc;
    enc.put_u32(static_cast<std::uint32_t>(fx.msgs.size()));
    for (const auto& [seq, payload] : fx.msgs) {
      enc.put_u32(1);
      enc.put_u64(seq);
      enc.put_string(payload);
    }
    return enc.take();
  });
}

// ---------------------------------------------------------------------------
// Micro 2: event-queue schedule/run churn with simulator-shaped handlers.
//
// Each handler captures what a transport-delivery event captures: an object
// pointer, two ids and a shared_ptr payload (~32 bytes) — over std::function's
// inline buffer, under InlineAction's. Handlers reschedule themselves so the
// queue stays at a realistic depth, like a sim run in steady state.

template <typename Queue>
double measure_events_per_s(std::uint64_t total_events, std::size_t width) {
  Queue q;
  auto payload = std::make_shared<const std::string>(64, 'x');
  std::uint64_t executed = 0;
  struct Ctx {
    Queue* q;
    std::uint64_t* executed;
    std::uint64_t total;
    std::shared_ptr<const std::string> payload;
  };
  Ctx ctx{&q, &executed, total_events, payload};
  std::function<void(double)> schedule = [&ctx, &schedule](double t) {
    ctx.q->at(t, [&ctx, &schedule, payload = ctx.payload, a = 7u, b = 9u] {
      (void)a;
      (void)b;
      (void)payload;
      ++*ctx.executed;
      if (*ctx.executed + 1000 <= ctx.total) {
        schedule(ctx.q->now() + 1.0);
      }
    });
  };
  const double t0 = now_s();
  for (std::size_t i = 0; i < width; ++i) {
    schedule(static_cast<double>(i) * 0.001);
  }
  while (q.run_next()) {
  }
  const double dt = now_s() - t0;
  return static_cast<double>(executed) / dt;
}

// ---------------------------------------------------------------------------
// End-to-end sweep rows.

struct Row {
  std::string protocol;
  double throughput = 0;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  double events_per_s = 0;
  double encoded_mb_per_s = 0;
  std::uint64_t seed = 0;
};

Row run_e2e(const std::string& protocol, double throughput,
            std::uint32_t message_count, std::uint64_t seed_base) {
  sim::AbcastRunConfig cfg;
  cfg.with_group(GroupParams{4, 1}).with_net(sim::calibrated_lan_2006());
  cfg.with_seed(common::mix_seed(seed_base, protocol, throughput, 0));
  cfg.throughput_per_s = throughput;
  cfg.message_count = message_count;
  // The batched hot path under test: bounded leader pipeline for Paxos,
  // whole-estimate rounds for C-Abcast (its native batching).
  cfg.batching.paxos_pipeline_window = 4;
  if (protocol == "paxos") {
    for (ProcessId p = 1; p < cfg.group.n; ++p) {
      cfg.workload_senders.push_back(p);
    }
  }
  const double t0 = now_s();
  auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
  const double dt = now_s() - t0;
  Row row;
  row.protocol = protocol;
  row.throughput = throughput;
  row.mean_latency_ms = r.latency_ms.mean();
  row.p95_latency_ms = r.latency_ms.percentile(95);
  row.events_per_s = static_cast<double>(r.events_executed) / dt;
  row.seed = cfg.seed;
  if (!r.safe() || !r.agreement_ok) {
    std::fprintf(stderr, "UNSAFE/INCOMPLETE run: %s @ %.0f msg/s seed %llu\n",
                 protocol.c_str(), throughput,
                 static_cast<unsigned long long>(cfg.seed));
    std::exit(1);
  }
  return row;
}

// ---------------------------------------------------------------------------

const ArtifactSchema kSchema{
    "zdc-bench-hotpath-v1",
    "BENCH_hotpath.json",
    {{"rows",
      {text_field("protocol"), real_field("throughput", 1),
       real_field("mean_latency_ms", 4), real_field("p95_latency_ms", 4),
       real_field("events_per_s", 1), real_field("encoded_mb_per_s", 2),
       count_field("seed")}}}};

std::vector<ArtifactRows> produce(bool quick, std::uint64_t seed_base) {
  std::vector<Row> rows;

  // Micro 1: codec. Batch of 16 x 64B payloads (a loaded consensus proposal).
  {
    const BatchFixture fx = make_batch(16, 64);
    const std::uint64_t iters = quick ? 20'000 : 400'000;
    const double legacy = bench_codec_legacy(fx, iters);
    const double lean = bench_codec_new(fx, iters);
    std::printf("codec          legacy %8.1f MB/s   lean %8.1f MB/s   %.2fx\n",
                legacy, lean, lean / legacy);
    rows.push_back(Row{"codec-legacy", 0, 0, 0, 0, legacy, seed_base});
    rows.push_back(Row{"codec", 0, 0, 0, 0, lean, seed_base});
  }

  // Micro 2: event queue.
  {
    const std::uint64_t events = quick ? 200'000 : 4'000'000;
    const std::size_t width = 1000;  // steady-state queue depth
    const double legacy = measure_events_per_s<LegacyEventQueue>(events, width);
    const double pooled = measure_events_per_s<sim::EventQueue>(events, width);
    std::printf(
        "event-queue    legacy %8.0f ev/s   pooled %8.0f ev/s   %.2fx\n",
        legacy, pooled, pooled / legacy);
    rows.push_back(Row{"event-queue-legacy", 0, 0, 0, legacy, 0, seed_base});
    rows.push_back(Row{"event-queue", 0, 0, 0, pooled, 0, seed_base});
  }

  // End-to-end sweep: batched stacks under load.
  {
    const std::vector<double> throughputs =
        quick ? std::vector<double>{200} : std::vector<double>{100, 300, 500};
    const std::uint32_t message_count = quick ? 80 : 400;
    for (const std::string protocol : {"c-l", "paxos"}) {
      for (const double tp : throughputs) {
        Row row = run_e2e(protocol, tp, message_count, seed_base);
        std::printf(
            "%-8s @%4.0f msg/s   mean %7.3f ms   p95 %7.3f ms   %.0f ev/s\n",
            row.protocol.c_str(), row.throughput, row.mean_latency_ms,
            row.p95_latency_ms, row.events_per_s);
        rows.push_back(row);
      }
    }
  }

  ArtifactRows out;
  for (const Row& r : rows) {
    out.push_back({r.protocol, r.throughput, r.mean_latency_ms,
                   r.p95_latency_ms, r.events_per_s, r.encoded_mb_per_s,
                   r.seed});
  }
  return {out};
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) {
  return zdc::bench::bench_main(argc, argv, zdc::bench::kSchema,
                                zdc::bench::produce);
}
