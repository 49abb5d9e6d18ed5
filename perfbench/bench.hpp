// Keystore benchmark: one workload run through the public keystore stack
// (KsFleet -> ks.* routes -> two KsServer shards on loopback sockets).
//
// A run is: set the fleet up (timed; this stack is the one measured),
// generate every input from the seed (untimed), warm up, then measure
// closed-loop phases for a fixed wall-clock window, with `setups` - 1 more
// timed set-ups of throwaway stacks spread between its cycles so setup_s
// samples the host across the whole run. Phase 1 runs `clients` threads over
// the workload's op mix; phase 2, when the workload has one, runs `clients`
// threads refreshing disjoint keys with no concurrent decrypts. The two phases
// alternate in cycles of `cycle_s` seconds; the tracer is reset before every
// slice so its span buffer never reaches Tracer::kMaxFinished.
//
// The traced variant (--trace 1) runs the stack over CountingGroup<GG>: an
// untraced pass, a traced pass that wraps every KsFleet call in a bench span,
// then isolated calls into each layer's public functions. See README.md for
// which layer metric should move which end-to-end metric.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "group/counting_group.hpp"
#include "keystore/ks_client.hpp"
#include "keystore/ks_server.hpp"
#include "service/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "transport/fault.hpp"

namespace perfbench {

using namespace dlr;
using Clock = std::chrono::steady_clock;

/// One workload's shape plus the per-run arguments. The named workloads are
/// built in main.cpp; the smoke-test flags override single fields.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  bool ss512 = false;
  std::size_t lambda = 256;
  int keys = 1000;
  int clients = 2;
  int workers = 1;           // crypto workers per shard
  int cpus = 1;              // CPUs the process is pinned to (main.cpp)
  int ref_every = 0;         // phase 1: one op in ref_every is a refresh (0 = none)
  double refresh_phase = 0;  // share of the window given to phase 2
  int setups = 3;            // timed set-ups per run (1 with --trace 1)
  int cts_per_key = 2;
  double cycle_s = 1.0;      // one slice of phase 1 + one of phase 2

  // Smoke-test knobs.
  double fault_rate = 0;  // seeded sever rate per frame on every client connection
  int max_retries = 8;
  long force_wrong = -1;  // compare this phase-1 decrypt against a wrong plaintext
  std::string state_root;
};

/// Shape shared by every workload: two shards, one client connection per
/// shard (lanes are hashed from thread ids, so more lanes would load them
/// differently from run to run), and serial fan-out.
constexpr int kShards = 2;
constexpr int kConnsPerShard = 1;
constexpr int kFanout = 0;

/// Everything a run prints: metrics by name with units, notes, and the
/// counts that go into the final JSON line.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(std::string name, double value, std::string unit, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CORRECTNESS GATE FAILED: " + why);
  }
};

int run_ss512(const Config& cfg, Report& rep);
int run_mock(const Config& cfg, Report& rep);
/// Isolated field / curve / pairing calls on the SS512 group (every workload
/// reports them; they do not depend on the workload's inputs).
void measure_curve_layers(Report& rep);

// ---------------------------------------------------------------------------
// Small statistics helpers.

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile (at most p99) that leaves at least ten samples
/// beyond it, nearest-rank. Returns {value, percentile}. With fewer than 21
/// samples no such percentile reaches the median, and the maximum is
/// returned as p100.
inline std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) return {v.back(), 100.0};
  std::size_t idx = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  idx = std::min(idx, n - 11);
  return {v[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

/// The median over cycles of each cycle's median, skipping cycles without
/// samples: a slow stretch of the host that covers a few cycles moves it
/// less than it moves the median of the pooled samples.
inline double median_over_cycles(const std::vector<std::vector<double>>& cycles) {
  std::vector<double> meds;
  for (const auto& c : cycles)
    if (!c.empty()) meds.push_back(median(c));
  return median(std::move(meds));
}

/// p10, p20, ..., p90 of `v`, nearest-rank, for the report's notes.
inline std::string deciles(std::vector<double> v) {
  if (v.empty()) return "-";
  std::sort(v.begin(), v.end());
  std::string out;
  for (int d = 1; d <= 9; ++d)
    out += (d > 1 ? " " : "") + bench::fmt(v[(v.size() - 1) * static_cast<std::size_t>(d) / 10], 3);
  return out;
}

/// Quantile of a registry histogram (the registry keeps bucket counts only):
/// the upper bound of the bucket that holds it, or with `interpolate` a
/// linear interpolation inside that bucket.
inline double hist_quantile(const telemetry::HistogramRow& h, double q, bool interpolate) {
  if (h.count == 0) return 0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const double c = static_cast<double>(h.buckets[b]);
    if (seen + c >= rank && c > 0) {
      const double lo = b == 0 ? 0 : h.bounds[b - 1];
      const double hi = b < h.bounds.size() ? h.bounds[b] : h.bounds.back();
      return interpolate ? lo + (hi - lo) * (rank - seen) / c : hi;
    }
    seen += c;
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

inline telemetry::HistogramRow hist_row(const std::string& name) {
  for (auto& h : telemetry::Registry::global().snapshot().histograms)
    if (h.name == name) return h;
  return {};
}

inline double counter(const std::string& name) {
  return static_cast<double>(telemetry::Registry::global().counter_value(name));
}

inline double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median wall time of `fn` in the given unit (1e3 = ms, 1e6 = us, 1e9 = ns),
/// divided by `per`. Repeats until ~`budget_s` is spent, between `min_reps`
/// and `max_reps` repetitions, after one discarded warm-up call.
inline double median_time(const std::function<void()>& fn, double unit, double per = 1,
                          double budget_s = 0.25, int min_reps = 3, int max_reps = 200) {
  fn();
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps || secs_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    asm volatile("" ::: "memory");
    samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count() * unit / per);
  }
  return median(std::move(samples));
}

inline std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  return n;
}

// ---------------------------------------------------------------------------
// Span ledger of the traced pass.

/// Span labels whose self time the traced run reports. bench.* are the
/// benchmark's own spans around KsFleet calls; the rest are the program's.
inline const std::vector<std::string>& span_labels() {
  static const std::vector<std::string> labels{
      "bench.decrypt", "dec.round1", "dec.finish", "ks.dec",     "dec.round2",
      "bench.refresh", "ref.round1", "ref.finish", "ks.refresh", "ref.round2"};
  return labels;
}

struct SpanLedger {
  std::unordered_map<std::string, std::vector<double>> self_ms;
  std::vector<double> bench_dec_ms, bench_dec_covered_ms;
  std::uint64_t program_spans = 0;
  std::uint64_t dropped = 0;

  /// Fold one round's finished spans in: self time = duration minus the
  /// union of its direct children's intervals.
  void harvest(const std::vector<telemetry::Span>& spans) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> kids;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent != 0) kids[spans[i].parent].push_back(i);
    for (const auto& s : spans) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      if (auto it = kids.find(s.id); it != kids.end())
        for (const std::size_t k : it->second)
          iv.emplace_back(std::max(spans[k].start_ns, s.start_ns),
                          std::min(spans[k].end_ns, s.end_ns));
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, reach = s.start_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t lo = std::max(a, reach);
        if (b > lo) {
          covered += b - lo;
          reach = b;
        }
      }
      const double dur = s.duration_ms();
      self_ms[s.label].push_back(dur - static_cast<double>(covered) / 1e6);
      if (s.label == "bench.decrypt") {
        bench_dec_ms.push_back(dur);
        bench_dec_covered_ms.push_back(static_cast<double>(covered) / 1e6);
      }
      if (s.label.rfind("bench.", 0) != 0) ++program_spans;
    }
  }
};

// ---------------------------------------------------------------------------
// The benchmark over one group type (GG = TateSS512, MockGroup, or their
// CountingGroup wrappers in the traced run).

template <class GG>
struct is_counting : std::false_type {};
template <class B>
struct is_counting<group::CountingGroup<B>> : std::true_type {};

/// A group object with its own op counters (CountingGroup copies share one
/// counter block; a fresh wrapper gets a new one).
template <class GG>
GG fresh_group(const GG& g) {
  if constexpr (is_counting<GG>::value)
    return GG(g.inner());
  else
    return g;
}

template <class GG>
class Bench {
 public:
  using Core = schemes::DlrCore<GG>;
  using Server = keystore::KsServer<GG>;
  using Fleet = keystore::KsFleet<GG>;
  using GT = typename GG::GT;
  using Ct = typename Core::Ciphertext;
  using KeyId = keystore::KeyId;

  Bench(const Config& cfg, GG proto, Report& rep)
      : cfg_(cfg),
        proto_(std::move(proto)),
        prm_(schemes::DlrParams::derive(proto_.scalar_bits(), cfg.lambda)),
        rep_(rep) {}

  int run() {
    describe();
    for (int i = 0; i < cfg_.keys; ++i) ids_.push_back(key_id(i));
    timed_setup();
    make_inputs();
    prefill_tracer();
    warm_up();
    if (!cfg_.trace) {
      report_end_to_end(passes(1.0, {false})[0]);
    } else {
      run_traced();
    }
    report_setup();
    stack_.reset();
    return rep_.correct ? 0 : 1;
  }

 private:
  // ---- the fleet under test ----

  struct Stack {
    GG client_gg, server_gg;
    std::vector<typename Core::KeyGenResult> kgs;
    std::vector<std::string> dirs;
    std::vector<std::unique_ptr<Server>> servers;
    std::unique_ptr<Fleet> fleet;
    keystore::ShardMap map;

    Stack(GG c, GG s) : client_gg(std::move(c)), server_gg(std::move(s)) {}
    ~Stack() {
      if (fleet) fleet->close();
      for (auto& s : servers) s->stop();
      servers.clear();
      std::error_code ec;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ec);
    }
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    Server& owner(const KeyId& id) { return *servers[map.owner(id)]; }
  };

  void describe() {
    rep_.notes.push_back(
        "workload=" + cfg_.workload + " seed=" + std::to_string(cfg_.seed) +
        " seconds=" + bench::fmt(cfg_.seconds, 1) + " trace=" + (cfg_.trace ? "1" : "0") +
        " group=" + proto_.name() + " lambda=" + std::to_string(cfg_.lambda) +
        " ell=" + std::to_string(prm_.ell) + " kappa=" + std::to_string(prm_.kappa));
    rep_.notes.push_back(
        "keys=" + std::to_string(cfg_.keys) + " shards=" + std::to_string(kShards) +
        " client_threads=" + std::to_string(cfg_.clients) +
        " conns_per_shard=" + std::to_string(kConnsPerShard) +
        " crypto_workers_per_shard=" + std::to_string(cfg_.workers) +
        " fanout DLR_PARALLEL=" + std::to_string(service::parallel_threads()) +
        " fsync_each=0 compaction=on refresh_scheduler=off cpus_pinned=" +
        std::to_string(cfg_.cpus) +
        " hw_threads=" + std::to_string(std::thread::hardware_concurrency()));
    if (service::parallel_threads() != kFanout)
      rep_.fail("fan-out width " + std::to_string(service::parallel_threads()) +
                " != pinned " + std::to_string(kFanout));
  }

  [[nodiscard]] KeyId key_id(int i) const {
    return {"tenant" + std::to_string(i % 97), "key" + std::to_string(i)};
  }

  /// `fn(i)` for every key index, on one thread per pinned CPU (key i on
  /// thread i mod cpus).
  void for_keys_parallel(const std::function<void(int)>& fn) const {
    std::vector<std::thread> ts;
    for (int t = 0; t < cfg_.cpus; ++t)
      ts.emplace_back([&, t] {
        for (int i = t; i < cfg_.keys; i += cfg_.cpus) fn(i);
      });
    for (auto& t : ts) t.join();
  }

  /// Shard start + keygen + provisioning + add_key (P1 prepare_period): the
  /// work setup_s times. Keygen and add_key run on one thread per pinned CPU, so
  /// set-up uses the cores as the timed phases do. `n` numbers the attempt
  /// (separate state dirs).
  std::unique_ptr<Stack> build_stack(int n) {
    auto t = Clock::now();
    auto lap = [&](int step) {
      setup_steps_[step].push_back(secs_since(t));
      t = Clock::now();
    };
    auto st = std::make_unique<Stack>(fresh_group(proto_), fresh_group(proto_));
    std::vector<keystore::ShardInfo> infos;
    for (int s = 0; s < kShards; ++s) {
      const std::string dir =
          cfg_.state_root + "/setup" + std::to_string(n) + "-shard" + std::to_string(s);
      std::filesystem::create_directories(dir);
      st->dirs.push_back(dir);
      typename Server::Options so;
      so.shard_id = static_cast<std::uint32_t>(s);
      so.workers = cfg_.workers;
      so.store.state_dir = dir;
      // No journal fsync in the timed window: fsync latency of a shared disk
      // drifts several-fold within minutes and would swamp the program's own
      // cost. keystore.journal_append_us measures it (README.md, flush policy).
      so.store.journal.fsync_each = false;
      st->servers.push_back(std::make_unique<Server>(
          st->server_gg, prm_, crypto::Rng(cfg_.seed * 7919 + 100 + s), so));
      st->servers.back()->start();
      infos.push_back({static_cast<std::uint32_t>(s), "", st->servers.back()->port()});
    }
    st->map = keystore::ShardMap(1, std::move(infos));
    for (auto& s : st->servers) s->set_shard_map(st->map);
    lap(0);

    auto& kgs = st->kgs;
    kgs.resize(static_cast<std::size_t>(cfg_.keys));
    for_keys_parallel([&](int i) {
      crypto::Rng rng(cfg_.seed * 104729 + static_cast<std::uint64_t>(i));
      kgs[static_cast<std::size_t>(i)] = Core::gen(st->client_gg, prm_, rng);
    });
    lap(1);

    for (int i = 0; i < cfg_.keys; ++i)
      st->owner(ids_[i]).store().put(ids_[i], kgs[i].sk2);
    lap(2);
    for (auto& s : st->servers)
      if (auto* j = s->store().journal()) j->flush();
    lap(3);

    typename Fleet::Options fo;
    fo.conns_per_shard = kConnsPerShard;
    fo.max_retries = cfg_.max_retries;
    if (cfg_.fault_rate > 0) {
      auto conn_no = std::make_shared<std::atomic<std::uint64_t>>(0);
      const double rate = cfg_.fault_rate;
      const std::uint64_t seed = cfg_.seed;
      fo.conn_wrapper = [rate, seed, conn_no](std::shared_ptr<transport::FramedConn> fc)
          -> std::shared_ptr<transport::Conn> {
        transport::FaultPlan::Rates r;
        r.sever = rate;
        return std::make_shared<transport::FaultInjector>(
            std::move(fc),
            transport::FaultPlan::seeded(seed * 1000003 + conn_no->fetch_add(1), r));
      };
    }
    st->fleet = std::make_unique<Fleet>(st->client_gg, prm_, crypto::Rng(cfg_.seed + 7),
                                        st->servers[0]->port(), fo);
    st->fleet->set_map(st->map);
    for_keys_parallel([&](int i) {
      st->fleet->add_key(ids_[i], kgs[i].pk, kgs[i].sk1, schemes::P1Mode::Plain);
    });
    lap(4);
    return st;
  }

  /// Time one set-up. The first one builds the stack under test; later ones
  /// build a throwaway stack beside it and tear it down untimed.
  void timed_setup() {
    const int n = static_cast<int>(setup_times_.size());
    const auto t0 = Clock::now();
    auto st = build_stack(n);
    setup_times_.push_back(secs_since(t0));
    if (!stack_) stack_ = std::move(st);
  }

  /// The set-ups owed after cycle `c` of `cycles`: the `setups` - 1 beyond
  /// the first are spread evenly over the window, so a slow stretch of the
  /// host weighs on setup_s as it does on the cycle medians.
  void setups_after_cycle(int c, int cycles) {
    if (cfg_.trace) return;
    const int spread = std::max(1, cfg_.setups) - 1;
    for (int k = spread * c / cycles; k < spread * (c + 1) / cycles; ++k) timed_setup();
  }

  void report_setup() {
    std::string all;
    for (double t : setup_times_) all += (all.empty() ? "" : ",") + bench::fmt(t, 3);
    rep_.notes.push_back("setup runs (s): " + all);
    static const char* const steps[] = {"start", "keygen", "put", "flush", "add_key"};
    std::string per;
    for (int i = 0; i < 5; ++i)
      per += std::string(i ? " " : "") + steps[i] + "=" + bench::fmt(median(setup_steps_[i]) * 1e3, 2);
    rep_.notes.push_back("setup steps, median ms: " + per);
  }

  // ---- inputs, all from the seed, generated before timing ----

  struct Op {
    std::uint32_t key;
    std::uint16_t ct;
    bool refresh;
  };

  void make_inputs() {
    const auto t0 = Clock::now();
    const std::size_t n = static_cast<std::size_t>(cfg_.keys);
    const std::size_t per_client = cfg_.ss512 ? 4096 : (std::size_t{1} << 17);
    seqs_.assign(static_cast<std::size_t>(cfg_.clients), {});
    std::vector<char> used(n, 0);
    for (int c = 0; c < cfg_.clients; ++c) {
      bench::Zipf zipf(n, 1.0, cfg_.seed * 1000 + static_cast<std::uint64_t>(c));
      std::uint64_t mix = cfg_.seed * 31337 + static_cast<std::uint64_t>(c);
      auto& seq = seqs_[static_cast<std::size_t>(c)];
      seq.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        Op op;
        op.key = static_cast<std::uint32_t>(zipf.next());
        const std::uint64_t r = bench::splitmix64(mix);
        op.ct = static_cast<std::uint16_t>(r % static_cast<std::uint64_t>(cfg_.cts_per_key));
        op.refresh = cfg_.ref_every > 0 && (r >> 32) % static_cast<std::uint64_t>(cfg_.ref_every) == 0;
        used[op.key] = 1;
        seq.push_back(op);
      }
    }
    // Phase 2: one refresh sequence per client thread over its own keys
    // (thread t owns keys t, t + clients, ...), so two refreshes never meet
    // on a key's lock and KsFleet never coalesces them.
    refresh_seqs_.clear();
    if (cfg_.refresh_phase > 0) {
      const auto clients = static_cast<std::size_t>(cfg_.clients);
      for (std::size_t t = 0; t < clients; ++t) {
        bench::Zipf zipf((n - t + clients - 1) / clients, 1.0, cfg_.seed * 1000 + 999 + t);
        auto& seq = refresh_seqs_.emplace_back();
        for (int i = 0; i < 4096; ++i) {
          seq.push_back(Op{static_cast<std::uint32_t>(t + clients * zipf.next()), 0, true});
          used[seq.back().key] = 1;
        }
      }
    }
    // Plaintext/ciphertext pairs only for keys the sequences touch (key 0 is
    // always included: the isolated layer calls use it).
    used[0] = 1;
    GG gg = fresh_group(proto_);
    crypto::Rng rng(cfg_.seed * 15485863 + 3);
    wrong_plain_ = gg.gt_random(rng);
    msgs_.assign(n, {});
    cts_.assign(n, {});
    for (std::size_t k = 0; k < n; ++k) {
      if (!used[k]) continue;
      for (int j = 0; j < cfg_.cts_per_key; ++j) {
        msgs_[k].push_back(gg.gt_random(rng));
        cts_[k].push_back(Core::enc(gg, stack_->kgs[k].pk, msgs_[k].back(), rng));
      }
    }
    rep_.notes.push_back("input generation (s, untimed): " + bench::fmt(secs_since(t0), 3));
  }

  // ---- timed phases ----

  struct ThreadOut {
    std::vector<double> dec_ms, ref_ms;
    std::uint64_t sent = 0, ok = 0, failed = 0, wrong = 0, refresh_calls = 0;
    std::vector<char> touched;  // per key, cleared after every slice
  };

  struct PhaseStats {
    std::string name;
    double window_s = 0;
    std::vector<double> dec_ms, ref_ms;
    std::uint64_t sent = 0, ok = 0, failed = 0, wrong = 0;
  };

  /// One pass: its phases, plus per cycle the successful ops per second and
  /// the decrypt and refresh latencies. A slow stretch of the host hits a
  /// few cycles; medians over cycles leave them out.
  struct PassStats {
    std::vector<PhaseStats> phases;
    std::vector<double> cycle_ops_per_s;
    std::vector<std::vector<double>> cycle_dec_ms, cycle_ref_ms;

    [[nodiscard]] double ops_per_s() const { return median(cycle_ops_per_s); }
  };

  /// A phase's client threads: their op sequences, where each stands in it,
  /// and what each measured. Slices of wall time are added by run_slice().
  struct Phase {
    std::string name;
    std::vector<std::vector<Op>> seqs;
    std::vector<std::size_t> pos;
    std::vector<ThreadOut> outs;
    double window_s = 0;
    std::uint64_t refresh_calls = 0, acked = 0, wrong_seen = 0;
    // Per slice: successful ops, wall seconds, and each thread's dec_ms and
    // ref_ms sizes at its end.
    std::vector<std::uint64_t> slice_ok;
    std::vector<double> slice_s;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> slice_end;

    /// Decrypt latencies of slice `i`, or with `refresh` its refresh ones.
    [[nodiscard]] std::vector<double> slice_ms(std::size_t i, bool refresh) const {
      std::vector<double> v;
      for (std::size_t t = 0; t < outs.size(); ++t) {
        const auto& all = refresh ? outs[t].ref_ms : outs[t].dec_ms;
        const auto end = [&](std::size_t k) {
          return static_cast<std::ptrdiff_t>(refresh ? slice_end[k][t].second : slice_end[k][t].first);
        };
        v.insert(v.end(), all.begin() + (i == 0 ? 0 : end(i - 1)), all.begin() + end(i));
      }
      return v;
    }

    /// `start` is where each thread begins in its sequence.
    Phase(std::string n, std::vector<std::vector<Op>> s, std::size_t keys, std::size_t start)
        : name(std::move(n)), seqs(std::move(s)), pos(seqs.size(), start), outs(seqs.size()) {
      // Sample buffers are reserved up front: their growth would otherwise
      // make peak RSS depend on throughput. Untouched reserve is not resident.
      for (auto& o : outs) {
        o.touched.assign(keys, 0);
        o.dec_ms.reserve(std::size_t{1} << 20);
        o.ref_ms.reserve(std::size_t{1} << 20);
      }
    }
  };

  /// One client thread until `deadline`, walking its op sequence from `*pos`.
  void client_loop(const std::vector<Op>& seq, std::size_t* pos, Clock::time_point deadline,
                   bool traced, bool wrong_check, ThreadOut& out) {
    Fleet& fleet = *stack_->fleet;
    const GG& gg = stack_->client_gg;
    while (Clock::now() < deadline) {
      const Op op = seq[(*pos)++ % seq.size()];
      const KeyId& id = ids_[op.key];
      const auto t0 = Clock::now();
      bool ok = true;
      ++out.sent;
      try {
        if (op.refresh) {
          std::optional<telemetry::ScopedSpan> span;
          if (traced) span.emplace("bench.refresh");
          fleet.refresh_key(id);
          ++out.refresh_calls;
        } else {
          std::optional<telemetry::ScopedSpan> span;
          if (traced) span.emplace("bench.decrypt");
          const GT got = fleet.decrypt(id, cts_[op.key][op.ct]);
          const bool forced =
              wrong_check && static_cast<long>(out.dec_ms.size()) == cfg_.force_wrong;
          const GT& want = forced ? wrong_plain_ : msgs_[op.key][op.ct];
          if (!gg.gt_eq(got, want)) {
            ++out.wrong;
            ok = false;
          }
        }
      } catch (const std::exception&) {
        ++out.failed;
        ok = false;
      }
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (ok) {
        ++out.ok;
        (op.refresh ? out.ref_ms : out.dec_ms).push_back(ms);
      }
      out.touched[op.key] = 1;
    }
  }

  /// Run `ph`'s closed-loop clients for `secs`, then check the gates. The
  /// tracer is reset first, so one slice's spans stay far below its cap.
  void run_slice(Phase& ph, double secs, bool traced, bool wrong_check) {
    const double refreshes0 = counter("ks.refreshes");
    std::vector<std::uint64_t> epochs0(ids_.size());
    for (std::size_t k = 0; k < ids_.size(); ++k) epochs0[k] = stack_->fleet->epoch_of(ids_[k]);

    telemetry::Tracer::global().reset();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(secs));
    std::uint64_t ok0 = 0;
    for (const auto& o : ph.outs) ok0 += o.ok;
    std::vector<std::thread> ts;
    for (std::size_t c = 0; c < ph.seqs.size(); ++c)
      ts.emplace_back([&, c] {
        client_loop(ph.seqs[c], &ph.pos[c], deadline, traced, wrong_check && c == 0, ph.outs[c]);
      });
    for (auto& t : ts) t.join();
    const double took = secs_since(t0);
    ph.window_s += took;
    std::uint64_t ok1 = 0;
    std::vector<std::pair<std::size_t, std::size_t>> ends;
    for (const auto& o : ph.outs) {
      ok1 += o.ok;
      ends.emplace_back(o.dec_ms.size(), o.ref_ms.size());
    }
    ph.slice_ok.push_back(ok1 - ok0);
    ph.slice_s.push_back(took);
    ph.slice_end.push_back(std::move(ends));
    ledger_.dropped += telemetry::Tracer::global().dropped();
    if (traced) ledger_.harvest(telemetry::Tracer::global().spans());
    telemetry::Tracer::global().reset();

    std::vector<char> touched(ids_.size(), 0);
    std::uint64_t wrong = 0;
    for (auto& o : ph.outs) {
      for (std::size_t k = 0; k < touched.size(); ++k) touched[k] |= o.touched[k];
      std::fill(o.touched.begin(), o.touched.end(), 0);
      wrong += o.wrong;
      ph.refresh_calls += std::exchange(o.refresh_calls, 0);
    }
    // KsFleet coalesces concurrent refresh_key calls on one key (a call that
    // finds the epoch already advanced returns), so the commits the client
    // acknowledged are its epoch advances, not its returned calls.
    std::uint64_t acked = 0;
    for (std::size_t k = 0; k < ids_.size(); ++k)
      acked += stack_->fleet->epoch_of(ids_[k]) - epochs0[k];
    ph.acked += acked;
    check_slice(ph.name, wrong - std::exchange(ph.wrong_seen, wrong), touched, acked,
                counter("ks.refreshes") - refreshes0);
  }

  /// Correctness gates after every slice: no wrong plaintext, every touched
  /// key's client epoch equals its server epoch, and the servers committed
  /// exactly the refreshes the client saw acknowledged.
  void check_slice(const std::string& name, std::uint64_t wrong, const std::vector<char>& touched,
                   std::uint64_t acked, double committed) {
    if (wrong > 0) rep_.fail(name + ": " + std::to_string(wrong) + " wrong plaintexts");
    std::size_t forks = 0;
    for (std::size_t k = 0; k < touched.size(); ++k) {
      if (!touched[k]) continue;
      const KeyId& id = ids_[k];
      if (stack_->fleet->epoch_of(id) != stack_->owner(id).store().epoch_of(id)) ++forks;
    }
    if (forks > 0)
      rep_.fail(name + ": " + std::to_string(forks) + " keys whose client epoch != server epoch");
    if (static_cast<double>(acked) != committed)
      rep_.fail(name + ": ks.refreshes delta " + bench::fmt(committed, 0) +
                " != acknowledged refreshes " + std::to_string(acked));
  }

  PhaseStats summarize(const Phase& ph) {
    PhaseStats ps;
    ps.name = ph.name;
    ps.window_s = ph.window_s;
    for (const auto& o : ph.outs) {
      ps.dec_ms.insert(ps.dec_ms.end(), o.dec_ms.begin(), o.dec_ms.end());
      ps.ref_ms.insert(ps.ref_ms.end(), o.ref_ms.begin(), o.ref_ms.end());
      ps.sent += o.sent;
      ps.ok += o.ok;
      ps.failed += o.failed;
      ps.wrong += o.wrong;
    }
    rep_.notes.push_back(ph.name + ": window_s=" + bench::fmt(ps.window_s, 3) +
                         " sent=" + std::to_string(ps.sent) + " succeeded=" +
                         std::to_string(ps.ok) + " failed=" + std::to_string(ps.failed + ps.wrong));
    if (ph.refresh_calls > 0)
      rep_.notes.push_back(ph.name + ": refresh_key calls=" + std::to_string(ph.refresh_calls) +
                           " commits acknowledged=" + std::to_string(ph.acked));
    rep_.attempted += ps.sent;
    rep_.failed += ps.failed + ps.wrong;
    return ps;
  }

  /// Grow the tracer's span buffer to its cap once (reset() keeps the
  /// capacity), so peak RSS does not depend on how many spans the busiest
  /// slice happened to record.
  static void prefill_tracer() {
    auto& tr = telemetry::Tracer::global();
    for (std::size_t i = 0; i < telemetry::Tracer::kMaxFinished; ++i)
      telemetry::ScopedSpan span("bench.prefill");
    tr.reset();
  }

  /// Phase-1 traffic before any timing, so connections, caches and lazy
  /// per-key state are in place when the window opens. Its ops count as
  /// attempted and go through the gates; its latencies are discarded.
  void warm_up() {
    Phase w("warm-up", seqs_, ids_.size(), 0);
    run_slice(w, std::min(1.0, 0.05 * cfg_.seconds), false, false);
    (void)summarize(w);
  }

  /// One pass per entry of `traced`, each over `share` of the window, in
  /// cycles of cfg_.cycle_s: a cycle runs, for every pass in turn, a slice of
  /// phase 1 and then a slice of phase 2 when the workload has one.
  /// Interleaving spreads every phase's samples over the whole window, so a
  /// slow stretch of the host does not land on one phase or pass only.
  std::vector<PassStats> passes(double share, const std::vector<bool>& traced) {
    const double window = cfg_.seconds * share;
    const double w2 = refresh_seqs_.empty() ? 0 : window * cfg_.refresh_phase;
    const int cycles = std::max(1, static_cast<int>(std::lround(window / cfg_.cycle_s)));
    std::vector<Phase> p1, p2;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      // Passes start at different points of the sequences: a pass replaying
      // the keys the previous slice just touched would find them in cache.
      const std::string pre = traced.size() > 1 ? (traced[i] ? "traced " : "untraced ") : "";
      p1.emplace_back(pre + (cfg_.ref_every > 0 ? "phase1 decrypt+refresh mix" : "phase1 decrypt"),
                      seqs_, ids_.size(), i * seqs_[0].size() / traced.size());
      const std::size_t len2 = refresh_seqs_.empty() ? 0 : refresh_seqs_[0].size();
      p2.emplace_back(pre + "phase2 refresh", refresh_seqs_, ids_.size(), i * len2 / traced.size());
    }
    for (int c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < traced.size(); ++i) {
        run_slice(p1[i], (window - w2) / cycles, traced[i], !traced[i]);
        if (w2 > 0) run_slice(p2[i], w2 / cycles, traced[i], false);
      }
      setups_after_cycle(c, cycles);
    }
    std::vector<PassStats> out(traced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
      out[i].phases.push_back(summarize(p1[i]));
      if (w2 > 0) out[i].phases.push_back(summarize(p2[i]));
      for (int c = 0; c < cycles; ++c) {
        const auto k = static_cast<std::size_t>(c);
        double ok = static_cast<double>(p1[i].slice_ok[k]), secs = p1[i].slice_s[k];
        if (w2 > 0) {
          ok += static_cast<double>(p2[i].slice_ok[k]);
          secs += p2[i].slice_s[k];
        }
        out[i].cycle_ops_per_s.push_back(secs > 0 ? ok / secs : 0);
        out[i].cycle_dec_ms.push_back(p1[i].slice_ms(k, false));
        auto ref = p1[i].slice_ms(k, true);
        if (w2 > 0) {
          const auto r2 = p2[i].slice_ms(k, true);
          ref.insert(ref.end(), r2.begin(), r2.end());
        }
        out[i].cycle_ref_ms.push_back(std::move(ref));
      }
    }
    return out;
  }

  void report_end_to_end(const PassStats& st) {
    std::vector<double> dec, ref;
    std::uint64_t sent = 0, failed = 0;
    for (const auto& p : st.phases) {
      dec.insert(dec.end(), p.dec_ms.begin(), p.dec_ms.end());
      ref.insert(ref.end(), p.ref_ms.begin(), p.ref_ms.end());
      sent += p.sent;
      failed += p.failed + p.wrong;
    }
    std::string per_cycle;
    for (double v : st.cycle_ops_per_s) per_cycle += (per_cycle.empty() ? "" : ",") + bench::fmt(v, 1);
    rep_.notes.push_back("ops/s per cycle: " + per_cycle);
    rep_.add("ops_per_s", st.ops_per_s(), "ops/s",
             "median of " + std::to_string(st.cycle_ops_per_s.size()) + " cycles");
    rep_.add("dec_p50_ms", median_over_cycles(st.cycle_dec_ms), "ms",
             "median of per-cycle medians, n=" + std::to_string(dec.size()));
    // With at least 1000 decrypts in every cycle, each cycle has a p99 with
    // ten samples beyond it, and the median over cycles ignores a stalled
    // one. Otherwise (ss512) the run's samples are pooled.
    std::size_t fewest = dec.size();
    std::vector<double> p99s;
    for (const auto& c : st.cycle_dec_ms) {
      fewest = std::min(fewest, c.size());
      p99s.push_back(tail(c).first);
    }
    if (fewest >= 1000) {
      rep_.add("dec_p99_ms", median(p99s), "ms",
               "median of " + std::to_string(p99s.size()) + " per-cycle p99s, n>=" +
                   std::to_string(fewest) + " each");
    } else {
      const auto [d99, dpct] = tail(dec);
      rep_.add("dec_p99_ms", d99, "ms",
               "p" + bench::fmt(dpct, 1) + " of n=" + std::to_string(dec.size()));
    }
    rep_.notes.push_back("decrypt ms deciles: " + deciles(dec));
    rep_.notes.push_back("refresh ms deciles: " + deciles(ref));
    rep_.add("refresh_p50_ms", median_over_cycles(st.cycle_ref_ms), "ms",
             "median of per-cycle medians, n=" + std::to_string(ref.size()));
    const auto [r99, rpct] = tail(ref);
    rep_.add("refresh_p99_ms", r99, "ms",
             "p" + bench::fmt(rpct, 1) + " of n=" + std::to_string(ref.size()));
    rep_.add("fail_frac", sent ? static_cast<double>(failed) / static_cast<double>(sent) : 0,
             "ratio", std::to_string(failed) + " of " + std::to_string(sent));
    rep_.add("setup_s", median(setup_times_), "s",
             "median of " + std::to_string(setup_times_.size()) + " set-ups spread over the run");
    rep_.add("rss_peak_mb", peak_rss_mb(), "MB");
    rep_.add("telemetry.spans_dropped", static_cast<double>(ledger_.dropped), "count");
  }

  // ---- traced run ----

  void run_traced() {
    auto& reg = telemetry::Registry::global();
    reg.reset();
    const auto ab = passes(0.5, {false, true});
    const double ops_a = ab[0].ops_per_s();
    const double ops_b = ab[1].ops_per_s();
    std::uint64_t decs = 0, ops = 0, ops_b_n = 0;
    for (const auto& pass : ab)
      for (const auto& p : pass.phases) {
        decs += p.dec_ms.size();
        ops += p.ok;
      }
    for (const auto& p : ab[1].phases) ops_b_n += p.ok;
    const double per_op = ops ? 1.0 / static_cast<double>(ops) : 0;
    const double per_dec = decs ? 1.0 / static_cast<double>(decs) : 0;

    // Registry counters over both passes (counts per op do not depend on
    // tracing).
    const auto bsize = hist_row("svc.batch.size");
    const auto bwait = hist_row("svc.batch.wait_us");
    rep_.add("service.batch_size_mean", bsize.count ? bsize.sum / static_cast<double>(bsize.count) : 0,
             "count");
    rep_.add("service.batch_size_p50", hist_quantile(bsize, 0.5, false), "count",
             "histogram bucket bound");
    rep_.add("service.batch_wait_us_p50", hist_quantile(bwait, 0.5, true), "us",
             "interpolated in histogram bucket; the top bound when beyond it");
    rep_.add("service.batch_wait_us_p99", hist_quantile(bwait, 0.99, true), "us",
             "interpolated in histogram bucket; the top bound when beyond it");
    double cost = 0;
    for (auto& s : stack_->servers) cost += s->gov().cost_us();
    rep_.add("service.crypto_cost_us", cost / static_cast<double>(stack_->servers.size()), "us",
             "OverloadGovernor EWMA per item, mean of shards");
    rep_.add("service.shed_total", static_cast<double>(reg.sum_counters("svc.shed.")), "count");
    rep_.add("service.par_tasks_per_dec", counter("par.tasks") * per_dec, "count");
    rep_.add("transport.frames_per_op", counter("transport.frames.sent") * per_op, "count",
             "both directions");
    rep_.add("transport.bytes_per_op", counter("transport.bytes.sent") * per_op, "B",
             "both directions");
    rep_.add("transport.orphan_frames", counter("transport.orphan_frames"), "count");
    rep_.add("transport.retries", counter("transport.retries"), "count");
    rep_.add("keystore.client_retries_per_kop", counter("ks.client.retries") * per_op * 1000,
             "count");
    rep_.add("keystore.refreshes", counter("ks.refreshes"), "count");
    rep_.add("keystore.compactions", counter("ks.compactions"), "count");

    rep_.add("telemetry.spans_per_op",
             ops_b_n ? static_cast<double>(ledger_.program_spans) / static_cast<double>(ops_b_n) : 0,
             "count", "program spans, bench spans excluded");
    rep_.add("telemetry.spans_dropped", static_cast<double>(ledger_.dropped), "count");
    const double span_ns = span_record_ns();
    rep_.add("telemetry.span_ns", span_ns, "ns",
             "one ScopedSpan begin+end on the global Tracer, one thread; "
             "x spans_per_op = " +
                 bench::fmt(ops_b_n ? static_cast<double>(ledger_.program_spans) /
                                          static_cast<double>(ops_b_n) * span_ns / 1e3
                                    : 0,
                            3) +
                 " us of span recording per op");
    // Both passes record the program's spans; they differ only by the
    // benchmark's bench.* wrapper spans and the span attributes those enable.
    rep_.add("trace_overhead_pct", ops_a > 0 ? (ops_a - ops_b) / ops_a * 100.0 : 0, "%",
             "cost of the benchmark's wrapper spans: untraced " + bench::fmt(ops_a, 1) +
                 " vs traced " + bench::fmt(ops_b, 1) + " ops/s, both on CountingGroup");
    for (const auto& label : span_labels()) {
      auto it = ledger_.self_ms.find(label);
      const std::size_t n = it == ledger_.self_ms.end() ? 0 : it->second.size();
      rep_.add("span." + label + ".self_ms_p50", n ? median(it->second) : 0, "ms",
               "n=" + std::to_string(n));
    }
    const double dec_med = median(ledger_.bench_dec_ms);
    rep_.add("trace.coverage_frac", dec_med > 0 ? median(ledger_.bench_dec_covered_ms) / dec_med : 0,
             "ratio", "client-side children of bench.decrypt");
    rep_.notes.push_back(
        "ks.* frames carry no trace context (KsFleet sends untraced frames), so server spans "
        "(ks.dec, dec.round2, ks.refresh, ref.round2) are root spans aggregated by label; "
        "median ks.dec " + bench::fmt(median(ledger_.self_ms["ks.dec"]), 3) +
        " ms self + median dec.round2 " + bench::fmt(median(ledger_.self_ms["dec.round2"]), 3) +
        " ms vs median bench.decrypt " + bench::fmt(dec_med, 3) + " ms");

    count_ops();
    measure_schemes_and_keystore();
    measure_transport_rtt();
  }

  /// Median cost of one ScopedSpan begin/end on the global Tracer, without
  /// contention: what every span the program records costs its thread.
  static double span_record_ns() {
    constexpr int kSpans = 1024;
    constexpr int kReps = 200;
    static_assert(kSpans * (kReps + 1) < telemetry::Tracer::kMaxFinished,
                  "the probe must not reach the tracer's drop path");
    auto& tr = telemetry::Tracer::global();
    tr.reset();
    const double ns = median_time([] {
      for (int i = 0; i < kSpans; ++i) telemetry::ScopedSpan span("bench.probe");
    }, 1e9, kSpans, 0.25, 3, kReps);
    tr.reset();
    return ns;
  }

  /// Exact op counts of one decrypt and one refresh through the fleet, read
  /// from the CountingGroups handed to KsFleet and KsServer. The stack is
  /// quiescent and fan-out is pinned, so the counts repeat exactly.
  void count_ops() {
    if constexpr (is_counting<GG>::value) {
      const KeyId& id = ids_[0];
      Server& srv = stack_->owner(id);
      const GG& sgg = srv.store().gg();
      const auto c0 = stack_->client_gg.snapshot();
      const auto s0 = sgg.snapshot();
      const GT got = stack_->fleet->decrypt(id, cts_[0][0]);
      if (!stack_->client_gg.gt_eq(got, msgs_[0][0])) rep_.fail("count pass: wrong plaintext");
      const auto c1 = stack_->client_gg.snapshot() - c0;
      const auto s1 = sgg.snapshot() - s0;
      // An "exp" is one exponentiation call: a single power or a multi-pow.
      rep_.add("group.p1_pairings_per_dec", static_cast<double>(c1.pairings), "count");
      rep_.add("group.p1_gt_exps_per_dec", static_cast<double>(c1.gt_pow + c1.multi_pows),
               "count", std::to_string(c1.multi_pow_terms) + " multi-pow terms");
      rep_.add("group.p2_gt_exps_per_dec", static_cast<double>(s1.gt_pow + s1.multi_pows),
               "count");
      rep_.add("group.p2_multi_pow_terms_per_dec", static_cast<double>(s1.multi_pow_terms),
               "count");

      const std::string dir = stack_->dirs[stack_->map.owner(id)];
      const auto bytes0 = dir_bytes(dir);
      const auto c2 = stack_->client_gg.snapshot();
      stack_->fleet->refresh_key(id);
      const auto c3 = stack_->client_gg.snapshot() - c2;
      rep_.add("group.p1_pairings_per_refresh", static_cast<double>(c3.pairings), "count");
      rep_.add("group.p1_g_exps_per_refresh", static_cast<double>(c3.g_pow + c3.multi_pows),
               "count", std::to_string(c3.multi_pow_terms) + " multi-pow terms");
      rep_.add("keystore.journal_bytes_per_refresh",
               static_cast<double>(dir_bytes(dir)) - static_cast<double>(bytes0), "B",
               "state-dir growth over one refresh (prepare + commit records)");
      if (stack_->fleet->epoch_of(id) != srv.store().epoch_of(id))
        rep_.fail("count pass: epoch fork after refresh");
    }
  }

  /// Isolated calls into the schemes and keystore layers on key 0's inputs.
  void measure_schemes_and_keystore() {
    GG gg = fresh_group(proto_);
    const auto& kg = stack_->kgs[0];
    const Ct& ct = cts_[0][0];
    const double ms = 1e3, us = 1e6;
    const double budget = cfg_.ss512 ? 0.5 : 0.25;
    crypto::Rng rng(cfg_.seed * 7 + 5);

    schemes::DlrParty1<GG> p1(gg, prm_, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(11));
    schemes::DlrParty2<GG> p2(gg, prm_, kg.sk2, crypto::Rng(12));
    p1.prepare_period();
    Bytes r1, reply;
    rep_.add("schemes.dec_round1_ms", median_time([&] { r1 = p1.dec_round1(ct, rng); }, ms, 1, budget),
             "ms");
    rep_.add("schemes.dec_respond_ms", median_time([&] { reply = p2.dec_respond(r1); }, ms, 1, budget),
             "ms", "batch 1");
    std::vector<Bytes> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(p1.dec_round1(ct, rng));
    rep_.add("schemes.dec_respond_many_ms_per_item",
             median_time([&] { bench::sink(p2.dec_respond_many(batch)); }, ms, 8, budget), "ms",
             "batch 8");
    const auto sigma = p1.period_sigma_gt();
    GT out{};
    rep_.add("schemes.dec_finish_ms",
             median_time([&] { out = p1.dec_finish_with(sigma, reply); }, ms, 1, budget), "ms");
    if (!gg.gt_eq(out, msgs_[0][0])) rep_.fail("isolated schemes calls: wrong plaintext");

    // Refresh cycles on scratch parties: prepare_period is timed on its own
    // so ref_round1 does not absorb it.
    std::vector<double> t_r1, t_resp, t_fin, t_prep;
    const int cycles = cfg_.ss512 ? 3 : 50;
    for (int i = 0; i < cycles; ++i) {
      auto t0 = Clock::now();
      p1.prepare_period();
      t_prep.push_back(secs_since(t0) * ms);
      t0 = Clock::now();
      const Bytes m1 = p1.ref_round1();
      t_r1.push_back(secs_since(t0) * ms);
      t0 = Clock::now();
      const Bytes m2 = p2.ref_respond(m1);
      t_resp.push_back(secs_since(t0) * ms);
      t0 = Clock::now();
      p1.ref_finish(m2);
      t_fin.push_back(secs_since(t0) * ms);
    }
    // The first prepare_period is a no-op (period already prepared above).
    t_prep.erase(t_prep.begin());
    rep_.add("schemes.ref_round1_ms", median(t_r1), "ms");
    rep_.add("schemes.ref_respond_ms", median(t_resp), "ms");
    rep_.add("schemes.ref_finish_ms", median(t_fin), "ms");
    rep_.add("schemes.prepare_period_ms", median(t_prep), "ms");
    p1.prepare_period();
    const Bytes r1b = p1.dec_round1(ct, rng);
    if (!gg.gt_eq(p1.dec_finish_with(p1.period_sigma_gt(), p2.dec_respond(r1b)), msgs_[0][0]))
      rep_.fail("isolated refresh cycles: wrong plaintext afterwards");

    // KeyStore::DecSession over a batch of 8 on a volatile store.
    typename keystore::KeyStore<GG>::Options ko;
    keystore::KeyStore<GG> store(gg, prm_, crypto::Rng(13), ko);
    store.put(ids_[0], kg.sk2);
    std::vector<Bytes> r1s;
    schemes::DlrParty1<GG> q1(gg, prm_, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(14));
    q1.prepare_period();
    for (int i = 0; i < 8; ++i) r1s.push_back(q1.dec_round1(ct, rng));
    rep_.add("keystore.dec_session_us_per_item", median_time([&] {
               auto s = store.dec_session(ids_[0]);
               for (const auto& m : r1s) bench::sink(s.run(0, m));
             }, us, 8, budget), "us", "batch 8");

    std::uint64_t acc = 0;
    const keystore::ShardMap& map = stack_->map;
    rep_.add("keystore.shard_owner_ns", median_time([&] {
               for (const auto& id : ids_) acc += map.owner(id);
             }, 1e9, static_cast<double>(ids_.size())), "ns");
    bench::sink(acc);

    // Journal append with fsync on, in the state root's filesystem.
    const std::string jdir = cfg_.state_root + "/journal-probe";
    std::filesystem::create_directories(jdir);
    {
      keystore::SegmentJournal::Options jo;
      jo.fsync_each = true;
      keystore::SegmentJournal j(jdir, jo);
      ByteWriter w;
      Core::ser_sk2(gg, w, kg.sk2);
      const Bytes state = w.take();
      rep_.add("keystore.journal_append_us",
               median_time([&] { j.append(ids_[0], state); }, us, 1, 0.25, 10, 200), "us",
               "fsync on, " + std::to_string(state.size()) + " B share record");
    }
    std::error_code ec;
    std::filesystem::remove_all(jdir, ec);
  }

  /// Echo round trip of a ks.dec-sized frame over a loopback SessionMux.
  void measure_transport_rtt() {
    GG gg = fresh_group(proto_);
    schemes::DlrParty1<GG> p1(gg, prm_, stack_->kgs[0].pk, stack_->kgs[0].sk1, schemes::P1Mode::Plain,
                              crypto::Rng(15));
    p1.prepare_period();
    crypto::Rng rng(16);
    const Bytes body = keystore::encode_ks_request(ids_[0], 0, p1.dec_round1(cts_[0][0], rng));

    auto listener = transport::Listener::loopback(0);
    std::thread echo([&] {
      try {
        transport::FramedConn conn(listener.accept(transport::Millis(10000)), {});
        for (;;) conn.send(conn.recv(transport::Millis(10000)));
      } catch (const std::exception&) {
      }
    });
    {
      transport::SessionMux mux(std::make_shared<transport::FramedConn>(
          transport::connect_loopback(listener.port()), transport::TransportOptions{}));
      auto sess = mux.open();
      rep_.add("transport.rtt_us_p50", median_time([&] {
                 sess->send(transport::FrameType::Data, 1, keystore::kKsDec, body);
                 bench::sink(sess->recv(transport::Millis(10000)));
               }, 1e6, 1, 0.25, 50, 2000), "us",
               std::to_string(body.size()) + " B ks.dec body");
      mux.stop();
    }
    listener.close();
    echo.join();
  }

  const Config& cfg_;
  GG proto_;
  schemes::DlrParams prm_;
  Report& rep_;

  std::vector<KeyId> ids_;
  std::vector<std::vector<GT>> msgs_;
  std::vector<std::vector<Ct>> cts_;
  GT wrong_plain_{};
  std::vector<std::vector<Op>> seqs_;
  std::vector<std::vector<Op>> refresh_seqs_;
  std::unique_ptr<Stack> stack_;
  std::vector<double> setup_times_;
  std::vector<double> setup_steps_[5];
  SpanLedger ledger_;
};

}  // namespace perfbench
