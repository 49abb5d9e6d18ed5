// T4: multi-tenant keystore throughput -- requests/sec of a sharded KsServer
// fleet serving a 10k-key keyspace under a Zipf(1.0) request mix, with the
// client-side budget-driven refresh scheduler running throughout.
//
// The bench answers three questions from DESIGN.md §11:
//
//   1. Scale tax: what fraction of the single-key service throughput
//      (bench_t3's workload, rerun here as an in-bench control point so both
//      numbers come from the same host on the same run) survives 10k keys,
//      per-key epoch machines, consistent-hash routing, and segmented
//      journaling? Gate: >= 80%.
//   2. Budget safety under skew: with the hottest keys drawing Zipf-share of
//      the traffic, does the background scheduler keep every key below its
//      leakage budget without starving decryption? (leak.ks.* gauges +
//      refresh counts in the export.)
//   3. Recovery: crash one shard (destroy the process object), restart it
//      from its segmented journal, and compare the fleet digest before and
//      after -- repeated over several restarts, reporting the p50 recovery
//      wall time and requiring zero digest mismatches.
//
// All randomness -- keygen, ciphertexts, the Zipf key sequence, workload
// shuffling -- derives from --seed, so a run replays exactly.
//
//   bench_t4_keystore [--keys N] [--shards S] [--requests R] [--clients C]
//                     [--lambda L] [--zipf Z] [--seed X] [--restarts K]
//                     [--reps R] [--json out.jsonl]
//
// --reshard switches to the live-resharding sweep (DESIGN.md §14): the fleet
// starts with --shards owners plus one empty standby, serves the Zipf mix,
// then propose_map()s the (shards+1)-way map while clients keep decrypting.
// Requests are bucketed pre/during/post cut-over and split by whether their
// key migrates, reporting goodput retention and p50/p99 for the non-migrating
// population (gate: >= 80% goodput during the rebalance) as bench.reshard.*.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "group/mock_group.hpp"
#include "keystore/ks_client.hpp"
#include "keystore/ks_server.hpp"
#include "service/client.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace dlr;
using group::MockGroup;
using Core = schemes::DlrCore<MockGroup>;
using keystore::KeyId;
using keystore::KsFleet;
using keystore::KsServer;
using keystore::ShardInfo;
using keystore::ShardMap;

struct Config {
  int keys = 10000;
  int shards = 2;
  int requests = 20000;  // total decryptions in the timed region (~1.5 s at
                         // mock-group speeds; sub-second windows are noise)
  int clients = 4;
  std::size_t lambda = 256;
  double zipf = 1.0;
  std::uint64_t seed = 1;
  int restarts = 3;
  /// Interleaved keystore/control repetitions; the headline ratio is
  /// median-vs-median, so slow machine drift between the two measured
  /// phases cancels instead of masquerading as a keystore tax (same
  /// trick as bench_t3 --scrape).
  int reps = 3;
  /// Live-resharding sweep instead of the steady-state throughput run.
  bool reshard = false;
};

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

int int_flag(int argc, char** argv, const char* name, int def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  return def;
}

double double_flag(int argc, char** argv, const char* name, double def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  return def;
}

std::string make_state_dir(int shard) {
  std::string tmpl = "/tmp/dlr_bench_t4_s" + std::to_string(shard) + "_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return tmpl;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * (v.size() - 1))];
}

struct Fleet {
  MockGroup gg = group::make_mock();
  schemes::DlrParams prm;
  Config cfg;
  std::vector<KeyId> ids;
  std::vector<Core::KeyGenResult> kgs;
  std::vector<std::string> dirs;
  std::vector<std::unique_ptr<KsServer<MockGroup>>> servers;
  std::optional<KsFleet<MockGroup>> fleet;
  double keygen_ms = 0, provision_ms = 0;

  explicit Fleet(Config c) : cfg(c) {
    prm = schemes::DlrParams::derive(gg.scalar_bits(), cfg.lambda);

    // Keygen for every (tenant, key). Timed: it is the bulk-onboarding cost.
    const auto t0 = std::chrono::steady_clock::now();
    crypto::Rng rng(424242 + cfg.seed);
    ids.reserve(cfg.keys);
    kgs.reserve(cfg.keys);
    for (int i = 0; i < cfg.keys; ++i) {
      ids.push_back({"tenant" + std::to_string(i % 97), "key" + std::to_string(i)});
      kgs.push_back(Core::gen(gg, prm, rng));
    }
    const auto t1 = std::chrono::steady_clock::now();
    keygen_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    for (int s = 0; s < cfg.shards; ++s) {
      dirs.push_back(make_state_dir(s));
      servers.push_back(make_server(s, cfg.seed * 100 + s));
      servers.back()->start();
    }
    install_map(1);

    // Bulk provisioning through the deferred-durability path: fsync once per
    // shard at the end instead of once per key.
    const auto t2 = std::chrono::steady_clock::now();
    const ShardMap map = servers[0]->shard_map();
    for (int i = 0; i < cfg.keys; ++i)
      servers[map.owner(ids[i])]->store().put(ids[i], kgs[i].sk2);
    for (auto& s : servers)
      if (auto* j = s->store().journal()) j->flush();
    const auto t3 = std::chrono::steady_clock::now();
    provision_ms = std::chrono::duration<double, std::milli>(t3 - t2).count();

    typename KsFleet<MockGroup>::Options fo;
    fo.refresh_threshold = 0.5;
    fo.scheduler.sweep_interval = std::chrono::milliseconds(20);
    fo.scheduler.max_concurrent = 2;
    fleet.emplace(gg, prm, crypto::Rng(cfg.seed + 7), servers[0]->port(), fo);
    fleet->set_map(servers[0]->shard_map());
    for (int i = 0; i < cfg.keys; ++i)
      fleet->add_key(ids[i], kgs[i].pk, kgs[i].sk1, schemes::P1Mode::Plain);
  }

  [[nodiscard]] std::unique_ptr<KsServer<MockGroup>> make_server(int shard,
                                                                 std::uint64_t seed) {
    typename KsServer<MockGroup>::Options so;
    so.shard_id = static_cast<std::uint32_t>(shard);
    so.workers = 4;
    so.store.state_dir = dirs[static_cast<std::size_t>(shard)];
    so.store.journal.fsync_each = false;  // bulk-load + bench mode
    so.store.budget_bits = 64;
    so.store.leak_per_dec_bits = 1;
    so.store.refresh_threshold = 0.5;
    return std::make_unique<KsServer<MockGroup>>(gg, prm, crypto::Rng(seed), so);
  }

  void install_map(std::uint64_t version) {
    std::vector<ShardInfo> infos;
    for (int s = 0; s < cfg.shards; ++s)
      infos.push_back({static_cast<std::uint32_t>(s), "", servers[s]->port()});
    const ShardMap m(version, std::move(infos));
    for (auto& s : servers) s->set_shard_map(m);
    if (fleet) fleet->set_map(m);
  }

  /// Start an empty shard outside the current map: the rebalance target.
  void add_standby(int shard) {
    dirs.push_back(make_state_dir(shard));
    servers.push_back(make_server(shard, cfg.seed * 100 + shard));
    servers.back()->start();
    servers.back()->set_shard_map(servers[0]->shard_map());
  }

  /// Map over the first `nshards` servers (which may exceed cfg.shards once
  /// the standby has joined).
  [[nodiscard]] ShardMap map_over(std::uint64_t version, int nshards) const {
    std::vector<ShardInfo> infos;
    for (int s = 0; s < nshards; ++s)
      infos.push_back({static_cast<std::uint32_t>(s), "", servers[s]->port()});
    return ShardMap(version, std::move(infos));
  }

  ~Fleet() {
    if (fleet) fleet->close();
    for (auto& s : servers)
      if (s) s->stop();
  }
};

/// The timed Zipf workload: `clients` threads, each with its own seeded Zipf
/// stream over the keyspace and a pre-encrypted, seed-shuffled request list.
double run_workload(Fleet& fx, int requests, std::atomic<int>* wrong) {
  const Config& cfg = fx.cfg;
  const int per_client = (requests + cfg.clients - 1) / cfg.clients;

  struct Req {
    std::size_t key;
    MockGroup::GT m;
    Core::Ciphertext ct;
  };
  std::vector<std::vector<Req>> work(cfg.clients);
  for (int c = 0; c < cfg.clients; ++c) {
    bench::Zipf zipf(fx.ids.size(), cfg.zipf, cfg.seed * 1000 + c);
    crypto::Rng rng(5000 + cfg.seed * 10 + c);
    work[c].reserve(per_client);
    for (int i = 0; i < per_client; ++i) {
      Req r;
      r.key = zipf.next();
      r.m = fx.gg.gt_random(rng);
      r.ct = Core::enc(fx.gg, fx.kgs[r.key].pk, r.m, rng);
      work[c].push_back(std::move(r));
    }
    bench::seeded_shuffle(work[c], cfg.seed + c);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  ts.reserve(cfg.clients);
  for (int c = 0; c < cfg.clients; ++c)
    ts.emplace_back([&, c] {
      for (const auto& r : work[c]) {
        const auto out = fx.fleet->decrypt(fx.ids[r.key], r.ct);
        if (!fx.gg.gt_eq(out, r.m) && wrong) wrong->fetch_add(1);
      }
    });
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(per_client) * cfg.clients / secs;
}

/// In-bench single-key control: bench_t3's full-load shape (a 1-key
/// KsServer on the svc.* routes, per-client connections) under the same
/// --requests/--clients/--seed.
double run_single_key_control(const Config& cfg) {
  MockGroup gg = group::make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), cfg.lambda);
  crypto::Rng rng(424242 + cfg.seed);
  auto kg = Core::gen(gg, prm, rng);
  auto p1 = std::make_shared<service::P1Runtime<MockGroup>>(
      gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(cfg.seed * 2 + 1));

  typename KsServer<MockGroup>::Options sopt;
  sopt.workers = 4;
  KsServer<MockGroup> server(gg, prm, crypto::Rng(cfg.seed * 2 + 2), sopt);
  server.store().put(keystore::default_key_id(), kg.sk2);
  server.start();

  const int per_client = (cfg.requests + cfg.clients - 1) / cfg.clients;
  crypto::Rng crng(5000 + cfg.seed);
  std::vector<Core::Ciphertext> cts;
  cts.reserve(per_client);
  for (int i = 0; i < per_client; ++i)
    cts.push_back(Core::enc(gg, kg.pk, gg.gt_random(crng), crng));
  bench::seeded_shuffle(cts, cfg.seed);

  std::vector<std::unique_ptr<service::DecryptionClient<MockGroup>>> conns;
  for (int c = 0; c < cfg.clients; ++c)
    conns.push_back(
        std::make_unique<service::DecryptionClient<MockGroup>>(p1, server.port()));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (int c = 0; c < cfg.clients; ++c)
    ts.emplace_back([&, c] {
      for (const auto& ct : cts) bench::sink(conns[static_cast<std::size_t>(c)]->decrypt(ct));
    });
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  for (auto& c : conns) c->close();
  server.stop();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(per_client) * cfg.clients / secs;
}

struct RestartStats {
  std::vector<double> recovery_ms;
  int digest_mismatches = 0;
  std::size_t keys_recovered = 0;
};

/// Crash shard 0 repeatedly: digest -> destroy -> reconstruct from its
/// journal directory (timed) -> digest check -> remap -> decrypt smoke.
RestartStats run_restarts(Fleet& fx) {
  RestartStats st;
  crypto::Rng rng(31337 + fx.cfg.seed);
  for (int r = 0; r < fx.cfg.restarts; ++r) {
    const Bytes before = fx.servers[0]->store().digest_all();
    const std::size_t n = fx.servers[0]->store().size();
    fx.servers[0]->stop();
    fx.servers[0].reset();

    const auto t0 = std::chrono::steady_clock::now();
    fx.servers[0] = fx.make_server(0, /*seed=*/999999 + r);  // decoy rng
    fx.servers[0]->start();
    const auto t1 = std::chrono::steady_clock::now();
    st.recovery_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());

    if (fx.servers[0]->store().digest_all() != before ||
        fx.servers[0]->store().size() != n)
      ++st.digest_mismatches;
    st.keys_recovered = fx.servers[0]->store().size();

    fx.install_map(2 + static_cast<std::uint64_t>(r));  // new port, new version

    // Smoke: the restarted shard serves one of its own keys.
    const ShardMap map = fx.servers[0]->shard_map();
    for (std::size_t i = 0; i < fx.ids.size(); ++i) {
      if (map.owner(fx.ids[i]) != 0) continue;
      const auto m = fx.gg.gt_random(rng);
      const auto c = Core::enc(fx.gg, fx.kgs[i].pk, m, rng);
      if (!fx.gg.gt_eq(fx.fleet->decrypt(fx.ids[i], c), m)) ++st.digest_mismatches;
      break;
    }
  }
  return st;
}

// --- --reshard: availability while the keyspace rebalances 2 -> 3 ----------

/// One timed decrypt, tagged with the phase it started in (0 pre, 1 during,
/// 2 post) and whether its key migrates under the proposed map.
struct ReshardSample {
  int phase;
  bool migrating;
  double lat_us;
};

int reshard_main(Config cfg, int argc, char** argv) {
  cfg.clients = std::max(2, cfg.clients);  // one client per population, minimum
  Fleet fx(cfg);
  const int nshards_after = cfg.shards + 1;
  fx.add_standby(cfg.shards);

  const ShardMap before_map = fx.servers[0]->shard_map();
  const ShardMap after_map = fx.map_over(before_map.version() + 1, nshards_after);

  // Which keys move under the proposed map? Decided by consistent hashing,
  // so client threads can tag samples without asking the servers.
  std::vector<char> migrates(fx.ids.size(), 0);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < fx.ids.size(); ++i)
    if (before_map.owner(fx.ids[i]) != after_map.owner(fx.ids[i])) {
      migrates[i] = 1;
      ++moved;
    }

  std::printf(
      "backend=mock  lambda=%zu  keys=%d  shards=%d->%d  clients=%d  zipf=%.2f  "
      "seed=%llu  moving=%zu\n\n",
      cfg.lambda, cfg.keys, cfg.shards, nshards_after, cfg.clients, cfg.zipf,
      static_cast<unsigned long long>(cfg.seed), moved);

  // Per-client pre-encrypted Zipf pools, cycled for as long as the phases
  // run. Clients are split between the two populations (half on keys that
  // stay put, half on keys that move) so that a migrating key parked in its
  // Draining window cannot head-of-line-block the non-migrating measurement
  // inside a shared closed loop -- the availability question is about the
  // servers, not about this harness's thread budget.
  std::vector<std::size_t> stay_idx, move_idx;
  for (std::size_t i = 0; i < fx.ids.size(); ++i)
    (migrates[i] ? move_idx : stay_idx).push_back(i);
  if (stay_idx.empty() || move_idx.empty()) {
    std::fprintf(stderr, "reshard: degenerate split (%zu stay / %zu move)\n",
                 stay_idx.size(), move_idx.size());
    return 1;
  }
  const int stay_clients = std::max(1, cfg.clients / 2);

  struct Req {
    std::size_t key;
    MockGroup::GT m;
    Core::Ciphertext ct;
  };
  const int per_client = std::max(64, (cfg.requests + cfg.clients - 1) / cfg.clients);
  std::vector<std::vector<Req>> work(cfg.clients);
  for (int c = 0; c < cfg.clients; ++c) {
    const auto& keys_of = c < stay_clients ? stay_idx : move_idx;
    bench::Zipf zipf(keys_of.size(), cfg.zipf, cfg.seed * 1000 + c);
    crypto::Rng rng(5000 + cfg.seed * 10 + c);
    work[c].reserve(per_client);
    for (int i = 0; i < per_client; ++i) {
      Req r;
      r.key = keys_of[zipf.next()];
      r.m = fx.gg.gt_random(rng);
      r.ct = Core::enc(fx.gg, fx.kgs[r.key].pk, r.m, rng);
      work[c].push_back(std::move(r));
    }
    bench::seeded_shuffle(work[c], cfg.seed + c);
  }

  fx.fleet->start_scheduler();

  // Phase machine: 0 = steady state, 1 = rebalance in flight, 2 = settled,
  // 3 = stop. Clients tag each request with the phase it started in; the
  // driver thread advances the phase around propose_map() and settle.
  std::atomic<int> phase{0};
  std::atomic<int> errors{0};
  std::vector<std::vector<ReshardSample>> samples(cfg.clients);
  std::vector<std::thread> ts;
  ts.reserve(cfg.clients);
  for (int c = 0; c < cfg.clients; ++c)
    ts.emplace_back([&, c] {
      auto& out = samples[static_cast<std::size_t>(c)];
      out.reserve(65536);
      const auto& pool = work[static_cast<std::size_t>(c)];
      std::size_t i = 0;
      while (true) {
        const int ph = phase.load(std::memory_order_relaxed);
        if (ph >= 3) break;
        const auto& r = pool[i++ % pool.size()];
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = true;
        try {
          ok = fx.gg.gt_eq(fx.fleet->decrypt(fx.ids[r.key], r.ct), r.m);
        } catch (const std::exception&) {
          ok = false;
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (!ok) errors.fetch_add(1);
        out.push_back({ph, migrates[r.key] != 0,
                       std::chrono::duration<double, std::micro>(t1 - t0).count()});
      }
    });

  const auto warm = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  const auto t_prop = std::chrono::steady_clock::now();
  phase.store(1);
  for (auto& s : fx.servers) (void)s->propose_map(after_map);

  auto settled = [&fx] {
    for (auto& s : fx.servers)
      if (s->mig_halted() || !s->mig_idle() || s->reshard_window_open()) return false;
    return true;
  };
  bool did_settle = false;
  for (int i = 0; i < 120000 / 5; ++i) {
    if ((did_settle = settled())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t_settle = std::chrono::steady_clock::now();
  phase.store(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  phase.store(3);
  for (auto& t : ts) t.join();
  fx.fleet->stop_scheduler();

  const double pre_secs = std::chrono::duration<double>(t_prop - warm).count();
  const double mig_secs = std::chrono::duration<double>(t_settle - t_prop).count();

  // Conservation: every moving key handed over exactly once.
  std::uint64_t mig_out = 0, mig_in = 0;
  for (auto& s : fx.servers) {
    mig_out += s->migrated_out();
    mig_in += s->migrated_in();
  }

  // Bucket the samples.
  std::vector<double> pre_lat, dur_stay_lat, dur_move_lat, post_lat;
  std::size_t pre_stay = 0, dur_stay = 0, dur_move = 0, post_n = 0;
  for (const auto& per : samples)
    for (const auto& s : per) {
      switch (s.phase) {
        case 0:
          pre_lat.push_back(s.lat_us);
          if (!s.migrating) ++pre_stay;
          break;
        case 1:
          (s.migrating ? dur_move_lat : dur_stay_lat).push_back(s.lat_us);
          (s.migrating ? ++dur_move : ++dur_stay);
          break;
        default:
          post_lat.push_back(s.lat_us);
          ++post_n;
          break;
      }
    }

  const double pre_stay_rps = pre_secs > 0 ? static_cast<double>(pre_stay) / pre_secs : 0;
  const double dur_stay_rps = mig_secs > 0 ? static_cast<double>(dur_stay) / mig_secs : 0;
  const double dur_move_rps = mig_secs > 0 ? static_cast<double>(dur_move) / mig_secs : 0;
  const double post_rps =
      post_n > 0 ? static_cast<double>(post_n) /
                       std::chrono::duration<double>(std::chrono::milliseconds(400)).count()
                 : 0;
  const double goodput_pct =
      pre_stay_rps > 0 ? dur_stay_rps / pre_stay_rps * 100.0 : 0;

  const bool conserved = did_settle && mig_out == moved && mig_in == moved;

  auto& reg = telemetry::Registry::global();
  const telemetry::Labels tag{{"keys", std::to_string(cfg.keys)},
                              {"shards", std::to_string(cfg.shards)}};
  reg.gauge("bench.reshard.moved_keys", tag).set(static_cast<double>(moved));
  reg.gauge("bench.reshard.migration_ms", tag).set(mig_secs * 1e3);
  reg.gauge("bench.reshard.pre_nonmig_rps", tag).set(pre_stay_rps);
  reg.gauge("bench.reshard.during_nonmig_rps", tag).set(dur_stay_rps);
  reg.gauge("bench.reshard.during_mig_rps", tag).set(dur_move_rps);
  reg.gauge("bench.reshard.post_rps", tag).set(post_rps);
  reg.gauge("bench.reshard.goodput_nonmig_pct", tag).set(goodput_pct);
  reg.gauge("bench.reshard.p50_pre_us", tag).set(percentile(pre_lat, 0.50));
  reg.gauge("bench.reshard.p99_pre_us", tag).set(percentile(pre_lat, 0.99));
  reg.gauge("bench.reshard.p50_during_nonmig_us", tag).set(percentile(dur_stay_lat, 0.50));
  reg.gauge("bench.reshard.p99_during_nonmig_us", tag).set(percentile(dur_stay_lat, 0.99));
  reg.gauge("bench.reshard.p99_during_mig_us", tag).set(percentile(dur_move_lat, 0.99));
  reg.gauge("bench.reshard.p99_post_us", tag).set(percentile(post_lat, 0.99));
  reg.gauge("bench.reshard.errors", tag).set(static_cast<double>(errors.load()));
  reg.gauge("bench.reshard.migrated_out", tag).set(static_cast<double>(mig_out));
  reg.gauge("bench.reshard.migrated_in", tag).set(static_cast<double>(mig_in));

  bench::Table table({"metric", "value"});
  table.row({"keyspace (keys / shards before -> after)",
             std::to_string(cfg.keys) + " / " + std::to_string(cfg.shards) + " -> " +
                 std::to_string(nshards_after)});
  table.row({"keys migrated (expected / out / in)",
             std::to_string(moved) + " / " + std::to_string(mig_out) + " / " +
                 std::to_string(mig_in)});
  table.row({"rebalance wall time (ms)", bench::fmt(mig_secs * 1e3, 1)});
  table.row({"req/s non-migrating (pre)", bench::fmt(pre_stay_rps, 1)});
  table.row({"req/s non-migrating (during)", bench::fmt(dur_stay_rps, 1)});
  table.row({"req/s migrating (during)", bench::fmt(dur_move_rps, 1)});
  table.row({"req/s (post, settled)", bench::fmt(post_rps, 1)});
  table.row({"non-migrating goodput retained (%)", bench::fmt(goodput_pct, 1)});
  table.row({"p50/p99 pre (us)", bench::fmt(percentile(pre_lat, 0.50), 0) + " / " +
                                     bench::fmt(percentile(pre_lat, 0.99), 0)});
  table.row({"p50/p99 during, non-migrating (us)",
             bench::fmt(percentile(dur_stay_lat, 0.50), 0) + " / " +
                 bench::fmt(percentile(dur_stay_lat, 0.99), 0)});
  table.row({"p99 during, migrating (us)", bench::fmt(percentile(dur_move_lat, 0.99), 0)});
  table.row({"p99 post (us)", bench::fmt(percentile(post_lat, 0.99), 0)});
  table.row({"decrypt errors / wrong plaintexts", std::to_string(errors.load())});
  table.row({"settled / conserved", std::string(did_settle ? "yes" : "NO") + " / " +
                                        (conserved ? "yes" : "NO")});
  table.print();

  telemetry::Tracer::global().reset();
  bench::export_json_if_requested(argc, argv, "bench_t4_keystore");
  return errors.load() == 0 && conserved ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.keys = int_flag(argc, argv, "--keys", cfg.keys);
  cfg.shards = std::max(1, int_flag(argc, argv, "--shards", cfg.shards));
  cfg.requests = int_flag(argc, argv, "--requests", cfg.requests);
  cfg.clients = std::max(1, int_flag(argc, argv, "--clients", cfg.clients));
  cfg.lambda = static_cast<std::size_t>(
      int_flag(argc, argv, "--lambda", static_cast<int>(cfg.lambda)));
  cfg.zipf = double_flag(argc, argv, "--zipf", cfg.zipf);
  cfg.seed = bench::u64_flag(argc, argv, "--seed", cfg.seed);
  cfg.restarts = int_flag(argc, argv, "--restarts", cfg.restarts);
  cfg.reps = std::max(1, int_flag(argc, argv, "--reps", cfg.reps));
  cfg.reshard = has_flag(argc, argv, "--reshard");

  if (cfg.reshard) {
    bench::banner("T4: live resharding sweep (availability during 2->3 rebalance)",
                  "migration protocol of DESIGN.md §14");
    return reshard_main(cfg, argc, argv);
  }

  bench::banner("T4: multi-tenant keystore throughput (Zipf over sharded fleet)",
                "keystore deployment of Construction 5.3, DESIGN.md §11");

  Fleet fx(cfg);
  std::printf(
      "backend=mock  lambda=%zu  ell=%zu  keys=%d  shards=%d  clients=%d  zipf=%.2f  "
      "seed=%llu\n\n",
      cfg.lambda, fx.prm.ell, cfg.keys, cfg.shards, cfg.clients, cfg.zipf,
      static_cast<unsigned long long>(cfg.seed));

  // Interleaved reps: keystore Zipf workload (scheduler live) alternating
  // with the single-key control, median of each side.
  fx.fleet->start_scheduler();
  std::atomic<int> wrong{0};
  std::vector<double> ks_samples, single_samples;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    ks_samples.push_back(run_workload(fx, cfg.requests, &wrong));
    single_samples.push_back(run_single_key_control(cfg));
  }
  const double ks_rps = percentile(ks_samples, 0.50);
  const double single_rps = percentile(single_samples, 0.50);
  const double vs_single = single_rps > 0 ? ks_rps / single_rps * 100.0 : 0;

  // Settle: keys that crossed the threshold in the workload's final
  // milliseconds still deserve a sweep before the budget audit (bounded --
  // a scheduler that cannot drain the backlog shows up as over_threshold).
  auto backlog = [&fx] {
    std::size_t n = 0;
    for (auto& s : fx.servers) n += s->store().candidates().size();
    return n;
  };
  for (int i = 0; i < 50 && backlog() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fx.fleet->stop_scheduler();
  const std::uint64_t refreshes = fx.fleet->scheduler()->refreshes();

  // Final budget audit: candidates() publishes leak.ks.max_spent_frac.
  const std::size_t over_threshold = backlog();

  const RestartStats rs = run_restarts(fx);
  const double rec_p50 = percentile(rs.recovery_ms, 0.50);
  const double rec_max = rs.recovery_ms.empty()
                             ? 0
                             : *std::max_element(rs.recovery_ms.begin(),
                                                 rs.recovery_ms.end());

  std::uint64_t segments = 0, compactions = 0;
  for (auto& s : fx.servers)
    if (auto* j = s->store().journal()) {
      segments += j->segment_count();
      compactions += j->compactions();
    }

  auto& reg = telemetry::Registry::global();
  const telemetry::Labels tag{{"keys", std::to_string(cfg.keys)},
                              {"shards", std::to_string(cfg.shards)}};
  reg.gauge("bench.ks.rps", tag).set(ks_rps);
  reg.gauge("bench.ks.single_key_rps", tag).set(single_rps);
  reg.gauge("bench.ks.vs_single_key_pct", tag).set(vs_single);
  reg.gauge("bench.ks.keygen_ms", tag).set(fx.keygen_ms);
  reg.gauge("bench.ks.provision_ms", tag).set(fx.provision_ms);
  reg.gauge("bench.ks.refreshes", tag).set(static_cast<double>(refreshes));
  reg.gauge("bench.ks.over_threshold_final", tag).set(static_cast<double>(over_threshold));
  reg.gauge("bench.ks.wrong", tag).set(static_cast<double>(wrong.load()));
  reg.gauge("bench.ks.recovery.p50_ms", tag).set(rec_p50);
  reg.gauge("bench.ks.recovery.max_ms", tag).set(rec_max);
  reg.gauge("bench.ks.recovery.digest_mismatches", tag)
      .set(static_cast<double>(rs.digest_mismatches));
  reg.gauge("bench.ks.recovery.keys", tag).set(static_cast<double>(rs.keys_recovered));
  reg.gauge("bench.ks.journal.segments", tag).set(static_cast<double>(segments));
  reg.gauge("bench.ks.journal.compactions", tag).set(static_cast<double>(compactions));

  bench::Table table({"metric", "value"});
  table.row({"keyspace (keys / shards)",
             std::to_string(cfg.keys) + " / " + std::to_string(cfg.shards)});
  table.row({"keygen (ms, all keys)", bench::fmt(fx.keygen_ms, 1)});
  table.row({"bulk provision (ms, all keys)", bench::fmt(fx.provision_ms, 1)});
  table.row({"req/s (Zipf over keystore)", bench::fmt(ks_rps, 1)});
  table.row({"req/s (single-key control)", bench::fmt(single_rps, 1)});
  table.row({"keystore vs single-key (%)", bench::fmt(vs_single, 1)});
  table.row({"wrong plaintexts", std::to_string(wrong.load())});
  table.row({"background refreshes", std::to_string(refreshes)});
  table.row({"keys over budget threshold (final)", std::to_string(over_threshold)});
  table.row({"shard restarts / digest mismatches",
             std::to_string(cfg.restarts) + " / " + std::to_string(rs.digest_mismatches)});
  table.row({"recovery p50 / max (ms)",
             bench::fmt(rec_p50, 1) + " / " + bench::fmt(rec_max, 1)});
  table.row({"journal segments / compactions",
             std::to_string(segments) + " / " + std::to_string(compactions)});
  table.print();

  // The committed baseline is the bench.ks.* gauge set; a 20k-request run
  // accumulates tens of thousands of protocol spans that would swamp it.
  telemetry::Tracer::global().reset();
  bench::export_json_if_requested(argc, argv, "bench_t4_keystore");
  return wrong.load() == 0 && rs.digest_mismatches == 0 ? 0 : 1;
}
