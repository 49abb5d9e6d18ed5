// keystore_bench: runs one named workload through the keystore stack and
// prints its metrics, one `metric <name> <value> <unit>` line each, then a
// `result` line. perfbench/run.py builds this binary and turns its output
// into the benchmark's JSON result.
//
//   keystore_bench --workload ss512|mock_rw --seed N --seconds S
//                  --trace 0|1 [--state-dir DIR]
//                  [--faults RATE --max-retries N --force-wrong N]   (smoke test)
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Config;

/// The two workloads (README.md says why each exists). All are closed
/// loops with 2 client threads and 2 client connections, pinned to `cpus`
/// CPUs.
bool preset(const std::string& name, Config& c) {
  c.workload = name;
  if (name == "ss512") {
    c.ss512 = true;
    c.lambda = 160;
    c.keys = 16;
    // A decrypt is sequential (P1 round 1, P2 respond, P1 finish), so two
    // clients keep at most two of the four CPUs busy, and with two workers
    // per shard neither waits for the other's P2 step.
    c.clients = 2;
    c.workers = 2;
    c.cpus = 4;
    c.refresh_phase = 0.5;
    c.cts_per_key = 4;
    c.cycle_s = 4;  // a refresh takes ~0.6 s; slices of 2 s hold a few
    c.setups = 5;
    return true;
  }
  if (name == "mock_rw") {
    c.keys = 1000;
    c.clients = 2;
    c.workers = 1;
    c.cpus = 1;
    c.ref_every = 8;
    c.setups = 21;
    c.cts_per_key = 4;
    return true;
  }
  return false;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "keystore_bench: %s\nusage: keystore_bench --workload ss512|mock_rw "
               "--seed N --seconds S --trace 0|1 [--state-dir DIR] "
               "[--faults RATE] [--max-retries N] [--force-wrong N]\n",
               why);
  std::exit(2);
}

/// Pin the process to the last `n` CPUs it may run on (CPU 0 takes most
/// device interrupts) before any thread starts; every thread inherits the
/// mask. Unpinned, mock_rw followed the host's wake-up latency for idle
/// vCPUs more than the program (a request crosses several threads):
/// consecutive runs swung 3.7k-8.4k ops/s where one CPU held 7.1k-7.2k.
/// Returns the number of CPUs pinned (fewer if fewer are allowed).
int pin_cpus(int n) {
  cpu_set_t allowed, chosen;
  CPU_ZERO(&chosen);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) usage("sched_getaffinity failed");
  int got = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && got < n; --c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++got;
    }
  if (got == 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0)
    usage("sched_setaffinity failed");
  return got;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string workload, state_dir = ".bench_build/state";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(v);
    else if (a == "--trace") cfg.trace = std::atoi(v) != 0;
    else if (a == "--state-dir") state_dir = v;
    else if (a == "--faults") cfg.fault_rate = std::atof(v);
    else if (a == "--max-retries") cfg.max_retries = std::atoi(v);
    else if (a == "--force-wrong") cfg.force_wrong = std::atol(v);
    else usage(("unknown flag " + a).c_str());
  }
  if (!preset(workload, cfg)) usage(("unknown workload '" + workload + "'").c_str());
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  cfg.cpus = pin_cpus(cfg.cpus);

  // Pin the fan-out width before anything resolves it: each KsServer::start
  // would otherwise overwrite the process-wide adaptive default, so with two
  // shards in one process the width would depend on start order.
  ::setenv("DLR_PARALLEL", std::to_string(perfbench::kFanout).c_str(), 1);

  cfg.state_root = state_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(cfg.state_root);

  perfbench::Report rep;
  int rc = 0;
  try {
    rc = cfg.ss512 ? perfbench::run_ss512(cfg, rep) : perfbench::run_mock(cfg, rep);
    if (cfg.trace) perfbench::measure_curve_layers(rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("uncaught exception: ") + e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.state_root, ec);

  for (const auto& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const auto& m : rep.metrics)
    std::printf("metric %s %.17g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  std::printf("result correct=%d attempted=%llu failed=%llu\n", rep.correct ? 1 : 0,
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  return rep.correct ? rc : 1;
}
