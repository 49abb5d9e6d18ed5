// SS512 backend of the benchmark, plus the isolated field / curve / pairing
// probes every traced run reports.
#include "bench.hpp"
#include "group/tate_group.hpp"

namespace perfbench {

int run_ss512(const Config& cfg, Report& rep) {
  const auto gg = group::make_tate_ss512();
  if (cfg.trace) return Bench<group::CountingGroup<group::TateSS512>>(
                            cfg, group::CountingGroup<group::TateSS512>(gg), rep)
                     .run();
  return Bench<group::TateSS512>(cfg, gg, rep).run();
}

void measure_curve_layers(Report& rep) {
  const auto gg = group::make_tate_ss512();
  const auto& fq = gg.ctx().fq();
  const auto& f2 = gg.ctx().fq2();
  crypto::Rng rng(4242);
  const auto p = gg.g_random(rng);
  const auto q = gg.g_random(rng);
  const auto s = gg.sc_random(rng);
  const auto z = gg.pair(p, q);  // norm-1 element of GT
  const double ns = 1e9, us = 1e6;

  // Chains of dependent operations, so the compiler cannot hoist them and
  // every step waits for the previous one (latency, as in a Miller loop).
  constexpr int kChain = 4096;
  auto a = z.a;
  auto b = z.b;
  rep.add("field.fp_mul_ns", median_time([&] {
            for (int i = 0; i < kChain; ++i) a = fq.mul(a, b);
          }, ns, kChain), "ns", "SS512 modulus");
  rep.add("field.fp_sqr_ns", median_time([&] {
            for (int i = 0; i < kChain; ++i) a = fq.sqr(a);
          }, ns, kChain), "ns", "SS512 modulus");
  auto x = z;
  const auto y = gg.pair(q, p);
  rep.add("field.fp2_mul_ns", median_time([&] {
            for (int i = 0; i < kChain; ++i) x = f2.mul(x, y);
          }, ns, kChain), "ns");
  rep.add("field.fp2_sqr_ns", median_time([&] {
            for (int i = 0; i < kChain; ++i) x = f2.sqr(x);
          }, ns, kChain), "ns");
  auto u = z;
  rep.add("field.fp2_sqr_norm1_ns", median_time([&] {
            for (int i = 0; i < kChain; ++i) u = f2.sqr_norm1(u);
          }, ns, kChain), "ns");
  bench::sink(a);
  bench::sink(x);
  bench::sink(u);

  rep.add("ec.g_pow_us", median_time([&] { bench::sink(gg.g_pow(p, s)); }, us, 1, 0.3, 10),
          "us", "SS512 scalar multiplication");

  rep.add("pairing.prepare_us",
          median_time([&] { bench::sink(gg.prepare_pair(p)); }, us, 1, 0.3, 10), "us");
  const auto pp = gg.prepare_pair(p);
  rep.add("pairing.miller_eval_us", median_time([&] { bench::sink(pp.miller_eval(q)); }, us, 1,
                                                0.3, 10),
          "us");
  const auto f = pp.miller_eval(q);
  rep.add("pairing.final_exp_us",
          median_time([&] { bench::sink(gg.ctx().final_exp_fast(f)); }, us, 1, 0.3, 10), "us");
  rep.add("pairing.prepared_pair_us", median_time([&] { bench::sink(pp.pair(q)); }, us, 1, 0.3, 10),
          "us");
  if (!(pp.pair(q) == gg.pair(p, q))) rep.fail("prepared pairing disagrees with pair()");
}

}  // namespace perfbench
