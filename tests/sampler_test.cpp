// The uniform-G sampler's arithmetic, differentially tested: sliding-window
// F_p exponentiation against square-and-multiply, the x-only ladder
// cofactor clearing against the wNAF scalar multiplication, the
// one-exponentiation lift, and the batched g_random_many hook.
#include <gtest/gtest.h>

#include <set>

#include "arith_oracles.hpp"
#include "group/counting_group.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"

namespace dlr {
namespace {

using crypto::Rng;

// ---- sliding-window pow --------------------------------------------------------

template <std::size_t L>
void check_pow_matches_binary(const field::FpCtx<L>& f, std::uint64_t seed) {
  using U = mpint::UInt<L>;
  Rng rng(seed);
  const U p = f.modulus();
  std::vector<U> es = {U{}, U::from_u64(1), U::from_u64(2), U::from_u64(31), U::from_u64(32),
                       U::from_u64(33), U::from_u64(0xffff), p - U::from_u64(2),
                       mpint::shr(p + U::from_u64(1), 2)};
  for (int i = 0; i < 12; ++i) es.push_back(f.random_uint(rng));
  for (int i = 0; i < 4; ++i) es.push_back(mpint::shr(f.random_uint(rng), 1 + rng.below(60)));
  std::vector<U> bases = {f.zero(), f.one()};
  for (int i = 0; i < 4; ++i) bases.push_back(f.random(rng));
  for (const auto& a : bases)
    for (const auto& e : es) EXPECT_EQ(f.pow(a, e), oracle::pow_binary(f, a, e));
}

TEST(SlidingPowTest, MatchesBinaryPowAtEveryLimbCount) {
  check_pow_matches_binary(field::FpCtx<1>(pairing::make_ss256()->order()), 9100);
  check_pow_matches_binary(pairing::make_ss256()->fq(), 9101);
  check_pow_matches_binary(pairing::make_ss512()->fq(), 9102);
  check_pow_matches_binary(pairing::make_ss1024()->fq(), 9103);
}

// ---- ladder cofactor clearing ----------------------------------------------------

template <std::size_t LQ, std::size_t LR>
void check_ladder_clearing(const pairing::PairingCtx<LQ, LR>& ctx, std::uint64_t seed,
                           int iters) {
  using A = ec::AffinePoint<LQ>;
  const auto& cv = ctx.curve();
  const auto& h = ctx.cofactor();
  Rng rng(seed);
  std::vector<A> ps = {cv.infinity(), A{ctx.fq().zero(), ctx.fq().zero(), false},
                       ctx.generator()};
  for (int i = 0; i < iters; ++i) {
    ps.push_back(cv.lift_x_or_neg(ctx.fq().random(rng), rng.coin()));  // any order
    ps.push_back(ctx.random_point(rng));                                // already in G
  }
  for (const auto& p : ps) {
    ASSERT_TRUE(cv.is_on_curve(p));
    EXPECT_EQ(ctx.clear_cofactor(p), cv.mul(p, h));
  }
  EXPECT_TRUE(ctx.clear_cofactor(ps[0]).inf);
  EXPECT_TRUE(ctx.clear_cofactor(ps[1]).inf) << "(0,0) has order 2 and h is even";
  // The batch shares one inversion and agrees point by point.
  const auto many = cv.mul_ladder_many(std::span<const A>(ps), h);
  ASSERT_EQ(many.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(many[i], cv.mul(ps[i], h)) << i;
  // [r-1]P = -P ([k+1]P = O) and [r]P = O ([k]P = O) on a point of G, and
  // [k]P for a general scalar.
  const auto mul_ladder = [&](const A& p, const auto& k) {
    return cv.mul_ladder_many(std::span<const A>(&p, 1), k)[0];
  };
  const auto& g = ps[2];
  const auto r = ctx.order();
  EXPECT_EQ(mul_ladder(g, r - mpint::UInt<LR>::from_u64(1)), cv.neg(g));
  EXPECT_TRUE(mul_ladder(g, r).inf);
  EXPECT_EQ(mul_ladder(g, mpint::UInt<LR>::from_u64(1)), g);
  EXPECT_TRUE(mul_ladder(g, mpint::UInt<LR>{}).inf);
  const field::FpCtx<LR> zr(r);
  for (int i = 0; i < 4; ++i) {
    const auto k = zr.random_uint(rng);
    EXPECT_EQ(mul_ladder(ps[3], k), oracle::mul_binary(cv, ps[3], k));
  }
}

TEST(LadderClearingTest, BitIdenticalToScalarMulSS256) {
  check_ladder_clearing(*pairing::make_ss256(), 9200, 20);
}
TEST(LadderClearingTest, BitIdenticalToScalarMulSS512) {
  check_ladder_clearing(*pairing::make_ss512(), 9201, 6);
}
TEST(LadderClearingTest, BitIdenticalToScalarMulSS1024) {
  check_ladder_clearing(*pairing::make_ss1024(), 9202, 2);
}

// ---- one-exponentiation lift -------------------------------------------------------

template <std::size_t LQ, std::size_t LR>
void check_lift(const pairing::PairingCtx<LQ, LR>& ctx, std::uint64_t seed, int iters) {
  const auto& fq = ctx.fq();
  const auto& cv = ctx.curve();
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const auto x = fq.random(rng);
    const bool odd = rng.coin();
    const auto plus = cv.lift_x(x, odd);
    const auto minus = cv.lift_x(fq.neg(x), odd);
    ASSERT_NE(plus.has_value(), minus.has_value()) << "exactly one of +-x lifts, iter " << i;
    const auto p = cv.lift_x_or_neg(x, odd);
    EXPECT_FALSE(p.inf);
    EXPECT_TRUE(cv.is_on_curve(p));
    EXPECT_EQ(fq.to_uint(p.y).is_odd(), odd);
    EXPECT_EQ(p, plus ? *plus : *minus);
  }
  const auto zero = cv.lift_x_or_neg(fq.zero(), true);
  EXPECT_TRUE(fq.is_zero(zero.x) && fq.is_zero(zero.y) && !zero.inf);
}

TEST(LiftTest, ExactlyOneOfPlusMinusXLiftsWithRequestedParity) {
  check_lift(*pairing::make_ss256(), 9300, 10000);
  check_lift(*pairing::make_ss512(), 9301, 200);
}

// ---- g_random_many -------------------------------------------------------------------

TEST(RandomManyTest, NativeBatchGivesDistinctGroupElementsAndCountsEach) {
  group::CountingGroup<group::TateSS256> gg(group::make_tate_ss256());
  Rng rng(9400);
  constexpr std::size_t kN = 25;
  const auto pts = group::g_random_many(gg, rng, kN);
  ASSERT_EQ(pts.size(), kN);
  std::set<std::pair<mpint::UInt<4>, mpint::UInt<4>>> seen;
  for (const auto& p : pts) {
    EXPECT_FALSE(gg.g_is_id(p));
    EXPECT_TRUE(gg.inner().g_in_group(p));
    seen.insert({p.x, p.y});
  }
  EXPECT_EQ(seen.size(), kN);
  EXPECT_EQ(gg.counts().g_random, kN);
  EXPECT_TRUE(group::g_random_many(gg, rng, 0).empty());
}

TEST(RandomManyTest, ConceptOnlyBackendLoopsGRandom) {
  group::CountingGroup<group::MockGroup> gg(group::make_mock());
  Rng rng(9401);
  const auto pts = group::g_random_many(gg, rng, 7);
  EXPECT_EQ(pts.size(), 7u);
  EXPECT_EQ(gg.counts().g_random, 7u);
}

}  // namespace
}  // namespace dlr
