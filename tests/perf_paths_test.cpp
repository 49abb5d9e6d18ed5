// Tests for the optimized arithmetic paths: wNAF scalar multiplication
// (differential vs binary), fixed-base precomputation, ct_multi_pow, and the
// precomputed-encryption variant -- plus the compact-mode sk_comm-
// accumulation attack, the compact analogue of the F3 separation.
#include <gtest/gtest.h>

#include "arith_oracles.hpp"
#include "group/fixed_pow.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"

namespace dlr {
namespace {

using crypto::Rng;
using group::make_mock;
using group::make_tate_ss256;
using group::MockGroup;

// ---- wNAF ---------------------------------------------------------------------

TEST(WnafTest, DigitsReconstructScalar) {
  Rng rng(7000);
  for (int i = 0; i < 200; ++i) {
    mpint::UInt<3> k{};
    Bytes b(24);
    rng.fill(std::span<std::uint8_t>(b.data(), 20));
    k = mpint::UInt<3>::from_bytes(b);
    const auto naf = ec::CurveCtx<4>::wnaf_digits(k, 4);
    // sum naf[i] * 2^i == k, and nonzero digits are odd with |d| <= 7.
    __int128 acc = 0;
    for (std::size_t j = naf.size(); j-- > 0;) {
      acc = 2 * acc + naf[j];
      if (naf[j] != 0) {
        EXPECT_EQ(std::abs(naf[j]) % 2, 1);
        EXPECT_LE(std::abs(naf[j]), 7);
      }
    }
    // Direct reconstruction with signed arithmetic over UInt<4>:
    mpint::UInt<4> pos{}, neg{};
    mpint::UInt<4> p2 = mpint::UInt<4>::from_u64(1);
    for (std::size_t j = 0; j < naf.size(); ++j) {
      if (naf[j] > 0) {
        for (int rep = 0; rep < naf[j]; ++rep) pos = pos + p2;
      } else if (naf[j] < 0) {
        for (int rep = 0; rep < -naf[j]; ++rep) neg = neg + p2;
      }
      p2 = mpint::shl(p2, 1);
    }
    EXPECT_EQ(pos - neg, mpint::resize<4>(k));
  }
}

TEST(WnafTest, MulMatchesBinary) {
  const auto ctx = pairing::make_ss256();
  Rng rng(7001);
  field::FpCtx<1> zr(ctx->order());
  for (int i = 0; i < 20; ++i) {
    const auto p = ctx->random_point(rng);
    const auto k = zr.random_uint(rng);
    EXPECT_EQ(ctx->curve().mul_wnaf(p, k), oracle::mul_binary(ctx->curve(), p, k)) << "iter " << i;
  }
  // Edge cases.
  const auto p = ctx->random_point(rng);
  EXPECT_TRUE(ctx->curve().mul_wnaf(p, mpint::UInt<1>::zero()).inf);
  EXPECT_EQ(ctx->curve().mul_wnaf(p, mpint::UInt<1>::from_u64(1)), p);
  EXPECT_TRUE(ctx->curve().mul_wnaf(ctx->curve().infinity(), mpint::UInt<1>::from_u64(5)).inf);
}

// ---- fixed-base precomputation ------------------------------------------------------

template <group::BilinearGroup GG>
void fixed_pow_battery(const GG& gg, std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto base_g = gg.g_random(rng);
  const auto base_t = gg.gt_random(rng);
  group::FixedPowG<GG> fg(gg, base_g);
  group::FixedPowGT<GG> ft(gg, base_t);
  for (int i = 0; i < iters; ++i) {
    const auto e = gg.sc_random(rng);
    EXPECT_TRUE(gg.g_eq(fg.pow(gg, e), gg.g_pow(base_g, e)));
    EXPECT_TRUE(gg.gt_eq(ft.pow(gg, e), gg.gt_pow(base_t, e)));
  }
  EXPECT_TRUE(gg.g_is_id(fg.pow(gg, gg.sc_from_u64(0))));
  EXPECT_TRUE(gg.g_eq(fg.pow(gg, gg.sc_from_u64(1)), base_g));
}

TEST(FixedPowTest, MatchesPlainPowMock) { fixed_pow_battery(make_mock(), 7100, 100); }
TEST(FixedPowTest, MatchesPlainPowTate) { fixed_pow_battery(make_tate_ss256(), 7101, 5); }

TEST(FixedPowTest, PrecomputedEncryptionDecrypts) {
  using Core = schemes::DlrCore<MockGroup>;
  const auto gg = make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
  auto sys = schemes::DlrSystem<MockGroup>::create(gg, prm, schemes::P1Mode::Plain, 7200);
  const typename Core::PkTable tbl(gg, sys.pk());
  Rng rng(7201);
  for (int i = 0; i < 20; ++i) {
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc_precomp(gg, tbl, m, rng);
    EXPECT_TRUE(gg.gt_eq(sys.decrypt(c), m));
  }
}

// ---- ct_multi_pow agrees with the naive ct_pow/ct_mul chain ---------------------------

TEST(CtMultiPowTest, MatchesNaiveChain) {
  const auto gg = make_mock();
  schemes::HpskeG<MockGroup> hg(gg, 4);
  Rng rng(7300);
  const auto sk = hg.gen(rng);
  std::vector<typename schemes::HpskeG<MockGroup>::Ciphertext> cts;
  std::vector<std::uint64_t> ks;
  for (int i = 0; i < 6; ++i) {
    cts.push_back(hg.enc(sk, gg.g_random(rng), rng));
    ks.push_back(gg.sc_random(rng));
  }
  auto naive = hg.ct_one();
  for (int i = 0; i < 6; ++i) naive = hg.ct_mul(naive, hg.ct_pow(cts[i], ks[i]));
  EXPECT_TRUE(hg.ct_multi_pow(cts, ks) == naive);
  // Size mismatch rejected.
  ks.pop_back();
  EXPECT_THROW((void)hg.ct_multi_pow(cts, ks), std::invalid_argument);
}

// Helper mirroring leakage::extract_bits without pulling the header in.
Bytes leakage_window(const Bytes& src, std::size_t bit_offset, std::size_t nbits) {
  Bytes out((nbits + 7) / 8, 0);
  const std::size_t total = 8 * src.size();
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::size_t pos = (bit_offset + i) % total;
    if ((src[pos / 8] >> (pos % 8)) & 1) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return out;
}

// ---- compact-mode sk_comm accumulation attack (the compact analogue of F3) ------------

// In compact mode P1's secret is sk_comm alone, and Enc'_{sk_comm}(sk1) is
// *public*. If sk_comm never rotated, window-leaking it across periods would
// eventually reveal sk1 wholesale. This test mounts exactly that attack
// against (a) a no-refresh system -- succeeds -- and (b) the real refreshed
// system, where sk_comm rotates every period -- fails.
TEST(CompactAttackTest, SkcommAccumulationSeparation) {
  using Core = schemes::DlrCore<MockGroup>;
  const auto gg = make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
  const std::size_t skcomm_bits = 8 * prm.kappa * gg.sc_bytes();
  const std::size_t window = prm.lambda;  // legal per-period budget
  const std::size_t periods = (skcomm_bits + window - 1) / window + 1;

  for (const bool refresh : {false, true}) {
    auto sys =
        schemes::DlrSystem<MockGroup>::create(gg, prm, schemes::P1Mode::Compact, 7400);
    Rng rng(7401);
    Bytes acc((skcomm_bits + 7) / 8, 0);
    std::vector<bool> have(skcomm_bits, false);
    for (std::size_t t = 0; t < periods; ++t) {
      // Run a period's decryption so sigma/f state is live.
      const auto c = Core::enc(gg, sys.pk(), gg.gt_random(rng), rng);
      (void)sys.decrypt(c);
      // Leak a lambda-bit window of P1's secret memory. Layout: 8-byte blob
      // length, then sigma (kappa scalars).
      const auto snap = sys.p1().normal_snapshot().all();
      const std::size_t start = (t * window) % skcomm_bits;
      const std::size_t take = std::min(window, skcomm_bits - start);
      const auto leak = leakage_window(snap, 64 + start, take);
      for (std::size_t i = 0; i < take; ++i) {
        const bool bit = (leak[i / 8] >> (i % 8)) & 1;
        if (bit) acc[(start + i) / 8] |= static_cast<std::uint8_t>(1u << ((start + i) % 8));
        have[start + i] = true;
      }
      if (refresh) sys.refresh();
    }
    bool complete = true;
    for (const bool h : have) complete = complete && h;
    ASSERT_TRUE(complete);

    // Try to use the accumulated sk_comm with the PUBLIC encrypted share.
    bool broke = false;
    try {
      ByteReader r(acc);
      typename schemes::HpskeG<MockGroup>::SecretKey sigma;
      for (std::size_t i = 0; i < prm.kappa; ++i) sigma.s.push_back(gg.sc_deser(r));
      schemes::HpskeG<MockGroup> hg(gg, prm.kappa);
      typename Core::Sk1 sk1;
      for (const auto& ct : sys.p1().encrypted_share()) sk1.a.push_back(hg.dec(sigma, ct));
      // The attack also needs Phi; in compact mode it is the last stored ct.
      // Recover via the test helper and compare against ground truth.
      const auto truth = sys.p1().recover_share_for_test();
      broke = gg.g_eq(sk1.a[0], truth.a[0]);
    } catch (const std::exception&) {
      broke = false;
    }
    if (refresh) {
      EXPECT_FALSE(broke) << "sk_comm rotation must invalidate accumulated bits";
    } else {
      EXPECT_TRUE(broke) << "without rotation the accumulated sk_comm must work";
    }
  }
}

}  // namespace
}  // namespace dlr
