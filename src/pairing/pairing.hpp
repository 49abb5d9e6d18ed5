// Tate pairing on the type-A supersingular curve E: y^2 = x^3 + x over F_q,
// q == 3 (mod 4), with distortion map phi(x, y) = (-x, i*y) into E(F_{q^2}).
//
//   e(P, Q) = f_{r,P}(phi(Q)) ^ ((q^2 - 1)/r),   P, Q in G = E(F_q)[r]
//
// The Miller loop runs in Jacobian coordinates with denominator elimination:
// since q+1 = r*h, the final exponentiation (q^2-1)/r = (q-1)*h kills every
// F_q^* factor, so vertical lines and all line denominators are dropped.
// phi(Q) has x-coordinate in F_q and purely imaginary y-coordinate, making
// line evaluations cost only F_q multiplications.
//
// The final exponentiation uses f^(q-1) = conj(f)/f (Frobenius on F_{q^2} is
// conjugation) followed by an exponentiation by the cofactor h = (q+1)/r.
// GT is the order-r subgroup of F_{q^2}^*; its elements have norm 1, so
// inversion in GT is conjugation.
#pragma once

#include <memory>
#include <string>

#include "crypto/sha256.hpp"
#include "ec/curve.hpp"
#include "field/fp2.hpp"

namespace dlr::pairing {

using mpint::UInt;

/// Cofactors in this library fit in 12 limbs (SS1024's h is 768 bits).
using Cofactor = UInt<12>;

template <std::size_t LQ, std::size_t LR>
class PairingCtx {
 public:
  using Fq = field::FpCtx<LQ>;
  using Fq2 = field::Fp2Ctx<LQ>;
  using Curve = ec::CurveCtx<LQ>;
  using G = ec::AffinePoint<LQ>;   // source-group element
  using GT = field::Fp2E<LQ>;      // target-group element (norm-1, order r)

  PairingCtx(const UInt<LQ>& q, const UInt<LR>& r, const Cofactor& h, std::string name)
      : fq_(q), fq2_(fq_), curve_(fq_), r_(r), h_(h), name_(std::move(name)) {
    validate();
    gen_ = find_generator();
    gt_gen_ = pair(gen_, gen_);
    if (fq2_.eq(gt_gen_, fq2_.one()))
      throw std::logic_error("PairingCtx: degenerate pairing e(g, g) == 1");
  }

  [[nodiscard]] const Fq& fq() const { return fq_; }
  [[nodiscard]] const Fq2& fq2() const { return fq2_; }
  [[nodiscard]] const Curve& curve() const { return curve_; }
  [[nodiscard]] const UInt<LR>& order() const { return r_; }
  [[nodiscard]] const Cofactor& cofactor() const { return h_; }
  [[nodiscard]] const G& generator() const { return gen_; }
  [[nodiscard]] const GT& gt_generator() const { return gt_gen_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Group membership: on curve and killed by r.
  [[nodiscard]] bool in_group(const G& p) const {
    if (p.inf) return true;
    if (!curve_.is_on_curve(p)) return false;
    return curve_.mul(p, r_).inf;
  }

  /// Map a curve point of any order into the order-r subgroup.
  [[nodiscard]] G clear_cofactor(const G& p) const {
    return curve_.mul_ladder_many(std::span<const G>(&p, 1), h_)[0];
  }

  /// Uniform element of G sampled *without a known discrete log* (the paper's
  /// Section 5 remark requires the a_i and HPSKE coins to be sampled as raw
  /// group elements so their dlogs never enter secret memory).
  [[nodiscard]] G random_point(crypto::Rng& rng) const { return random_points(rng, 1)[0]; }

  /// n independent uniform elements of G. Each draw lifts a uniform x with a
  /// uniform y parity onto the curve (over x or -x, so every affine point of
  /// E(F_q) is equally likely), then clears the cofactor and rejects O: the
  /// image of a uniform point under [h] is uniform on G. The n ladders share
  /// one batched inversion.
  [[nodiscard]] std::vector<G> random_points(crypto::Rng& rng, std::size_t n) const {
    std::vector<G> out;
    out.reserve(n);
    while (out.size() < n) {
      std::vector<G> ps(n - out.size());
      for (auto& p : ps) {
        const auto x = fq_.random(rng);
        p = curve_.lift_x_or_neg(x, rng.coin());
      }
      for (const auto& g : curve_.mul_ladder_many(std::span<const G>(ps), h_))
        if (!g.inf) out.push_back(g);
    }
    return out;
  }

  /// Deterministic hash-to-group (used for the IBE's public matrix U).
  [[nodiscard]] G hash_to_point(const Bytes& data) const {
    for (std::uint32_t ctr = 0;; ++ctr) {
      ByteWriter w;
      w.str("dlr.h2g." + name_);
      w.blob(data);
      w.u32(ctr);
      const auto digest = crypto::kdf(w.bytes(), 8 * LQ, "dlr.h2g.kdf");
      auto v = UInt<LQ>::from_bytes(digest);
      const auto x = fq_.from_uint(mpint::mod(mpint::resize<2 * LQ>(v), fq_.modulus()));
      const auto p = curve_.lift_x(x, (digest[0] & 1) != 0);
      if (!p) continue;
      const auto g = clear_cofactor(*p);
      if (!g.inf) return g;
    }
  }

  /// Uniform element of GT without a known discrete log: x^((q-1)h) for
  /// uniform x in F_{q^2}^* surjects onto the order-r subgroup.
  [[nodiscard]] GT random_gt(crypto::Rng& rng) const {
    for (;;) {
      const auto x = fq2_.random_nonzero(rng);
      const auto y = gt_from_field(x);
      if (!fq2_.eq(y, fq2_.one())) return y;
    }
  }

  /// Project an arbitrary nonzero field element onto GT. The first factor
  /// u = x^(q-1) satisfies u^(q+1) = x^(q^2-1) = 1, i.e. it is norm-1, so the
  /// cofactor exponentiation may take the fast lane.
  [[nodiscard]] GT gt_from_field(const GT& x) const {
    const auto u = fq2_.mul(fq2_.conj(x), fq2_.inv(x));  // x^(q-1)
    return fq2_.pow_norm1(u, h_);
  }

  /// GT inversion: conjugation (elements have norm 1).
  [[nodiscard]] GT gt_inv(const GT& x) const { return fq2_.conj(x); }

  /// The Tate pairing, reduced (output in GT, e(P,Q)=1 iff P or Q infinite).
  [[nodiscard]] GT pair(const G& p, const G& q) const {
    if (p.inf || q.inf) return fq2_.one();
    const auto f = miller(p, q);
    return final_exp(f);
  }

  /// Miller function f_{r,P}(phi(Q)) before the final exponentiation.
  [[nodiscard]] GT miller(const G& p, const G& q) const {
    const auto& fq = fq_;
    // phi(Q) = (-xQ, i yQ): the line formulas below absorb the x-negation
    // (they are written in terms of xQ directly); yQ scales the imaginary
    // part of every line value.
    const auto yq = q.y;

    GT f = fq2_.one();
    ec::JacPoint<LQ> t = curve_.to_jac(p);
    const std::size_t nbits = r_.bit_length();
    for (std::size_t i = nbits - 1; i-- > 0;) {
      // --- doubling step: line value then T <- 2T (shares intermediates) ---
      {
        const auto y2 = fq.sqr(t.Y);
        const auto z2 = fq.sqr(t.Z);
        const auto x2 = fq.sqr(t.X);
        const auto m = fq.add(fq.add(x2, fq.dbl(x2)), fq.sqr(z2));  // 3X^2 + Z^4
        // line: real = -2Y^2 + m*(Z^2*xQ + X)
        const auto real = fq.sub(fq.mul(m, fq.add(fq.mul(z2, q.x), t.X)), fq.dbl(y2));
        const auto imag = fq.mul(fq.mul(fq.dbl(fq.mul(t.Y, t.Z)), z2), yq);  // Z3*Z^2*yQ
        const GT line{real, imag};
        f = fq2_.mul(fq2_.sqr(f), line);
        // T <- 2T
        const auto s = fq.dbl(fq.dbl(fq.mul(t.X, y2)));
        const auto x3 = fq.sub(fq.sqr(m), fq.dbl(s));
        const auto y3 = fq.sub(fq.mul(m, fq.sub(s, x3)), fq.dbl(fq.dbl(fq.dbl(fq.sqr(y2)))));
        const auto z3 = fq.dbl(fq.mul(t.Y, t.Z));
        t = {x3, y3, z3};
      }
      if (r_.bit(i)) {
        // --- mixed addition step: T <- T + P with line through T, P ---
        const auto z1z1 = fq.sqr(t.Z);
        const auto u2 = fq.mul(p.x, z1z1);
        const auto s2 = fq.mul(p.y, fq.mul(z1z1, t.Z));
        const auto hh = fq.sub(u2, t.X);
        const auto rr = fq.sub(s2, t.Y);
        if (fq.is_zero(hh)) {
          // T == +-P. For odd prime r this is the final vertical line
          // (T = -P, next T = infinity); the line x - xP lies in F_q and is
          // erased by the final exponentiation.
          if (!fq.is_zero(rr)) {
            t = {fq.one(), fq.one(), fq.zero()};
            continue;
          }
          throw std::logic_error("miller: unexpected doubling inside addition step");
        }
        const auto z3 = fq.mul(t.Z, hh);
        // line: real = -Z3*yP + R*(xQ + xP); imag = Z3*yQ  (negated overall
        // relative to the tangent convention -- an F_q^* factor, irrelevant).
        const auto real = fq.sub(fq.mul(rr, fq.add(q.x, p.x)), fq.mul(z3, p.y));
        const auto imag = fq.mul(z3, yq);
        const GT line{real, imag};
        f = fq2_.mul(f, line);
        const auto h2 = fq.sqr(hh);
        const auto h3 = fq.mul(h2, hh);
        const auto v = fq.mul(t.X, h2);
        const auto x3 = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
        const auto y3 = fq.sub(fq.mul(rr, fq.sub(v, x3)), fq.mul(t.Y, h3));
        t = {x3, y3, z3};
      }
    }
    return f;
  }

  /// f -> f^((q^2-1)/r) = (conj(f)/f)^h. Reference implementation (generic
  /// Fq2 inversion + square-and-multiply); the hot path uses final_exp_fast.
  [[nodiscard]] GT final_exp(const GT& f) const {
    const auto u = fq2_.mul(fq2_.conj(f), fq2_.inv(f));
    return fq2_.pow(u, h_);
  }

  /// Same map on the norm-1 fast lane: conj(f)/f = conj(f^2)/norm(f) needs
  /// only a base-field inversion (batchable -- see PreparedPairing), and the
  /// cofactor exponentiation of the norm-1 intermediate uses signed windows
  /// with free inversion plus cyclotomic-style squaring. Agrees with
  /// final_exp exactly.
  [[nodiscard]] GT final_exp_fast(const GT& f) const {
    const auto u = fq2_.scale(fq2_.conj(fq2_.sqr(f)), fq_.inv(fq2_.norm(f)));
    return fq2_.pow_norm1(u, h_);
  }

 private:
  void validate() const {
    // r * h == q + 1 (so the curve order q+1 contains the order-r subgroup
    // and the final exponentiation decomposes as (q-1)*h).
    const auto rh = mpint::mul_wide(mpint::resize<LQ>(r_), h_);  // UInt<LQ+12>
    const auto q1 = mpint::resize<LQ + 12>(fq_.modulus()) + mpint::UInt<LQ + 12>::from_u64(1);
    if (rh != q1) throw std::invalid_argument("PairingCtx: r*h != q+1");
    if ((fq_.modulus().limb[0] & 3) != 3)
      throw std::invalid_argument("PairingCtx: q != 3 mod 4");
  }

  [[nodiscard]] G find_generator() const {
    for (std::uint64_t xi = 1;; ++xi) {
      const auto x = fq_.from_uint(UInt<LQ>::from_u64(xi));
      const auto p = curve_.lift_x(x, false);
      if (!p) continue;
      const auto g = clear_cofactor(*p);
      if (g.inf) continue;
      if (!curve_.mul(g, r_).inf)
        throw std::logic_error("PairingCtx: cofactor-cleared point not killed by r");
      return g;
    }
  }

  Fq fq_;
  Fq2 fq2_;
  Curve curve_;
  UInt<LR> r_;
  Cofactor h_;
  std::string name_;
  G gen_{};
  GT gt_gen_{};
};

// ---- fixed-argument pairing -------------------------------------------------
//
// Every line the Miller loop multiplies into f has the shape
//
//   line(Q) = (c0 + cx * xQ) + (cy * yQ) i
//
// where c0/cx/cy depend only on P and the running point T -- not on Q. For a
// fixed first argument the whole loop over T can therefore run once,
// recording ~|r| coefficient triples; evaluating against a second argument
// then costs 3 F_q muls per step plus the shared-squaring chain, about 1/3 of
// a full Miller loop, and the final exponentiation rides the norm-1 fast
// lane. pair_many() additionally batches the per-evaluation base-field
// inversion (Montgomery simultaneous inversion), leaving ONE Fermat
// inversion for an entire ciphertext row.
//
// Outputs agree exactly with PairingCtx::pair: the recorded steps replay the
// same multiplication sequence, and final_exp_fast computes the same map as
// final_exp.

template <std::size_t LQ, std::size_t LR>
class PreparedPairing {
 public:
  using Ctx = PairingCtx<LQ, LR>;
  using G = typename Ctx::G;
  using GT = typename Ctx::GT;

  PreparedPairing(std::shared_ptr<const Ctx> ctx, const G& p)
      : ctx_(std::move(ctx)), inf_(p.inf) {
    if (!inf_) precompute(p);
  }

  /// e(P, q) for the fixed P.
  [[nodiscard]] GT pair(const G& q) const {
    if (inf_ || q.inf) return ctx_->fq2().one();
    return ctx_->final_exp_fast(miller_eval(q));
  }

  /// e(P, q_j) for many q_j, sharing one batched inversion across the final
  /// exponentiations.
  [[nodiscard]] std::vector<GT> pair_many(std::span<const G> qs) const {
    const auto& fq = ctx_->fq();
    const auto& f2 = ctx_->fq2();
    std::vector<GT> out(qs.size(), f2.one());
    if (inf_) return out;
    std::vector<GT> conj2;               // conj(m^2) per non-infinite q
    std::vector<UInt<LQ>> norms;         // norm(m) per non-infinite q
    std::vector<std::size_t> idx;
    conj2.reserve(qs.size());
    norms.reserve(qs.size());
    idx.reserve(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (qs[i].inf) continue;
      const GT m = miller_eval(qs[i]);
      conj2.push_back(f2.conj(f2.sqr(m)));
      norms.push_back(f2.norm(m));
      idx.push_back(i);
    }
    fq.batch_inv(norms);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const GT u = f2.scale(conj2[j], norms[j]);  // conj(m)/m, norm-1
      out[idx[j]] = f2.pow_norm1(u, ctx_->cofactor());
    }
    return out;
  }

  /// f_{r,P}(phi(q)) before the final exponentiation (bit-identical to
  /// PairingCtx::miller(P, q)).
  [[nodiscard]] GT miller_eval(const G& q) const {
    const auto& fq = ctx_->fq();
    const auto& f2 = ctx_->fq2();
    GT f = f2.one();
    for (const auto& s : steps_) {
      const GT line{fq.add(s.c0, fq.mul(s.cx, q.x)), fq.mul(s.cy, q.y)};
      f = s.dbl ? f2.mul(f2.sqr(f), line) : f2.mul(f, line);
    }
    return f;
  }

  [[nodiscard]] bool base_is_infinity() const { return inf_; }
  [[nodiscard]] std::size_t steps() const { return steps_.size(); }
  [[nodiscard]] const std::shared_ptr<const Ctx>& ctx() const { return ctx_; }

 private:
  struct Step {
    UInt<LQ> c0, cx, cy;  // line(Q) = (c0 + cx*xQ, cy*yQ)
    bool dbl;             // doubling step: square f before the line mul
  };

  // Replays PairingCtx::miller symbolically over Q: identical T-updates and
  // branch structure, with the Q-dependent factors left as coefficients.
  void precompute(const G& p) {
    const auto& fq = ctx_->fq();
    const auto& cv = ctx_->curve();
    const auto& r = ctx_->order();
    ec::JacPoint<LQ> t = cv.to_jac(p);
    const std::size_t nbits = r.bit_length();
    steps_.reserve(nbits + nbits / 2);
    for (std::size_t i = nbits - 1; i-- > 0;) {
      {
        const auto y2 = fq.sqr(t.Y);
        const auto z2 = fq.sqr(t.Z);
        const auto x2 = fq.sqr(t.X);
        const auto m = fq.add(fq.add(x2, fq.dbl(x2)), fq.sqr(z2));  // 3X^2 + Z^4
        steps_.push_back(Step{fq.sub(fq.mul(m, t.X), fq.dbl(y2)),        // c0
                              fq.mul(m, z2),                             // cx
                              fq.mul(fq.dbl(fq.mul(t.Y, t.Z)), z2),      // cy
                              true});
        const auto s = fq.dbl(fq.dbl(fq.mul(t.X, y2)));
        const auto x3 = fq.sub(fq.sqr(m), fq.dbl(s));
        const auto y3 =
            fq.sub(fq.mul(m, fq.sub(s, x3)), fq.dbl(fq.dbl(fq.dbl(fq.sqr(y2)))));
        const auto z3 = fq.dbl(fq.mul(t.Y, t.Z));
        t = {x3, y3, z3};
      }
      if (r.bit(i)) {
        const auto z1z1 = fq.sqr(t.Z);
        const auto u2 = fq.mul(p.x, z1z1);
        const auto s2 = fq.mul(p.y, fq.mul(z1z1, t.Z));
        const auto hh = fq.sub(u2, t.X);
        const auto rr = fq.sub(s2, t.Y);
        if (fq.is_zero(hh)) {
          if (!fq.is_zero(rr)) {
            t = {fq.one(), fq.one(), fq.zero()};
            continue;
          }
          throw std::logic_error("miller: unexpected doubling inside addition step");
        }
        const auto z3 = fq.mul(t.Z, hh);
        steps_.push_back(
            Step{fq.sub(fq.mul(rr, p.x), fq.mul(z3, p.y)), rr, z3, false});
        const auto h2 = fq.sqr(hh);
        const auto h3 = fq.mul(h2, hh);
        const auto v = fq.mul(t.X, h2);
        const auto x3 = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
        const auto y3 = fq.sub(fq.mul(rr, fq.sub(v, x3)), fq.mul(t.Y, h3));
        t = {x3, y3, z3};
      }
    }
  }

  std::shared_ptr<const Ctx> ctx_;
  bool inf_;
  std::vector<Step> steps_;
};

// ---- presets ----------------------------------------------------------------

/// Canonical PBC "a.param": |q| = 512, |r| = 160 (production-strength).
std::shared_ptr<const PairingCtx<8, 3>> make_ss512();

/// Reproduction-sized preset generated for this repo: |q| = 255, |r| = 64
/// (fast; NOT cryptographically strong -- tests and statistics only).
std::shared_ptr<const PairingCtx<4, 1>> make_ss256();

/// High-margin preset generated for this repo: |q| = 1024, |r| = 256
/// (comparable to PBC's a1-class sizes).
std::shared_ptr<const PairingCtx<16, 4>> make_ss1024();

}  // namespace dlr::pairing
