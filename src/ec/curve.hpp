// The supersingular curve E: y^2 = x^3 + x over F_q (q == 3 mod 4), i.e. the
// PBC "type A" curve with a = 1, b = 0. #E(F_q) = q + 1, and the pairing
// group G is the order-r subgroup where r | q + 1.
//
// Points are kept in affine coordinates at API boundaries (they serialize and
// compare cheaply) and in Jacobian coordinates inside scalar multiplication.
#pragma once

#include <span>
#include <vector>

#include "field/fp.hpp"

namespace dlr::ec {

using mpint::UInt;

/// Affine point; (x, y) in Montgomery form, or the point at infinity.
template <std::size_t L>
struct AffinePoint {
  UInt<L> x{};
  UInt<L> y{};
  bool inf = true;
  bool operator==(const AffinePoint&) const = default;
};

/// Jacobian point (X : Y : Z), x = X/Z^2, y = Y/Z^3; Z == 0 encodes infinity.
template <std::size_t L>
struct JacPoint {
  UInt<L> X{};
  UInt<L> Y{};
  UInt<L> Z{};
};

template <std::size_t L>
class CurveCtx {
 public:
  using Fp = field::FpCtx<L>;
  using A = AffinePoint<L>;
  using J = JacPoint<L>;

  explicit CurveCtx(const Fp& fp) : fp_(fp) {}

  [[nodiscard]] const Fp& fp() const { return fp_; }

  [[nodiscard]] A infinity() const { return A{}; }

  [[nodiscard]] bool is_on_curve(const A& p) const {
    if (p.inf) return true;
    // y^2 == x^3 + x
    const auto lhs = fp_.sqr(p.y);
    const auto rhs = fp_.add(fp_.mul(fp_.sqr(p.x), p.x), p.x);
    return fp_.eq(lhs, rhs);
  }

  [[nodiscard]] J to_jac(const A& p) const {
    if (p.inf) return J{fp_.one(), fp_.one(), fp_.zero()};
    return J{p.x, p.y, fp_.one()};
  }

  [[nodiscard]] A to_affine(const J& p) const {
    if (fp_.is_zero(p.Z)) return A{};
    const auto zinv = fp_.inv(p.Z);
    const auto zinv2 = fp_.sqr(zinv);
    return A{fp_.mul(p.X, zinv2), fp_.mul(p.Y, fp_.mul(zinv2, zinv)), false};
  }

  [[nodiscard]] J dbl(const J& p) const {
    if (fp_.is_zero(p.Z) || fp_.is_zero(p.Y)) return J{fp_.one(), fp_.one(), fp_.zero()};
    const auto y2 = fp_.sqr(p.Y);
    const auto s = fp_.dbl(fp_.dbl(fp_.mul(p.X, y2)));            // 4XY^2
    const auto z2 = fp_.sqr(p.Z);
    const auto x2 = fp_.sqr(p.X);
    const auto m = fp_.add(fp_.add(x2, fp_.dbl(x2)), fp_.sqr(z2));  // 3X^2 + Z^4 (a = 1)
    const auto x3 = fp_.sub(fp_.sqr(m), fp_.dbl(s));
    const auto y4 = fp_.sqr(y2);
    const auto y3 = fp_.sub(fp_.mul(m, fp_.sub(s, x3)), fp_.dbl(fp_.dbl(fp_.dbl(y4))));
    const auto z3 = fp_.dbl(fp_.mul(p.Y, p.Z));
    return J{x3, y3, z3};
  }

  [[nodiscard]] J add(const J& p, const J& q) const {
    if (fp_.is_zero(p.Z)) return q;
    if (fp_.is_zero(q.Z)) return p;
    const auto z1z1 = fp_.sqr(p.Z);
    const auto z2z2 = fp_.sqr(q.Z);
    const auto u1 = fp_.mul(p.X, z2z2);
    const auto u2 = fp_.mul(q.X, z1z1);
    const auto s1 = fp_.mul(p.Y, fp_.mul(z2z2, q.Z));
    const auto s2 = fp_.mul(q.Y, fp_.mul(z1z1, p.Z));
    const auto h = fp_.sub(u2, u1);
    const auto r = fp_.sub(s2, s1);
    if (fp_.is_zero(h)) {
      if (fp_.is_zero(r)) return dbl(p);
      return J{fp_.one(), fp_.one(), fp_.zero()};
    }
    const auto h2 = fp_.sqr(h);
    const auto h3 = fp_.mul(h2, h);
    const auto u1h2 = fp_.mul(u1, h2);
    const auto x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.dbl(u1h2));
    const auto y3 = fp_.sub(fp_.mul(r, fp_.sub(u1h2, x3)), fp_.mul(s1, h3));
    const auto z3 = fp_.mul(fp_.mul(p.Z, q.Z), h);
    return J{x3, y3, z3};
  }

  /// Mixed Jacobian + affine addition (q.Z == 1 implicitly): 8M + 3S vs
  /// 12M + 4S for the general add. The payoff of keeping precomputation
  /// tables in affine coordinates.
  [[nodiscard]] J add_mixed(const J& p, const A& q) const {
    if (q.inf) return p;
    if (fp_.is_zero(p.Z)) return to_jac(q);
    const auto z1z1 = fp_.sqr(p.Z);
    const auto u2 = fp_.mul(q.x, z1z1);
    const auto s2 = fp_.mul(q.y, fp_.mul(z1z1, p.Z));
    const auto h = fp_.sub(u2, p.X);
    const auto r = fp_.sub(s2, p.Y);
    if (fp_.is_zero(h)) {
      if (fp_.is_zero(r)) return dbl(p);
      return J{fp_.one(), fp_.one(), fp_.zero()};
    }
    const auto h2 = fp_.sqr(h);
    const auto h3 = fp_.mul(h2, h);
    const auto v = fp_.mul(p.X, h2);
    const auto x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.dbl(v));
    const auto y3 = fp_.sub(fp_.mul(r, fp_.sub(v, x3)), fp_.mul(p.Y, h3));
    const auto z3 = fp_.mul(p.Z, h);
    return J{x3, y3, z3};
  }

  /// Normalize a batch of Jacobian points with ONE field inversion
  /// (Montgomery's simultaneous-inversion trick) instead of one per point.
  /// Infinity entries pass through.
  [[nodiscard]] std::vector<A> batch_to_affine(std::span<const J> ps) const {
    std::vector<A> out(ps.size());
    std::vector<UInt<L>> zs;
    std::vector<std::size_t> idx;
    zs.reserve(ps.size());
    idx.reserve(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (fp_.is_zero(ps[i].Z)) continue;  // out[i] stays infinity
      zs.push_back(ps[i].Z);
      idx.push_back(i);
    }
    fp_.batch_inv(zs);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const auto& p = ps[idx[j]];
      const auto zinv2 = fp_.sqr(zs[j]);
      out[idx[j]] = A{fp_.mul(p.X, zinv2), fp_.mul(p.Y, fp_.mul(zinv2, zs[j])), false};
    }
    return out;
  }

  [[nodiscard]] A add(const A& p, const A& q) const {
    return to_affine(add(to_jac(p), to_jac(q)));
  }

  [[nodiscard]] A neg(const A& p) const {
    if (p.inf) return p;
    return A{p.x, fp_.neg(p.y), false};
  }

  template <std::size_t LE>
  [[nodiscard]] A mul(const A& p, const UInt<LE>& k) const {
    return mul_wnaf(p, k);
  }

  /// Width-4 wNAF scalar multiplication: ~b doublings + b/5 additions using
  /// 8 precomputed odd multiples (vs b/2 additions for binary).
  template <std::size_t LE>
  [[nodiscard]] A mul_wnaf(const A& p, const UInt<LE>& k) const {
    if (p.inf || k.is_zero()) return A{};
    constexpr int kW = 4;
    const auto naf = wnaf_digits(k, kW);
    // Precompute the odd multiples P, 3P, 5P, 7P (negatives come free).
    std::array<J, 4> odd;
    odd[0] = to_jac(p);
    const J twop = dbl(odd[0]);
    for (int i = 1; i < 4; ++i) odd[i] = add(odd[i - 1], twop);
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t i = naf.size(); i-- > 0;) {
      acc = dbl(acc);
      const int d = naf[i];
      if (d > 0) acc = add(acc, odd[(d - 1) / 2]);
      if (d < 0) acc = add(acc, neg_jac(odd[(-d - 1) / 2]));
    }
    return to_affine(acc);
  }

  /// Interleaved multi-scalar multiplication (Strauss): computes
  /// sum_i [k_i] P_i with one shared doubling chain -- the workhorse of the
  /// prod a_i^{s_i} masks in Pi_ss / HPSKE.
  ///
  /// Per-base width-3 wNAF (digits +-1, +-3) halves the addition count of the
  /// binary interleaving; the odd-multiple tables live in affine coordinates
  /// (the 3P entries are normalized together with ONE batch inversion), so
  /// every table addition is a cheap mixed add.
  template <std::size_t LE>
  [[nodiscard]] A multi_mul(std::span<const A> points, std::span<const UInt<LE>> ks) const {
    if (points.size() != ks.size())
      throw std::invalid_argument("CurveCtx::multi_mul: size mismatch");
    std::vector<std::vector<int>> nafs;
    std::vector<const A*> act;
    std::size_t nmax = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].inf || ks[i].is_zero()) continue;
      nafs.push_back(mpint::wnaf_digits(ks[i], 3));
      act.push_back(&points[i]);
      nmax = std::max(nmax, nafs.back().size());
    }
    if (act.empty()) return A{};
    std::vector<J> threes;
    threes.reserve(act.size());
    for (const A* p : act) threes.push_back(add_mixed(dbl(to_jac(*p)), *p));
    const auto threes_aff = batch_to_affine(threes);
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t i = nmax; i-- > 0;) {
      acc = dbl(acc);
      for (std::size_t j = 0; j < act.size(); ++j) {
        if (i >= nafs[j].size()) continue;
        const int d = nafs[j][i];
        if (d == 0) continue;
        const A& t = (d == 1 || d == -1) ? *act[j] : threes_aff[j];
        acc = add_mixed(acc, d > 0 ? t : neg(t));
      }
    }
    return to_affine(acc);
  }

  /// [k]P for every P in ps, bit-identical to mul(p, k): an x-only
  /// Montgomery ladder (5M + 4S per bit) with Okeya-Sakurai y-recovery, the
  /// denominators of all points (Z of [k]P and [k+1]P, 2y_P) sharing ONE
  /// batched inversion.
  template <std::size_t LE>
  [[nodiscard]] std::vector<A> mul_ladder_many(std::span<const A> ps, const UInt<LE>& k) const {
    std::vector<A> out(ps.size());  // infinity unless set below
    std::vector<Ladder> ls(ps.size());
    std::vector<UInt<L>> dens;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const A& p = ps[i];
      if (p.inf || k.is_zero()) continue;
      // (0, 0) is the only 2-torsion point (x^2 + 1 is irreducible); x-only
      // differential addition degenerates on it, and [k](0,0) is immediate.
      if (fp_.is_zero(p.y)) {
        if (k.is_odd()) out[i] = p;
        continue;
      }
      ls[i] = ladder(p.x, k);
      if (fp_.is_zero(ls[i].Z0)) continue;  // [k]P = O
      if (fp_.is_zero(ls[i].Z1)) {          // [k+1]P = O, so [k]P = -P
        out[i] = neg(p);
        continue;
      }
      idx.push_back(i);
      dens.insert(dens.end(), {ls[i].Z0, ls[i].Z1, fp_.dbl(p.y)});
    }
    fp_.batch_inv(dens);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const A& p = ps[idx[j]];
      const Ladder& l = ls[idx[j]];
      // Q = [k]P, R = [k+1]P = Q + P:
      //   y_Q = ((x_Q x_P + 1)(x_Q + x_P) - (x_Q - x_P)^2 x_R) / (2 y_P).
      const auto xq = fp_.mul(l.X0, dens[3 * j]);
      const auto xr = fp_.mul(l.X1, dens[3 * j + 1]);
      const auto lhs = fp_.mul(fp_.add(fp_.mul(xq, p.x), fp_.one()), fp_.add(xq, p.x));
      const auto num = fp_.sub(lhs, fp_.mul(fp_.sqr(fp_.sub(xq, p.x)), xr));
      out[idx[j]] = A{xq, fp_.mul(num, dens[3 * j + 2]), false};
    }
    return out;
  }

  /// Lift an x-coordinate (Montgomery form) to the point with y odd iff
  /// y_odd, if x^3 + x is square.
  [[nodiscard]] std::optional<A> lift_x(const UInt<L>& x, bool y_odd) const {
    const A p = lift_x_or_neg(x, y_odd);
    if (!fp_.eq(p.x, x)) return std::nullopt;
    return p;
  }

  /// The point over x or -x, whichever is on the curve, with y of the
  /// requested parity: one exponentiation, no rejection. For q == 3 (mod 4)
  /// and f(x) = x^3 + x, f(-x) = -f(x) and -1 is a non-square, so
  /// c = f(x)^((q+1)/4) has c^2 = f(x) or c^2 = f(-x).
  [[nodiscard]] A lift_x_or_neg(const UInt<L>& x, bool y_odd) const {
    const auto rhs = fp_.add(fp_.mul(fp_.sqr(x), x), x);
    const auto c = fp_.sqrt_or_neg(rhs);
    const auto y = fp_.to_uint(c).is_odd() == y_odd ? c : fp_.neg(c);
    return A{fp_.eq(fp_.sqr(c), rhs) ? x : fp_.neg(x), y, false};
  }

  [[nodiscard]] J neg_jac(const J& p) const { return J{p.X, fp_.neg(p.Y), p.Z}; }

  /// Non-adjacent form with window w (lives in mpint::wnaf_digits now; alias
  /// kept for existing call sites and tests).
  template <std::size_t LE>
  static std::vector<int> wnaf_digits(const UInt<LE>& k, int w) {
    return mpint::wnaf_digits(k, w);
  }

 private:
  /// x([k]P) = X0/Z0 and x([k+1]P) = X1/Z1 (Z = 0 is the point at infinity).
  struct Ladder {
    UInt<L> X0{}, Z0{}, X1{}, Z1{};
  };

  /// Montgomery ladder on x alone, k > 0, P not 2-torsion. Differential
  /// addition uses the affine difference x_P (Z = 1); doubling is the A = 0
  /// formula scaled by 2, so it needs no (A + 2)/4 constant:
  ///   t1 = (X+Z)^2, t2 = (X-Z)^2, t3 = t1 - t2,
  ///   X2 = 2 t1 t2,  Z2 = t3 (2 t2 + t3).
  template <std::size_t LE>
  [[nodiscard]] Ladder ladder(const UInt<L>& xp, const UInt<LE>& k) const {
    const auto xdbl = [&](UInt<L>& x, UInt<L>& z) {
      const auto t1 = fp_.sqr(fp_.add(x, z));
      const auto t2 = fp_.sqr(fp_.sub(x, z));
      const auto t3 = fp_.sub(t1, t2);
      x = fp_.dbl(fp_.mul(t1, t2));
      z = fp_.mul(t3, fp_.add(fp_.dbl(t2), t3));
    };
    // (x, z) <- (x, z) + (xo, zo), whose difference is P.
    const auto xadd = [&](UInt<L>& x, UInt<L>& z, const UInt<L>& xo, const UInt<L>& zo) {
      const auto u = fp_.mul(fp_.sub(x, z), fp_.add(xo, zo));
      const auto v = fp_.mul(fp_.add(x, z), fp_.sub(xo, zo));
      x = fp_.sqr(fp_.add(u, v));
      z = fp_.mul(xp, fp_.sqr(fp_.sub(u, v)));
    };
    Ladder l{xp, fp_.one(), xp, fp_.one()};
    xdbl(l.X1, l.Z1);
    for (std::size_t i = k.bit_length() - 1; i-- > 0;) {
      if (k.bit(i)) {
        xadd(l.X0, l.Z0, l.X1, l.Z1);
        xdbl(l.X1, l.Z1);
      } else {
        xadd(l.X1, l.Z1, l.X0, l.Z0);
        xdbl(l.X0, l.Z0);
      }
    }
    return l;
  }

  Fp fp_;
};

}  // namespace dlr::ec
