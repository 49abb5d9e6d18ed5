// Reference arithmetic the fast paths are differentially tested against:
// plain square-and-multiply in F_p and MSB-first double-and-add on the curve.
// Slow and obviously correct; no library code calls them.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "ec/curve.hpp"

namespace dlr::oracle {

/// a^e by binary square-and-multiply.
template <std::size_t L, std::size_t LE>
mpint::UInt<L> pow_binary(const field::FpCtx<L>& fp, const mpint::UInt<L>& a,
                          const mpint::UInt<LE>& e) {
  auto result = fp.one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = fp.sqr(result);
    if (e.bit(i)) result = fp.mul(result, a);
  }
  return result;
}

/// [k]P by MSB-first double-and-add in Jacobian coordinates.
template <std::size_t L, std::size_t LE>
ec::AffinePoint<L> mul_binary(const ec::CurveCtx<L>& cv, const ec::AffinePoint<L>& p,
                              const mpint::UInt<LE>& k) {
  const auto& fp = cv.fp();
  ec::JacPoint<L> acc{fp.one(), fp.one(), fp.zero()};
  const auto base = cv.to_jac(p);
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = cv.dbl(acc);
    if (k.bit(i)) acc = cv.add(acc, base);
  }
  return cv.to_affine(acc);
}

/// sum_i [k_i] P_i by binary interleaving with general Jacobian additions.
template <std::size_t L, std::size_t LE>
ec::AffinePoint<L> multi_mul_binary(const ec::CurveCtx<L>& cv,
                                    std::span<const ec::AffinePoint<L>> points,
                                    std::span<const mpint::UInt<LE>> ks) {
  if (points.size() != ks.size()) throw std::invalid_argument("multi_mul_binary: size mismatch");
  const auto& fp = cv.fp();
  std::size_t nbits = 0;
  for (const auto& k : ks) nbits = std::max(nbits, k.bit_length());
  std::vector<ec::JacPoint<L>> bases;
  bases.reserve(points.size());
  for (const auto& p : points) bases.push_back(cv.to_jac(p));
  ec::JacPoint<L> acc{fp.one(), fp.one(), fp.zero()};
  for (std::size_t i = nbits; i-- > 0;) {
    acc = cv.dbl(acc);
    for (std::size_t j = 0; j < bases.size(); ++j)
      if (ks[j].bit(i)) acc = cv.add(acc, bases[j]);
  }
  return cv.to_affine(acc);
}

}  // namespace dlr::oracle
