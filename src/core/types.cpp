#include "core/types.hpp"

#include "core/simd.hpp"

namespace xct {

Mat34 multiply(const Mat34& a, const Mat44& b)
{
    Mat34 r;
    for (int i = 0; i < 3; ++i) {
        const Vec4& ar = a[i];
        const std::array<double, 4> av{ar.x, ar.y, ar.z, ar.w};
        std::array<double, 4> out{};
        for (int j = 0; j < 4; ++j) {
            double s = 0.0;
            for (int k = 0; k < 4; ++k)
                s += av[static_cast<std::size_t>(k)] * b.m[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
            out[static_cast<std::size_t>(j)] = s;
        }
        r[i] = Vec4{out[0], out[1], out[2], out[3]};
    }
    return r;
}

Mat44 multiply(const Mat44& a, const Mat44& b)
{
    Mat44 r;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < 4; ++k) s += a.m[i][k] * b.m[k][j];
            r.m[i][j] = s;
        }
    return r;
}

Extent extent_of(std::span<const float> xs)
{
    // x < lo ? x : lo and hi < x ? x : hi as a compare and a blend, not
    // min_ / max_, whose NaN and signed-zero rules differ by backend.
    simd::VecF lo = simd::splat(Extent{}.lo), hi = simd::splat(Extent{}.hi);
    std::size_t i = 0;
    for (; i + simd::kLanes <= xs.size(); i += simd::kLanes) {
        const simd::VecF x = simd::load(&xs[i]);
        lo = simd::blend(simd::cmp_gt(lo, x), x, lo);
        hi = simd::blend(simd::cmp_gt(x, hi), x, hi);
    }
    float los[simd::kLanes], his[simd::kLanes];
    simd::store(los, lo);
    simd::store(his, hi);
    Extent r;
    for (std::size_t l = 0; l < simd::kLanes; ++l) r.merge(Extent{los[l], his[l]});
    for (; i < xs.size(); ++i) r.add(xs[i]);
    if (r.lo == 0.0f || r.hi == 0.0f) {
        r = Extent{};
        for (const float x : xs) r.add(x);
    }
    return r;
}

}  // namespace xct
