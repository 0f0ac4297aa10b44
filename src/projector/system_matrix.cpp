#include "projector/system_matrix.hpp"

#include <cmath>

#include "core/parallel.hpp"

namespace xct::projector {

void SparseOp::append_row(std::span<const index_t> cols, std::span<const float> vals)
{
    require(cols.size() == vals.size(), "SparseOp::append_row: size mismatch");
    require(static_cast<index_t>(row_ptr_.size()) <= rows_, "SparseOp::append_row: too many rows");
    for (index_t c : cols) require(c >= 0 && c < cols_, "SparseOp::append_row: column out of range");
    col_.insert(col_.end(), cols.begin(), cols.end());
    val_.insert(val_.end(), vals.begin(), vals.end());
    row_ptr_.push_back(static_cast<index_t>(col_.size()));
}

std::vector<float> SparseOp::apply(std::span<const float> x) const
{
    require(static_cast<index_t>(x.size()) == cols_, "SparseOp::apply: size mismatch");
    require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1, "SparseOp::apply: matrix incomplete");
    std::vector<float> y(static_cast<std::size_t>(rows_), 0.0f);
    parallel::parallel_for(rows_, 64, [&](index_t r, std::size_t) {
        float acc = 0.0f;
        for (index_t e = row_ptr_[static_cast<std::size_t>(r)];
             e < row_ptr_[static_cast<std::size_t>(r) + 1]; ++e)
            acc += val_[static_cast<std::size_t>(e)] *
                   x[static_cast<std::size_t>(col_[static_cast<std::size_t>(e)])];
        y[static_cast<std::size_t>(r)] = acc;
    });
    return y;
}

std::vector<float> SparseOp::apply_transpose(std::span<const float> x) const
{
    require(static_cast<index_t>(x.size()) == rows_, "SparseOp::apply_transpose: size mismatch");
    require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
            "SparseOp::apply_transpose: matrix incomplete");
    std::vector<float> y(static_cast<std::size_t>(cols_), 0.0f);
    for (index_t r = 0; r < rows_; ++r)
        for (index_t e = row_ptr_[static_cast<std::size_t>(r)];
             e < row_ptr_[static_cast<std::size_t>(r) + 1]; ++e)
            y[static_cast<std::size_t>(col_[static_cast<std::size_t>(e)])] +=
                val_[static_cast<std::size_t>(e)] * x[static_cast<std::size_t>(r)];
    return y;
}

SparseOp build_backprojection_matrix(const CbctGeometry& g)
{
    g.validate();
    const index_t nvox = g.vol.count();
    const index_t nsamp = g.num_proj * g.nv * g.nu;
    require(4 * nvox * g.num_proj < (index_t{1} << 28),
            "build_backprojection_matrix: problem too large for an explicit matrix "
            "(this is the paper's O(N^5) point — use the matrix-free kernels)");

    const auto mats = projection_matrices(g);
    SparseOp op(nvox, nsamp);
    std::vector<index_t> cols;
    std::vector<float> vals;
    for (index_t k = 0; k < g.vol.z; ++k)
        for (index_t j = 0; j < g.vol.y; ++j)
            for (index_t i = 0; i < g.vol.x; ++i) {
                cols.clear();
                vals.clear();
                for (index_t s = 0; s < g.num_proj; ++s) {
                    const Projected pr = project(mats[static_cast<std::size_t>(s)],
                                                 static_cast<double>(i), static_cast<double>(j),
                                                 static_cast<double>(k));
                    if (pr.z <= 0.0) continue;
                    const float x = static_cast<float>(pr.x);
                    const float y = static_cast<float>(pr.y);
                    if (x < 0.0f || x > static_cast<float>(g.nu - 1) || y < 0.0f ||
                        y > static_cast<float>(g.nv - 1))
                        continue;
                    const float w = static_cast<float>(1.0 / (pr.z * pr.z));
                    const index_t iu = static_cast<index_t>(std::floor(x));
                    const index_t iv = static_cast<index_t>(std::floor(y));
                    const float eu = x - static_cast<float>(iu);
                    const float ev = y - static_cast<float>(iv);
                    // Clamped bilinear footprint (matches sub_pixel()).
                    const index_t iu1 = std::min(iu + 1, g.nu - 1);
                    const index_t iv1 = std::min(iv + 1, g.nv - 1);
                    const auto add = [&](index_t u, index_t v, float wt) {
                        if (wt == 0.0f) return;
                        cols.push_back((s * g.nv + v) * g.nu + u);
                        vals.push_back(w * wt);
                    };
                    add(iu, iv, (1.0f - eu) * (1.0f - ev));
                    add(iu1, iv, eu * (1.0f - ev));
                    add(iu, iv1, (1.0f - eu) * ev);
                    add(iu1, iv1, eu * ev);
                }
                op.append_row(cols, vals);
            }
    return op;
}

}  // namespace xct::projector
