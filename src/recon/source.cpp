#include "recon/source.hpp"

#include <memory>

namespace xct::recon {

PhantomSource::PhantomSource(std::vector<phantom::Ellipsoid> ellipsoids, const CbctGeometry& g,
                             std::optional<BeerLawScalar> emit_counts)
    : ellipsoids_(std::move(ellipsoids)), geometry_(g), emit_counts_(emit_counts)
{
    geometry_.validate();
}

ProjectionStack PhantomSource::load(Range views, Range band)
{
    ProjectionStack p = phantom::forward_project(ellipsoids_, geometry_, views, band);
    if (emit_counts_) inverse_beer_law(p.span(), *emit_counts_);
    return p;
}

MemorySource::MemorySource(const ProjectionStack& full, bool counts) : full_(&full), counts_(counts)
{
}

ProjectionStack MemorySource::load(Range views, Range band)
{
    require(views.lo >= 0 && views.hi <= full_->views(), "MemorySource: views out of range");
    require(band.lo >= full_->row_begin() && band.hi <= full_->row_begin() + full_->rows(),
            "MemorySource: band outside resident rows");
    ProjectionStack out(views.length(), band, full_->cols());
    for (index_t s = views.lo; s < views.hi; ++s)
        for (index_t v = band.lo; v < band.hi; ++v) {
            const auto src = full_->row(s, v);
            const auto dst = out.row(s - views.lo, v);
            std::copy(src.begin(), src.end(), dst.begin());
        }
    return out;
}

PfsSource::PfsSource(io::Pfs& pfs, std::string rel, bool counts)
    : pfs_(&pfs), rel_(std::move(rel)), counts_(counts)
{
    require(pfs.exists(rel_), "PfsSource: no such stack: " + rel_);
}

ProjectionStack PfsSource::load(Range views, Range band)
{
    return pfs_->load_stack_rows(rel_, views, band);
}

SourceFactory make_shared_pfs_factory(io::Pfs& pfs, std::string rel, bool counts)
{
    // Pfs is internally thread-safe (atomic statistics; each load opens its
    // own stream), so the sources the factory hands out can share it with
    // no external locking.
    require(pfs.exists(rel), "make_shared_pfs_factory: no such stack: " + rel);
    return [&pfs, rel = std::move(rel), counts](RankId) -> std::unique_ptr<ProjectionSource> {
        return std::make_unique<PfsSource>(pfs, rel, counts);
    };
}

}  // namespace xct::recon
