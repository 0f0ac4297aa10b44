#pragma once
// Raw binary I/O for volumes and projection stacks, plus 8-bit PGM slice
// export for visual inspection (the role 3D Slicer plays in the paper's
// Fig. 11 assessment).
//
// File format: a 64-byte header (magic, dtype, extents, band origin) then
// little-endian float32 payload in the container's native layout.
//
// Readers validate the header extents and the exact on-disk size before
// touching the payload: a truncated or size-mismatched file fails with a
// file:line-bearing error instead of reading short (DESIGN.md §3f).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>

#include "core/volume.hpp"

namespace xct::io {

/// The one `.xvol` write path: streams a volume into `path` slab by slab,
/// so no caller has to hold the whole volume (Algorithm 3's store stage on
/// the host).  Slabs go into `<path>.tmp` at their final offsets with
/// pwrite, so group roots may write disjoint z ranges concurrently.
/// commit() checks that the writes added up to the volume's slice count,
/// writes the header and renames the temp file onto `path`, so a reader
/// never sees a partial volume.  Destroying an uncommitted writer removes
/// the temp file.
class VolumeWriter {
public:
    /// Creates `<path>.tmp` (and parent directories) for a volume of `size`.
    VolumeWriter(std::filesystem::path path, Dim3 size);
    ~VolumeWriter();
    VolumeWriter(const VolumeWriter&) = delete;
    VolumeWriter& operator=(const VolumeWriter&) = delete;

    /// Write `slab` as slices [z0, z0 + slab.size().z).  Thread-safe for
    /// disjoint ranges.
    void write(index_t z0, const Volume& slab);

    /// Publish the volume; throws unless the writes added up to exactly
    /// size().z slices.
    void commit();

private:
    std::filesystem::path path_;
    std::filesystem::path tmp_;
    Dim3 size_;
    int fd_ = -1;
    std::atomic<index_t> slices_written_{0};
    bool committed_ = false;
};

/// Write a whole volume to `path` (one VolumeWriter slab).
void write_volume(const std::filesystem::path& path, const Volume& v);

/// Read a volume written by write_volume.
Volume read_volume(const std::filesystem::path& path);

/// Partial read: only slices `slices` (half-open, must lie inside the
/// stored extents) of a volume file, after the same magic, extent and
/// exact-size checks as read_volume.  Slice k of the result is stored
/// slice slices.lo + k.
Volume read_volume_slices(const std::filesystem::path& path, Range slices);

/// Write a projection stack (including its band origin).
void write_stack(const std::filesystem::path& path, const ProjectionStack& p);

/// Read a stack written by write_stack.
ProjectionStack read_stack(const std::filesystem::path& path);

/// Metadata of a stack file without reading the payload.
struct StackInfo {
    index_t views = 0;
    Range band{};
    index_t cols = 0;
};
StackInfo stack_info(const std::filesystem::path& path);

/// Partial read: only detector rows `band` of views `views` (global
/// coordinates; both must lie inside the stored extents).  Seeks to each
/// view's band and reads exactly the requested bytes — the O(Nu)
/// input-granularity that Table 2 credits the decomposition with.
ProjectionStack read_stack_rows(const std::filesystem::path& path, Range views, Range band);

/// Export one z-slice of a volume as an 8-bit PGM image, windowed to
/// [lo, hi] (values clamped).  Pass lo == hi to auto-window to the slice's
/// min/max.
void write_pgm_slice(const std::filesystem::path& path, const Volume& v, index_t k, float lo = 0.0f,
                     float hi = 0.0f);

/// Versioned checkpoint slab container (faults::CheckpointStore): 64-byte
/// header — magic "XCTCKP2", extents, payload xxh64 digest — then float
/// payload.  read_checkpoint_slab validates magic, extents and exact file
/// size (so a truncated or half-written slab throws instead of being
/// trusted) and returns the stored digest for the caller to verify
/// against the payload.
struct CheckpointSlab {
    Volume volume;
    std::uint64_t digest = 0;  ///< payload digest recorded at save time
};
void write_checkpoint_slab(const std::filesystem::path& path, const Volume& v,
                           std::uint64_t payload_digest);
CheckpointSlab read_checkpoint_slab(const std::filesystem::path& path);

}  // namespace xct::io
