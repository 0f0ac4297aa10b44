#include "io/raw_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace xct::io {
namespace {

constexpr std::array<char, 8> kVolMagic{'X', 'C', 'T', 'V', 'O', 'L', '1', '\0'};
constexpr std::array<char, 8> kStkMagic{'X', 'C', 'T', 'S', 'T', 'K', '1', '\0'};
/// The '2' is the checkpoint format version: version-1 slabs (plain
/// write_volume containers) are rejected on load and simply recomputed.
constexpr std::array<char, 8> kCkpMagic{'X', 'C', 'T', 'C', 'K', 'P', '2', '\0'};

/// The 64-byte header of every file here: magic, extents (meaning depends
/// on the magic), then one word the format owns — a stack's first resident
/// detector row, a checkpoint slab's payload digest.
struct Header {
    std::array<char, 8> magic{};
    std::int64_t d0 = 0, d1 = 0, d2 = 0;
    std::uint64_t word = 0;
    std::array<char, 24> reserved{};
};
static_assert(sizeof(Header) == 64);

// require() with the failing check's file:line in the message, so a
// rejected (truncated, size-mismatched, corrupt-header) file points at
// the exact validation that fired.
#define XCT_IO_STR2(x) #x
#define XCT_IO_STR(x) XCT_IO_STR2(x)
#define XCT_IO_REQUIRE(cond, msg) \
    require((cond), std::string(__FILE__ ":" XCT_IO_STR(__LINE__) ": ") + (msg))

/// Extents must be positive and small enough that the payload size cannot
/// overflow (2^20 per axis is far beyond the paper's 4096^3).
bool sane_extents(std::int64_t a, std::int64_t b, std::int64_t c)
{
    constexpr std::int64_t kMax = std::int64_t{1} << 20;
    return a > 0 && b > 0 && c > 0 && a <= kMax && b <= kMax && c <= kMax;
}

std::ofstream open_out(const std::filesystem::path& path)
{
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    require(f.good(), "io: cannot open for writing: " + path.string());
    return f;
}

/// Write a whole file: `h`, then `payload`.
void write_file(const std::filesystem::path& path, const Header& h,
                std::span<const float> payload, const char* what)
{
    auto f = open_out(path);
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size_bytes()));
    require(f.good(), std::string("io: ") + what + " write failed: " + path.string());
}

/// Open `path` and validate its header before any payload is touched:
/// the magic, the extents, and the exact on-disk size of header plus float
/// payload — a shorter file is truncated, a longer one is not the file the
/// header claims.
std::ifstream open_checked(const std::filesystem::path& path, const std::array<char, 8>& magic,
                           const char* what, Header& h)
{
    std::ifstream f(path, std::ios::binary);
    require(f.good(), "io: cannot open for reading: " + path.string());
    f.read(reinterpret_cast<char*>(&h), sizeof(h));
    XCT_IO_REQUIRE(f.good() && h.magic == magic,
                   std::string("io: not a ") + what + ": " + path.string());
    XCT_IO_REQUIRE(sane_extents(h.d0, h.d1, h.d2),
                   std::string("io: bad ") + what + " extents in " + path.string());
    const std::uint64_t expected =
        sizeof(Header) + static_cast<std::uint64_t>(h.d0 * h.d1 * h.d2) * sizeof(float);
    const std::uint64_t actual = static_cast<std::uint64_t>(std::filesystem::file_size(path));
    XCT_IO_REQUIRE(actual == expected,
                   "io: size mismatch (truncated or foreign file): " + path.string() + " holds " +
                       std::to_string(actual) + " bytes, header implies " +
                       std::to_string(expected));
    return f;
}

/// Fill `out` from byte `offset` of an open_checked stream.
void read_payload(std::ifstream& f, std::span<float> out, std::uint64_t offset,
                  const std::filesystem::path& path)
{
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size_bytes()));
    XCT_IO_REQUIRE(f.good(), "io: truncated file: " + path.string());
}

/// A stack file's header, with its band origin checked.
std::ifstream open_stack(const std::filesystem::path& path, StackInfo& info)
{
    Header h;
    auto f = open_checked(path, kStkMagic, "stack file", h);
    const auto row0 = static_cast<std::int64_t>(h.word);
    XCT_IO_REQUIRE(row0 >= 0, "io: bad stack band origin in " + path.string());
    info = StackInfo{h.d0, Range{row0, row0 + h.d1}, h.d2};
    return f;
}

/// pwrite `bytes` at `offset`, resuming after short writes and EINTR.
void pwrite_all(int fd, const void* data, std::size_t bytes, std::uint64_t offset,
                const std::filesystem::path& path)
{
    const char* p = static_cast<const char*>(data);
    while (bytes > 0) {
        const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
        if (n < 0 && errno == EINTR) continue;
        require(n > 0, "io: volume write failed: " + path.string() + ": " + std::strerror(errno));
        p += n;
        bytes -= static_cast<std::size_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
}

}  // namespace

VolumeWriter::VolumeWriter(std::filesystem::path path, Dim3 size)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp"), size_(size)
{
    // Atomic publish: a run killed (or a daemon SIGKILLed) mid-write leaves
    // at worst a .tmp orphan — never a truncated .xvol that read_volume's
    // size check would have to catch downstream, and never a torn file
    // under a concurrent reader.
    require(sane_extents(size.x, size.y, size.z),
            "VolumeWriter: bad extents for " + path_.string());
    if (path_.has_parent_path()) std::filesystem::create_directories(path_.parent_path());
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    require(fd_ >= 0,
            "io: cannot open for writing: " + tmp_.string() + ": " + std::strerror(errno));
}

VolumeWriter::~VolumeWriter()
{
    if (fd_ >= 0) ::close(fd_);
    std::error_code ec;
    if (!committed_) std::filesystem::remove(tmp_, ec);
}

void VolumeWriter::write(index_t z0, const Volume& slab)
{
    const Dim3 d = slab.size();
    require(fd_ >= 0, "VolumeWriter: write after commit: " + path_.string());
    require(d.x == size_.x && d.y == size_.y && z0 >= 0 && z0 + d.z <= size_.z,
            "VolumeWriter: slab of slices [" + std::to_string(z0) + ", " +
                std::to_string(z0 + d.z) + ") does not fit " + path_.string());
    pwrite_all(fd_, slab.span().data(), slab.span().size_bytes(),
               sizeof(Header) + static_cast<std::uint64_t>(z0 * d.x * d.y) * sizeof(float), tmp_);
    slices_written_ += d.z;
}

void VolumeWriter::commit()
{
    require(fd_ >= 0, "VolumeWriter: already committed: " + path_.string());
    const index_t written = slices_written_.load();
    require(written == size_.z, "io: incomplete volume " + tmp_.string() + ": " +
                                    std::to_string(written) + " of " + std::to_string(size_.z) +
                                    " slices written");
    // The header lands last, so an unpublished temp file never reads as a
    // volume.
    const Header h{kVolMagic, size_.x, size_.y, size_.z};
    pwrite_all(fd_, &h, sizeof(h), 0, tmp_);
    const int rc = ::close(fd_);
    fd_ = -1;
    require(rc == 0, "io: volume write failed: " + tmp_.string() + ": " + std::strerror(errno));
    std::error_code ec;
    std::filesystem::rename(tmp_, path_, ec);
    require(!ec, "io: atomic rename failed: " + tmp_.string() + " -> " + path_.string() + ": " +
                     ec.message());
    committed_ = true;
}

void write_volume(const std::filesystem::path& path, const Volume& v)
{
    VolumeWriter w(path, v.size());
    w.write(0, v);
    w.commit();
}

Volume read_volume(const std::filesystem::path& path)
{
    Header h;
    auto f = open_checked(path, kVolMagic, "volume file", h);
    Volume v(Dim3{h.d0, h.d1, h.d2});
    read_payload(f, v.span(), sizeof(Header), path);
    return v;
}

Volume read_volume_slices(const std::filesystem::path& path, Range slices)
{
    Header h;
    auto f = open_checked(path, kVolMagic, "volume file", h);
    XCT_IO_REQUIRE(!slices.empty() && slices.lo >= 0 && slices.hi <= h.d2,
                   "io: slices [" + std::to_string(slices.lo) + ", " + std::to_string(slices.hi) +
                       ") outside the " + std::to_string(h.d2) + " slices of " + path.string());
    Volume v(Dim3{h.d0, h.d1, slices.length()});
    const std::uint64_t slice_bytes = static_cast<std::uint64_t>(h.d0 * h.d1) * sizeof(float);
    read_payload(f, v.span(), sizeof(Header) + static_cast<std::uint64_t>(slices.lo) * slice_bytes,
                 path);
    return v;
}

void write_stack(const std::filesystem::path& path, const ProjectionStack& p)
{
    write_file(path,
               Header{kStkMagic, p.views(), p.rows(), p.cols(),
                      static_cast<std::uint64_t>(p.row_begin())},
               p.span(), "stack");
}

ProjectionStack read_stack(const std::filesystem::path& path)
{
    StackInfo info;
    auto f = open_stack(path, info);
    ProjectionStack p(info.views, info.band, info.cols);
    read_payload(f, p.span(), sizeof(Header), path);
    return p;
}

StackInfo stack_info(const std::filesystem::path& path)
{
    StackInfo info;
    open_stack(path, info);
    return info;
}

ProjectionStack read_stack_rows(const std::filesystem::path& path, Range views, Range band)
{
    // open_stack's whole-file size check runs up front: a truncated tail
    // would otherwise only surface when a late view's seek+read ran off
    // the end.
    StackInfo info;
    auto f = open_stack(path, info);
    require(!views.empty() && views.lo >= 0 && views.hi <= info.views,
            "read_stack_rows: views outside stored range");
    require(!band.empty() && band.lo >= info.band.lo && band.hi <= info.band.hi,
            "read_stack_rows: band outside stored rows");

    ProjectionStack out(views.length(), band, info.cols);
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(info.cols) * sizeof(float);
    const std::uint64_t view_bytes = static_cast<std::uint64_t>(info.band.length()) * row_bytes;
    // Rows of one view are contiguous: one seek + one read per view.
    for (index_t s = views.lo; s < views.hi; ++s)
        read_payload(f, out.view(s - views.lo),
                     sizeof(Header) + static_cast<std::uint64_t>(s) * view_bytes +
                         static_cast<std::uint64_t>(band.lo - info.band.lo) * row_bytes,
                     path);
    return out;
}

void write_checkpoint_slab(const std::filesystem::path& path, const Volume& v,
                           std::uint64_t payload_digest)
{
    write_file(path, Header{kCkpMagic, v.size().x, v.size().y, v.size().z, payload_digest},
               v.span(), "checkpoint slab");
}

CheckpointSlab read_checkpoint_slab(const std::filesystem::path& path)
{
    Header h;
    auto f = open_checked(path, kCkpMagic, "version-2 checkpoint slab", h);
    CheckpointSlab out{Volume(Dim3{h.d0, h.d1, h.d2}), h.word};
    read_payload(f, out.volume.span(), sizeof(Header), path);
    return out;
}

void write_pgm_slice(const std::filesystem::path& path, const Volume& v, index_t k, float lo,
                     float hi)
{
    require(k >= 0 && k < v.size().z, "write_pgm_slice: slice out of range");
    const std::span<const float> img = v.slice(k);
    if (lo == hi) {
        lo = *std::min_element(img.begin(), img.end());
        hi = *std::max_element(img.begin(), img.end());
        if (hi == lo) hi = lo + 1.0f;
    }
    auto f = open_out(path);
    f << "P5\n" << v.size().x << " " << v.size().y << "\n255\n";
    std::vector<unsigned char> bytes(img.size());
    for (std::size_t i = 0; i < img.size(); ++i) {
        const float t = std::clamp((img[i] - lo) / (hi - lo), 0.0f, 1.0f);
        bytes[i] = static_cast<unsigned char>(t * 255.0f + 0.5f);
    }
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    require(f.good(), "io: PGM write failed: " + path.string());
}

}  // namespace xct::io
