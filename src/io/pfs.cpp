#include "io/pfs.hpp"

#include <fstream>

#include "core/names.hpp"
#include "integrity/integrity.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/flight.hpp"

namespace xct::io {

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// ---- sidecar digests ------------------------------------------------------
// Every store writes `<file>.xxh64` holding the payload digest in hex; a
// full load verifies against it (covers both at-rest corruption of the
// file and corruption on the load path).  Partial loads
// (load_stack_rows) cannot use the whole-file sidecar; they digest the
// band the moment it leaves the read — modelling the storage server's
// own block checksums — so the verify still covers the transit leg.

std::filesystem::path sidecar_path(const std::filesystem::path& file)
{
    return std::filesystem::path(file.string() + ".xxh64");
}

void write_sidecar(const std::filesystem::path& file, integrity::digest_t d)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    char hex[17];
    for (int i = 15; i >= 0; --i) {
        hex[i] = kDigits[d & 0xF];
        d >>= 4;
    }
    hex[16] = '\0';
    std::ofstream f(sidecar_path(file), std::ios::trunc);
    f << hex << '\n';
    require(f.good(), "Pfs: failed to write digest sidecar " + sidecar_path(file).string());
}

std::optional<integrity::digest_t> read_sidecar(const std::filesystem::path& file)
{
    std::ifstream f(sidecar_path(file));
    if (!f.good()) return std::nullopt;
    std::string hex;
    f >> hex;
    if (hex.size() != 16) return std::nullopt;
    integrity::digest_t d = 0;
    for (const char c : hex) {
        d <<= 4;
        if (c >= '0' && c <= '9')
            d |= static_cast<integrity::digest_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            d |= static_cast<integrity::digest_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return d;
}

/// Load-side instrumentation: inject any planned transit corruption into
/// the just-read payload, then verify — against the store-time sidecar
/// when one exists (at-rest + transit coverage), else against an
/// immediate post-read digest (transit-only).  Runs inside guarded(), so
/// an IntegrityError (a TransientError) re-runs the whole read.
void corrupt_and_verify(const char* site, std::span<float> payload,
                        std::optional<integrity::digest_t> stored)
{
    const bool verifying = integrity::enabled();
    integrity::digest_t expected = 0;
    if (verifying) expected = stored ? *stored : integrity::checksum_of<float>(payload);
    faults::corrupt(site, std::as_writable_bytes(payload));
    if (verifying) integrity::verify_of<float>(site, payload, expected);
}

/// Mirror a PFS transfer into the telemetry layer: counters, plus a
/// modelled-duration "io" flight span named `span`, like sim::Device.
void telemetry_io(const char* op, const char* span, std::uint64_t bytes, double seconds)
{
    auto& reg = telemetry::registry();
    reg.counter(std::string(names::kMetricIoPfsPrefix) + op + ".bytes").add(bytes);
    reg.counter(std::string(names::kMetricIoPfsPrefix) + op + ".operations").add(1);
    const double now = telemetry::flight::wall_now();
    telemetry::flight::record(names::kCatIo, span, now, now + seconds, -1, bytes);
}
}

Pfs::Pfs(std::filesystem::path root, double load_gbps, double store_gbps)
    : root_(std::move(root)), load_gbps_(load_gbps), store_gbps_(store_gbps)
{
    require(load_gbps > 0.0 && store_gbps > 0.0, "Pfs: bandwidths must be positive");
    std::filesystem::create_directories(root_);
}

std::filesystem::path Pfs::resolve(const std::string& rel) const
{
    require(!rel.empty() && rel.front() != '/', "Pfs: path must be relative");
    return root_ / rel;
}

void Pfs::account_load(std::uint64_t bytes)
{
    const double seconds = static_cast<double>(bytes) / (load_gbps_ * kGiB);
    load_.add(bytes, seconds);
    telemetry_io("load", names::kSpanPfsLoad, bytes, seconds);
}

void Pfs::account_store(std::uint64_t bytes)
{
    const double seconds = static_cast<double>(bytes) / (store_gbps_ * kGiB);
    store_.add(bytes, seconds);
    telemetry_io("store", names::kSpanPfsStore, bytes, seconds);
}

/// Consult the fault plan and run `op`, retrying transient failures when
/// a policy is attached.  The whole operation re-runs on retry — loads
/// are read-only and stores rewrite the same bytes, so repetition is
/// idempotent (accounting only happens on the successful attempt).
template <typename F>
auto Pfs::guarded(const char* site, F&& op) -> decltype(op())
{
    auto attempt = [&] {
        faults::check(site);
        return op();
    };
    if (retry_) return faults::with_retry(site, *retry_, attempt);
    return attempt();
}

void Pfs::store_volume(const std::string& rel, const Volume& v)
{
    guarded(names::kSitePfsStore, [&] {
        const auto path = resolve(rel);
        write_volume(path, v);
        write_sidecar(path, integrity::checksum_of<float>(v.span()));
    });
    account_store(static_cast<std::uint64_t>(v.count()) * sizeof(float));
}

Volume Pfs::load_volume(const std::string& rel)
{
    const auto path = resolve(rel);
    Volume v = guarded(names::kSitePfsLoad, [&] {
        Volume loaded = read_volume(path);
        corrupt_and_verify(names::kSitePfsLoad, loaded.span(), read_sidecar(path));
        return loaded;
    });
    account_load(static_cast<std::uint64_t>(v.count()) * sizeof(float));
    return v;
}

void Pfs::store_stack(const std::string& rel, const ProjectionStack& p)
{
    guarded(names::kSitePfsStore, [&] {
        const auto path = resolve(rel);
        write_stack(path, p);
        write_sidecar(path, integrity::checksum_of<float>(p.span()));
    });
    account_store(static_cast<std::uint64_t>(p.count()) * sizeof(float));
}

ProjectionStack Pfs::load_stack_rows(const std::string& rel, Range views, Range band)
{
    // Partial read: the whole-file sidecar does not apply — digest the
    // band as it leaves the read (nullopt -> immediate post-read digest).
    ProjectionStack p = guarded(names::kSitePfsLoad, [&] {
        ProjectionStack loaded = read_stack_rows(resolve(rel), views, band);
        corrupt_and_verify(names::kSitePfsLoad, loaded.span(), std::nullopt);
        return loaded;
    });
    account_load(static_cast<std::uint64_t>(p.count()) * sizeof(float));
    return p;
}

StackInfo Pfs::stack_info(const std::string& rel) const
{
    return io::stack_info(resolve(rel));
}

bool Pfs::exists(const std::string& rel) const
{
    return std::filesystem::exists(resolve(rel));
}

void Pfs::reset_stats()
{
    load_.reset();
    store_.reset();
}

}  // namespace xct::io
