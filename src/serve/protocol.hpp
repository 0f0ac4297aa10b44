#pragma once
// Typed JSON job API of the daemon (DESIGN.md §3k).
//
// One request per connection, newline-delimited: the client writes a
// single-line JSON object, the daemon answers with a single-line JSON
// object carrying "ok" plus op-specific fields.  Documents go through the
// core codec (core/json.hpp); every integer field is decoded through the
// checked Json::as_integer, so an out-of-range or fractional value is a
// field-named error, never a cast.
//
// Doubles print at round-trip precision, so a spec survives the
// encode->decode round trip bit-exactly; the journal stores specs in this
// same encoding, which is why replayed jobs reconstruct identical volumes.

#include <string>

#include "core/json.hpp"
#include "serve/job.hpp"

namespace xct::serve {

// The codec lives in core; these names stay for code that spells them
// through serve (bench/e2e).
using xct::Json;
using xct::json_number;
using xct::json_quote;

// ---- JobSpec / JobStatus wire forms ------------------------------------

std::string encode_spec(const JobSpec& spec);
/// Throws std::invalid_argument on missing/ill-typed fields.  The Table 4
/// offsets (sigma_u, sigma_v, sigma_cor) default to 0 when absent.
JobSpec decode_spec(const Json& j);

std::string encode_status(const JobStatus& st);
JobStatus decode_status(const Json& j);

// ---- request envelope ---------------------------------------------------

/// A decoded client request.  `op` is one of: submit, status, list,
/// cancel, wait, fetch_slice, metrics, ping, shutdown.
struct Request {
    std::string op;
    JobSpec spec;          ///< submit
    JobId id = 0;          ///< status / cancel / wait / fetch_slice
    index_t slice = 0;     ///< fetch_slice
    double timeout_s = 60.0;  ///< wait
};

std::string encode_request(const Request& r);
Request decode_request(const std::string& line);

/// {"ok":false,"error":...} — the uniform failure envelope.
std::string encode_error(const std::string& message);

}  // namespace xct::serve
