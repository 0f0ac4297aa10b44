#pragma once
// The tree's one JSON codec (DESIGN.md §3).
//
// Every JSON document read in src/ and tools/ — daemon requests and
// journal payloads, BENCH files, machine.json, compile_commands.json —
// goes through Json::parse, and every JSON string and number written goes
// through json_quote / json_number.  The tree bans external dependencies,
// and the grammar is small enough to own.
//
// The reader is strict RFC 8259: no trailing data, no duplicate keys, no
// raw control characters in strings, `\uXXXX` escapes (surrogate pairs
// combined into UTF-8), and the exact number grammar (no `+1`, `01`, `.5`,
// `1.`, `nan`, `inf`).  Nesting is capped at kMaxDepth and the value
// count at kMaxNodes, so hostile input is rejected with a byte offset
// instead of overflowing the stack or ballooning memory.
//
// Numbers print as the shortest text that parses back to the same double
// (std::to_chars / std::from_chars, locale-independent), so encode ->
// decode round trips are bit-exact; `%.17g` text parses to the same bits.

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace xct {

/// Parsed JSON value (tree-owned, no sharing).
class Json {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /// Deepest array/object nesting the parser accepts.  The documents the
    /// tree reads nest at most 4 deep.
    static constexpr int kMaxDepth = 64;
    /// Most values (parse-tree nodes, ~100 bytes each) one document may
    /// hold, so one hostile request line cannot grow the daemon by ~1 GB.
    /// The largest real input, a compile database, takes 4 per entry.
    static constexpr std::size_t kMaxNodes = std::size_t{1} << 18;

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;  ///< always finite
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;  // insertion order, unique keys

    /// Parse one JSON document; throws std::invalid_argument naming the
    /// byte offset on malformed input.
    static Json parse(std::string_view text);

    /// Object member lookup; nullptr when absent or not an object.
    const Json* find(const std::string& key) const;
    /// Object member lookup; throws std::invalid_argument naming `key`
    /// when absent.
    const Json& at(const std::string& key) const;

    /// Typed accessors; throw std::invalid_argument (naming `what`) on a
    /// type mismatch so errors carry the offending field.
    double as_number(const std::string& what) const;
    const std::string& as_string(const std::string& what) const;
    bool as_bool(const std::string& what) const;
    /// An integral number that `T` represents exactly; throws
    /// std::invalid_argument naming `what` otherwise.
    template <class T>
    T as_integer(const std::string& what) const;
};

/// Escape `s` into a JSON string literal (quotes included).  Every
/// control character is escaped.
std::string json_quote(std::string_view s);
/// The shortest decimal that parses back to `v`; `null` when `v` is not
/// finite.
std::string json_number(double v);

/// Add `members` — one or more `"key": value` pairs, comma-separated — to
/// the JSON object in the file at `path`.  `fresh` (or a missing or empty
/// file) starts a new document; an existing file must hold a JSON object
/// and is never overwritten otherwise.  Throws std::runtime_error naming
/// `path` when the existing file or the merged document does not parse.
void append_json_members(const std::string& path, const std::string& members, bool fresh);

template <class T>
T Json::as_integer(const std::string& what) const
{
    static_assert(std::is_integral_v<T>);
    const double v = as_number(what);
    // Both bounds are powers of two, so they are exact doubles.
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (v != std::floor(v) || v < lo || v >= hi)
        throw std::invalid_argument("json: " + what + " must be an integer in [" +
                                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                                    std::to_string(std::numeric_limits<T>::max()) + "], got " +
                                    json_number(v));
    return static_cast<T>(v);
}

}  // namespace xct
