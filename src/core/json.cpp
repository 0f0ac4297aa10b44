#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace xct {

namespace {

[[noreturn]] void bad(const std::string& what, std::size_t at)
{
    throw std::invalid_argument("json: " + what + " at byte " + std::to_string(at));
}

void append_utf8(std::string& out, char32_t cp)
{
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int shift = cp < 0x80 ? 0 : cp < 0x800 ? 6 : cp < 0x10000 ? 12 : 18;
    out.push_back(static_cast<char>(kLead[shift / 6] | (cp >> shift)));
    for (int s = shift - 6; s >= 0; s -= 6)
        out.push_back(static_cast<char>(0x80 | ((cp >> s) & 0x3F)));
}

class Parser {
public:
    explicit Parser(std::string_view text) : s_(text) {}

    Json parse_document()
    {
        Json v = parse_value(0);
        skip_ws();
        if (i_ != s_.size()) bad("trailing data", i_);
        return v;
    }

private:
    std::string_view s_;
    std::size_t i_ = 0;
    std::size_t nodes_ = 0;

    void skip_ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    char peek()
    {
        if (i_ >= s_.size()) bad("unexpected end", i_);
        return s_[i_];
    }

    void expect(char c)
    {
        if (peek() != c) bad(std::string("expected '") + c + "'", i_);
        ++i_;
    }

    bool consume(std::string_view lit)
    {
        if (s_.substr(i_, lit.size()) != lit) return false;
        i_ += lit.size();
        return true;
    }

    bool digits()
    {
        const std::size_t from = i_;
        while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
        return i_ > from;
    }

    Json parse_value(int depth)
    {
        skip_ws();
        if (++nodes_ > Json::kMaxNodes)
            bad("more than " + std::to_string(Json::kMaxNodes) + " values in one document", i_);
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == Json::kMaxDepth)
                bad("nesting deeper than " + std::to_string(Json::kMaxDepth), i_);
            return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
        }
        Json v;
        if (c == '"') {
            v.type = Json::Type::String;
            v.string = parse_string();
        } else if (consume("true")) {
            v.type = Json::Type::Bool;
            v.boolean = true;
        } else if (consume("false")) {
            v.type = Json::Type::Bool;
        } else if (!consume("null")) {
            v.type = Json::Type::Number;
            v.number = parse_number();
        }
        return v;
    }

    Json parse_object(int depth)
    {
        const std::size_t start = i_;
        expect('{');
        Json v;
        v.type = Json::Type::Object;
        skip_ws();
        if (peek() == '}') {
            ++i_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.object.emplace_back(std::move(key), parse_value(depth));
            skip_ws();
            if (peek() != ',') break;
            ++i_;
        }
        expect('}');
        // Sorted, so a hostile object with millions of keys stays
        // O(n log n) rather than quadratic.
        std::vector<std::string_view> keys;
        keys.reserve(v.object.size());
        for (const auto& member : v.object) keys.emplace_back(member.first);
        std::sort(keys.begin(), keys.end());
        const auto dup = std::adjacent_find(keys.begin(), keys.end());
        if (dup != keys.end()) bad("duplicate key " + json_quote(*dup) + " in object", start);
        return v;
    }

    Json parse_array(int depth)
    {
        expect('[');
        Json v;
        v.type = Json::Type::Array;
        skip_ws();
        if (peek() == ']') {
            ++i_;
            return v;
        }
        while (true) {
            v.array.push_back(parse_value(depth));
            skip_ws();
            if (peek() != ',') break;
            ++i_;
        }
        expect(']');
        return v;
    }

    char32_t hex4()
    {
        unsigned v = 0;
        const char* p = s_.data() + i_;
        if (s_.size() - i_ < 4 || std::from_chars(p, p + 4, v, 16).ptr != p + 4)
            bad("bad \\u escape", i_);
        i_ += 4;
        return v;
    }

    /// The code point of a `\u` escape whose backslash sits at `at`; a
    /// high surrogate must be followed by an escaped low surrogate.
    char32_t code_point(std::size_t at)
    {
        const char32_t hi = hex4();
        if (hi >= 0xDC00 && hi <= 0xDFFF) bad("unpaired low surrogate", at);
        if (hi < 0xD800 || hi > 0xDBFF) return hi;
        if (!consume("\\u")) bad("unpaired high surrogate", at);
        const char32_t lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) bad("unpaired high surrogate", at);
        return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (i_ >= s_.size()) bad("unterminated string", i_);
            const char c = s_[i_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) bad("unescaped control character", i_ - 1);
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (i_ >= s_.size()) bad("unterminated escape", i_);
            const char e = s_[i_++];
            switch (e) {
                case '"':
                case '\\':
                case '/': out.push_back(e); break;
                case 'n': out.push_back('\n'); break;
                case 't': out.push_back('\t'); break;
                case 'r': out.push_back('\r'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u': append_utf8(out, code_point(i_ - 2)); break;
                default: bad("unsupported escape", i_ - 1);
            }
        }
    }

    /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    double parse_number()
    {
        const std::size_t start = i_;
        consume("-");
        if (!consume("0") && !digits()) bad(i_ == start ? "expected value" : "bad number", start);
        if (consume(".") && !digits()) bad("bad number", start);
        if (consume("e") || consume("E")) {
            if (!consume("+")) consume("-");
            if (!digits()) bad("bad number", start);
        }
        double v = 0.0;
        const auto [end, ec] = std::from_chars(s_.data() + start, s_.data() + i_, v);
        if (ec != std::errc() || end != s_.data() + i_) bad("number out of range", start);
        return v;
    }
};

}  // namespace

Json Json::parse(std::string_view text)
{
    return Parser(text).parse_document();
}

const Json* Json::find(const std::string& key) const
{
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : object)
        if (k == key) return &v;
    return nullptr;
}

const Json& Json::at(const std::string& key) const
{
    const Json* m = find(key);
    if (m == nullptr) throw std::invalid_argument("json: missing field \"" + key + "\"");
    return *m;
}

double Json::as_number(const std::string& what) const
{
    if (type != Type::Number) throw std::invalid_argument("json: " + what + " must be a number");
    return number;
}

const std::string& Json::as_string(const std::string& what) const
{
    if (type != Type::String) throw std::invalid_argument("json: " + what + " must be a string");
    return string;
}

bool Json::as_bool(const std::string& what) const
{
    if (type != Type::Bool) throw std::invalid_argument("json: " + what + " must be a boolean");
    return boolean;
}

std::string json_quote(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += "\\u00";
                    out.push_back(kHex[(c >> 4) & 0xF]);
                    out.push_back(kHex[c & 0xF]);
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
    return out;
}

std::string json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void append_json_members(const std::string& path, const std::string& members, bool fresh)
{
    std::string content;
    if (!fresh) {
        std::ifstream in(path);
        std::ostringstream ss;
        if (in) ss << in.rdbuf();
        content = ss.str();
    }
    const auto check = [&](const char* what) {
        try {
            return Json::parse(content);
        } catch (const std::invalid_argument& e) {
            throw std::runtime_error(path + ": " + what + ": " + e.what());
        }
    };
    const std::size_t close = content.find_last_not_of(" \t\r\n");
    if (close == std::string::npos) {
        content = "{\n  " + members + "\n}\n";
    } else {
        const Json existing = check("existing file is not JSON; refusing to append");
        if (existing.type != Json::Type::Object)
            throw std::runtime_error(path +
                                     ": existing file is not a JSON object; refusing to append");
        content.erase(content.find_last_not_of(" \t\r\n", close - 1) + 1);
        content += (existing.object.empty() ? "\n  " : ",\n  ") + members + "\n}\n";
    }
    check("merged document is not valid JSON");
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << content;
}

}  // namespace xct
