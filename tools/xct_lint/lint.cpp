#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"

namespace xct_lint {
namespace {

/// A string literal found in the source: content without quotes, byte
/// offset of the opening quote, 1-based line number.
struct Literal {
    std::string text;
    std::size_t offset = 0;
    int line = 0;
};

/// Result of the blanking pass: `code` is the input with comments and
/// string/char literals replaced by spaces (newlines preserved so byte
/// offsets and line numbers stay aligned), plus the extracted literals.
struct Blanked {
    std::string code;
    std::vector<Literal> literals;
};

bool ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int line_of(const std::string& s, std::size_t pos)
{
    return 1 + static_cast<int>(std::count(s.begin(), s.begin() + static_cast<long>(pos), '\n'));
}

/// Strip comments and literals.  Handles //, /* */, "..." with escapes,
/// '...' char literals, and R"delim(...)delim" raw strings.
Blanked blank(const std::string& src)
{
    Blanked out;
    out.code = src;
    std::size_t i = 0;
    const std::size_t n = src.size();
    auto space_out = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to && k < n; ++k)
            if (out.code[k] != '\n') out.code[k] = ' ';
    };
    while (i < n) {
        const char c = src[i];
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos) end = n;
            space_out(i, end);
            i = end;
        } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t end = src.find("*/", i + 2);
            end = end == std::string::npos ? n : end + 2;
            space_out(i, end);
            i = end;
        } else if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
                   (i == 0 || !ident_char(src[i - 1]))) {
            const std::size_t open = src.find('(', i + 2);
            if (open == std::string::npos) break;
            std::string closer(1, ')');
            closer.append(src, i + 2, open - (i + 2));
            closer.push_back('"');
            std::size_t end = src.find(closer, open + 1);
            end = end == std::string::npos ? n : end + closer.size();
            out.literals.push_back(
                Literal{src.substr(open + 1, end - closer.size() - (open + 1)), i, line_of(src, i)});
            space_out(i, end);
            i = end;
        } else if (c == '"' || c == '\'') {
            const std::size_t start = i;
            ++i;
            while (i < n && src[i] != c) {
                if (src[i] == '\\') ++i;
                if (src[i] == '\n') break;  // unterminated: stop at line end
                ++i;
            }
            const std::size_t end = i < n ? i + 1 : n;
            if (c == '"')
                out.literals.push_back(Literal{src.substr(start + 1, end - start - 2), start,
                                               line_of(src, start)});
            space_out(start, end);
            i = end;
        } else {
            ++i;
        }
    }
    return out;
}

bool path_starts_with(const std::string& rel, const std::string& prefix)
{
    return rel.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------- names ----

/// Call sites whose literal arguments must be registered names.  The
/// value lists which 1-based argument positions to check when they are
/// string literals (non-literal arguments — names:: constants, variables
/// — are accepted as-is: the registry check happened where the constant
/// was defined).
struct NamePattern {
    const char* callee;
    std::vector<int> args;
};

const std::vector<NamePattern>& name_patterns()
{
    static const std::vector<NamePattern> p = {
        {"counter", {1}},
        {"gauge", {1}},
        {"histogram", {1}},
        {"ScopedTrace", {1, 2}},          // (category, name, ...)
        {"record_interval_abs", {1, 2}},  // (name, category, ...)
        {"record", {1, 2}},               // flight::record(cat, name, ...) /
                                          // Tracer::record(name, cat, ...)
        {"intern", {1}},                  // flight::intern(name)
        {"fleet_observe", {1}},           // fleet_observe(stage, seconds)
        {"dump_postmortem", {1}},         // flight::dump_postmortem(reason)
        {"faults::check", {1}},
        {"should_fail", {1}},
        {"with_retry", {1}},
        {"InjectedFault", {1}},
        {"gate", {1}},
        {"guarded", {1}},
        {"corrupt", {1}},      // faults::corrupt(site, buf)
        {"stall_point", {1}},  // faults::stall_point(site)
        {"supervise", {1}},    // Watchdog::supervise(section, fn)
        {"verify", {1}},       // integrity::verify(site, bytes, digest)
        {"transfer", {1}},     // sim::Device::transfer(site, op)
    };
    return p;
}

/// Find the literal whose opening quote sits at `offset`, if any.
const Literal* literal_at(const std::vector<Literal>& lits, std::size_t offset)
{
    for (const auto& l : lits)
        if (l.offset == offset) return &l;
    return nullptr;
}

void rule_names(const std::string& rel, const std::string& src, const Blanked& b,
                const Registry& reg, std::vector<Violation>& out)
{
    for (const auto& pat : name_patterns()) {
        const std::string needle = pat.callee;
        std::size_t pos = 0;
        while ((pos = b.code.find(needle, pos)) != std::string::npos) {
            const std::size_t after = pos + needle.size();
            // Token boundary: not the tail of a longer identifier.
            if (pos > 0 && ident_char(b.code[pos - 1])) {
                pos = after;
                continue;
            }
            // Accept both the call/temporary form `Callee(...)` and the
            // declaration form `Callee var(...)` (ScopedTrace guards).
            std::size_t q = after;
            while (q < b.code.size() && std::isspace(static_cast<unsigned char>(b.code[q]))) ++q;
            if (q < b.code.size() && ident_char(b.code[q])) {
                while (q < b.code.size() && ident_char(b.code[q])) ++q;
                while (q < b.code.size() && std::isspace(static_cast<unsigned char>(b.code[q])))
                    ++q;
            }
            if (q >= b.code.size() || b.code[q] != '(') {
                pos = after;
                continue;
            }
            // Walk the argument list at depth 1, visiting each argument's
            // first non-whitespace byte.
            int depth = 1;
            int arg = 1;
            std::size_t k = q + 1;
            std::size_t arg_start = k;
            auto visit = [&](std::size_t begin, std::size_t end, int index) {
                if (std::find(pat.args.begin(), pat.args.end(), index) == pat.args.end()) return;
                // Whitespace-skip in the ORIGINAL text: in the blanked copy
                // the literal itself is spaces and would be walked over.
                std::size_t s = begin;
                while (s < end && std::isspace(static_cast<unsigned char>(src[s]))) ++s;
                if (s >= end || src[s] != '"') return;  // not a literal: fine
                const Literal* lit = literal_at(b.literals, s);
                if (lit != nullptr && !reg.allows(lit->text))
                    out.push_back(Violation{
                        rel, lit->line, "names",
                        "\"" + lit->text + "\" passed to " + pat.callee +
                            "() is not registered in src/core/names.hpp"});
            };
            for (; k < b.code.size() && depth > 0; ++k) {
                const char ch = b.code[k];
                if (ch == '(' || ch == '[' || ch == '{') ++depth;
                if (ch == ')' || ch == ']' || ch == '}') {
                    --depth;
                    if (depth == 0) visit(arg_start, k, arg);
                }
                if (ch == ',' && depth == 1) {
                    visit(arg_start, k, arg);
                    ++arg;
                    arg_start = k + 1;
                }
            }
            pos = after;
        }
    }
}

// --------------------------------------------------------------- rawmem ----

void rule_rawmem(const std::string& rel, const Blanked& b, std::vector<Violation>& out)
{
    // The serialization layer legitimately reinterprets POD buffers for
    // stream I/O; the lint's own sources mention the tokens in messages.
    if (rel == "src/io/raw_io.cpp" || path_starts_with(rel, "tools/xct_lint/")) return;
    static const std::vector<std::pair<std::string, std::string>> banned = {
        {"new", "raw `new` — own memory with containers / make_unique"},
        {"malloc", "`malloc` — own memory with containers"},
        {"reinterpret_cast", "`reinterpret_cast` — only src/io/raw_io.cpp may reinterpret"},
    };
    for (const auto& [tok, msg] : banned) {
        std::size_t pos = 0;
        while ((pos = b.code.find(tok, pos)) != std::string::npos) {
            const bool lb = pos == 0 || !ident_char(b.code[pos - 1]);
            const std::size_t after = pos + tok.size();
            const bool rb = after >= b.code.size() || !ident_char(b.code[after]);
            if (lb && rb) out.push_back(Violation{rel, line_of(b.code, pos), "rawmem", msg});
            pos = after;
        }
    }
}

// -------------------------------------------------------------- intloop ----

/// Extent [body_begin, body_end) of the statement controlled by the `for`
/// whose header opens at `paren` — braces matched, or up to the `;` of a
/// single-statement body.
std::pair<std::size_t, std::size_t> loop_body(const std::string& code, std::size_t paren)
{
    int depth = 0;
    std::size_t k = paren;
    for (; k < code.size(); ++k) {
        if (code[k] == '(') ++depth;
        if (code[k] == ')' && --depth == 0) break;
    }
    if (k >= code.size()) return {code.size(), code.size()};
    std::size_t s = k + 1;
    while (s < code.size() && std::isspace(static_cast<unsigned char>(code[s]))) ++s;
    if (s < code.size() && code[s] == '{') {
        int braces = 0;
        std::size_t e = s;
        for (; e < code.size(); ++e) {
            if (code[e] == '{') ++braces;
            if (code[e] == '}' && --braces == 0) break;
        }
        return {s + 1, std::min(e, code.size())};
    }
    std::size_t e = code.find(';', s);
    return {s, e == std::string::npos ? code.size() : e};
}

void rule_intloop(const std::string& rel, const Blanked& b, std::vector<Violation>& out)
{
    const std::string& code = b.code;
    std::size_t pos = 0;
    while ((pos = code.find("for", pos)) != std::string::npos) {
        const std::size_t after = pos + 3;
        if ((pos > 0 && ident_char(code[pos - 1])) ||
            (after < code.size() && ident_char(code[after]))) {
            pos = after;
            continue;
        }
        std::size_t q = after;
        while (q < code.size() && std::isspace(static_cast<unsigned char>(code[q]))) ++q;
        if (q >= code.size() || code[q] != '(') {
            pos = after;
            continue;
        }
        // `for ( int VAR` — only plain int induction variables are suspect.
        std::size_t t = q + 1;
        while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t]))) ++t;
        if (code.compare(t, 4, "int ") != 0) {
            pos = after;
            continue;
        }
        t += 4;
        while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t]))) ++t;
        std::size_t ve = t;
        while (ve < code.size() && ident_char(code[ve])) ++ve;
        const std::string var = code.substr(t, ve - t);
        if (var.empty()) {
            pos = after;
            continue;
        }
        const auto [bs, be] = loop_body(code, q);
        // Multiplication adjacency: `var [)]* *` or `* [(]* var`.  The
        // closing-paren skip catches `static_cast<...>(var) * stride`;
        // subscripts (`a[var] * x`) deliberately do NOT match — there the
        // product is of the element, not the index.
        const std::string body = code.substr(bs, be - bs);
        bool hit = false;
        std::size_t vp = 0;
        while (!hit && (vp = body.find(var, vp)) != std::string::npos) {
            const bool lb = vp == 0 || !ident_char(body[vp - 1]);
            std::size_t e = vp + var.size();
            if (lb && (e >= body.size() || !ident_char(body[e]))) {
                std::size_t f = e;
                while (f < body.size() &&
                       (std::isspace(static_cast<unsigned char>(body[f])) || body[f] == ')'))
                    ++f;
                if (f < body.size() && body[f] == '*' &&
                    (f + 1 >= body.size() || body[f + 1] != '='))
                    hit = true;
                std::size_t g = vp;
                while (g > 0 && (std::isspace(static_cast<unsigned char>(body[g - 1])) ||
                                 body[g - 1] == '('))
                    --g;
                if (g > 0 && body[g - 1] == '*' && (g < 2 || body[g - 2] != '*')) hit = true;
            }
            vp = e;
        }
        if (hit)
            out.push_back(Violation{
                rel, line_of(code, pos), "intloop",
                "`int " + var + "` feeds a multiplication — flat-index arithmetic must "
                "run in index_t (overflows past 2G voxels)"});
        pos = after;
    }
}

// ---------------------------------------------------------------- mutex ----

void rule_mutex(const std::string& rel, const Blanked& b, std::vector<Violation>& out)
{
    const std::string& code = b.code;
    // (a) raw standard synchronisation primitives outside the wrapper.
    // core/lockorder.cpp is the runtime witness behind the wrappers: it
    // must synchronise its own edge set with a primitive the instrumented
    // Mutex does not call back into.
    if (rel != "src/core/mutex.hpp" && !path_starts_with(rel, "src/core/lockorder.") &&
        !path_starts_with(rel, "tools/xct_lint/")) {
        static const std::vector<std::string> raw = {
            "std::mutex",          "std::shared_mutex",       "std::timed_mutex",
            "std::recursive_mutex", "std::condition_variable", "std::lock_guard",
            "std::scoped_lock",    "std::unique_lock",        "std::shared_lock",
        };
        for (const auto& tok : raw) {
            std::size_t pos = 0;
            while ((pos = code.find(tok, pos)) != std::string::npos) {
                const std::size_t after = pos + tok.size();
                if ((pos == 0 || !ident_char(code[pos - 1])) &&
                    (after >= code.size() || !ident_char(code[after])))
                    out.push_back(Violation{
                        rel, line_of(code, pos), "mutex",
                        tok + " — use the annotated wrappers in core/mutex.hpp so "
                        "-Wthread-safety sees the lock"});
                pos = after;
            }
        }
    }
    // (b) every `Mutex name;` declaration must be referenced by an XCT_*
    // thread-safety annotation somewhere in the same file — an
    // unannotated mutex guards nothing the analysis can verify.
    std::size_t pos = 0;
    while ((pos = code.find("Mutex", pos)) != std::string::npos) {
        const std::size_t after = pos + 5;
        if ((pos > 0 && (ident_char(code[pos - 1]) || code[pos - 1] == ':')) ||
            (after < code.size() && ident_char(code[after]))) {
            pos = after;  // MutexLock, xct::Mutex qualifier tail, etc.
            continue;
        }
        std::size_t t = after;
        while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t])) &&
               code[t] != '\n')
            ++t;
        std::size_t ve = t;
        while (ve < code.size() && ident_char(code[ve])) ++ve;
        const std::string var = code.substr(t, ve - t);
        std::size_t semi = ve;
        while (semi < code.size() && std::isspace(static_cast<unsigned char>(code[semi]))) ++semi;
        if (var.empty() || semi >= code.size() || code[semi] != ';') {
            pos = after;  // reference, parameter, return type — not a declaration
            continue;
        }
        // Look for XCT_<RULE>(... var ...) anywhere in the file.
        bool annotated = false;
        std::size_t ap = 0;
        while (!annotated && (ap = code.find("XCT_", ap)) != std::string::npos) {
            std::size_t open = ap + 4;
            while (open < code.size() &&
                   (std::isupper(static_cast<unsigned char>(code[open])) || code[open] == '_'))
                ++open;
            if (open < code.size() && code[open] == '(') {
                const std::size_t close = code.find(')', open);
                const std::string inside =
                    code.substr(open + 1, close == std::string::npos ? 0 : close - open - 1);
                std::size_t ip = 0;
                while ((ip = inside.find(var, ip)) != std::string::npos) {
                    const bool lb = ip == 0 || !ident_char(inside[ip - 1]);
                    const std::size_t ie = ip + var.size();
                    if (lb && (ie >= inside.size() || !ident_char(inside[ie]))) {
                        annotated = true;
                        break;
                    }
                    ip = ie;
                }
            }
            ap += 4;
        }
        if (!annotated)
            out.push_back(Violation{
                rel, line_of(code, pos), "mutex",
                "Mutex `" + var + "` has no XCT_* thread-safety annotation referencing it "
                "(add XCT_GUARDED_BY(" + var + ") to the fields it protects)"});
        pos = after;
    }
}

// ------------------------------------------------------------------ ids ----

void rule_ids(const std::string& rel, const Blanked& b, std::vector<Violation>& out)
{
    // core/ids.hpp defines the strong types; minimpi is the raw-rank
    // boundary (it speaks world ranks like MPI does); the lint's own
    // sources mention the tokens in messages.
    if (rel == "src/core/ids.hpp" || path_starts_with(rel, "src/minimpi/") ||
        path_starts_with(rel, "tools/xct_lint/"))
        return;
    static const std::vector<std::string> axes = {"rank", "group", "view", "slab", "job"};
    static const std::vector<std::string> types = {"index_t", "int"};
    const std::string& code = b.code;
    for (const auto& type : types) {
        std::size_t pos = 0;
        while ((pos = code.find(type, pos)) != std::string::npos) {
            const std::size_t after = pos + type.size();
            if ((pos > 0 && (ident_char(code[pos - 1]) || code[pos - 1] == ':')) ||
                (after < code.size() && ident_char(code[after]))) {
                pos = after;
                continue;
            }
            std::size_t t = after;
            while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t]))) ++t;
            std::size_t ve = t;
            while (ve < code.size() && ident_char(code[ve])) ++ve;
            std::string var = code.substr(t, ve - t);
            if (!var.empty() && var.back() == '_') var.pop_back();
            std::size_t sep = ve;
            while (sep < code.size() && std::isspace(static_cast<unsigned char>(code[sep])))
                ++sep;
            const bool declares = sep < code.size() && (code[sep] == ',' || code[sep] == ')' ||
                                                        code[sep] == ';' || code[sep] == '=' ||
                                                        code[sep] == '{');
            if (declares && std::find(axes.begin(), axes.end(), var) != axes.end())
                out.push_back(Violation{
                    rel, line_of(code, pos), "ids",
                    "raw `" + type + "` declaration named `" + code.substr(t, ve - t) +
                        "` — use the strong " +
                        std::string(1, static_cast<char>(std::toupper(
                                           static_cast<unsigned char>(var[0])))) +
                        var.substr(1) + "Id from core/ids.hpp (minimpi is the only raw-" +
                        "rank boundary)"});
            pos = after;
        }
    }
}

// ------------------------------------------------------------ lockorder ----

/// Normalise a guarded-mutex expression into a graph node: whitespace
/// stripped, `->` folded to `.`, leading `this.` / `&` dropped.  Keeping
/// the FULL access path (not just the final member) is what separates
/// `team.m` from `st.m` — collapsing both to `m` would invent a self-edge
/// where the code locks two different objects.
std::string normalize_lock_expr(const std::string& raw)
{
    std::string s;
    s.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        if (c == '-' && i + 1 < raw.size() && raw[i + 1] == '>') {
            s.push_back('.');
            ++i;
            continue;
        }
        s.push_back(c);
    }
    if (s.rfind("this.", 0) == 0) s.erase(0, 5);
    if (!s.empty() && s.front() == '&') s.erase(0, 1);
    while (!s.empty() && s.front() == '*') s.erase(0, 1);
    return s;
}

}  // namespace

std::vector<LockEdge> extract_lock_edges(const std::string& rel, const std::string& source)
{
    std::vector<LockEdge> edges;
    if (rel == "src/core/mutex.hpp" || path_starts_with(rel, "src/core/lockorder.") ||
        path_starts_with(rel, "tools/xct_lint/"))
        return edges;
    const Blanked b = blank(source);
    const std::string& code = b.code;

    struct Guard {
        int depth;
        std::string node;
    };
    std::vector<Guard> held;
    int depth = 0;
    std::size_t i = 0;
    while (i < code.size()) {
        const char c = code[i];
        if (c == '{') {
            ++depth;
            ++i;
            continue;
        }
        if (c == '}') {
            --depth;
            while (!held.empty() && held.back().depth > depth) held.pop_back();
            ++i;
            continue;
        }
        if (c != 'M' && c != 'U') {
            ++i;
            continue;
        }
        static const std::string kinds[2] = {"MutexLock", "UniqueLock"};
        const std::string* kind = nullptr;
        for (const auto& k : kinds)
            if (code.compare(i, k.size(), k) == 0) kind = &k;
        if (kind == nullptr || (i > 0 && (ident_char(code[i - 1]) || code[i - 1] == ':'))) {
            ++i;
            continue;
        }
        std::size_t t = i + kind->size();
        if (t < code.size() && ident_char(code[t])) {
            ++i;
            continue;
        }
        // Declaration form `MutexLock name(expr);` — skip the guard name.
        while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t]))) ++t;
        while (t < code.size() && ident_char(code[t])) ++t;
        while (t < code.size() && std::isspace(static_cast<unsigned char>(code[t]))) ++t;
        if (t >= code.size() || (code[t] != '(' && code[t] != '{')) {
            ++i;
            continue;
        }
        const char open = code[t];
        const char close = open == '(' ? ')' : '}';
        int pdepth = 0;
        std::size_t e = t;
        for (; e < code.size(); ++e) {
            if (code[e] == open) ++pdepth;
            if (code[e] == close && --pdepth == 0) break;
        }
        if (e >= code.size()) break;
        const std::string node = normalize_lock_expr(code.substr(t + 1, e - t - 1));
        if (!node.empty()) {
            for (const auto& g : held)
                edges.push_back(LockEdge{g.node, node, rel, line_of(code, i)});
            held.push_back(Guard{depth, node});
        }
        i = e + 1;
    }
    return edges;
}

std::vector<Violation> check_lock_graph(const std::vector<LockEdge>& edges,
                                        const std::vector<std::string>& whitelist)
{
    // Parse whitelist lines "from -> to" (whitespace-tolerant, '#' comments).
    std::vector<std::pair<std::string, std::string>> allowed;
    for (const auto& raw : whitelist) {
        std::string line = raw.substr(0, raw.find('#'));
        const std::size_t arrow = line.find("->");
        if (arrow == std::string::npos) continue;
        auto trim = [](std::string s) {
            while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
                s.erase(0, 1);
            while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.pop_back();
            return s;
        };
        const std::string from = trim(line.substr(0, arrow));
        const std::string to = trim(line.substr(arrow + 2));
        if (!from.empty() && !to.empty()) allowed.emplace_back(from, to);
    }
    const auto is_allowed = [&](const std::string& f, const std::string& t) {
        for (const auto& [af, at] : allowed)
            if (af == f && at == t) return true;
        return false;
    };

    // Deduplicated adjacency, keeping one witness (file:line) per edge.
    std::vector<std::string> nodes;
    const auto node_id = [&](const std::string& n) {
        const auto it = std::find(nodes.begin(), nodes.end(), n);
        if (it != nodes.end()) return static_cast<std::size_t>(it - nodes.begin());
        nodes.push_back(n);
        return nodes.size() - 1;
    };
    struct Adj {
        std::size_t to;
        std::string file;
        int line;
    };
    std::vector<std::vector<Adj>> adj;
    for (const auto& e : edges) {
        const std::size_t f = node_id(e.from);
        const std::size_t t = node_id(e.to);
        adj.resize(nodes.size());
        bool dup = false;
        for (const auto& a : adj[f]) dup = dup || a.to == t;
        if (!dup) adj[f].push_back(Adj{t, e.file, e.line});
    }
    adj.resize(nodes.size());

    // DFS with colouring; a back edge closes a cycle.  Each cycle is
    // reported once, keyed by its sorted node set.
    std::vector<Violation> out;
    std::vector<std::string> seen_cycles;
    std::vector<int> color(nodes.size(), 0);  // 0 white, 1 on stack, 2 done
    std::vector<std::size_t> stack;
    const std::function<void(std::size_t)> dfs = [&](std::size_t u) {
        color[u] = 1;
        stack.push_back(u);
        for (const auto& a : adj[u]) {
            if (color[a.to] == 1) {
                // Reconstruct u -> ... -> a.to from the stack.
                auto it = std::find(stack.begin(), stack.end(), a.to);
                std::vector<std::string> cyc;
                for (; it != stack.end(); ++it) cyc.push_back(nodes[*it]);
                // A cycle is accepted only when EVERY edge in it was
                // reviewed: a partial whitelist must not hide a cycle
                // that traverses unreviewed acquisitions.
                bool fully_allowed = true;
                for (std::size_t i = 0; i < cyc.size(); ++i)
                    fully_allowed =
                        fully_allowed && is_allowed(cyc[i], cyc[(i + 1) % cyc.size()]);
                if (fully_allowed) continue;
                std::vector<std::string> key = cyc;
                std::sort(key.begin(), key.end());
                std::string keystr;
                for (const auto& k : key) keystr += k + "|";
                if (std::find(seen_cycles.begin(), seen_cycles.end(), keystr) ==
                    seen_cycles.end()) {
                    seen_cycles.push_back(keystr);
                    std::string path;
                    for (const auto& n : cyc) path += n + " -> ";
                    path += nodes[a.to];
                    out.push_back(Violation{
                        a.file, a.line, "lockorder",
                        "lock-order cycle: " + path +
                            " — a thread holding the first mutex can deadlock against one "
                            "holding the last (whitelist reviewed edges in "
                            "tools/xct_lint/lockorder_allow.txt)"});
                }
            } else if (color[a.to] == 0) {
                dfs(a.to);
            }
        }
        stack.pop_back();
        color[u] = 2;
    };
    for (std::size_t u = 0; u < nodes.size(); ++u)
        if (color[u] == 0) dfs(u);
    return out;
}

namespace {

// ------------------------------------------------------------- deadname ----

/// Constants declared in names.hpp: identifier + 1-based declaration line.
struct NameDecl {
    std::string ident;
    int line = 0;
};

std::vector<NameDecl> parse_name_decls(const std::string& names_hpp_source)
{
    std::vector<NameDecl> decls;
    const Blanked b = blank(names_hpp_source);
    std::istringstream lines(b.code);
    std::string line;
    int ln = 0;
    while (std::getline(lines, line)) {
        ++ln;
        const std::size_t at = line.find("constexpr const char*");
        if (at == std::string::npos) continue;
        std::size_t t = at + std::string("constexpr const char*").size();
        while (t < line.size() && std::isspace(static_cast<unsigned char>(line[t]))) ++t;
        std::size_t e = t;
        while (e < line.size() && ident_char(line[e])) ++e;
        const std::string ident = line.substr(t, e - t);
        if (!ident.empty() && ident[0] == 'k') decls.push_back(NameDecl{ident, ln});
    }
    return decls;
}

/// Word-boundary search for `ident` in blanked code.
bool references_ident(const std::string& code, const std::string& ident)
{
    std::size_t pos = 0;
    while ((pos = code.find(ident, pos)) != std::string::npos) {
        const std::size_t after = pos + ident.size();
        if ((pos == 0 || !ident_char(code[pos - 1])) &&
            (after >= code.size() || !ident_char(code[after])))
            return true;
        pos = after;
    }
    return false;
}

void rule_deadname(const std::string& names_rel, const std::string& names_source,
                   const std::vector<std::string>& other_blanked_sources,
                   std::vector<Violation>& out)
{
    for (const auto& decl : parse_name_decls(names_source)) {
        bool used = false;
        for (const auto& code : other_blanked_sources)
            if (references_ident(code, decl.ident)) {
                used = true;
                break;
            }
        if (!used)
            out.push_back(Violation{
                names_rel, decl.line, "deadname",
                "`" + decl.ident + "` is registered in names.hpp but referenced nowhere — "
                "delete the registration or wire the emitter that was meant to use it"});
    }
}

std::string read_file(const std::filesystem::path& p)
{
    std::ifstream f(p, std::ios::binary);
    if (!f) throw std::runtime_error("xct_lint: cannot read " + p.string());
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

}  // namespace

bool Registry::allows(const std::string& name) const
{
    if (std::find(exact.begin(), exact.end(), name) != exact.end()) return true;
    for (const auto& p : prefixes)
        if (name.size() > p.size() && name.compare(0, p.size(), p) == 0) return true;
    return false;
}

Registry parse_registry(const std::string& names_hpp_source)
{
    Registry reg;
    const Blanked b = blank(names_hpp_source);
    // A literal registers when its line declares a `constexpr const char*`
    // constant; prose in comments was blanked before literal extraction,
    // so only real initialisers remain.
    std::istringstream lines(b.code);
    std::string line;
    std::vector<int> decl_lines;
    int ln = 0;
    while (std::getline(lines, line)) {
        ++ln;
        if (line.find("constexpr const char*") != std::string::npos) decl_lines.push_back(ln);
    }
    for (const auto& lit : b.literals) {
        if (std::find(decl_lines.begin(), decl_lines.end(), lit.line) == decl_lines.end())
            continue;
        if (lit.text.empty()) continue;
        reg.exact.push_back(lit.text);
        if (lit.text.back() == '.') reg.prefixes.push_back(lit.text);
    }
    return reg;
}

std::vector<Violation> lint_source(const std::string& rel, const std::string& source,
                                   const Registry& reg)
{
    std::vector<Violation> out;
    const Blanked b = blank(source);
    rule_names(rel, source, b, reg, out);
    rule_rawmem(rel, b, out);
    rule_intloop(rel, b, out);
    rule_mutex(rel, b, out);
    rule_ids(rel, b, out);
    std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& c) {
        return a.line < c.line;
    });
    return out;
}

std::vector<Violation> lint_files(const std::filesystem::path& root, const FileSet& files)
{
    const Registry reg = parse_registry(read_file(root / "src" / "core" / "names.hpp"));

    std::vector<Violation> out;
    std::vector<LockEdge> edges;
    std::vector<std::string> blanked_codes;
    const std::string* names_source = nullptr;
    for (const auto& [rel, source] : files) {
        const auto vs = lint_source(rel, source, reg);
        out.insert(out.end(), vs.begin(), vs.end());
        const auto es = extract_lock_edges(rel, source);
        edges.insert(edges.end(), es.begin(), es.end());
        if (rel == "src/core/names.hpp")
            names_source = &source;
        else
            blanked_codes.push_back(blank(source).code);
    }

    std::vector<std::string> whitelist;
    {
        std::ifstream wl(root / "tools" / "xct_lint" / "lockorder_allow.txt");
        std::string line;
        while (std::getline(wl, line)) whitelist.push_back(line);
    }
    const auto lvs = check_lock_graph(edges, whitelist);
    out.insert(out.end(), lvs.begin(), lvs.end());

    // deadname needs the registry source in the scanned set: a partial
    // set (a lint fixture, a single TU) must not declare the whole
    // registry dead.
    if (names_source != nullptr)
        rule_deadname("src/core/names.hpp", *names_source, blanked_codes, out);

    std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& c) {
        return a.file != c.file ? a.file < c.file : a.line < c.line;
    });
    return out;
}

std::vector<Violation> lint_tree(const std::filesystem::path& root,
                                 const std::vector<std::string>& dirs)
{
    FileSet set;
    for (const auto& dir : dirs) {
        const auto base = root / dir;
        if (!std::filesystem::exists(base)) continue;
        std::vector<std::filesystem::path> files;
        for (const auto& e : std::filesystem::recursive_directory_iterator(base)) {
            if (!e.is_regular_file()) continue;
            const auto ext = e.path().extension();
            if (ext != ".hpp" && ext != ".cpp") continue;
            if (e.path().string().find("lint_fixtures") != std::string::npos) continue;
            files.push_back(e.path());
        }
        std::sort(files.begin(), files.end());
        for (const auto& p : files)
            set.emplace_back(std::filesystem::relative(p, root).generic_string(), read_file(p));
    }
    return lint_files(root, set);
}

namespace {

/// Repo-relative generic path for `p` if it lives under `root` and is a
/// lintable source; empty otherwise.
std::string lintable_rel(const std::filesystem::path& root, const std::filesystem::path& p,
                         const std::vector<std::string>& scopes)
{
    std::error_code ec;
    const auto canon = std::filesystem::weakly_canonical(p, ec);
    if (ec) return {};
    const auto rel = canon.lexically_relative(std::filesystem::weakly_canonical(root, ec));
    const std::string s = rel.generic_string();
    if (s.empty() || s == "." || s.rfind("..", 0) == 0) return {};
    if (s.find("_deps") != std::string::npos) return {};
    if (s.find("lint_fixtures") != std::string::npos) return {};
    bool in_scope = false;
    for (const auto& scope : scopes) in_scope = in_scope || s.rfind(scope + "/", 0) == 0;
    if (!in_scope) return {};
    const auto ext = canon.extension();
    if (ext != ".hpp" && ext != ".cpp") return {};
    return s;
}

/// Collect `file` plus every repo-local `#include "..."` it reaches,
/// depth-first, into `set` (deduplicated via `seen`).  Quoted includes
/// resolve the way the build does: relative to the including file, then
/// against root/src and root/tools/xct_lint (the repo's include roots).
void collect_tu(const std::filesystem::path& root, const std::filesystem::path& file,
                const std::vector<std::string>& scopes, std::vector<std::string>& seen,
                FileSet& set)
{
    const std::string rel = lintable_rel(root, file, scopes);
    if (rel.empty() || std::find(seen.begin(), seen.end(), rel) != seen.end()) return;
    seen.push_back(rel);
    const std::string source = read_file(root / rel);
    set.emplace_back(rel, source);

    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
        std::size_t h = line.find_first_not_of(" \t");
        if (h == std::string::npos || line[h] != '#') continue;
        const std::size_t inc = line.find("include", h);
        if (inc == std::string::npos) continue;
        const std::size_t open = line.find('"', inc);
        if (open == std::string::npos) continue;
        const std::size_t close = line.find('"', open + 1);
        if (close == std::string::npos) continue;
        const std::string target = line.substr(open + 1, close - open - 1);
        const std::filesystem::path candidates[] = {
            (root / rel).parent_path() / target,
            root / "src" / target,
            root / "tools" / "xct_lint" / target,
        };
        for (const auto& c : candidates)
            if (std::filesystem::exists(c)) {
                collect_tu(root, c, scopes, seen, set);
                break;
            }
    }
}

}  // namespace

std::vector<Violation> lint_compile_db(const std::filesystem::path& root,
                                       const std::filesystem::path& compile_db,
                                       const std::vector<std::string>& scopes)
{
    const xct::Json db = xct::Json::parse(read_file(compile_db));
    if (db.type != xct::Json::Type::Array)
        throw std::invalid_argument("xct_lint: " + compile_db.string() + " is not a JSON array");
    std::vector<std::string> seen;
    FileSet set;
    for (const xct::Json& entry : db.array) {
        std::filesystem::path p = entry.at("file").as_string("file");
        if (p.is_relative())
            p = std::filesystem::path(entry.at("directory").as_string("directory")) / p;
        collect_tu(root, p, scopes, seen, set);
    }
    std::sort(set.begin(), set.end());
    return lint_files(root, set);
}

std::string format(const std::vector<Violation>& violations)
{
    std::ostringstream out;
    for (const auto& v : violations)
        out << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message << "\n";
    return out.str();
}

}  // namespace xct_lint
