/**
 * @file
 * Minimal JSON writer helpers and parser implementation.
 */

#include "sim/json.hh"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace tartan::sim::json {

namespace {

/**
 * Flush the directory entry of @p path: fsync its parent directory so
 * a rename into it is durable.
 */
bool
syncParentDir(const std::string &path)
{
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

bool
writeFileDurable(const std::string &path,
                 const std::function<void(std::ostream &)> &emit,
                 const char *what)
{
    const auto dir = std::filesystem::path(path).parent_path();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }

    // Unique within the process (counter) and across processes (pid),
    // and in the same directory so the rename stays atomic.
    static std::atomic<std::uint64_t> serial{0};
    const unsigned long pid = static_cast<unsigned long>(::getpid());
    const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                            std::to_string(serial.fetch_add(1));

    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out) {
            warn("%s: cannot write %s", what, tmp.c_str());
            return false;
        }
        emit(out);
        out.flush();
        if (!out) {
            warn("%s: short write to %s", what, tmp.c_str());
            return false;
        }
        out.close();
        if (out.fail()) {
            warn("%s: close failed for %s", what, tmp.c_str());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }

    // Flush the temporary's *contents* before the rename makes it
    // visible: rename-then-crash must never expose a zero-length or
    // partial file under the final name.
    {
        const int fd = ::open(tmp.c_str(), O_RDONLY);
        if (fd < 0 || ::fsync(fd) != 0) {
            warn("%s: cannot fsync %s", what, tmp.c_str());
            if (fd >= 0)
                ::close(fd);
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
        ::close(fd);
    }

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("%s: cannot rename %s into place: %s", what, tmp.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    // And the directory entry, so the rename itself is durable.
    if (!syncParentDir(path))
        warn("%s: cannot fsync parent directory of %s", what,
             path.c_str());
    return true;
}

void
writeString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    // Integers (the common case: cycle/event counters) print exactly.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        os << buf;
        return;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : cur(text.data()), end(text.data() + text.size()), errOut(err)
    {
    }

    bool
    run(Value &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (cur != end)
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (errOut && errOut->empty())
            *errOut = msg;
        return false;
    }

    void
    skipWs()
    {
        while (cur != end &&
               (*cur == ' ' || *cur == '\t' || *cur == '\n' || *cur == '\r'))
            ++cur;
    }

    bool
    consume(char c)
    {
        if (cur == end || *cur != c)
            return false;
        ++cur;
        return true;
    }

    bool
    literal(const char *word, Value &out, Value::Kind kind, bool b)
    {
        for (const char *p = word; *p; ++p, ++cur)
            if (cur == end || *cur != *p)
                return fail("invalid literal");
        out.kind = kind;
        out.boolean = b;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (cur != end && *cur != '"') {
            char c = *cur++;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (cur == end)
                return fail("dangling escape");
            const char esc = *cur++;
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (end - cur < 4)
                    return fail("truncated \\u escape");
                char hex[5] = {cur[0], cur[1], cur[2], cur[3], 0};
                cur += 4;
                const long code = std::strtol(hex, nullptr, 16);
                // Only BMP code points below 0x80 are emitted by us;
                // anything else round-trips as '?'.
                out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (!consume('"'))
            return fail("unterminated string");
        return true;
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (cur == end)
            return fail("unexpected end of input");
        switch (*cur) {
          case '{': {
            ++cur;
            out.kind = Value::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':' in object");
                Value member;
                if (!parseValue(member))
                    return false;
                out.object.emplace(std::move(key), std::move(member));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}' in object");
            }
          }
          case '[': {
            ++cur;
            out.kind = Value::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Value elem;
                if (!parseValue(elem))
                    return false;
                out.array.push_back(std::move(elem));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']' in array");
            }
          }
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.string);
          case 't':
            return literal("true", out, Value::Kind::Bool, true);
          case 'f':
            return literal("false", out, Value::Kind::Bool, false);
          case 'n':
            return literal("null", out, Value::Kind::Null, false);
          default: {
            char *after = nullptr;
            out.kind = Value::Kind::Number;
            out.number = std::strtod(cur, &after);
            if (after == cur || after > end)
                return fail("invalid number");
            cur = after;
            return true;
          }
        }
    }

    const char *cur;
    const char *end;
    std::string *errOut;
};

} // namespace

bool
parse(std::string_view text, Value &out, std::string *err)
{
    return Parser(text, err).run(out);
}

} // namespace tartan::sim::json
