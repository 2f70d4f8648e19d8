#include "sim/jsonl.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace varsim
{
namespace sim
{

namespace
{

/** Skip spaces/tabs; newlines never occur inside a line. */
void
skipWs(const char *s, std::size_t n, std::size_t &i)
{
    while (i < n && (s[i] == ' ' || s[i] == '\t'))
        ++i;
}

/**
 * Parse a quoted string starting at s[i] == '"', unescaping it in
 * place (an escape only ever shrinks); [*off, *off + *len) receives
 * its text and i lands one past the closing quote. Returns false on
 * damage.
 */
bool
parseString(char *s, std::size_t n, std::size_t &i, std::size_t *off,
            std::size_t *len)
{
    if (i >= n || s[i] != '"')
        return false;
    const std::size_t start = ++i;
    while (i < n && s[i] != '"' && s[i] != '\\')
        ++i; // the unescaped prefix stays where it is
    std::size_t w = i;
    while (i < n) {
        const char c = s[i++];
        if (c == '"') {
            *off = start;
            *len = w - start;
            return true;
        }
        if (c == '\\') {
            if (i >= n)
                return false;
            switch (s[i++]) {
              case '"': s[w++] = '"'; break;
              case '\\': s[w++] = '\\'; break;
              case '/': s[w++] = '/'; break;
              case 'n': s[w++] = '\n'; break;
              case 't': s[w++] = '\t'; break;
              case 'r': s[w++] = '\r'; break;
              default: return false; // \uXXXX etc.: never emitted
            }
        } else {
            s[w++] = c;
        }
    }
    return false; // unterminated: torn line
}

/**
 * strtod over @p text read as a C string (it stops at a NUL): its
 * value in *v, and whether it consumed the text entirely.
 */
bool
strtodWhole(std::string_view text, double *v)
{
    const std::string z(text);
    char *end = nullptr;
    *v = std::strtod(z.c_str(), &end);
    return end != z.c_str() && *end == '\0';
}

/**
 * @p text as strtod reads it (see strtodWhole()). from_chars rounds
 * like strtod, so a text it consumes entirely keeps its value,
 * except a NaN: from_chars drops the payload of "nan(12)".
 */
bool
toDouble(std::string_view text, double *v)
{
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, *v);
    if (ec == std::errc() && ptr == last && !std::isnan(*v))
        return true;
    return strtodWhole(text, v);
}

/** @p text as strtoull reads it in base 10. */
std::uint64_t
toUnsigned(std::string_view text)
{
    const char *last = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc() && ptr == last)
        return v;
    const std::string z(text);
    return std::strtoull(z.c_str(), nullptr, 10);
}

/** A character a bare number token may hold. */
bool
numberChar(char c)
{
    switch (c) {
      case '0': case '1': case '2': case '3': case '4':
      case '5': case '6': case '7': case '8': case '9':
      case '-': case '+': case '.': case 'e': case 'E':
      case 'i': case 'n': case 'f': case 'a':
        return true;
      default:
        return false;
    }
}

/**
 * Parse a bare number token (anything strtod consumes entirely);
 * its text lands in [*off, *off + *len), its value in *v.
 */
bool
parseNumber(const char *s, std::size_t n, std::size_t &i,
            std::size_t *off, std::size_t *len, double *v)
{
    const std::size_t start = i;
    // Accept digit/sign/exponent characters plus inf/nan letters;
    // toDouble() below re-validates the whole token.
    while (i < n && numberChar(s[i]))
        ++i;
    *off = start;
    *len = i - start;
    return *len > 0 && toDouble({s + start, *len}, v);
}

/**
 * Append @p s to @p out escaped for a JSON string: the quote, the
 * backslash, newline, tab and carriage return (the parser reads back
 * exactly these).
 */
void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
}

} // anonymous namespace

bool
JsonLine::parse(std::string_view line)
{
    buf.assign(line);
    fields.clear();
    items.clear();
    char *s = buf.data();
    const std::size_t n = buf.size();
    std::size_t i = 0;
    skipWs(s, n, i);
    if (i >= n || s[i] != '{')
        return false;
    ++i;
    skipWs(s, n, i);
    if (i < n && s[i] == '}')
        return true; // empty object
    while (true) {
        skipWs(s, n, i);
        Field f;
        if (!parseString(s, n, i, &f.key.off, &f.key.len))
            return false;
        skipWs(s, n, i);
        if (i >= n || s[i] != ':')
            return false;
        ++i;
        skipWs(s, n, i);
        if (i >= n)
            return false;
        if (s[i] == '"') {
            if (!parseString(s, n, i, &f.value.off, &f.value.len))
                return false;
        } else if (s[i] == '[') {
            ++i;
            f.kind = Kind::Array;
            f.value.off = items.size();
            skipWs(s, n, i);
            if (i < n && s[i] == ']') {
                ++i;
            } else {
                while (true) {
                    skipWs(s, n, i);
                    Span item;
                    double ignored = 0.0;
                    if (i < n && s[i] == '"') {
                        if (!parseString(s, n, i, &item.off,
                                         &item.len))
                            return false;
                    } else if (!parseNumber(s, n, i, &item.off,
                                            &item.len, &ignored)) {
                        return false;
                    }
                    items.push_back(item);
                    skipWs(s, n, i);
                    if (i >= n)
                        return false;
                    if (s[i] == ',') {
                        ++i;
                        continue;
                    }
                    if (s[i] == ']') {
                        ++i;
                        break;
                    }
                    return false;
                }
            }
            f.value.len = items.size() - f.value.off;
        } else {
            f.kind = Kind::Number;
            if (!parseNumber(s, n, i, &f.value.off, &f.value.len,
                             &f.number))
                return false;
        }
        fields.push_back(f);
        skipWs(s, n, i);
        if (i >= n)
            return false;
        if (s[i] == ',') {
            ++i;
            continue;
        }
        if (s[i] == '}')
            return true;
        return false;
    }
}

const JsonLine::Field *
JsonLine::last(std::string_view key, bool array) const
{
    for (auto it = fields.rbegin(); it != fields.rend(); ++it)
        if ((it->kind == Kind::Array) == array && text(it->key) == key)
            return &*it;
    return nullptr;
}

bool
JsonLine::has(std::string_view key) const
{
    return last(key, false) || last(key, true);
}

std::string
JsonLine::str(std::string_view key, const std::string &dflt) const
{
    const Field *f = last(key, false);
    return f ? std::string(text(f->value)) : dflt;
}

std::uint64_t
JsonLine::num(std::string_view key, std::uint64_t dflt) const
{
    const Field *f = last(key, false);
    return f ? toUnsigned(text(f->value)) : dflt;
}

double
JsonLine::real(std::string_view key, double dflt) const
{
    const Field *f = last(key, false);
    if (!f)
        return dflt;
    if (f->kind == Kind::Number)
        return f->number;
    double v = 0.0;
    toDouble(text(f->value), &v);
    return v;
}

std::vector<std::string>
JsonLine::list(std::string_view key) const
{
    std::vector<std::string> out;
    if (const Field *f = last(key, true)) {
        out.reserve(f->value.len);
        for (std::size_t k = 0; k < f->value.len; ++k)
            out.emplace_back(text(items[f->value.off + k]));
    }
    return out;
}

bool
JsonLine::quotedNumber(std::string_view text, double *v)
{
    return toDouble(text, v);
}

void
JsonWriter::beginField(const std::string &key)
{
    if (body.size() > 1)
        body += ',';
    body += '"';
    appendEscaped(body, key);
    body += "\":";
}

JsonWriter &
JsonWriter::field(const std::string &key, const std::string &value)
{
    beginField(key);
    body += '"';
    appendEscaped(body, value);
    body += '"';
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, std::uint64_t value)
{
    beginField(key);
    char buf[24];
    body.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, double value)
{
    // 17 significant digits round-trip IEEE754 doubles exactly:
    // replayed metrics are bit-identical to the ones the simulator
    // produced. to_chars at general precision 17 writes what
    // printf's "%.17g" writes (nan, inf and -0 included; pinned by
    // tests/sim/test_jsonl.cc) at a fraction of its cost.
    beginField(key);
    char buf[32];
    body.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general, 17)
                         .ptr);
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key,
                  const std::vector<std::string> &values)
{
    beginField(key);
    body += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            body += ',';
        body += '"';
        appendEscaped(body, values[i]);
        body += '"';
    }
    body += ']';
    return *this;
}

} // namespace sim
} // namespace varsim
