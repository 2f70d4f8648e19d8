/**
 * @file
 * Differential and mutation test of the JSONL line parser.
 *
 * sim::JsonLine keeps a flat field table and converts numbers with
 * std::from_chars, falling back to strtod. MapLine below is the
 * std::map parser it replaced, kept here only as the oracle: every
 * line of a seeded corpus (writer output plus hand edits) and of its
 * seeded byte flips, truncations and insertions must get the same
 * accept/reject decision and the same answer from every accessor,
 * doubles compared by bits. The oracle's realsWithPrefix() is what
 * visitWithPrefix() must add up to once each key keeps its last copy
 * and only numbers stay. One JsonLine is reused across the whole
 * corpus, the way replay reuses it, so stale state would show too.
 *
 * The writer side: JsonWriter formats doubles with std::to_chars, and
 * every double must come out exactly as printf's "%.17g" printed it
 * (seeded random bit patterns, with their NaN payloads, infinities,
 * subnormals and -0), and every field must read back through the
 * oracle as it was written.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/jsonl.hh"
#include "sim/random.hh"

namespace varsim
{
namespace sim
{
namespace
{

/** The std::map parser JsonLine replaced, unchanged: the oracle. */
class MapLine
{
  public:
    bool
    parse(const std::string &line)
    {
        scalars.clear();
        arrays.clear();
        std::size_t i = 0;
        skipWs(line, i);
        if (i >= line.size() || line[i] != '{')
            return false;
        ++i;
        skipWs(line, i);
        if (i < line.size() && line[i] == '}')
            return true;
        while (true) {
            skipWs(line, i);
            std::string key;
            if (!parseString(line, i, key))
                return false;
            skipWs(line, i);
            if (i >= line.size() || line[i] != ':')
                return false;
            ++i;
            skipWs(line, i);
            if (i >= line.size())
                return false;
            if (line[i] == '"') {
                std::string value;
                if (!parseString(line, i, value))
                    return false;
                scalars[key] = value;
            } else if (line[i] == '[') {
                ++i;
                std::vector<std::string> items;
                skipWs(line, i);
                if (i < line.size() && line[i] == ']') {
                    ++i;
                } else {
                    while (true) {
                        skipWs(line, i);
                        std::string item;
                        if (i < line.size() && line[i] == '"') {
                            if (!parseString(line, i, item))
                                return false;
                        } else if (!parseNumber(line, i, item)) {
                            return false;
                        }
                        items.push_back(item);
                        skipWs(line, i);
                        if (i >= line.size())
                            return false;
                        if (line[i] == ',') {
                            ++i;
                            continue;
                        }
                        if (line[i] == ']') {
                            ++i;
                            break;
                        }
                        return false;
                    }
                }
                arrays[key] = items;
            } else {
                std::string value;
                if (!parseNumber(line, i, value))
                    return false;
                scalars[key] = value;
            }
            skipWs(line, i);
            if (i >= line.size())
                return false;
            if (line[i] == ',') {
                ++i;
                continue;
            }
            if (line[i] == '}')
                return true;
            return false;
        }
    }

    bool
    has(const std::string &key) const
    {
        return scalars.count(key) > 0 || arrays.count(key) > 0;
    }

    std::string
    str(const std::string &key) const
    {
        auto it = scalars.find(key);
        return it != scalars.end() ? it->second : "<absent>";
    }

    std::uint64_t
    num(const std::string &key, std::uint64_t dflt) const
    {
        auto it = scalars.find(key);
        if (it == scalars.end())
            return dflt;
        return std::strtoull(it->second.c_str(), nullptr, 10);
    }

    double
    real(const std::string &key, double dflt) const
    {
        auto it = scalars.find(key);
        if (it == scalars.end())
            return dflt;
        return std::strtod(it->second.c_str(), nullptr);
    }

    std::vector<std::string>
    list(const std::string &key) const
    {
        auto it = arrays.find(key);
        return it != arrays.end() ? it->second
                                  : std::vector<std::string>{};
    }

    std::vector<std::pair<std::string, double>>
    realsWithPrefix(const std::string &prefix) const
    {
        std::vector<std::pair<std::string, double>> out;
        for (auto it = scalars.lower_bound(prefix);
             it != scalars.end(); ++it) {
            if (it->first.compare(0, prefix.size(), prefix) != 0)
                break;
            char *end = nullptr;
            const double v = std::strtod(it->second.c_str(), &end);
            if (end == it->second.c_str() || *end != '\0')
                continue;
            out.emplace_back(it->first.substr(prefix.size()), v);
        }
        return out;
    }

    /** Every key either map holds: the accessors' probe set. */
    std::set<std::string>
    keys() const
    {
        std::set<std::string> out;
        for (const auto &kv : scalars)
            out.insert(kv.first);
        for (const auto &kv : arrays)
            out.insert(kv.first);
        return out;
    }

  private:
    static void
    skipWs(const std::string &s, std::size_t &i)
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t'))
            ++i;
    }

    static bool
    parseString(const std::string &s, std::size_t &i,
                std::string &out)
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        out.clear();
        while (i < s.size()) {
            const char c = s[i++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (i >= s.size())
                    return false;
                const char e = s[i++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    static bool
    parseNumber(const std::string &s, std::size_t &i,
                std::string &out)
    {
        const std::size_t start = i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                s[i] == 'e' || s[i] == 'E' || s[i] == 'i' ||
                s[i] == 'n' || s[i] == 'f' || s[i] == 'a'))
            ++i;
        out = s.substr(start, i - start);
        if (out.empty())
            return false;
        char *end = nullptr;
        std::strtod(out.c_str(), &end);
        return end == out.c_str() + out.size();
    }

    std::map<std::string, std::string> scalars;
    std::map<std::string, std::vector<std::string>> arrays;
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** One visited field: its name, and its value when it is a number. */
struct Visited
{
    std::string name;
    bool number;
    double value;
};

std::vector<Visited>
visitAll(const JsonLine &line, const std::string &prefix)
{
    std::vector<Visited> out;
    line.visitWithPrefix(prefix, [&](std::string_view name,
                                     const double *v) {
        out.push_back({std::string(name), v != nullptr, v ? *v : 0.0});
    });
    return out;
}

/**
 * The visit read one value per key: key order, each key's last copy,
 * numbers only (what the store keeps of a metrics record).
 */
std::vector<std::pair<std::string, double>>
keptReals(const JsonLine &line, const std::string &prefix)
{
    std::vector<Visited> hits = visitAll(line, prefix);
    std::stable_sort(hits.begin(), hits.end(),
                     [](const Visited &a, const Visited &b) {
                         return a.name < b.name;
                     });
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t k = 0; k < hits.size(); ++k)
        if ((k + 1 == hits.size() || hits[k + 1].name != hits[k].name) &&
            hits[k].number)
            out.emplace_back(hits[k].name, hits[k].value);
    return out;
}

/** Every accessor of @p got must answer like @p want's. */
void
expectSame(const MapLine &want, const JsonLine &got,
           const std::string &line)
{
    std::set<std::string> probes = want.keys();
    for (const char *k : {"", "type", "m:", "m", "zz", "k", "a"})
        probes.insert(k);
    for (const std::string &k : probes) {
        SCOPED_TRACE("key '" + k + "' of line '" + line + "'");
        EXPECT_EQ(got.has(k), want.has(k));
        EXPECT_EQ(got.str(k, "<absent>"), want.str(k));
        EXPECT_EQ(got.num(k, 7), want.num(k, 7));
        EXPECT_EQ(bits(got.real(k, 0.5)), bits(want.real(k, 0.5)));
        EXPECT_EQ(got.list(k), want.list(k));
    }
    std::set<std::string> prefixes = {"", "m", "m:", "m:a", "zz"};
    for (const std::string &k : want.keys()) {
        prefixes.insert(k);
        prefixes.insert(k.substr(0, 1));
    }
    for (const std::string &p : prefixes) {
        SCOPED_TRACE("prefix '" + p + "' of line '" + line + "'");
        const auto w = want.realsWithPrefix(p);
        const auto g = keptReals(got, p);
        ASSERT_EQ(g.size(), w.size());
        for (std::size_t i = 0; i < w.size(); ++i) {
            EXPECT_EQ(g[i].first, w[i].first);
            EXPECT_EQ(bits(g[i].second), bits(w[i].second));
        }
    }
}

/** Parse @p line with both; true when both accepted it. */
bool
check(JsonLine &got, const std::string &line)
{
    MapLine want;
    const bool ok = want.parse(line);
    EXPECT_EQ(got.parse(line), ok) << "line '" << line << "'";
    expectSame(want, got, line);
    return ok;
}

std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Doubles the writer may emit, the awkward ones first. */
std::vector<double>
specialDoubles(Random &rng)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> out = {
        0.0, -0.0, inf, -inf, nan, -nan, 5e-324, -5e-324,
        2.2250738585072009e-308, DBL_MIN, DBL_MAX, -DBL_MAX,
        DBL_EPSILON, 1.0, 0.1, 11000.25, 1e22, 1e23, 123456789012345678.0,
    };
    for (int k = 0; k < 40; ++k) {
        // Random finite bit patterns: %.17g needs all 17 digits.
        double v;
        do {
            v = std::bit_cast<double>(rng.next());
        } while (!std::isfinite(v));
        out.push_back(v);
        out.push_back(rng.uniformReal(-1e6, 1e6));
    }
    return out;
}

/** Writer output: store-record shaped lines with random content. */
std::vector<std::string>
writerCorpus(Random &rng)
{
    const std::vector<double> doubles = specialDoubles(rng);
    const std::vector<std::string> names = {
        "type", "group", "run", "m:system.cpu0.ipc", "m:a", "m:b",
        "m:", "configs", "k", "a\"b", "tab\there", "sl/ash",
        "back\\slash", "new\nline", "m:z\r",
    };
    std::vector<std::string> out;
    for (int n = 0; n < 200; ++n) {
        JsonWriter w;
        const int fields = static_cast<int>(rng.uniformInt(0, 12));
        for (int f = 0; f < fields; ++f) {
            const std::string &key =
                names[rng.uniformInt(0, names.size() - 1)];
            switch (rng.uniformInt(0, 4)) {
              case 0:
                w.field(key, doubles[rng.uniformInt(
                                 0, doubles.size() - 1)]);
                break;
              case 1:
                w.field(key, rng.next() >> rng.uniformInt(0, 63));
                break;
              case 2:
                w.field(key, names[rng.uniformInt(
                                 0, names.size() - 1)]);
                break;
              case 3:
                w.field(key, g17(doubles[rng.uniformInt(
                                 0, doubles.size() - 1)]));
                break;
              default: {
                std::vector<std::string> items;
                for (std::uint64_t i = rng.uniformInt(0, 3); i; --i)
                    items.push_back(
                        names[rng.uniformInt(0, names.size() - 1)]);
                w.field(key, items);
              }
            }
        }
        out.push_back(w.str());
    }
    // Every special double as a metric, one per line and all in one.
    JsonWriter all;
    all.field("type", std::string("metrics"));
    for (std::size_t i = 0; i < doubles.size(); ++i) {
        JsonWriter one;
        one.field("m:x", doubles[i]);
        out.push_back(one.str());
        all.field("m:v" + std::to_string(i), doubles[i]);
    }
    out.push_back(all.str());
    return out;
}

/** Hand edits: what a person with an editor may leave in a manifest. */
const std::vector<std::string> kHandEdits = {
    "{}",
    "{ }",
    "\t{\t}\t",
    "{}trailing",
    "",
    "{",
    "}",
    "[]",
    "{\"type\":\"run\",\"group\":0,\"run\":1}",
    "{\t\"type\" :\t\"run\" ,\t\"group\":\t3\t}",
    "{\"m:a\":+1.5,\"m:b\":1e400,\"m:c\":-1e400,\"m:d\":1e-400}",
    "{\"m:a\":infini}",
    "{\"m:a\":infinity}",
    "{\"m:a\":inf,\"m:b\":-inf,\"m:c\":+inf,\"m:d\":nan,\"m:e\":-nan}",
    "{\"m:a\":nan(1)}",
    "{\"m:a\":NaN}",
    "{\"m:a\":0x10}",
    "{\"m:a\":1.}",
    "{\"m:a\":.5,\"m:b\":-.5,\"m:c\":5e,\"m:d\":1e+5,\"m:e\":1E-5}",
    "{\"m:a\":--1}",
    "{\"m:a\":1-2}",
    "{\"m:a\":-0,\"m:b\":+0,\"m:c\":00012}",
    "{\"m:q\":\"12.5\",\"m:r\":\" 7\",\"m:s\":\"x\",\"m:t\":\"\"}",
    "{\"m:q\":\"0x1p3\",\"m:r\":\"nan(12)\",\"m:s\":\"1e400x\"}",
    "{\"n\":-1,\"p\":+7,\"o\":18446744073709551616,\"f\":2.9}",
    "{\"n\":\"-1\",\"p\":\" +7\",\"o\":\"99999999999999999999\"}",
    "{\"k\":1,\"k\":2,\"k\":3}",
    "{\"m:a\":1,\"m:b\":2,\"m:a\":3}",
    "{\"m:a\":1,\"m:a\":\"text\"}",
    "{\"m:a\":\"text\",\"m:a\":4}",
    "{\"k\":1,\"k\":[\"a\",2],\"k\":\"s\",\"k\":[]}",
    "{\"k\":[\"x\"],\"k\":5}",
    "{\"m:b\":2,\"m:a\":1,\"m:c\":3,\"m:\":4,\"m\":5}",
    "{\"esc\":\"a\\\"b\\\\c\\/d\\ne\\tf\\rg\"}",
    "{\"esc\\/key\":\"v\",\"esc/key\":\"w\"}",
    "{\"bad\":\"\\u0041\"}",
    "{\"bad\":\"\\x\"}",
    "{\"torn\":\"abc",
    "{\"torn\":\"abc\\",
    "{\"a\":1,}",
    "{\"a\":[1,]}",
    "{\"a\":[ ]}",
    "{\"a\":[ \"x\" , 1.5 ,\t-inf ]}",
    "{\"a\":1 \"b\":2}",
    "{\"a\"1}",
    "{a:1}",
    "{\"a\":}",
    "{\"a\":true}",
    "{\"a\":null}",
    "{\"a\":{}}",
    std::string("{\"m:z\":\"1\0" "5\"}", 10),
    std::string("{\"nul\0key\":1}", 13),
};

TEST(JsonLine, VisitWithPrefixGoesInLineOrder)
{
    // Every scalar field under the prefix, repeats and non-numbers
    // included, in line order; arrays and other keys are not visited.
    JsonLine line;
    ASSERT_TRUE(line.parse(
        "{\"m:b\":2,\"x\":9,\"m:a\":\"1.5\",\"m:l\":[\"3\"],"
        "\"m:b\":\"text\",\"m:\":-inf,\"mm\":4}"));
    const std::vector<Visited> got = visitAll(line, "m:");
    ASSERT_EQ(got.size(), 4u);
    const char *names[] = {"b", "a", "b", ""};
    const bool numbers[] = {true, true, false, true};
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].name, names[k]) << k;
        EXPECT_EQ(got[k].number, numbers[k]) << k;
    }
    EXPECT_EQ(got[0].value, 2.0);
    EXPECT_EQ(got[1].value, 1.5);
    EXPECT_EQ(got[3].value, -std::numeric_limits<double>::infinity());
    // The last copy of "b" is text, so a reader keeps no "b".
    EXPECT_EQ(keptReals(line, "m:"),
              (std::vector<std::pair<std::string, double>>{
                  {"", -std::numeric_limits<double>::infinity()},
                  {"a", 1.5}}));
    EXPECT_EQ(visitAll(line, "").size(), 6u);
}

TEST(JsonLineDifferential, HandEditsMatchTheMapParser)
{
    JsonLine got;
    for (const std::string &line : kHandEdits)
        check(got, line);
}

TEST(JsonLineDifferential, WriterLinesMatchTheMapParser)
{
    Random rng(20031);
    JsonLine got;
    std::size_t accepted = 0;
    const auto corpus = writerCorpus(rng);
    for (const std::string &line : corpus)
        accepted += check(got, line);
    // The writer's own output always parses.
    EXPECT_EQ(accepted, corpus.size());
}

TEST(JsonLineDifferential, MutationsMatchTheMapParser)
{
    Random rng(77);
    std::vector<std::string> corpus = writerCorpus(rng);
    corpus.insert(corpus.end(), kHandEdits.begin(), kHandEdits.end());
    const std::string alphabet =
        std::string("\"\\,:[]{} \t0159-+.eEinfax/ntr\n\xff") + '\0';

    JsonLine got;
    std::size_t accepted = 0, rejected = 0;
    for (const std::string &base : corpus) {
        for (int m = 0; m < 24; ++m) {
            std::string line = base;
            const std::size_t at =
                line.empty() ? 0 : rng.uniformInt(0, line.size() - 1);
            switch (m % 3) {
              case 0: // byte flip
                if (!line.empty())
                    line[at] = static_cast<char>(
                        line[at] ^ (1u << rng.uniformInt(0, 7)));
                break;
              case 1: // truncation
                line.resize(at);
                break;
              default: // insertion
                line.insert(line.begin() +
                                static_cast<std::ptrdiff_t>(at),
                            alphabet[rng.uniformInt(
                                0, alphabet.size() - 1)]);
            }
            (check(got, line) ? accepted : rejected) += 1;
        }
    }
    // Both sides of the decision get exercised.
    EXPECT_GT(accepted, 500u);
    EXPECT_GT(rejected, 500u);
}

TEST(JsonWriterDifferential, DoublesWriteAsPrintf17g)
{
    Random rng(1917);
    std::vector<double> values = specialDoubles(rng);
    for (const std::uint64_t b :
         {0x7ff0000000000001ull, 0x7ff4000000000000ull,
          0x7ff8000000000001ull, 0xfff8000000000000ull,
          0xffffffffffffffffull, 0x000fffffffffffffull,
          0x8000000000000001ull})
        values.push_back(std::bit_cast<double>(b)); // NaN payloads, edges
    for (const double v : {1e15, 1e16, 1e17, 9.9999999999999998e16,
                           1e-4, 9.9999999999999991e-5, 1e-5, 0.5,
                           123456789.0, 2.5e-310})
        values.push_back(v); // where %g switches to exponent form
    for (int k = 0; k < 200'000; ++k) {
        values.push_back(std::bit_cast<double>(rng.next()));
        values.push_back(
            static_cast<double>(rng.next() >> rng.uniformInt(0, 63)));
    }

    std::size_t nans = 0, subnormals = 0, mismatches = 0;
    std::string first;
    for (const double v : values) {
        nans += std::isnan(v);
        subnormals += std::fpclassify(v) == FP_SUBNORMAL;
        JsonWriter w;
        w.field("m", v);
        const std::string want = "{\"m\":" + g17(v) + "}";
        if (w.str() != want && mismatches++ == 0)
            first = w.str() + " against " + want;
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << first;
    // The random patterns reach the NaN and subnormal encodings.
    EXPECT_GT(nans, 100u);
    EXPECT_GT(subnormals, 100u);
}

TEST(JsonWriterDifferential, FieldsReadBackThroughTheOracle)
{
    Random rng(2003);
    const std::vector<std::string> texts = {
        "", "run", "m:system.cpu0.ipc", "a\"b", "tab\there", "sl/ash",
        "back\\slash", "new\nline", "m:z\r", "\"\\\n\t\r", "x\\",
        std::string("nul\0mid", 7), "\xff\x01",
    };
    for (const std::string &key : texts) {
        for (const std::string &value : texts) {
            const std::uint64_t n = rng.next() >> rng.uniformInt(0, 63);
            JsonWriter w;
            w.field(key + "s", value)
                .field(key + "n", n)
                .field(key + "l", std::vector<std::string>{value, key});
            MapLine line;
            ASSERT_TRUE(line.parse(w.str())) << w.str();
            EXPECT_EQ(line.str(key + "s"), value);
            EXPECT_EQ(line.num(key + "n", 0), n);
            EXPECT_EQ(line.list(key + "l"),
                      (std::vector<std::string>{value, key}));
        }
    }
}

} // anonymous namespace
} // namespace sim
} // namespace varsim
