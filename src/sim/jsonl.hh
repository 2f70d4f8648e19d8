/**
 * @file
 * Minimal flat-JSON line codec shared by the durable manifests in
 * this tree (campaign result store, checkpoint archive metadata) and
 * the serve daemon's payloads.
 *
 * A manifest is JSON Lines: one object per line, values limited to
 * numbers, strings, and arrays of strings — exactly what the writers
 * emit. This is deliberately not a general JSON parser; it accepts
 * the writers' own output (and reasonable hand edits) and reports
 * anything else as malformed so replay logic can stop at a torn
 * tail instead of guessing.
 *
 * parse() copies the line once into an owned buffer, unescapes
 * strings in place, and records a flat field table: the key and
 * value spans of each field in line order, plus the spans of array
 * items. A JsonLine reused across lines keeps its buffer and table,
 * so replay allocates nothing per field. Accessors scan the table;
 * when a key repeats, the last copy wins, among scalars and among
 * arrays separately (a key may name one of each).
 *
 * A bare number token is whatever strtod consumes entirely; the
 * value is strtod's. std::from_chars converts the token instead
 * (same digits, same correctly rounded double, a fraction of the
 * cost), and strtod decides whenever from_chars refuses the token,
 * stops short of its end or yields a NaN (`+1.5`, `1e400`, `-nan`).
 * num() is strtoull of the text by the same rule. visitWithPrefix()
 * hands every field under a key prefix to a callback, in line order,
 * without allocating.
 */

#ifndef VARSIM_SIM_JSONL_HH
#define VARSIM_SIM_JSONL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace varsim
{
namespace sim
{

/** One parsed flat JSON object. */
class JsonLine
{
  public:
    /** Parse one line; returns false (object unusable) on damage. */
    bool parse(std::string_view line);

    bool has(std::string_view key) const;

    /** String value of @p key; @p dflt when absent. */
    std::string str(std::string_view key,
                    const std::string &dflt = "") const;

    /** Unsigned value of @p key; @p dflt when absent/non-numeric. */
    std::uint64_t num(std::string_view key,
                      std::uint64_t dflt = 0) const;

    /** Double value of @p key (round-trips %.17g exactly). */
    double real(std::string_view key, double dflt = 0.0) const;

    /** Array-of-strings value of @p key (empty when absent). */
    std::vector<std::string>
    list(std::string_view key) const;

    /**
     * Call visit(name, value) for every scalar field whose key starts
     * with @p prefix, in line order, with the prefix stripped from
     * the name. The value points at the field's number, or is nullptr
     * when it holds none; a quoted value is a number when all of it
     * reads as one, as in real(). A key may repeat: a reader that
     * wants one value per key keeps the last copy, and drops the key
     * when that copy is not a number. Used to re-inflate open-schema
     * records (per-run metric dumps) whose key set the reader cannot
     * know in advance.
     */
    template <class Visit>
    void
    visitWithPrefix(std::string_view prefix, Visit &&visit) const
    {
        for (const Field &f : fields) {
            const std::string_view key = text(f.key);
            if (f.kind == Kind::Array || !key.starts_with(prefix))
                continue;
            double v = f.number;
            const bool number =
                f.kind == Kind::Number || quotedNumber(text(f.value), &v);
            visit(key.substr(prefix.size()), number ? &v : nullptr);
        }
    }

  private:
    /** Bytes [off, off + len) of buf, or items for an array. */
    struct Span
    {
        std::size_t off = 0;
        std::size_t len = 0;
    };

    enum class Kind : std::uint8_t { String, Number, Array };

    struct Field
    {
        Span key;
        Span value;         ///< text; for an Array, a run of items
        Kind kind = Kind::String;
        double number = 0.0; ///< a Number token's value
    };

    std::string_view
    text(Span s) const
    {
        return {buf.data() + s.off, s.len};
    }

    /** @p text read as a number by strtod's rule; false if it is none. */
    static bool quotedNumber(std::string_view text, double *v);

    /** Last scalar (or array) field named @p key; nullptr if none. */
    const Field *last(std::string_view key, bool array) const;

    std::string buf;           ///< the line, strings unescaped
    std::vector<Field> fields; ///< in line order
    std::vector<Span> items;   ///< array items, in line order
};

/**
 * Incremental builder for one JSON line. Keys are emitted in call
 * order; the caller terminates with str().
 */
class JsonWriter
{
  public:
    JsonWriter &field(const std::string &key,
                      const std::string &value);
    JsonWriter &field(const std::string &key, std::uint64_t value);
    JsonWriter &field(const std::string &key, double value);
    JsonWriter &field(const std::string &key,
                      const std::vector<std::string> &values);

    /** The finished object, no trailing newline. */
    std::string str() const { return body + "}"; }

  private:
    /** A comma unless first, then @p key quoted and a colon. */
    void beginField(const std::string &key);
    std::string body = "{";
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_JSONL_HH
