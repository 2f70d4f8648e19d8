#include "serve/schema.hh"

#include <type_traits>

#include "sim/logging.hh"
#include "sim/number.hh"

namespace varsim
{
namespace serve
{

using sim::JsonLine;
using sim::JsonWriter;

bool
validName(const std::string &s)
{
    if (s.empty() || s.size() > 64 || s.front() == '.')
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
encodeSubmission(const Submission &sub)
{
    const campaign::SpecFields &f = sub.fields;
    JsonWriter w;
    w.field("req", std::string("submit"));
    w.field("schema", static_cast<std::uint64_t>(kSchemaVersion));
    w.field("tenant", sub.tenant);
    w.field("name", sub.name);
    w.field("priority",
            sim::format("%d", sub.priority)); // may be negative
    w.field("fingerprint", sub.fingerprintHex);

    // Base knobs ride as "knob=value" strings: the jsonl dialect
    // has no nested objects, and this is the CLI's own syntax.
    std::vector<std::string> base;
    for (const auto &kv : f.base)
        base.push_back(kv.first + "=" + kv.second);
    w.field("base", base);
    w.field("vary", f.vary);

    campaign::forEachField(
        f, [&](const char *, const char *key, const auto &v) {
            w.field(key, v);
        });
    return w.str();
}

bool
decodeSubmission(const JsonLine &obj, Submission &out,
                 std::string *err)
{
    const std::uint64_t schema = obj.num("schema");
    if (schema != static_cast<std::uint64_t>(kSchemaVersion))
        return failWith(err, sim::format(
                                 "unsupported submission schema %llu "
                                 "(this daemon speaks %d); rebuild the "
                                 "client",
                                 static_cast<unsigned long long>(schema),
                                 kSchemaVersion));

    out.tenant = obj.str("tenant");
    out.name = obj.str("name");
    if (!validName(out.tenant))
        return failWith(err, "bad tenant name '" + out.tenant +
                                 "' (want [A-Za-z0-9_.-]{1,64}, no "
                                 "leading dot)");
    if (!validName(out.name))
        return failWith(err, "bad campaign name '" + out.name +
                                 "' (want [A-Za-z0-9_.-]{1,64}, no "
                                 "leading dot)");
    const std::string priority = obj.str("priority", "0");
    if (!sim::parseInteger(priority, out.priority))
        return failWith(err, "bad priority '" + priority +
                                 "' (want an int)");
    out.fingerprintHex = obj.str("fingerprint");
    if (out.fingerprintHex.empty())
        return failWith(err, "submission carries no spec fingerprint");

    campaign::SpecFields f;
    for (const std::string &kv : obj.list("base")) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            return failWith(err, "bad base knob '" + kv +
                                     "' (want knob=value)");
        f.base[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    f.vary = obj.list("vary");
    campaign::forEachField(
        f, [&](const char *, const char *key, auto &v) {
            using T = std::remove_reference_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>)
                v = obj.str(key, v);
            else if constexpr (std::is_same_v<T, double>)
                v = obj.real(key, v);
            else
                v = obj.num(key, v);
        });
    out.fields = std::move(f);
    return true;
}

std::string
encodeEvent(const Event &ev)
{
    JsonWriter w;
    w.field("type", std::string("event"));
    w.field("seq", ev.seq);
    w.field("kind", ev.kind);
    w.field("campaign", ev.campaignId);
    if (ev.kind == "run") {
        w.field("group", ev.group);
        w.field("run", ev.runIdx);
        w.field("value", ev.value);
    }
    if (ev.kind == "run" || ev.kind == "round" ||
        terminalState(ev.kind)) {
        w.field("recorded", ev.recorded);
        w.field("target", ev.target);
    }
    if (!ev.message.empty())
        w.field("message", ev.message);
    return w.str();
}

bool
decodeEvent(const JsonLine &obj, Event &out)
{
    if (obj.str("type") != "event")
        return false;
    out.seq = obj.num("seq");
    out.kind = obj.str("kind");
    out.campaignId = obj.str("campaign");
    out.group = obj.num("group");
    out.runIdx = obj.num("run");
    out.value = obj.real("value");
    out.recorded = obj.num("recorded");
    out.target = obj.num("target");
    out.message = obj.str("message");
    return !out.kind.empty();
}

bool
terminalState(const std::string &state)
{
    return state == "complete" || state == "cancelled" ||
           state == "failed";
}

std::string
encodeInfo(const CampaignInfo &info)
{
    JsonWriter w;
    w.field("type", std::string("campaign"));
    w.field("id", info.id);
    w.field("state", info.state);
    w.field("priority", sim::format("%d", info.priority));
    w.field("recorded", info.recorded);
    w.field("target", info.target);
    w.field("in_flight", info.inFlight);
    if (!info.error.empty())
        w.field("error", info.error);
    return w.str();
}

bool
decodeInfo(const JsonLine &obj, CampaignInfo &out)
{
    if (obj.str("type") != "campaign")
        return false;
    out.id = obj.str("id");
    out.state = obj.str("state");
    if (!sim::parseInteger(obj.str("priority", "0"), out.priority))
        return false;
    out.recorded = obj.num("recorded");
    out.target = obj.num("target");
    out.inFlight = obj.num("in_flight");
    out.error = obj.str("error");
    return !out.id.empty();
}

} // namespace serve
} // namespace varsim
