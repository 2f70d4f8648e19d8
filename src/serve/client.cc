#include "serve/client.hh"

#include "campaign/knobs.hh"
#include "campaign/spec.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace serve
{

bool
Client::exchange(const std::string &payload, int timeoutMs,
                 sim::JsonLine &frame,
                 const std::function<bool()> &more, std::string *err)
{
    const int fd = connectTo(addr, err);
    if (fd < 0)
        return false;
    FrameIo io(fd);
    if (timeoutMs > 0)
        io.setRecvTimeout(timeoutMs);
    if (!io.send(payload))
        return failWith(err, io.errorText());
    for (std::string reply;;) {
        if (!io.recv(reply))
            return failWith(err, io.errorText());
        if (!frame.parse(reply))
            return failWith(err, "unparseable daemon reply");
        const std::string type = frame.str("type");
        if (type == "error")
            return failWith(err,
                            frame.str("message", "daemon error"));
        if (type == "end" || !more())
            return true;
    }
}

bool
Client::roundTrip(const std::string &payload, sim::JsonLine &rep,
                  std::string *err, int timeoutMs)
{
    return exchange(payload, timeoutMs, rep, [] { return false; },
                    err);
}

bool
Client::ping(std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("ping"));
    sim::JsonLine rep;
    if (!roundTrip(w.str(), rep, err))
        return false;
    const std::uint64_t schema = rep.num("schema");
    return schema == static_cast<std::uint64_t>(kSchemaVersion) ||
           failWith(err,
                    sim::format("daemon speaks schema %llu, this "
                                "client %d",
                                static_cast<unsigned long long>(schema),
                                kSchemaVersion));
}

bool
Client::submit(Submission &sub, std::string *err)
{
    // Build the spec locally first: a bad submission fails here
    // with the CLI's own error text, and a good one gets the
    // fingerprint the daemon will verify.
    campaign::CampaignSpec spec;
    if (!campaign::buildSpec(sub.fields, spec, err))
        return false;
    sub.fingerprintHex = sim::format(
        "%016llx",
        static_cast<unsigned long long>(spec.fingerprint()));

    sim::JsonLine rep;
    return roundTrip(encodeSubmission(sub), rep, err);
}

bool
Client::status(const std::string &tenant,
               std::vector<CampaignInfo> &out, std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("status"));
    if (!tenant.empty())
        w.field("tenant", tenant);
    out.clear();
    sim::JsonLine frame;
    return exchange(
        w.str(), 30000, frame,
        [&] {
            CampaignInfo info;
            if (decodeInfo(frame, info))
                out.push_back(std::move(info));
            return true;
        },
        err);
}

bool
Client::info(const std::string &id, CampaignInfo &out,
             std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("info"));
    w.field("id", id);
    sim::JsonLine rep;
    if (!roundTrip(w.str(), rep, err))
        return false;
    return decodeInfo(rep, out) ||
           failWith(err, "malformed campaign info reply");
}

bool
Client::watch(const std::string &id, std::uint64_t afterSeq,
              const std::function<void(const Event &)> &onEvent,
              std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("watch"));
    w.field("id", id);
    w.field("after", afterSeq);
    // No receive timeout: a quiet campaign can legitimately sit
    // between events for as long as a cell takes to simulate.
    sim::JsonLine frame;
    bool sawTerminal = false;
    if (!exchange(
            w.str(), 0, frame,
            [&] {
                Event ev;
                if (decodeEvent(frame, ev)) {
                    sawTerminal |= terminalState(ev.kind);
                    onEvent(ev);
                }
                return true;
            },
            err))
        return false;
    // A cursor already past the terminal event sees no events at
    // all; the end frame's state field is what distinguishes
    // "finished" from a daemon drain.
    sawTerminal |= terminalState(frame.str("state"));
    if (!sawTerminal && err)
        *err = "stream ended before the campaign finished "
               "(daemon draining?)";
    return sawTerminal;
}

bool
Client::cancel(const std::string &id, std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("cancel"));
    w.field("id", id);
    sim::JsonLine rep;
    return roundTrip(w.str(), rep, err);
}

bool
Client::report(const std::string &id, double confidence,
               const std::string &metric, std::string &text,
               std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("report"));
    w.field("id", id);
    w.field("confidence", confidence);
    if (!metric.empty())
        w.field("metric", metric);
    sim::JsonLine rep;
    if (!roundTrip(w.str(), rep, err))
        return false;
    text = rep.str("text");
    return true;
}

bool
Client::drain(std::string *err)
{
    sim::JsonWriter w;
    w.field("req", std::string("drain"));
    sim::JsonLine rep;
    // No timeout: the ok frame arrives only once every campaign
    // has reached a terminal state.
    return roundTrip(w.str(), rep, err, 0);
}

} // namespace serve
} // namespace varsim
