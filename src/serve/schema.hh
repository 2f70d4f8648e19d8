/**
 * @file
 * Request/response vocabulary of the serve protocol, versioned.
 *
 * Every request and event is one flat JSON object (sim/jsonl
 * dialect) inside one frame (protocol.hh). A submission carries
 * `schema: 1` plus the raw campaign *fields* — base knobs, vary
 * axes, workload and stopping parameters — exactly the vocabulary
 * of the `varsim campaign` CLI flags, NOT a serialized spec. The
 * daemon rebuilds the CampaignSpec through the same
 * campaign::buildSpec the CLI uses, then checks the client's
 * fingerprint echo: the client computes spec.fingerprint() locally
 * and sends it, the daemon recomputes it from the decoded fields,
 * and a mismatch (schema skew, version drift, a knob lost in
 * translation) rejects the submission instead of quietly running a
 * different experiment than the client asked for.
 *
 * Tenant and campaign names become directory components under the
 * daemon root, so they are restricted to [A-Za-z0-9_.-], no leading
 * dot, at most 64 bytes.
 */

#ifndef VARSIM_SERVE_SCHEMA_HH
#define VARSIM_SERVE_SCHEMA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/knobs.hh"
#include "serve/protocol.hh"
#include "sim/jsonl.hh"

namespace varsim
{
namespace serve
{

/** Submission schema version this build speaks. */
constexpr int kSchemaVersion = 1;

/** True when @p s is usable as a tenant/campaign path component. */
bool validName(const std::string &s);

/** One campaign submission, as it crosses the wire. */
struct Submission
{
    std::string tenant;
    std::string name;

    /**
     * Scheduling priority within the tenant, higher first (the
     * cross-tenant share is fair regardless — priority never lets
     * one tenant starve another).
     */
    int priority = 0;

    campaign::SpecFields fields;

    /** Client-computed spec fingerprint (hex), echoed for skew. */
    std::string fingerprintHex;

    /** "tenant/name", the daemon-wide campaign id. */
    std::string id() const { return tenant + "/" + name; }
};

/** Encode @p sub as a request payload (req=submit, schema=1). */
std::string encodeSubmission(const Submission &sub);

/**
 * Decode a submit payload. Returns false with @p err set on an
 * unsupported schema version, a bad name, or malformed fields.
 * Does NOT rebuild/validate the spec — the daemon does that next
 * via campaign::buildSpec so spec errors carry its messages.
 */
bool decodeSubmission(const sim::JsonLine &obj, Submission &out,
                      std::string *err);

/**
 * Progress event, streamed to watch subscribers and replayed from
 * history for late joiners. Flat, small, and self-describing:
 *
 *   kind=run       one cell recorded (group, run, value, progress)
 *   kind=round     an adaptive-stopping decision recomputed
 *   kind=complete  campaign reached every target
 *   kind=cancelled campaign cancelled (durable)
 *   kind=failed    campaign failed (message)
 */
struct Event
{
    std::uint64_t seq = 0; ///< per-campaign, 1-based, dense
    std::string kind;
    std::string campaignId;

    // kind=run
    std::uint64_t group = 0;
    std::uint64_t runIdx = 0;
    double value = 0.0; ///< cycles_per_txn of the recorded run

    // kind=run, kind=round and the terminal kinds: campaign progress
    std::uint64_t recorded = 0;
    std::uint64_t target = 0;

    // kind=failed (and free-form notes)
    std::string message;
};

std::string encodeEvent(const Event &ev);
bool decodeEvent(const sim::JsonLine &obj, Event &out);

/** One campaign's scheduler-eye view, for status replies. */
struct CampaignInfo
{
    std::string id;
    std::string state; ///< queued|running|complete|cancelled|failed
    int priority = 0;
    std::uint64_t recorded = 0;
    std::uint64_t target = 0;
    std::uint64_t inFlight = 0;
    std::string error;
};

/**
 * True when @p state, a CampaignInfo::state or an Event::kind, is
 * one a campaign ends in: complete, cancelled or failed.
 */
bool terminalState(const std::string &state);

std::string encodeInfo(const CampaignInfo &info);
bool decodeInfo(const sim::JsonLine &obj, CampaignInfo &out);

} // namespace serve
} // namespace varsim

#endif // VARSIM_SERVE_SCHEMA_HH
