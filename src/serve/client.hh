/**
 * @file
 * Client side of the serve protocol: one method per request, each
 * on a fresh connection (the daemon is stateless per connection,
 * so a client never has to manage one).
 *
 * submit() computes the spec fingerprint locally — through the same
 * campaign::buildSpec the daemon (and the CLI) use — and sends it
 * with the fields, which is how client/daemon schema skew is caught
 * before any cycles are spent.
 */

#ifndef VARSIM_SERVE_CLIENT_HH
#define VARSIM_SERVE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/schema.hh"

namespace varsim
{
namespace serve
{

class Client
{
  public:
    explicit Client(const Address &addr) : addr(addr) {}

    /** Liveness check; false with @p err when unreachable. */
    bool ping(std::string *err);

    /**
     * Validate @p sub locally (buildSpec), stamp its fingerprint,
     * and submit. False with @p err on a local spec error, a
     * connection failure, or a daemon rejection.
     */
    bool submit(Submission &sub, std::string *err);

    /** All campaigns (@p tenant empty) or one tenant's. */
    bool status(const std::string &tenant,
                std::vector<CampaignInfo> &out, std::string *err);

    bool info(const std::string &id, CampaignInfo &out,
              std::string *err);

    /**
     * Stream campaign @p id's events with seq > @p afterSeq into
     * @p onEvent until the campaign is terminal (returns true) or
     * the connection drops / the daemon stops (false, @p err).
     */
    bool watch(const std::string &id, std::uint64_t afterSeq,
               const std::function<void(const Event &)> &onEvent,
               std::string *err);

    bool cancel(const std::string &id, std::string *err);

    /**
     * Fetch the report text for @p id — the daemon renders it with
     * the same code `varsim campaign report` uses. @p metric empty
     * = the standard variability report.
     */
    bool report(const std::string &id, double confidence,
                const std::string &metric, std::string &text,
                std::string *err);

    /** Drain the daemon: block until every campaign is terminal
     *  and the daemon has begun shutting down. */
    bool drain(std::string *err);

  private:
    /**
     * The one reply reader: connect, send @p payload, then parse
     * reply frames into @p frame until @p more returns false, an
     * end frame arrives (true, left in @p frame), or an error frame
     * does (false with its message in @p err). @p timeoutMs bounds
     * each wait for a frame (0 = forever).
     */
    bool exchange(const std::string &payload, int timeoutMs,
                  sim::JsonLine &frame,
                  const std::function<bool()> &more, std::string *err);

    /** exchange() for a request answered by one frame. */
    bool roundTrip(const std::string &payload, sim::JsonLine &rep,
                   std::string *err, int timeoutMs = 30000);

    Address addr;
};

} // namespace serve
} // namespace varsim

#endif // VARSIM_SERVE_CLIENT_HH
