/**
 * @file
 * Submission-schema tests: field round trips, name validation,
 * version gating, and the fingerprint-echo skew check — a
 * submission that decodes into different spec fields than the
 * client encoded must be rejected, never silently run.
 */

#include <gtest/gtest.h>

#include "campaign/knobs.hh"
#include "serve/schema.hh"
#include "sim/logging.hh"

namespace
{

using namespace varsim;

serve::Submission
sampleSubmission()
{
    serve::Submission sub;
    sub.tenant = "alice";
    sub.name = "assoc-sweep";
    sub.priority = -3;
    sub.fields.base["cpus"] = "4";
    sub.fields.base["dram"] = "120";
    sub.fields.vary = {"l2-assoc=1,2,4", "prefetch=on,off"};
    sub.fields.workload = "specjbb";
    sub.fields.threadsPerCpu = 2;
    sub.fields.warmupTxns = 7;
    sub.fields.measureTxns = 1000;
    sub.fields.sample = "stratified:200:20:40";
    sub.fields.baseSeed = 4242;
    sub.fields.numCheckpoints = 3;
    sub.fields.checkpointStep = 111;
    sub.fields.strategy = "random";
    sub.fields.fixedRuns = 9;
    sub.fields.relativeError = 0.05;
    sub.fields.alpha = 0.01;
    sub.fingerprintHex = "00c0ffee00c0ffee";
    return sub;
}

TEST(ServeSchema, SubmissionRoundTrips)
{
    const serve::Submission sub = sampleSubmission();
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));

    serve::Submission got;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, got, &err)) << err;
    EXPECT_EQ(got.tenant, "alice");
    EXPECT_EQ(got.name, "assoc-sweep");
    EXPECT_EQ(got.priority, -3);
    EXPECT_EQ(got.fingerprintHex, "00c0ffee00c0ffee");
    EXPECT_EQ(got.fields.base, sub.fields.base);
    EXPECT_EQ(got.fields.vary, sub.fields.vary);
    EXPECT_EQ(got.fields.workload, "specjbb");
    EXPECT_EQ(got.fields.sample, "stratified:200:20:40");
    EXPECT_EQ(got.fields.strategy, "random");
    EXPECT_EQ(got.fields.fixedRuns, 9u);
    EXPECT_DOUBLE_EQ(got.fields.relativeError, 0.05);
    EXPECT_DOUBLE_EQ(got.fields.alpha, 0.01);

    // The real skew detector: both sides' buildSpec agree, so the
    // decoded fields fingerprint identically to the encoded ones.
    campaign::CampaignSpec sent, received;
    ASSERT_TRUE(campaign::buildSpec(sub.fields, sent, &err))
        << err;
    ASSERT_TRUE(campaign::buildSpec(got.fields, received, &err))
        << err;
    EXPECT_EQ(sent.fingerprint(), received.fingerprint());
}

TEST(ServeSchema, DefaultsSurviveARoundTrip)
{
    serve::Submission sub;
    sub.tenant = "t";
    sub.name = "n";
    sub.fingerprintHex = "1";
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));
    serve::Submission got;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, got, &err)) << err;

    const campaign::SpecFields dflt;
    EXPECT_EQ(got.fields.workload, dflt.workload);
    EXPECT_EQ(got.fields.pilotRuns, dflt.pilotRuns);
    EXPECT_EQ(got.fields.maxRuns, dflt.maxRuns);
    EXPECT_DOUBLE_EQ(got.fields.alpha, dflt.alpha);
    EXPECT_DOUBLE_EQ(got.fields.confidence, dflt.confidence);
}

TEST(ServeSchema, OlderSubmissionWithEngineFieldsStillResumes)
{
    // sampleSubmission() byte for byte as an earlier daemon wrote
    // it to submission.json, when the schema still carried the
    // deleted intra-run engine's two fields (here at their
    // defaults). A daemon upgraded in place must decode it and
    // derive the fingerprint the client computed, or a kill -9
    // restart could no longer resume the campaign.
    const std::string older =
        "{\"req\":\"submit\",\"schema\":1,\"tenant\":\"alice\","
        "\"name\":\"assoc-sweep\",\"priority\":\"-3\","
        "\"fingerprint\":\"b1e37cb4e4373382\","
        "\"base\":[\"cpus=4\",\"dram=120\"],"
        "\"vary\":[\"l2-assoc=1,2,4\",\"prefetch=on,off\"],"
        "\"workload\":\"specjbb\",\"wl_seed\":12345,\"tpc\":2,"
        "\"warmup\":7,\"txns\":1000,\"intra_threads\":0,"
        "\"lookahead\":\"-1\",\"sample\":\"stratified:200:20:40\","
        "\"sample_offset_seed\":12345,\"seed\":4242,"
        "\"checkpoints\":3,\"ckpt_step\":111,"
        "\"strategy\":\"random\",\"fixed_runs\":9,"
        "\"pilot_runs\":6,\"max_runs\":32,"
        "\"rel_err\":0.050000000000000003,\"alpha\":0.01,"
        "\"confidence\":0.94999999999999996,\"budget\":0}";
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(older));
    serve::Submission old;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, old, &err)) << err;

    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sampleSubmission())));
    serve::Submission cur;
    ASSERT_TRUE(serve::decodeSubmission(obj, cur, &err)) << err;

    campaign::CampaignSpec fromOld, fromCur;
    ASSERT_TRUE(campaign::buildSpec(old.fields, fromOld, &err)) << err;
    ASSERT_TRUE(campaign::buildSpec(cur.fields, fromCur, &err)) << err;
    EXPECT_EQ(fromOld.fingerprint(), fromCur.fingerprint());
    EXPECT_EQ(sim::format("%016llx",
                          static_cast<unsigned long long>(
                              fromOld.fingerprint())),
              old.fingerprintHex);
}

TEST(ServeSchema, UnsupportedVersionIsRejected)
{
    std::string payload =
        serve::encodeSubmission(sampleSubmission());
    const std::string v =
        "\"schema\":" + std::to_string(serve::kSchemaVersion);
    const auto at = payload.find(v);
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, v.size(), "\"schema\":999");

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(payload));
    serve::Submission got;
    std::string err;
    EXPECT_FALSE(serve::decodeSubmission(obj, got, &err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(ServeSchema, NamesAreValidatedAsPathComponents)
{
    EXPECT_TRUE(serve::validName("alice"));
    EXPECT_TRUE(serve::validName("a1_B-2.c"));
    EXPECT_FALSE(serve::validName(""));
    EXPECT_FALSE(serve::validName(".."));
    EXPECT_FALSE(serve::validName(".hidden"));
    EXPECT_FALSE(serve::validName("a/b"));
    EXPECT_FALSE(serve::validName("a b"));
    EXPECT_FALSE(serve::validName(std::string(65, 'a')));

    serve::Submission sub = sampleSubmission();
    sub.tenant = "../escape";
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));
    serve::Submission got;
    std::string err;
    EXPECT_FALSE(serve::decodeSubmission(obj, got, &err));
    EXPECT_NE(err.find("tenant"), std::string::npos);
}

TEST(ServeSchema, EventsRoundTrip)
{
    serve::Event ev;
    ev.seq = 17;
    ev.kind = "run";
    ev.campaignId = "alice/assoc-sweep";
    ev.group = 2;
    ev.runIdx = 5;
    ev.value = 10584.25;
    ev.recorded = 11;
    ev.target = 24;

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeEvent(ev)));
    serve::Event got;
    ASSERT_TRUE(serve::decodeEvent(obj, got));
    EXPECT_EQ(got.seq, 17u);
    EXPECT_EQ(got.kind, "run");
    EXPECT_EQ(got.campaignId, "alice/assoc-sweep");
    EXPECT_EQ(got.group, 2u);
    EXPECT_EQ(got.runIdx, 5u);
    EXPECT_DOUBLE_EQ(got.value, 10584.25);
    EXPECT_EQ(got.recorded, 11u);
    EXPECT_EQ(got.target, 24u);

    serve::Event fail;
    fail.seq = 18;
    fail.kind = "failed";
    fail.campaignId = "alice/assoc-sweep";
    fail.message = "spec fingerprint mismatch";
    ASSERT_TRUE(obj.parse(serve::encodeEvent(fail)));
    ASSERT_TRUE(serve::decodeEvent(obj, got));
    EXPECT_EQ(got.kind, "failed");
    EXPECT_EQ(got.message, "spec fingerprint mismatch");
}

TEST(ServeSchema, CampaignInfoRoundTrips)
{
    serve::CampaignInfo info;
    info.id = "bob/big";
    info.state = "running";
    info.priority = 7;
    info.recorded = 40;
    info.target = 96;
    info.inFlight = 4;

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeInfo(info)));
    serve::CampaignInfo got;
    ASSERT_TRUE(serve::decodeInfo(obj, got));
    EXPECT_EQ(got.id, "bob/big");
    EXPECT_EQ(got.state, "running");
    EXPECT_EQ(got.priority, 7);
    EXPECT_EQ(got.recorded, 40u);
    EXPECT_EQ(got.target, 96u);
    EXPECT_EQ(got.inFlight, 4u);
    EXPECT_TRUE(got.error.empty());
}

} // namespace
