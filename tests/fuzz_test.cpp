// Property/fuzz tests across module boundaries:
//  - wire robustness: every decoder must reject arbitrarily truncated or
//    bit-flipped inputs without crashing or reading out of bounds;
//  - retrieval equivalence: executing a random query on the inverted
//    index gives exactly the documents the query matches directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "alerting/messages.h"
#include "baselines/messages.h"
#include "common/rng.h"
#include "docmodel/event.h"
#include "gds/messages.h"
#include "gsnet/messages.h"
#include "journal/journal.h"
#include "profiles/parser.h"
#include "sim/storage.h"
#include "retrieval/inverted_index.h"
#include "retrieval/query_parser.h"
#include "wire/envelope.h"

namespace gsalert {
namespace {

struct FuzzParam {
  std::uint64_t seed;
};

// ---------- wire robustness ------------------------------------------------

class WireFuzz : public ::testing::TestWithParam<FuzzParam> {};

std::vector<std::byte> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  return out;
}

docmodel::Event random_event(Rng& rng) {
  docmodel::Event e;
  e.id = {"host" + std::to_string(rng.uniform_int(0, 5)),
          static_cast<std::uint64_t>(rng.uniform_int(0, 1000))};
  e.type = static_cast<docmodel::EventType>(rng.uniform_int(1, 6));
  e.collection = {"H", "C"};
  e.physical_origin = {"H2", "C2"};
  const int nvia = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < nvia; ++i) {
    std::string hop = "V";
    hop += std::to_string(i);
    e.via.push_back(std::move(hop));
  }
  const int ndocs = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < ndocs; ++i) {
    docmodel::Document d;
    d.id = static_cast<DocumentId>(rng.uniform_int(1, 100));
    std::string title = "t";
    title += std::to_string(rng.uniform_int(0, 9));
    d.metadata.add("title", title);
    d.terms = {"a", "b"};
    e.docs.push_back(std::move(d));
  }
  return e;
}

/// Every decoder in the system, applied to one byte buffer. None may
/// crash; success or failure are both acceptable outcomes.
void run_all_decoders(const std::vector<std::byte>& bytes) {
  (void)wire::unpack(sim::Packet{bytes});  // junk lands in the header
  (void)wire::unpack(std::span<const std::byte>(bytes));
  (void)gds::BroadcastView::peek(bytes);
  (void)alerting::EventBatchBody::decode(bytes);
  (void)alerting::NotificationDigestBody::decode(bytes);
  (void)gds::RegisterBody::decode(bytes);
  (void)gds::BroadcastBody::decode(bytes);
  (void)gds::RelayBody::decode(bytes);
  (void)gds::MulticastBody::decode(bytes);
  (void)gds::ResolveBody::decode(bytes);
  (void)gds::ResolveReplyBody::decode(bytes);
  (void)gds::ChildHelloBody::decode(bytes);
  (void)gsnet::CollRequestBody::decode(bytes);
  (void)gsnet::CollResponseBody::decode(bytes);
  (void)gsnet::SearchRequestBody::decode(bytes);
  (void)gsnet::SearchResponseBody::decode(bytes);
  (void)alerting::SubscribeBody::decode(bytes);
  (void)alerting::SubscribeAckBody::decode(bytes);
  (void)alerting::CancelBody::decode(bytes);
  (void)alerting::NotificationBody::decode(bytes);
  (void)alerting::AuxProfileBody::decode(bytes);
  (void)alerting::EventForwardBody::decode(bytes);
  (void)alerting::decode_event(bytes);
  (void)baselines::RemoteProfileBody::decode(bytes);
}

TEST_P(WireFuzz, DecodersSurviveRandomBytes) {
  Rng rng{GetParam().seed};
  for (int i = 0; i < 300; ++i) {
    run_all_decoders(random_bytes(rng, 200));
  }
}

TEST_P(WireFuzz, DecodersSurviveTruncatedValidMessages) {
  Rng rng{GetParam().seed ^ 0xFEED};
  for (int i = 0; i < 100; ++i) {
    const docmodel::Event event = random_event(rng);
    wire::Writer w;
    event.encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kEventAnnounce, "src", "dst", 7, std::move(w));
    std::vector<std::byte> bytes = env.flatten();
    // Truncate at a random point, then run every decoder.
    bytes.resize(rng.index(bytes.size() + 1));
    run_all_decoders(bytes);
  }
}

TEST_P(WireFuzz, DecodersSurviveBitFlips) {
  Rng rng{GetParam().seed ^ 0xB17F};
  for (int i = 0; i < 100; ++i) {
    const docmodel::Event event = random_event(rng);
    wire::Writer w;
    event.encode(w);
    std::vector<std::byte> bytes = std::move(w).take();
    if (bytes.empty()) continue;
    // Flip a few random bits.
    for (int f = 0; f < 4; ++f) {
      const std::size_t pos = rng.index(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1 << rng.uniform_int(0, 7));
    }
    run_all_decoders(bytes);
    // The event decoder specifically: must either fail or produce a
    // structurally valid event (vector sizes already bounded by decode).
    auto decoded = alerting::decode_event(bytes);
    if (decoded.ok()) {
      (void)decoded.value().id.str();
    }
  }
}

TEST_P(WireFuzz, EventRoundTripIsExact) {
  Rng rng{GetParam().seed ^ 0x404};
  for (int i = 0; i < 200; ++i) {
    const docmodel::Event event = random_event(rng);
    auto decoded = alerting::decode_event(alerting::encode_event(event));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().id, event.id);
    EXPECT_EQ(decoded.value().via, event.via);
    EXPECT_EQ(decoded.value().docs.size(), event.docs.size());
    for (std::size_t d = 0; d < event.docs.size(); ++d) {
      EXPECT_EQ(decoded.value().docs[d], event.docs[d]);
    }
  }
}

/// True when `view` lies inside `buffer` (an empty view always does).
bool within(std::span<const std::byte> view,
            std::span<const std::byte> buffer) {
  return view.empty() ||
         (view.data() >= buffer.data() &&
          view.data() + view.size() <= buffer.data() + buffer.size());
}

// Digest entries are views into the decoded buffer, as is every
// Reader::view_bytes field: on random, truncated and valid input they
// either fail to decode or point inside the buffer, never past its end.
TEST_P(WireFuzz, DigestEntryViewsStayInBounds) {
  Rng rng{GetParam().seed ^ 0xD16E57};
  for (int i = 0; i < 300; ++i) {
    std::vector<std::vector<std::byte>> events;
    alerting::NotificationDigestBody body;
    body.digest_seq = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    const int entries = static_cast<int>(rng.uniform_int(0, 4));
    for (int e = 0; e < entries; ++e) {
      events.push_back(alerting::encode_event(random_event(rng)));
    }
    for (const std::vector<std::byte>& event : events) {
      body.entries.push_back(
          {static_cast<SubscriptionId>(rng.uniform_int(1, 1 << 20)), event});
    }
    wire::Writer w;
    body.encode(w);
    std::vector<std::byte> bytes = std::move(w).take();
    const int shape = i % 3;  // 0 random, 1 truncated, 2 valid
    if (shape == 0) bytes = random_bytes(rng, 160);
    if (shape == 1) bytes.resize(rng.index(bytes.size()));

    auto decoded = alerting::NotificationDigestBody::decode(bytes);
    if (shape == 1) {
      EXPECT_FALSE(decoded.ok()) << "a truncated digest decoded";
    }
    if (shape == 2) {
      ASSERT_TRUE(decoded.ok());
      ASSERT_EQ(decoded.value().entries.size(), events.size());
      for (std::size_t e = 0; e < events.size(); ++e) {
        const std::span<const std::byte> view =
            decoded.value().entries[e].event;
        EXPECT_TRUE(std::equal(view.begin(), view.end(), events[e].begin(),
                               events[e].end()));
      }
    }
    if (decoded.ok()) {
      for (const auto& entry : decoded.value().entries) {
        EXPECT_TRUE(within(entry.event, bytes));
      }
    }
    // The same buffer walked as a run of length-prefixed byte fields.
    wire::Reader r{bytes};
    while (r.ok() && r.remaining() > 0) {
      const std::span<const std::byte> view = r.view_bytes();
      if (r.ok()) {
        EXPECT_TRUE(within(view, bytes));
      } else {
        EXPECT_TRUE(view.empty()) << "a failed read returned bytes";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(FuzzParam{1}, FuzzParam{7},
                                           FuzzParam{99}, FuzzParam{2024}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

// ---------- codec round-trips: encode -> decode -> encode, byte-equal --------

std::string random_name(Rng& rng, const char* prefix) {
  return std::string(prefix) + std::to_string(rng.uniform_int(0, 999));
}

std::vector<std::string> random_names(Rng& rng, const char* prefix,
                                      std::int64_t max) {
  std::vector<std::string> out(
      static_cast<std::size_t>(rng.uniform_int(0, max)));
  for (auto& s : out) s = random_name(rng, prefix);
  return out;
}

CollectionRef random_ref(Rng& rng) {
  return CollectionRef{random_name(rng, "Host"), random_name(rng, "C")};
}

/// encode -> decode -> encode must reproduce the exact bytes: the codec
/// has one canonical form per value, so nothing is silently dropped,
/// defaulted or re-ordered on the way through.
template <typename Body>
void expect_roundtrip(const Body& body) {
  wire::Writer w1;
  body.encode(w1);
  const std::vector<std::byte> first = std::move(w1).take();
  auto decoded = Body::decode(first);
  ASSERT_TRUE(decoded.ok());
  wire::Writer w2;
  decoded.value().encode(w2);
  EXPECT_EQ(first, std::move(w2).take());
}

/// If a (possibly mutated) buffer decodes at all, re-encoding the result
/// must yield a stable canonical form: decode(encode(decode(bytes)))
/// succeeds and re-encodes to the same bytes.
template <typename Body>
void expect_canonical_or_error(const std::vector<std::byte>& bytes) {
  auto decoded = Body::decode(bytes);
  if (!decoded.ok()) return;
  wire::Writer w1;
  decoded.value().encode(w1);
  const std::vector<std::byte> canon = std::move(w1).take();
  auto again = Body::decode(canon);
  ASSERT_TRUE(again.ok());
  wire::Writer w2;
  again.value().encode(w2);
  EXPECT_EQ(canon, std::move(w2).take());
}

class CodecRoundTrip : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(CodecRoundTrip, EveryMessageTypeIsByteExact) {
  Rng rng{GetParam().seed ^ 0xC0DEC};
  for (int i = 0; i < 100; ++i) {
    // gds/messages.h
    expect_roundtrip(gds::RegisterBody{random_name(rng, "srv")});
    expect_roundtrip(gds::BroadcastBody{
        random_name(rng, "srv"),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF)),
        random_bytes(rng, 32)});
    expect_roundtrip(gds::RelayBody{
        random_name(rng, "srv"), random_name(rng, "dst"),
        static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF)),
        random_bytes(rng, 32)});
    expect_roundtrip(gds::MulticastBody{
        random_name(rng, "srv"),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        random_names(rng, "t", 5),
        static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF)),
        random_bytes(rng, 32)});
    expect_roundtrip(gds::ResolveBody{
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        random_name(rng, "srv")});
    expect_roundtrip(gds::ResolveReplyBody{
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        random_name(rng, "srv"), rng.chance(0.5),
        random_name(rng, "gds")});
    expect_roundtrip(gds::ChildHelloBody{
        static_cast<std::uint16_t>(rng.uniform_int(0, 64)), rng.chance(0.5),
        random_names(rng, "a", 4), random_names(rng, "r", 4)});

    // gsnet/messages.h
    expect_roundtrip(gsnet::CollRequestBody{
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        random_name(rng, "C"), rng.chance(0.5),
        random_names(rng, "chain", 4)});
    {
      gsnet::CollResponseBody body;
      body.request_id = static_cast<std::uint64_t>(rng.uniform_int(0, 99));
      body.ok = rng.chance(0.5);
      body.error = body.ok ? "" : random_name(rng, "err");
      body.docs = random_event(rng).docs;
      body.hops = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      body.servers_contacted =
          static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      expect_roundtrip(body);
    }
    expect_roundtrip(gsnet::SearchRequestBody{
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        random_name(rng, "C"), "title:" + random_name(rng, "w"),
        rng.chance(0.5), random_names(rng, "chain", 4)});
    {
      gsnet::SearchResponseBody body;
      body.request_id = static_cast<std::uint64_t>(rng.uniform_int(0, 99));
      body.ok = rng.chance(0.5);
      body.error = body.ok ? "" : random_name(rng, "err");
      const int nhits = static_cast<int>(rng.uniform_int(0, 6));
      for (int h = 0; h < nhits; ++h) {
        body.hits.push_back(
            static_cast<DocumentId>(rng.uniform_int(1, 1000)));
      }
      body.hops = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      body.servers_contacted =
          static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      expect_roundtrip(body);
    }

    // alerting/messages.h
    expect_roundtrip(alerting::SubscribeBody{"title:" +
                                             random_name(rng, "w")});
    expect_roundtrip(alerting::SubscribeAckBody{
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        rng.chance(0.5),
        static_cast<SubscriptionId>(rng.uniform_int(0, 1 << 20)),
        random_name(rng, "err")});
    expect_roundtrip(alerting::CancelBody{
        static_cast<SubscriptionId>(rng.uniform_int(0, 1 << 20))});
    expect_roundtrip(alerting::NotificationBody{
        static_cast<SubscriptionId>(rng.uniform_int(0, 1 << 20)),
        random_event(rng)});
    expect_roundtrip(alerting::AuxProfileBody{random_ref(rng),
                                              random_ref(rng)});
    expect_roundtrip(alerting::EventForwardBody{random_ref(rng),
                                                random_event(rng)});
    expect_roundtrip(baselines::RemoteProfileBody{
        random_name(rng, "srv"),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        "title:" + random_name(rng, "w"), rng.chance(0.5),
        static_cast<std::uint64_t>(rng.uniform_int(0, 9))});
  }
}

TEST_P(CodecRoundTrip, EventAnnouncementIsByteExact) {
  Rng rng{GetParam().seed ^ 0xE4E47};
  for (int i = 0; i < 100; ++i) {
    const std::vector<std::byte> first =
        alerting::encode_event(random_event(rng));
    auto decoded = alerting::decode_event(first);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(first, alerting::encode_event(decoded.value()));
  }
}

TEST_P(CodecRoundTrip, EnvelopePackUnpackIsByteExact) {
  Rng rng{GetParam().seed ^ 0xE57};
  for (int i = 0; i < 100; ++i) {
    wire::Writer w;
    random_event(rng).encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kEventAnnounce, random_name(rng, "src"),
        random_name(rng, "dst"),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
        std::move(w));
    env.ttl = static_cast<std::uint16_t>(rng.uniform_int(0, 64));
    const sim::Packet packed = env.pack();
    auto unpacked = wire::unpack(packed);
    ASSERT_TRUE(unpacked.ok());
    const sim::Packet repacked = unpacked.value().pack();
    EXPECT_EQ(packed.header, repacked.header);
    EXPECT_EQ(packed.body, repacked.body);
    // The flat form is byte-identical to header + body.
    EXPECT_EQ(env.flatten(), unpacked.value().flatten());
  }
}

// Envelope::flatten_into appends exactly flatten()'s bytes, flat_size()
// of them, for any envelope: empty body, long names, traced or not.
TEST_P(CodecRoundTrip, FlattenIntoMatchesFlatten) {
  Rng rng{GetParam().seed ^ 0xF1A77E};
  for (int i = 0; i < 150; ++i) {
    wire::Envelope env;
    env.type = static_cast<wire::MessageType>(rng.uniform_int(1, 40));
    env.src = rng.chance(0.3) ? std::string(rng.index(600), 's')
                              : random_name(rng, "src");
    env.dst = rng.chance(0.3) ? std::string(rng.index(600), 'd')
                              : random_name(rng, "dst");
    env.msg_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    env.ttl = static_cast<std::uint16_t>(rng.uniform_int(0, 64));
    env.chan_base = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    if (rng.chance(0.5)) {
      env.trace_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      env.span_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      env.hop = static_cast<std::uint16_t>(rng.uniform_int(0, 20));
    }
    if (!rng.chance(0.25)) env.body = random_bytes(rng, 300);

    const std::vector<std::byte> flat = env.flatten();
    ASSERT_EQ(flat.size(), env.flat_size());
    wire::Writer w;
    w.u32(0xFEEDFACE);  // flatten_into appends after what is there
    env.flatten_into(w);
    wire::Writer expected;
    expected.u32(0xFEEDFACE);
    expected.raw(flat);
    EXPECT_EQ(w.buffer(), expected.buffer());
  }
}

TEST_P(CodecRoundTrip, MutatedBytesDecodeCanonicallyOrError) {
  Rng rng{GetParam().seed ^ 0x3417A7E};
  for (int i = 0; i < 150; ++i) {
    // Start from a valid encoded notification (the deepest payload
    // nesting: subscription + event + docs + metadata), then mutate.
    wire::Writer w;
    alerting::NotificationBody{
        static_cast<SubscriptionId>(rng.uniform_int(0, 1 << 20)),
        random_event(rng)}
        .encode(w);
    std::vector<std::byte> bytes = std::move(w).take();
    for (int f = 0; f < 3 && !bytes.empty(); ++f) {
      bytes[rng.index(bytes.size())] ^=
          static_cast<std::byte>(1 << rng.uniform_int(0, 7));
    }
    if (rng.chance(0.3)) bytes.resize(rng.index(bytes.size() + 1));
    expect_canonical_or_error<alerting::NotificationBody>(bytes);
    expect_canonical_or_error<gds::BroadcastBody>(bytes);
    expect_canonical_or_error<gds::MulticastBody>(bytes);
    expect_canonical_or_error<gsnet::CollResponseBody>(bytes);
    expect_canonical_or_error<alerting::EventForwardBody>(bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(FuzzParam{5}, FuzzParam{55},
                                           FuzzParam{555}, FuzzParam{5555}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

// ---------- profile predicates: str -> parse -> str is a fixed point ----------
//
// Predicate::str() doubles as the canonical key for the matcher's shared
// predicate table, so it must (a) parse back and (b) be a fixed point:
// two predicates with equal behavior but different source spellings
// canonicalize to the same key, and no information is lost on the way.
// Known limitation (lexer has no escapes): values containing '"' cannot
// round-trip, and wildcard patterns must stay word-token-shaped — the
// generator honors both.

class ProfileStrFuzz : public ::testing::TestWithParam<FuzzParam> {};

std::string random_query(Rng& rng, int depth = 0) {
  static const std::vector<std::string> attrs{"text", "title", "creator"};
  static const std::vector<std::string> words{"alpha", "beta",  "gamma",
                                              "delta", "omega", "zeta"};
  if (depth >= 2 || rng.chance(0.5)) {
    std::string term = words[rng.index(words.size())];
    if (rng.chance(0.25)) term = term.substr(0, 2) + "*";
    return attrs[rng.index(attrs.size())] + ":" + term;
  }
  const std::string a = random_query(rng, depth + 1);
  const std::string b = random_query(rng, depth + 1);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return "(" + a + " AND " + b + ")";
    case 1:
      return "(" + a + " OR " + b + ")";
    default:
      return "(" + a + " AND NOT " + b + ")";
  }
}

std::string random_pred_value(Rng& rng) {
  // Lowercase (the parser lowercases values, so only lowercase values can
  // be str() fixed points) with quoting-relevant characters mixed in:
  // spaces, commas, brackets, parens — and literal * / ? which must be
  // quoted by str() to not reparse as wildcards.
  static const std::string pool = "abcxyz0189_-.: ,[]()*?=";
  std::string out;
  const int len = static_cast<int>(rng.uniform_int(0, 8));
  for (int i = 0; i < len; ++i) out += pool[rng.index(pool.size())];
  return out;
}

std::string random_word_value(Rng& rng, bool wildcard) {
  static const std::string pool = "abcxyz0189_-.";
  std::string out;
  const int len = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < len; ++i) out += pool[rng.index(pool.size())];
  if (wildcard) {
    out.insert(rng.index(out.size() + 1), 1,
               rng.chance(0.5) ? '*' : '?');
  }
  return out;
}

std::string random_profile_predicate(Rng& rng) {
  static const std::vector<std::string> attrs{"host", "collection", "type",
                                              "title", "creator", "doc_id"};
  const std::string attr = attrs[rng.index(attrs.size())];
  std::string text;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      text = attr + " = \"" + random_pred_value(rng) + "\"";
      break;
    case 1:
      text = attr + " != \"" + random_pred_value(rng) + "\"";
      break;
    case 2:
      text = attr + " = " + random_word_value(rng, /*wildcard=*/true);
      break;
    case 3: {
      text = attr + " IN [";
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n; ++i) {
        if (i > 0) text += ", ";
        text += "\"";
        text += random_pred_value(rng);
        text += "\"";
      }
      text += "]";
      break;
    }
    default:
      text = "doc ~ \"" + random_query(rng) + "\"";
      break;
  }
  if (rng.chance(0.3)) text = "NOT " + text;
  return text;
}

TEST_P(ProfileStrFuzz, PredicateStrParseStrIsFixedPoint) {
  Rng rng{GetParam().seed ^ 0x57A};
  for (int i = 0; i < 300; ++i) {
    const std::string text = random_profile_predicate(rng);
    auto parsed = profiles::parse_profile(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error().str();
    for (const auto& conj : parsed.value().dnf) {
      for (const auto& pred : conj.preds) {
        const std::string canon = pred.str();
        auto reparsed = profiles::parse_profile(canon);
        ASSERT_TRUE(reparsed.ok())
            << "str() not parseable: " << canon << " (from: " << text << ")";
        ASSERT_EQ(reparsed.value().dnf.size(), 1u) << canon;
        ASSERT_EQ(reparsed.value().dnf[0].preds.size(), 1u) << canon;
        const auto& round = reparsed.value().dnf[0].preds[0];
        EXPECT_EQ(round.op, pred.op) << canon;
        EXPECT_EQ(round.str(), canon)
            << "str() not a fixed point (from: " << text << ")";
      }
    }
  }
}

TEST_P(ProfileStrFuzz, WholeProfileReparsesToSameDnf) {
  Rng rng{GetParam().seed ^ 0xD4F};
  for (int i = 0; i < 150; ++i) {
    std::string text = random_profile_predicate(rng);
    const int extra = static_cast<int>(rng.uniform_int(0, 2));
    for (int c = 0; c < extra; ++c) {
      text += (rng.chance(0.5) ? " AND " : " OR ") +
              random_profile_predicate(rng);
    }
    auto parsed = profiles::parse_profile(text);
    ASSERT_TRUE(parsed.ok()) << text;
    // Re-assemble each conjunction from predicate str()s and reparse: the
    // DNF must survive unchanged (same ops, same canonical predicates).
    for (const auto& conj : parsed.value().dnf) {
      std::string conj_text;
      for (const auto& pred : conj.preds) {
        if (!conj_text.empty()) conj_text += " AND ";
        conj_text += pred.str();
      }
      auto re = profiles::parse_profile(conj_text);
      ASSERT_TRUE(re.ok()) << conj_text;
      ASSERT_EQ(re.value().dnf.size(), 1u) << conj_text;
      ASSERT_EQ(re.value().dnf[0].preds.size(), conj.preds.size())
          << conj_text;
      for (std::size_t p = 0; p < conj.preds.size(); ++p) {
        EXPECT_EQ(re.value().dnf[0].preds[p].str(), conj.preds[p].str())
            << conj_text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileStrFuzz,
                         ::testing::Values(FuzzParam{11}, FuzzParam{211},
                                           FuzzParam{3111}, FuzzParam{41111}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

// ---------- journal: the record scanner is total on arbitrary input ----------

class JournalFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(JournalFuzz, ScanRecordsSurvivesRandomBytes) {
  Rng rng{GetParam().seed ^ 0x10C};
  for (int i = 0; i < 300; ++i) {
    const std::vector<std::byte> bytes = random_bytes(rng, 300);
    const journal::ScanResult result = journal::scan_records(
        bytes, [](std::uint8_t, std::span<const std::byte>, std::uint64_t) {});
    // Whatever it accepted must lie inside the buffer, and a random
    // buffer passing the magic + CRC gauntlet is a framing bug.
    EXPECT_LE(result.valid_bytes, bytes.size());
    EXPECT_EQ(result.records, 0u);
  }
}

TEST_P(JournalFuzz, ScanEntriesSurvivesRandomBytes) {
  Rng rng{GetParam().seed ^ 0x10E};
  for (int i = 0; i < 300; ++i) {
    const std::vector<std::byte> bytes = random_bytes(rng, 300);
    std::size_t covered = 0;
    const bool whole = journal::scan_entries(
        bytes, [&](std::uint8_t, std::span<const std::byte> payload) {
          covered += journal::kEntryHeaderBytes + payload.size();
          EXPECT_LE(covered, bytes.size());
        });
    // Exact cover is the only success; anything short is rejected.
    EXPECT_EQ(whole, covered == bytes.size());
  }
}

TEST_P(JournalFuzz, RecoverSurvivesMutatedLogs) {
  Rng rng{GetParam().seed ^ 0x10D};
  for (int i = 0; i < 60; ++i) {
    // A genuine log image first...
    sim::Storage source;
    {
      journal::Journal writer{source, "j", "fuzz"};
      const int records = static_cast<int>(rng.uniform_int(1, 8));
      for (int r = 0; r < records; ++r) {
        const std::string payload = "rec" + std::to_string(r);
        journal::RecordSink{&writer}.put(
            static_cast<std::uint8_t>(rng.uniform_int(0, 254)),
            journal::str_wire(payload),
            [&](wire::Writer& w) { w.str(payload); });
      }
      writer.commit();
    }
    const auto span = source.read("j.log");
    std::vector<std::byte> image{span.begin(), span.end()};
    // ...then mutated: bit flips, truncation, or a junk tail.
    for (int f = 0; f < 3 && !image.empty(); ++f) {
      image[rng.index(image.size())] ^=
          static_cast<std::byte>(1 << rng.uniform_int(0, 7));
    }
    if (rng.chance(0.4)) image.resize(rng.index(image.size() + 1));
    if (rng.chance(0.4)) {
      const auto tail = random_bytes(rng, 40);
      image.insert(image.end(), tail.begin(), tail.end());
    }
    sim::Storage storage;
    storage.append("j.log", image);
    storage.flush("j.log");
    journal::Journal reader{storage, "j", "fuzz"};
    const auto replay = [](std::uint8_t, wire::Reader& r, std::uint64_t) {
      (void)r.str();  // decode failure must latch, not crash
    };
    const journal::RecoveryResult first = reader.recover(replay);
    // Idempotence holds on mutated input too: a second recovery over the
    // (now repaired) storage reports the same surviving prefix.
    journal::Journal again{storage, "j", "fuzz"};
    const journal::RecoveryResult second = again.recover(replay);
    EXPECT_EQ(first.records_applied, second.records_applied);
    EXPECT_EQ(first.last_lsn, second.last_lsn);
    EXPECT_EQ(second.torn_bytes_dropped, 0u)
        << "first recovery left a torn tail behind";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz,
                         ::testing::Values(FuzzParam{13}, FuzzParam{137},
                                           FuzzParam{1379}, FuzzParam{13797}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

// ---------- retrieval: index == direct evaluation -----------------------------

class RetrievalFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RetrievalFuzz, IndexExecutionMatchesDirectEvaluation) {
  Rng rng{GetParam().seed};
  static const std::vector<std::string> words{"alpha", "beta",  "gamma",
                                              "delta", "omega", "zeta"};
  docmodel::DataSet data;
  for (DocumentId id = 1; id <= 60; ++id) {
    docmodel::Document d;
    d.id = id;
    d.metadata.add("title", words[rng.index(words.size())]);
    if (rng.chance(0.7)) {
      d.metadata.add("creator", words[rng.index(words.size())]);
    }
    const int nterms = static_cast<int>(rng.uniform_int(1, 5));
    for (int t = 0; t < nterms; ++t) {
      d.terms.push_back(words[rng.index(words.size())]);
    }
    data.add(std::move(d));
  }
  retrieval::InvertedIndex index;
  index.build(data, {"title", "creator"});

  for (int i = 0; i < 150; ++i) {
    const std::string text = random_query(rng);
    auto query = retrieval::parse_query(text);
    ASSERT_TRUE(query.ok()) << text;
    const retrieval::PostingList via_index = index.execute(*query.value());
    retrieval::PostingList direct;
    for (const auto& d : data.docs()) {
      if (query.value()->matches(d)) direct.push_back(d.id);
    }
    EXPECT_EQ(via_index, direct) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetrievalFuzz,
                         ::testing::Values(FuzzParam{3}, FuzzParam{33},
                                           FuzzParam{333}, FuzzParam{3333}),
                         [](const ::testing::TestParamInfo<FuzzParam>& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace gsalert
