// Unit tests for the proto module: region analysis, FSM learning and
// matching (batch + incremental ScriptGen), exploit dialog synthesis.
#include <gtest/gtest.h>

#include <algorithm>

#include "proto/fsm.hpp"
#include "proto/gamma.hpp"
#include "proto/incremental.hpp"
#include "proto/message.hpp"
#include "proto/region.hpp"
#include "proto/services.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace repro::proto {
namespace {

Bytes bytes(std::string_view text) { return to_bytes(text); }

/// True if `needle` is a subsequence of `haystack`.
bool is_subsequence(const Bytes& needle, const Bytes& haystack) {
  std::size_t h = 0;
  for (const std::uint8_t byte : needle) {
    while (h < haystack.size() && haystack[h] != byte) ++h;
    if (h == haystack.size()) return false;
    ++h;
  }
  return true;
}

/// The classic O(n*m) LCS table, walked back diagonal-first on a byte
/// match, otherwise up when L(i-1, j) >= L(i, j-1): the oracle whose
/// bytes the bit-parallel longest_common_subsequence must reproduce.
Bytes oracle_lcs(const Bytes& a, const Bytes& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::uint32_t> table((n + 1) * (m + 1), 0);
  const auto at = [&](std::size_t i, std::size_t j) -> std::uint32_t& {
    return table[i * (m + 1) + j];
  };
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      at(i, j) = a[i - 1] == b[j - 1]
                     ? at(i - 1, j - 1) + 1
                     : std::max(at(i - 1, j), at(i, j - 1));
    }
  }
  Bytes out(at(n, m));
  std::size_t i = n;
  std::size_t j = m;
  std::size_t k = out.size();
  while (i > 0 && j > 0) {
    if (a[i - 1] == b[j - 1]) {
      out[--k] = a[i - 1];
      --i;
      --j;
    } else if (at(i - 1, j) >= at(i, j - 1)) {
      --i;
    } else {
      --j;
    }
  }
  return out;
}

/// `length` bytes drawn from {first, ..., first + alphabet - 1}.
Bytes random_bytes(Rng& rng, std::size_t length, unsigned alphabet,
                   unsigned first = 0) {
  Bytes out(length);
  for (auto& byte : out) {
    byte = static_cast<std::uint8_t>(first + rng.index(alphabet));
  }
  return out;
}

/// Requires the LCS bytes of the oracle, and the similarity computed
/// from the oracle's length, equal to the last bit.
void expect_oracle_agreement(const Bytes& a, const Bytes& b) {
  SCOPED_TRACE("|a| = " + std::to_string(a.size()) +
               ", |b| = " + std::to_string(b.size()));
  const Bytes expected = oracle_lcs(a, b);
  EXPECT_EQ(longest_common_subsequence(a, b), expected);
  const double similarity =
      a.empty() && b.empty()
          ? 1.0
          : 2.0 * static_cast<double>(expected.size()) /
                static_cast<double>(a.size() + b.size());
  EXPECT_EQ(message_similarity(a, b), similarity);
}

// ---------------------------------------------------------------- LCS

TEST(Lcs, KnownValue) {
  EXPECT_EQ(longest_common_subsequence(bytes("ABCBDAB"), bytes("BDCABA")),
            bytes("BCBA"));
}

TEST(Lcs, EmptyInputs) {
  EXPECT_TRUE(longest_common_subsequence(bytes(""), bytes("abc")).empty());
  EXPECT_TRUE(longest_common_subsequence(bytes("abc"), bytes("")).empty());
}

TEST(Lcs, IdenticalInputs) {
  EXPECT_EQ(longest_common_subsequence(bytes("hello"), bytes("hello")),
            bytes("hello"));
}

class LcsProperty : public ::testing::TestWithParam<int> {};

TEST_P(LcsProperty, ResultIsCommonSubsequence) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  Bytes a(rng.index(60));
  Bytes b(rng.index(60));
  for (auto& byte : a) byte = static_cast<std::uint8_t>(rng.uniform('a', 'f'));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform('a', 'f'));
  const Bytes common = longest_common_subsequence(a, b);
  EXPECT_TRUE(is_subsequence(common, a));
  EXPECT_TRUE(is_subsequence(common, b));
  EXPECT_LE(common.size(), std::min(a.size(), b.size()));
  EXPECT_EQ(common.size(), oracle_lcs(a, b).size());  // optimal
}

INSTANTIATE_TEST_SUITE_P(Random, LcsProperty, ::testing::Range(0, 20));

// Lengths around the 64-bit word edges of the bit-parallel rows.
constexpr std::size_t kEdgeLengths[] = {0,   1,   2,   3,   31,  63,
                                        64,  65,  100, 127, 128, 129,
                                        191, 192, 193, 256, 300};

TEST(Lcs, MatchesTableOracleAcrossLengthsAndAlphabets) {
  Rng rng{29};
  for (const unsigned alphabet : {1U, 2U, 4U, 256U}) {
    SCOPED_TRACE("alphabet " + std::to_string(alphabet));
    for (const std::size_t n : kEdgeLengths) {
      for (const std::size_t m : kEdgeLengths) {
        expect_oracle_agreement(random_bytes(rng, n, alphabet),
                                random_bytes(rng, m, alphabet));
      }
    }
    for (int trial = 0; trial < 100; ++trial) {
      expect_oracle_agreement(random_bytes(rng, rng.index(301), alphabet),
                              random_bytes(rng, rng.index(301), alphabet));
    }
  }
}

TEST(Lcs, MatchesTableOracleOnIdenticalDisjointAndPrefixPairs) {
  Rng rng{64};
  for (const unsigned alphabet : {1U, 2U, 4U, 256U}) {
    SCOPED_TRACE("alphabet " + std::to_string(alphabet));
    for (const std::size_t n : kEdgeLengths) {
      const Bytes a = random_bytes(rng, n, alphabet);
      expect_oracle_agreement(a, a);
      // Disjoint: b draws from the byte values a never uses.
      if (alphabet < 256) {
        expect_oracle_agreement(a, random_bytes(rng, n, alphabet, alphabet));
      }
      // b is a prefix of a, and a and b share a prefix then diverge.
      const Bytes prefix(a.begin(),
                         a.begin() + static_cast<long>(rng.index(n + 1)));
      expect_oracle_agreement(a, prefix);
      expect_oracle_agreement(prefix, a);
      Bytes tail = random_bytes(rng, rng.index(130), alphabet);
      Bytes shared = prefix;
      shared.insert(shared.end(), tail.begin(), tail.end());
      expect_oracle_agreement(a, shared);
    }
  }
}

TEST(Similarity, BoundsAndIdentity) {
  EXPECT_EQ(message_similarity(bytes("abc"), bytes("abc")), 1.0);
  EXPECT_EQ(message_similarity(bytes(""), bytes("")), 1.0);
  EXPECT_EQ(message_similarity(bytes("aaa"), bytes("bbb")), 0.0);
  const double partial = message_similarity(bytes("abcdef"), bytes("abcxyz"));
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
}

// ------------------------------------------------------- region analysis

TEST(RegionAnalysis, ExtractsFixedRegions) {
  const Bytes a = bytes("HEADER-xx-MIDDLE-yy-TAIL");
  const Bytes b = bytes("HEADER-zz-MIDDLE-qq-TAIL");
  const auto regions = region_analysis({&a, &b});
  ASSERT_GE(regions.size(), 3u);
  EXPECT_EQ(regions[0].bytes, bytes("HEADER-"));
  EXPECT_TRUE(regions_match(regions, a));
  EXPECT_TRUE(regions_match(regions, b));
}

TEST(RegionAnalysis, MatchesFreshInstanceOfSamePattern) {
  const Bytes a = bytes("GET /abc/file.exe HTTP");
  const Bytes b = bytes("GET /xyz/file.exe HTTP");
  const auto regions = region_analysis({&a, &b});
  EXPECT_TRUE(regions_match(regions, bytes("GET /123/file.exe HTTP")));
  EXPECT_FALSE(regions_match(regions, bytes("PUT /123/other.bin SMTP")));
}

TEST(RegionAnalysis, DropsShortRegions) {
  const Bytes a = bytes("ab--cdefgh");
  const Bytes b = bytes("abxxcdefgh");
  const auto regions = region_analysis({&a, &b}, 4);
  // "ab" (length 2) is dropped; "cdefgh" survives.
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].bytes, bytes("cdefgh"));
}

TEST(RegionAnalysis, SingleMessageIsOneRegion) {
  const Bytes a = bytes("ENTIRE MESSAGE");
  const auto regions = region_analysis({&a});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].bytes, a);
}

TEST(RegionAnalysis, EmptyInput) {
  EXPECT_TRUE(region_analysis({}).empty());
}

TEST(RegionAnalysis, DisjointMessagesYieldNothing) {
  const Bytes a = bytes("aaaaaaa");
  const Bytes b = bytes("bbbbbbb");
  EXPECT_TRUE(region_analysis({&a, &b}).empty());
}

TEST(RegionsMatch, OrderMatters) {
  const std::vector<Region> regions{{bytes("AAA")}, {bytes("BBB")}};
  EXPECT_TRUE(regions_match(regions, bytes("xxAAAxxBBBxx")));
  EXPECT_FALSE(regions_match(regions, bytes("xxBBBxxAAAxx")));
}

TEST(RegionsMatch, EmptyRegionListMatchesAnything) {
  EXPECT_TRUE(regions_match({}, bytes("anything")));
}

TEST(RegionsMatch, TotalBytes) {
  const std::vector<Region> regions{{bytes("ab")}, {bytes("cde")}};
  EXPECT_EQ(total_region_bytes(regions), 5u);
}

// -------------------------------------------------------------- services

TEST(Services, PortsPerService) {
  EXPECT_EQ(service_port(ServiceKind::kSmb445), 445);
  EXPECT_EQ(service_port(ServiceKind::kNetbios139), 139);
  EXPECT_EQ(service_port(ServiceKind::kDceRpc135), 135);
}

TEST(Services, TemplatesAreDeterministic) {
  const auto a = make_exploit_template(ServiceKind::kSmb445, 7);
  const auto b = make_exploit_template(ServiceKind::kSmb445, 7);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].implementation_token,
              b.requests[i].implementation_token);
  }
}

TEST(Services, DifferentImplementationsDiffer) {
  const auto a = make_exploit_template(ServiceKind::kSmb445, 1);
  const auto b = make_exploit_template(ServiceKind::kSmb445, 2);
  EXPECT_NE(a.requests.back().implementation_token,
            b.requests.back().implementation_token);
}

TEST(Services, ExactlyOnePayloadCarrier) {
  for (const auto kind : {ServiceKind::kSmb445, ServiceKind::kNetbios139,
                          ServiceKind::kDceRpc135}) {
    for (std::uint32_t impl = 0; impl < 6; ++impl) {
      const auto tmpl = make_exploit_template(kind, impl);
      int carriers = 0;
      for (const auto& request : tmpl.requests) {
        carriers += request.carries_payload ? 1 : 0;
      }
      EXPECT_EQ(carriers, 1) << tmpl.id;
    }
  }
}

TEST(Services, SynthesizedAttackEmbedsGammaThenPayload) {
  Rng rng{1};
  const auto tmpl = make_exploit_template(ServiceKind::kSmb445, 0);
  const Bytes payload = bytes("PAYLOAD-MARKER-123");
  const Conversation conv = synthesize_attack(
      tmpl, payload, net::Ipv4{1, 2, 3, 4}, net::Ipv4{10, 0, 0, 1}, rng);
  const PayloadLocation loc = payload_location(tmpl);
  const Bytes& carrier = conv.messages[loc.message_index].bytes;
  // The tainted region starts with the bogus control data...
  const Bytes tainted{carrier.begin() + static_cast<long>(loc.byte_offset),
                      carrier.end()};
  const auto gamma = observe_gamma(tainted);
  ASSERT_TRUE(gamma.has_value());
  EXPECT_EQ(gamma->trampoline, tmpl.gamma.trampoline);
  EXPECT_EQ(gamma->pad_length, tmpl.gamma.pad_length);
  // ...and ends with the payload bytes.
  ASSERT_GE(carrier.size(), payload.size());
  const Bytes tail{carrier.end() - static_cast<long>(payload.size()),
                   carrier.end()};
  EXPECT_EQ(tail, payload);
}

TEST(Services, StripPayloadRemovesTaintedRegion) {
  Rng rng{2};
  const auto tmpl = make_exploit_template(ServiceKind::kDceRpc135, 3);
  const Bytes payload = bytes("SHELLCODE");
  Conversation conv = synthesize_attack(tmpl, payload, net::Ipv4{1, 1, 1, 1},
                                        net::Ipv4{2, 2, 2, 2}, rng);
  const PayloadLocation loc = payload_location(tmpl);
  const Conversation stripped = strip_payload(conv, loc);
  // Everything from the gamma bytes onward is gone: the dialog ends at
  // the fixed part the FSM should learn.
  EXPECT_EQ(stripped.messages[loc.message_index].bytes.size(),
            loc.byte_offset);
  EXPECT_FALSE(
      observe_gamma(stripped.messages[loc.message_index].bytes).has_value());
}

TEST(Gamma, SpecIsDeterministicPerExploit) {
  EXPECT_EQ(make_gamma_spec(42).trampoline, make_gamma_spec(42).trampoline);
  EXPECT_EQ(make_exploit_template(ServiceKind::kSmb445, 0).gamma.trampoline,
            make_exploit_template(ServiceKind::kSmb445, 0).gamma.trampoline);
}

TEST(Gamma, ObserveRoundTrip) {
  Rng rng{11};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const GammaSpec spec = make_gamma_spec(seed);
    const auto bytes_out = build_gamma(spec, rng);
    const auto observed = observe_gamma(bytes_out);
    ASSERT_TRUE(observed.has_value()) << seed;
    EXPECT_EQ(observed->trampoline, spec.trampoline);
    EXPECT_EQ(observed->pad_length, spec.pad_length);
    EXPECT_EQ(observed->technique, hijack_technique_name(spec.technique));
  }
}

TEST(Gamma, PadVariesPerInstanceControlDataDoesNot) {
  Rng rng{12};
  const GammaSpec spec = make_gamma_spec(7);
  const auto a = build_gamma(spec, rng);
  const auto b = build_gamma(spec, rng);
  EXPECT_NE(a, b);  // pad filler differs
  EXPECT_EQ(observe_gamma(a)->trampoline, observe_gamma(b)->trampoline);
}

TEST(Gamma, ObserveRejectsJunk) {
  EXPECT_FALSE(observe_gamma(bytes("no marker here at all")).has_value());
  EXPECT_FALSE(observe_gamma({}).has_value());
}

TEST(Services, ClientMessagesAlternate) {
  Rng rng{3};
  const auto tmpl = make_exploit_template(ServiceKind::kNetbios139, 0);
  const Conversation conv = synthesize_attack(
      tmpl, bytes("x"), net::Ipv4{1, 1, 1, 1}, net::Ipv4{2, 2, 2, 2}, rng);
  EXPECT_EQ(conv.messages.size(), tmpl.requests.size() * 2);
  EXPECT_EQ(conv.client_messages().size(), tmpl.requests.size());
  EXPECT_EQ(conv.dst_port, 139);
}

// ------------------------------------------------------------- batch FSM

class FsmFixture : public ::testing::Test {
 protected:
  /// Builds a training set of `impls` implementations x `instances`
  /// payload-stripped conversations each.
  std::vector<Conversation> training(int impls, int instances,
                                     std::uint64_t seed = 10) {
    Rng rng{seed};
    std::vector<Conversation> out;
    for (int impl = 0; impl < impls; ++impl) {
      const auto tmpl = make_exploit_template(ServiceKind::kSmb445,
                                              static_cast<std::uint32_t>(impl));
      const auto loc = payload_location(tmpl);
      for (int i = 0; i < instances; ++i) {
        Conversation conv = synthesize_attack(
            tmpl, to_bytes("PAYLOAD" + rng.alnum(20)),
            net::Ipv4{static_cast<std::uint32_t>(rng.next())},
            net::Ipv4{10, 0, 0, 1}, rng);
        out.push_back(strip_payload(std::move(conv), loc));
      }
    }
    return out;
  }
};

TEST_F(FsmFixture, LearnsOnePathPerImplementation) {
  const Fsm fsm = Fsm::learn(training(6, 5));
  EXPECT_EQ(fsm.all_paths().size(), 6u);
}

TEST_F(FsmFixture, MatchesFreshInstancesConsistently) {
  const Fsm fsm = Fsm::learn(training(5, 5));
  Rng rng{77};
  for (int impl = 0; impl < 5; ++impl) {
    const auto tmpl = make_exploit_template(ServiceKind::kSmb445,
                                            static_cast<std::uint32_t>(impl));
    std::string first_path;
    for (int i = 0; i < 5; ++i) {
      const Conversation conv = synthesize_attack(
          tmpl, to_bytes("FRESH" + rng.alnum(30)),
          net::Ipv4{static_cast<std::uint32_t>(rng.next())},
          net::Ipv4{10, 0, 0, 2}, rng);
      const auto path = fsm.match(conv);  // raw conversation, payload on
      ASSERT_TRUE(path.has_value());
      if (first_path.empty()) first_path = *path;
      EXPECT_EQ(*path, first_path);
    }
  }
}

TEST_F(FsmFixture, DistinctImplementationsGetDistinctPaths) {
  const Fsm fsm = Fsm::learn(training(5, 5));
  Rng rng{78};
  std::set<std::string> paths;
  for (int impl = 0; impl < 5; ++impl) {
    const auto tmpl = make_exploit_template(ServiceKind::kSmb445,
                                            static_cast<std::uint32_t>(impl));
    const Conversation conv = synthesize_attack(
        tmpl, to_bytes("X"), net::Ipv4{9, 9, 9, 9}, net::Ipv4{10, 0, 0, 3},
        rng);
    const auto path = fsm.match(conv);
    ASSERT_TRUE(path.has_value());
    paths.insert(*path);
  }
  EXPECT_EQ(paths.size(), 5u);
}

TEST_F(FsmFixture, UnknownImplementationIsRejected) {
  const Fsm fsm = Fsm::learn(training(4, 5));
  Rng rng{79};
  const auto unseen = make_exploit_template(ServiceKind::kSmb445, 99);
  const Conversation conv = synthesize_attack(
      unseen, to_bytes("X"), net::Ipv4{8, 8, 8, 8}, net::Ipv4{10, 0, 0, 3},
      rng);
  EXPECT_FALSE(fsm.match(conv).has_value());
}

TEST_F(FsmFixture, WrongPortIsRejected) {
  const Fsm fsm = Fsm::learn(training(2, 4));
  Rng rng{80};
  const auto other = make_exploit_template(ServiceKind::kDceRpc135, 0);
  const Conversation conv = synthesize_attack(
      other, to_bytes("X"), net::Ipv4{8, 8, 8, 8}, net::Ipv4{10, 0, 0, 3},
      rng);
  EXPECT_FALSE(fsm.match(conv).has_value());
}

TEST(Fsm, LearnRejectsEmptyTraining) {
  EXPECT_THROW(Fsm::learn({}), ConfigError);
}

TEST(Fsm, LearnRejectsMixedPorts) {
  Conversation on445;
  on445.dst_port = 445;
  Conversation on139;
  on139.dst_port = 139;
  EXPECT_THROW(Fsm::learn({on445, on139}), ConfigError);
}

TEST_F(FsmFixture, PathIdsCarryThePort) {
  const Fsm fsm = Fsm::learn(training(2, 4));
  for (const std::string& path : fsm.all_paths()) {
    EXPECT_EQ(path.rfind("p445/", 0), 0u) << path;
  }
}

// ------------------------------------------------------- incremental FSM

TEST(IncrementalFsm, MaturityGatesMatching) {
  Rng rng{200};
  const auto tmpl = make_exploit_template(ServiceKind::kSmb445, 0);
  const auto loc = payload_location(tmpl);
  IncrementalFsm::Options options;
  options.maturity = 3;
  IncrementalFsm model{445, options};

  const auto fresh = [&] {
    return synthesize_attack(tmpl, to_bytes("PAY" + rng.alnum(8)),
                             net::Ipv4{static_cast<std::uint32_t>(rng.next())},
                             net::Ipv4{10, 0, 0, 1}, rng);
  };

  // Before maturity: no match; training accumulates.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(model.match(fresh()).has_value());
    model.train(strip_payload(fresh(), loc));
  }
  EXPECT_FALSE(model.match(fresh()).has_value());
  model.train(strip_payload(fresh(), loc));  // third sample: mature
  EXPECT_TRUE(model.match(fresh()).has_value());
}

TEST(IncrementalFsm, PathIdsStableAcrossRefinement) {
  Rng rng{201};
  IncrementalFsm model{445};
  const auto impl0 = make_exploit_template(ServiceKind::kSmb445, 0);
  const auto impl1 = make_exploit_template(ServiceKind::kSmb445, 1);
  const auto train_one = [&](const proto::ExploitTemplate& tmpl) {
    model.train(strip_payload(
        synthesize_attack(tmpl, to_bytes("P" + rng.alnum(6)),
                          net::Ipv4{static_cast<std::uint32_t>(rng.next())},
                          net::Ipv4{10, 0, 0, 1}, rng),
        payload_location(tmpl)));
  };
  for (int i = 0; i < 4; ++i) train_one(impl0);
  const auto probe = synthesize_attack(impl0, to_bytes("Q"),
                                       net::Ipv4{9, 9, 9, 9},
                                       net::Ipv4{10, 0, 0, 2}, rng);
  const auto path_before = model.match(probe);
  ASSERT_TRUE(path_before.has_value());
  // Refine with a second implementation: the original path id must not
  // change.
  for (int i = 0; i < 4; ++i) train_one(impl1);
  const auto path_after = model.match(probe);
  ASSERT_TRUE(path_after.has_value());
  EXPECT_EQ(*path_before, *path_after);
}

TEST(IncrementalFsm, CountsTransitions) {
  Rng rng{202};
  IncrementalFsm model{445};
  EXPECT_EQ(model.transition_count(), 0u);
  const auto tmpl = make_exploit_template(ServiceKind::kSmb445, 0);
  for (int i = 0; i < 4; ++i) {
    model.train(strip_payload(
        synthesize_attack(tmpl, to_bytes("P" + rng.alnum(6)),
                          net::Ipv4{static_cast<std::uint32_t>(rng.next())},
                          net::Ipv4{10, 0, 0, 1}, rng),
        payload_location(tmpl)));
  }
  // One transition per dialog position, all mature.
  EXPECT_EQ(model.transition_count(), tmpl.requests.size());
  EXPECT_EQ(model.mature_transition_count(), tmpl.requests.size());
}

TEST(IncrementalFsm, RespondEmulatesLearnedService) {
  Rng rng{300};
  const auto tmpl = make_exploit_template(ServiceKind::kSmb445, 2);
  const auto loc = payload_location(tmpl);
  IncrementalFsm model{445};
  for (int i = 0; i < 4; ++i) {
    model.train(strip_payload(
        synthesize_attack(tmpl, to_bytes("P" + rng.alnum(8)),
                          net::Ipv4{static_cast<std::uint32_t>(rng.next())},
                          net::Ipv4{10, 0, 0, 1}, rng),
        loc));
  }
  // Fresh dialog, one client message at a time: the model must produce
  // the honeyfarm's replies ("\x00 OK" for setup requests, "\x00 FAULT"
  // for the injection-carrying one).
  const Conversation full = synthesize_attack(
      tmpl, to_bytes("FRESH"), net::Ipv4{9, 9, 9, 9}, net::Ipv4{10, 0, 0, 2},
      rng);
  Conversation dialog;
  dialog.dst_port = 445;
  const auto clients = full.client_messages();
  for (std::size_t depth = 0; depth < clients.size(); ++depth) {
    Message client;
    client.direction = Message::Direction::kClientToServer;
    client.bytes = *clients[depth];
    dialog.messages.push_back(client);
    const auto reply = model.respond(dialog);
    ASSERT_TRUE(reply.has_value()) << "depth " << depth;
    const bool is_last = depth + 1 == clients.size();
    EXPECT_EQ(*reply, to_bytes(is_last ? "-FAULT pipe broken"
                                       : "+OK continue"));
    EXPECT_FALSE(reply->empty());
    // Append the emulated reply, as a real sensor would.
    Message server;
    server.direction = Message::Direction::kServerToClient;
    server.bytes = *reply;
    dialog.messages.push_back(server);
  }
}

TEST(IncrementalFsm, RespondRefusesImmatureDialogs) {
  Rng rng{301};
  const auto tmpl = make_exploit_template(ServiceKind::kSmb445, 2);
  const auto loc = payload_location(tmpl);
  IncrementalFsm model{445};
  model.train(strip_payload(
      synthesize_attack(tmpl, to_bytes("P"), net::Ipv4{1, 1, 1, 1},
                        net::Ipv4{10, 0, 0, 1}, rng),
      loc));
  Conversation dialog = synthesize_attack(
      tmpl, to_bytes("F"), net::Ipv4{2, 2, 2, 2}, net::Ipv4{10, 0, 0, 2}, rng);
  EXPECT_FALSE(model.respond(dialog).has_value());
  // Wrong port is refused outright.
  dialog.dst_port = 139;
  EXPECT_FALSE(model.respond(dialog).has_value());
}

TEST(IncrementalFsm, TrainRejectsWrongPort) {
  IncrementalFsm model{445};
  Conversation conv;
  conv.dst_port = 139;
  EXPECT_THROW(model.train(conv), ConfigError);
  EXPECT_FALSE(model.match(conv).has_value());
}

}  // namespace
}  // namespace repro::proto
