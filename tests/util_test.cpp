// Unit tests for the util module: RNG, MD5, hex, strings, sim-time,
// byte I/O and text rendering.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/histogram.hpp"
#include "util/md5.hpp"
#include "util/md5_lanes.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"
#include "util/sorted.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace repro {
namespace {

// ------------------------------------------------------------------- parse

TEST(Parse, AcceptsWholeStringNumbersAtTheirBounds) {
  EXPECT_EQ(parse_u8("0", "octet"), 0);
  EXPECT_EQ(parse_u8("255", "octet"), 255);
  EXPECT_EQ(parse_u16("65535", "port"), 65535);
  EXPECT_EQ(parse_u32("4294967295", "value"), 4294967295u);
  EXPECT_EQ(parse_u64("18446744073709551615", "value"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_i32("-2147483648", "value"),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(parse_i64("-9223372036854775808", "value"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(parse_f64("0.25", "scale"), 0.25);
  EXPECT_DOUBLE_EQ(parse_f64("1e-3", "scale"), 0.001);
}

TEST(Parse, RejectsGarbagePrefixesAndPadding) {
  // The from_chars wrappers must never accept what std::stoi accepts:
  // numeric prefixes ("12abc" -> 12), leading whitespace, or '+'.
  for (const char* bad : {"", "abc", "12abc", " 12", "12 ", "+12", "1.5"}) {
    EXPECT_THROW((void)parse_i32(bad, "value"), ParseError) << bad;
  }
}

TEST(Parse, RejectsOverflowPerWidth) {
  EXPECT_THROW((void)parse_u8("256", "octet"), ParseError);
  EXPECT_THROW((void)parse_u16("65536", "port"), ParseError);
  EXPECT_THROW((void)parse_u16("99999", "port"), ParseError);
  EXPECT_THROW((void)parse_u16("-1", "port"), ParseError);
  EXPECT_THROW((void)parse_u32("4294967296", "value"), ParseError);
  EXPECT_THROW((void)parse_u64("99999999999999999999", "value"), ParseError);
  EXPECT_THROW((void)parse_i32("2147483648", "value"), ParseError);
}

TEST(Parse, ErrorMessagesCarryCallerContext) {
  try {
    (void)parse_u16("xx", "subnet prefix");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("subnet prefix"), std::string::npos) << what;
    EXPECT_NE(what.find("xx"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------------ sorted

TEST(Sorted, KeysOfMapsAndSetsComeBackOrdered) {
  const std::unordered_map<std::string, int> counts{
      {"beta", 2}, {"alpha", 1}, {"gamma", 3}};
  EXPECT_EQ(sorted_keys(counts),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  const std::unordered_set<int> ids{3, 1, 2};
  EXPECT_EQ(sorted_keys(ids), (std::vector<int>{1, 2, 3}));
}

TEST(Sorted, ItemsPreserveValuesAndOrderByKey) {
  const std::unordered_map<std::string, int> counts{
      {"beta", 2}, {"alpha", 1}, {"gamma", 3}};
  const auto items = sorted_items(counts);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<std::string, int>{"alpha", 1}));
  EXPECT_EQ(items[1], (std::pair<std::string, int>{"beta", 2}));
  EXPECT_EQ(items[2], (std::pair<std::string, int>{"gamma", 3}));
}

TEST(Sorted, UniqueSortsAndCollapsesDuplicates) {
  // Regression shape for feature-id hash collisions: two distinct
  // feature strings hashing to the same 64-bit id must contribute ONE
  // set element, or Jaccard denominators drift between the merge-walk
  // (set semantics) and signature (multiset) paths.
  std::vector<std::uint64_t> ids{42, 7, 42, 42, 7, 1};
  sorted_unique(ids);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 7, 42}));
}

TEST(Sorted, UniqueOnEmptyAndSingleton) {
  std::vector<int> empty;
  sorted_unique(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  sorted_unique(one);
  EXPECT_EQ(one, (std::vector<int>{5}));
}

TEST(Sorted, UniqueAlreadySortedIsIdentity) {
  std::vector<std::string> names{"a", "b", "c"};
  sorted_unique(names);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversFullRange) {
  Rng rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexBound) {
  Rng rng{3};
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{11};
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PoissonMeanSmall) {
  Rng rng{13};
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.poisson(3.5));
  }
  EXPECT_NEAR(sum / trials, 3.5, 0.1);
}

TEST(Rng, PoissonMeanLarge) {
  Rng rng{17};
  double sum = 0.0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.poisson(80.0));
  }
  EXPECT_NEAR(sum / trials, 80.0, 1.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng{19};
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, WeightedrespectsZeroWeights) {
  Rng rng{23};
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedProportions) {
  Rng rng{29};
  const double weights[] = {1.0, 3.0};
  int high = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) high += rng.weighted(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(high) / trials, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependentAndLabelled) {
  Rng parent1{42};
  Rng parent2{42};
  Rng child_a = parent1.fork("a");
  Rng child_b = parent2.fork("b");
  // Different labels from the same parent state yield different streams.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child_a.next() == child_b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkSameLabelSameStream) {
  Rng parent1{42};
  Rng parent2{42};
  Rng child1 = parent1.fork("x");
  Rng child2 = parent2.fork("x");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{31};
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Rng, FillCoversBuffer) {
  Rng rng{37};
  std::vector<std::uint8_t> buffer(1000, 0);
  rng.fill(buffer);
  std::set<std::uint8_t> seen{buffer.begin(), buffer.end()};
  EXPECT_GT(seen.size(), 100u);
}

TEST(Rng, AlnumLengthAndAlphabet) {
  Rng rng{41};
  const std::string s = rng.alnum(64);
  EXPECT_EQ(s.size(), 64u);
  for (const char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

TEST(Rng, Fnv1aKnownValues) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Rng, BurstLengthAtLeastOne) {
  Rng rng{43};
  for (int i = 0; i < 100; ++i) EXPECT_GE(rng.burst_length(0.0), 1u);
}

// --------------------------------------------------------------------- Md5

struct Md5Vector {
  const char* input;
  const char* digest;
};

// Names each vector after its digest, not its pointers' bytes, so the
// discovered test names stay the same from one load address to the next
// and short whatever the input's length.
void PrintTo(const Md5Vector& v, std::ostream* os) {
  *os << ::testing::PrintToString(v.digest);
}

class Md5Rfc : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc, MatchesReferenceDigest) {
  const auto& [input, digest] = GetParam();
  const std::string text{input};
  const std::vector<std::uint8_t> bytes{text.begin(), text.end()};
  EXPECT_EQ(Md5::hex_digest(bytes), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  Md5 ctx;
  // Feed in awkward chunk sizes spanning block boundaries.
  std::size_t offset = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 300, 380};
  for (const std::size_t chunk : chunks) {
    ctx.update(std::span<const std::uint8_t>{data.data() + offset, chunk});
    offset += chunk;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ(ctx.finish(), Md5::digest(data));
}

// Digests of the first n bytes of a fixed pattern for every n in
// 0..130: every padding edge (55/56 and 119/120 bytes, where the length
// field no longer fits the last block, and 63/64/65 around one block)
// plus the lengths between. Pinned from the table-driven block function
// before it was unrolled; the digests agree with RFC 1321.
constexpr const char* kPatternDigests[131] = {
    "d41d8cd98f00b204e9800998ecf8427e", "13c8ffd977013703a701cf8e11deac65",
    "a22664edce89fafc28f264d313c39d51", "876d16c575f9d3d7f51f12fef37237eb",
    "8fafec3f63fff3c667f522a464ff0b10", "ab0d81a93adb4de000327a84e462d9e9",
    "2c43ac382a0ad2a1d6657e2c2b4d6fba", "b30f114de808d724f9fae7700f68c4ba",
    "2b8a86f29b92e531d94623c7843bed1a", "95c2ed65ca29e1b982021cedc5654f6c",
    "99d6be027b5eca48fc2eeaf1412b8268", "2de797b36b7546c5d6e83d8a1d203e38",
    "90d36c8b9478fe6d846fbe5536267e63", "72b725910ba0b281512cec0deda317de",
    "5aa3e22a002e4300b0e7791a9e51ceb3", "d58e0093dcb633d2398902489f1da5b7",
    "887b610071c85b140d8615f5cec4875e", "e7765f3b25ce638ea7a2ace6a6cfcbfb",
    "58fc5081241047b0a3704c13908dcb26", "a9c4f199c4044a0093cece2e1824deed",
    "e3dcda38f7df3562170040f5a0e54f3f", "71f81e17b6ba77b2c06253cb077f4720",
    "888cae7d247433a476d3e7d2d78487ca", "3b76b80a7fe2cbd10768754c18a66c4e",
    "643a40836fd0c8e8bc4def49bf49d69f", "5e9d0715149cc5a1b5b4b454acf318bb",
    "af4f91fd528337ffa4b4219bb96b1733", "529ec2cb68b6ba664d2995de62bf5feb",
    "85fb24ec1fbc2c5b57ffd8a1db41dda4", "832c3de6a6fb13020b514b6fc3bb2f00",
    "4abe60ea68bc263e62f28e6a56c4aca3", "3657c259aba7eedfaf3957b2d5e2cc1f",
    "8e2c0cba10572c7b479aca4e43974fb4", "3959458490195df012beb252137ae32d",
    "e30fa5a136b629a6acde4f465019a7bf", "253e04f646ee661614430e1faf5b80e5",
    "e691ba3cc6a848b17bf543a32011f9a7", "1762a8d30a4889479b2a50c0da1fd8b7",
    "167b49a741a9706c94087a3a07cf2bd5", "055290dd1977289cb13e2b125b25f9c4",
    "cc93b85051cd0b9d0a5d27171e36c8bc", "4c5abcfcb9498bfe71d9137522a26845",
    "ac4578723a613841b01ae2335b676878", "714195b35c6b5362cc57acf5ffc11717",
    "ca1701ff6867a4284ed6c97baea7e37d", "8be72a1b3c794ce583062ec08b95662e",
    "c2b009db00ccc18ef61ef96ef92485ae", "78b7deb364dd67acc8754997e9de2583",
    "d51c4c4dfde1ef449674d4c68ecc0015", "91154209668205198bd622e1a62ec59c",
    "a6a4a198732007a71146105fa4853ab2", "8732f6f5df6b46df1a0204a408828fb6",
    "af632f5c0676f00a47b305d1a013807d", "e192cfa09a29ccb8522cf4c67e3f3943",
    "5e5534f470ef1d65657807ed96610693", "d872aa0473a24da995ce4ac518ade767",
    "e23567645846677c205de80f9779081b", "1fe5e4a27e12484d7203d0b60c21c51f",
    "496c1fa53bb99ae398aa131ced2180d9", "3788ef2f95eee1791e29c134589d25a7",
    "4ac2483217717835220f6aeef7fb9c71", "377169c1005e5304bbb6b4f3213324c4",
    "fb973e262a6b29c6569aacf1f7fbc798", "4775b66278a8fc132ff80923378216cd",
    "71e123b70c7aa64826fcfe472694cd1c", "5949948f26e35203661075214faa3966",
    "a98798c0bd6121b8600eb7f3585bd13f", "c230bf3134e7e7331a0cdbaf31e4e6ee",
    "147a846b45ebf9ff8e6fd7d3c2384bed", "9c41aa150a7586ab06e7368aee11b3fe",
    "b13441584b79a54d081a208931c0bc14", "6cab733ac73421d082d01d26c3870913",
    "a6d36774de81858e2bbe7fd11c17aa94", "ce95231d6fb384a4b144857c98eb3c98",
    "c2d2d34718bb004253cebe00ba073ba2", "faa88ec878827a894ea202233edce128",
    "a54ae5f7b2a39be44caef08edd12801f", "abdd17232601abceafd22bf266aa1c56",
    "8b5cb9494fc08143c22002153eece7e2", "5038b320bed7f61080e4472eb3fecb5c",
    "69f249d7115e9edb365803fa6afde291", "16608662c506dab8d1fc477a1954ba4d",
    "063fd9337677ca2753e140abea796918", "61230e707babd3898ce271b83d6ba0e4",
    "a1897a9e715b085468b2eaad74538dc3", "8cf49daffcf9fbc95d5596d3c39a1fc0",
    "6bd4835b64c08520ba65a7a189c72db5", "c2121987aefc1290a1cd5a714268ea9d",
    "5786abe8f4efe4731b4a3bc51b3602c6", "8b3280ef2ec53f608f8e6485e6303506",
    "d0685c7539cbdb036e84e4cab7335c7f", "30390813653a730977f2b159a33b3b40",
    "ffc7e3dbe1cbc77d035fc6fc4d75ba06", "d5d01e5afe3b0dfda70b3aa9ce33a2b1",
    "c7c7a13f7c51cad673dbfc6cf8631065", "fecf4d2d23a8cb13b4923de5558b0abd",
    "a1e1b33d2f30960725706d3bf80a2af3", "6b18b53325c59261e6ada45150896416",
    "7afa7019a64ad5f020f4428f28d762d3", "1f9afafca086827122ccea8b27158799",
    "5b9c57d4cba3367b9c65b22a80e88bca", "6ed76ad5ab24b053bdd2bb8e84b5ab8f",
    "3d2601b39fe07c1fb1157f74ffcc1070", "249885d39069e13c1573aaa3511ed050",
    "cccc0e6cc65f97ea23ee201d7dc2aa47", "971cf68e9eb427bfaf17ad6027e3aa0f",
    "7386af36aa00839fa82d65f4393b3ac2", "c6ee1ef61c9e3f61e6893ba1639be269",
    "41e6975bd6425cc1d81b0235480ad1db", "2e3ed0913028fcad6bb314cd65d5d380",
    "5a642a6688a5111f902c07d24d917435", "971d0e793c1b82b4ade7bd998916b4da",
    "0940460d6eb047e4dc1442f81f696669", "71b58eb1aebe1c7a4fbe1dca809939bd",
    "6e7a4735ebbc4441b88a786072bb2e23", "94f9a3589d0eeb04b8d76175a28ec139",
    "401ed53da8486f08925598a75e15019c", "60641004c92d3fd724ce329b86b692ea",
    "b8eb7b96d9672e6200a4abf511457282", "87f72c7241c5fe218bb4df8c0aba3232",
    "bf240b8b7407fba3805adeec63a03b77", "c51004ed1ef4271c82106468a13fe8cf",
    "e3c630417415f51588089c65aab9c5ad", "d2968ad8dfc3c448319c3f416d6355e1",
    "a6f820c06167fbcfc5632d376c7f9cbd", "a268e9c5fca2f6424f919af519dbae1e",
    "f7c3825a26578ffba075a8bd6b0239e0", "520bdc2dbab7c25d64263ffb242d9e98",
    "3e93b378458b77da96b2357c3bda8cc2", "d1ae06bbf9128955a34bedb6231eee62",
    "8a2682a4b1a920cccc7c09422b233d76",
};

std::vector<std::uint8_t> md5_pattern(std::size_t size) {
  std::vector<std::uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return data;
}

TEST(Md5, PinnedDigestsAtEveryLengthThrough130) {
  const std::vector<std::uint8_t> data = md5_pattern(130);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    EXPECT_EQ(Md5::hex_digest(std::span<const std::uint8_t>{data.data(), n}),
              kPatternDigests[n])
        << "length " << n;
  }
}

TEST(Md5, MillionAs) {
  const std::vector<std::uint8_t> data(1'000'000, 'a');
  EXPECT_EQ(Md5::hex_digest(data), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, EverySplitPointMatchesOneShot) {
  const std::vector<std::uint8_t> data = md5_pattern(200);
  const Md5Digest expected = Md5::digest(data);
  const std::span<const std::uint8_t> all{data};
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Md5 ctx;
    ctx.update(all.first(split));
    ctx.update(all.subspan(split));
    EXPECT_EQ(ctx.finish(), expected) << "split " << split;
  }
}

// Md5::digest_many through each kernel the build compiles, against
// Md5::digest. A kernel the CPU cannot run is skipped.
}  // namespace
namespace md5_lanes {
void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }
}  // namespace md5_lanes
namespace {

class Md5Lanes : public ::testing::TestWithParam<md5_lanes::Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().supported()) GTEST_SKIP() << "CPU lacks " << GetParam().name;
  }

  // Runs the kernel over `messages` and checks every digest.
  static void expect_digests(
      const std::vector<std::span<const std::uint8_t>>& messages) {
    std::vector<Md5Digest> out(messages.size());
    GetParam().run(messages, out);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(out[i], Md5::digest(messages[i]))
          << "message " << i << " of " << messages.size() << ", length "
          << messages[i].size();
    }
  }
};

TEST_P(Md5Lanes, EveryLengthThrough200InOneCall) {
  // 201 messages whose lengths differ, so lanes end and refill at every
  // block; once in ascending order and once scattered.
  const std::vector<std::uint8_t> data = md5_pattern(400);
  const std::span<const std::uint8_t> all{data};
  std::vector<std::span<const std::uint8_t>> ascending;
  std::vector<std::span<const std::uint8_t>> scattered;
  for (std::size_t n = 0; n <= 200; ++n) {
    ascending.push_back(all.subspan(n, n));
    const std::size_t length = n * 37 % 201;
    scattered.push_back(all.subspan(n, length));
  }
  expect_digests(ascending);
  expect_digests(scattered);
}

TEST_P(Md5Lanes, PaddingEdgesAtEveryCount) {
  // Lengths around the padding edges (55/56 and 119/120, where the
  // length field moves to a second block, and 63/64/65), mixed so that
  // a batch of any count holds short and long messages.
  const std::size_t edges[] = {55, 0, 120, 64, 1, 119, 56, 200, 63, 65, 130};
  const std::vector<std::uint8_t> data = md5_pattern(512);
  const std::span<const std::uint8_t> all{data};
  for (const std::size_t count : {0u, 1u, 7u, 8u, 9u, 17u}) {
    std::vector<std::span<const std::uint8_t>> messages;
    for (std::size_t i = 0; i < count; ++i) {
      messages.push_back(all.subspan(i * 13, edges[i % std::size(edges)]));
    }
    expect_digests(messages);
  }
}

TEST_P(Md5Lanes, MillionAsBesideShortMessages) {
  // One lane runs 15,625 blocks while the others cycle through short
  // messages, and it is the lone lane left at the end.
  const std::vector<std::uint8_t> million(1'000'000, 'a');
  const std::vector<std::uint8_t> data = md5_pattern(300);
  const std::span<const std::uint8_t> all{data};
  std::vector<std::span<const std::uint8_t>> messages{million};
  for (std::size_t i = 0; i < 40; ++i) {
    messages.push_back(all.subspan(i, i * 7 % 150));
  }
  std::vector<Md5Digest> out(messages.size());
  GetParam().run(messages, out);
  EXPECT_EQ(hex_encode(out[0]), "7707d6ae4e027c70eea2a935c2296f21");
  expect_digests(messages);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Md5Lanes, ::testing::ValuesIn(md5_lanes::kernels()),
    [](const ::testing::TestParamInfo<md5_lanes::Kernel>& param_info) {
      return std::string{param_info.param.name};
    });

TEST(Md5, DigestManyMatchesDigestAndWantsOneSlotPerMessage) {
  const std::vector<std::uint8_t> data = md5_pattern(300);
  const std::span<const std::uint8_t> all{data};
  std::vector<std::span<const std::uint8_t>> messages;
  for (std::size_t i = 0; i < 12; ++i) messages.push_back(all.first(i * 25));
  std::vector<Md5Digest> out(messages.size());
  Md5::digest_many(messages, out);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(out[i], Md5::digest(messages[i])) << "message " << i;
  }
  out.pop_back();
  EXPECT_THROW(Md5::digest_many(messages, out), ConfigError);
}

TEST(Md5, DifferentInputsDifferentDigests) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(Md5::digest(a), Md5::digest(b));
}

// --------------------------------------------------------------------- hex

TEST(Hex, EncodeKnown) {
  const std::vector<std::uint8_t> data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
}

TEST(Hex, RoundTrip) {
  Rng rng{47};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> data(rng.index(100));
    rng.fill(data);
    EXPECT_EQ(hex_decode(hex_encode(data)), data);
  }
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), ParseError);
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_THROW(hex_decode("zz"), ParseError);
}

TEST(Hex, DecodeAcceptsUppercase) {
  EXPECT_EQ(hex_decode("AB"), (std::vector<std::uint8_t>{0xab}));
}

// ----------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("KeRnEl32.DLL"), "kernel32.dll"); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Strings, JsonDoubleFiniteMatchesFixed) {
  EXPECT_EQ(json_double(3.14159, 2), "3.14");
  EXPECT_EQ(json_double(0.0, 4), "0.0000");
  EXPECT_EQ(json_double(-1.5, 1), "-1.5");
}

TEST(Strings, JsonDoubleNonFiniteUsesSentinels) {
  // Regression: `fixed` renders non-finite doubles as bare nan/inf,
  // which no JSON parser accepts; quality metrics divide by zero on
  // degenerate landscapes, so bench emission must use the quoted
  // sentinels instead.
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN(), 4),
            "\"NaN\"");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity(), 4),
            "\"Infinity\"");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity(), 4),
            "\"-Infinity\"");
  EXPECT_EQ(json_double(0.0 / 0.0 * 0.0, 2), "\"NaN\"");
}

TEST(Strings, EscapeBytes) {
  EXPECT_EQ(escape_bytes(std::string_view{".text\x00\x00\x00", 8}),
            ".text\\x00\\x00\\x00");
  EXPECT_EQ(escape_bytes("plain"), "plain");
}

// ----------------------------------------------------------------- simtime

TEST(SimTime, EpochIsZero) {
  EXPECT_EQ(from_date(Date{1970, 1, 1}).seconds, 0);
}

TEST(SimTime, KnownDates) {
  EXPECT_EQ(format_date(parse_date("2008-01-01")), "2008-01-01");
  EXPECT_EQ(parse_date("2008-01-01").seconds, 1199145600);
  EXPECT_EQ(format_date(parse_date("2009-05-31")), "2009-05-31");
}

TEST(SimTime, LeapYearHandling) {
  const SimTime feb29 = parse_date("2008-02-29");
  EXPECT_EQ(format_date(feb29), "2008-02-29");
  EXPECT_EQ(format_date(add_days(feb29, 1)), "2008-03-01");
}

TEST(SimTime, RoundTripProperty) {
  Rng rng{53};
  for (int trial = 0; trial < 200; ++trial) {
    const SimTime t{static_cast<std::int64_t>(rng.uniform(0, 2'000'000'000))};
    const Date d = to_date(t);
    const SimTime midnight = from_date(d);
    EXPECT_LE(midnight.seconds, t.seconds);
    EXPECT_LT(t.seconds - midnight.seconds, kSecondsPerDay);
    EXPECT_EQ(to_date(midnight), d);
  }
}

TEST(SimTime, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_date("not-a-date"), ParseError);
  EXPECT_THROW((void)parse_date("2008-13-01"), ParseError);
  EXPECT_THROW((void)parse_date("2008-00-10"), ParseError);
}

TEST(SimTime, WeekIndex) {
  const SimTime origin = parse_date("2008-01-01");
  EXPECT_EQ(week_index(origin, origin), 0);
  EXPECT_EQ(week_index(add_days(origin, 6), origin), 0);
  EXPECT_EQ(week_index(add_days(origin, 7), origin), 1);
  EXPECT_EQ(week_index(add_days(origin, -1), origin), -1);
}

TEST(SimTime, FormatDayMonth) {
  EXPECT_EQ(format_day_month(parse_date("2008-07-15")), "15/7");
}

// ------------------------------------------------------------------ byteio

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{4, 3, 2, 1}));
}

TEST(ByteIo, FixedTextPadsAndTruncates) {
  ByteWriter w;
  w.fixed_text("ab", 4);
  w.fixed_text("abcdef", 4);
  ByteReader r{w.data()};
  EXPECT_EQ(r.fixed_text(4), (std::string{"ab\0\0", 4}));
  EXPECT_EQ(r.fixed_text(4), "abcd");
}

TEST(ByteIo, AlignPads) {
  ByteWriter w;
  w.u8(1);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);  // already aligned: no-op
}

TEST(ByteIo, ReadPastEndThrows) {
  const std::vector<std::uint8_t> data{1, 2};
  ByteReader r{data};
  EXPECT_THROW((void)r.u32(), ParseError);
}

TEST(ByteIo, SeekAndCstring) {
  ByteWriter w;
  w.text("hi");
  w.u8(0);
  w.text("there");
  w.u8(0);
  ByteReader r{w.data()};
  EXPECT_EQ(r.cstring_at(0), "hi");
  EXPECT_EQ(r.cstring_at(3), "there");
  EXPECT_THROW(r.cstring_at(100), ParseError);
}

TEST(ByteIo, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u32(7);
  w.patch_u32(0, 0xcafebabe);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u32(), 0xcafebabeu);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(w.patch_u32(5, 1), ParseError);
}

TEST(ByteIo, HugeCountsThrowInsteadOfWrapping) {
  // Regression: `offset_ + count` overflows std::size_t for counts near
  // SIZE_MAX, which used to make the bounds check pass and hand out a
  // wild span. Every access path must reject such counts cleanly.
  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  ByteReader r{data};
  (void)r.u8();  // non-zero offset makes the additive form wrap
  EXPECT_THROW((void)r.bytes(SIZE_MAX), ParseError);
  EXPECT_THROW((void)r.bytes(SIZE_MAX - 1), ParseError);
  EXPECT_THROW((void)r.fixed_text(SIZE_MAX), ParseError);
  EXPECT_THROW(r.skip(SIZE_MAX), ParseError);
  EXPECT_EQ(r.remaining(), 3u);  // reader unchanged after rejections
  EXPECT_EQ(r.u8(), 2);
}

TEST(ByteIo, PatchU32OverflowOffsetsThrow) {
  ByteWriter empty;
  EXPECT_THROW(empty.patch_u32(0, 1), ParseError);

  ByteWriter w;
  w.u32(0);
  // `offset + 4` wraps to a small value for offsets near SIZE_MAX; the
  // check must reject them rather than scribble out of bounds.
  EXPECT_THROW(w.patch_u32(SIZE_MAX, 1), ParseError);
  EXPECT_THROW(w.patch_u32(SIZE_MAX - 3, 1), ParseError);
  w.patch_u32(0, 5);  // in-range patch still works
  ByteReader r{w.data()};
  EXPECT_EQ(r.u32(), 5u);
}

// ------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TextTable table{{"a", "long-header"}};
  table.add_row({"x", "1"});
  table.add_row({"yyyy", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| a    | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| yyyy | 22          |"), std::string::npos);
}

TEST(Table, HandlesRaggedRows) {
  TextTable table{{"a", "b", "c"}};
  table.add_row({"1"});
  EXPECT_NE(table.render().find("| 1 |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(to_csv_row({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(Table, CsvQuotesEveryRfc4180SpecialCharacter) {
  // Regression: '\r' was missing from the quote set, so a cell holding
  // a carriage return leaked it bare into the row and corrupted the
  // record framing for CRLF-aware readers.
  EXPECT_EQ(to_csv_row({"a\rb"}), "\"a\rb\"");
  EXPECT_EQ(to_csv_row({"a\nb"}), "\"a\nb\"");
  EXPECT_EQ(to_csv_row({"a\r\nb"}), "\"a\r\nb\"");
}

// --------------------------------------------------------------- histogram

TEST(Histogram, BarChartSortAndTruncate) {
  BarChart chart;
  chart.add("small", 1);
  chart.add("big", 10);
  chart.add("mid", 5);
  chart.sort_desc();
  chart.truncate(2);
  ASSERT_EQ(chart.size(), 2u);
  EXPECT_EQ(chart.rows()[0].first, "big");
  EXPECT_EQ(chart.rows()[1].first, "mid");
}

TEST(Histogram, SparklineShape) {
  const std::string line = sparkline({0.0, 1.0, 10.0});
  EXPECT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], '_');
  EXPECT_EQ(line[2], '#');
}

TEST(Histogram, SparklineBucketsArePartitionedEvenly) {
  // Regression: the top glyph '#' used to own only the exact maximum
  // (its "bucket" was a single point), so 8572 vs 10000 rendered as
  // "*#" even though both sit in the top seventh of the range.
  EXPECT_EQ(sparkline({8572.0, 10000.0}), "##");
  // With max 7, value v maps to glyph ceil(v * 7 / max) — each of the
  // seven glyphs covers exactly one unit of this range.
  EXPECT_EQ(sparkline({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}), ".:-=+*#");
}

TEST(Histogram, SparklineEdgeCases) {
  EXPECT_EQ(sparkline({}), "");
  EXPECT_EQ(sparkline({0.0, 0.0, 0.0}), "___");
  EXPECT_EQ(sparkline({42.0}), "#");  // the lone maximum is full height
}

TEST(Histogram, EmptyChart) {
  BarChart chart;
  EXPECT_EQ(chart.render(), "(empty)\n");
}

}  // namespace
}  // namespace repro
