// Tests for the crash-tolerant query daemon (src/serve) and the serving
// scenario (scenario::serve_streaming_dataset) — the headline guarantee:
// a daemon serving over the streaming epoch loop, killed and restarted
// at arbitrary points, answers every query with bytes identical to a
// view built from the one-shot batch pipeline, at every thread width.
// Degradation paths (BUSY shedding, typed TIMEOUT, injected slow
// clients / disconnects / accept failures, UNAVAILABLE before the first
// epoch) are exercised against a live loopback socket, and the torture
// test runs concurrent clients against hot-swapping views under TSan.
//
// repro-lint: allow-file(RL008) the ready-port handshakes are
// release/acquire pairs (daemon publishes the bound port, the test
// spins on it), and the relaxed cells are stop flags and per-client
// tallies that are only read after the threads join; TSan runs this
// file and would flag any ordering these arguments get wrong.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "scenario/paper.hpp"
#include "scenario/serve.hpp"
#include "scenario/stream.hpp"
#include "serve/admission_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/view.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/error.hpp"

namespace repro::serve {
namespace {

namespace fs = std::filesystem;

// --- Loopback test client ---------------------------------------------------

/// Minimal blocking client for the line protocol: connects to the
/// daemon, sends request lines, reads full framed responses.
class Client {
 public:
  /// Tag for probes racing a daemon teardown: a refused connection is
  /// an expected outcome there (the listener closed between probes),
  /// not a test failure — ask() then reports the empty "closed" reply.
  struct MayRefuse {};

  explicit Client(std::uint16_t port) : Client(port, false) {}
  Client(std::uint16_t port, MayRefuse) : Client(port, true) {}

 private:
  Client(std::uint16_t port, bool may_refuse) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_TRUE(fd_ >= 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::connect(
        fd_, reinterpret_cast<const struct sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && may_refuse) {
      close();
      return;
    }
    EXPECT_EQ(rc, 0) << std::strerror(errno);
  }

 public:
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends raw bytes (append the '\n' yourself — partial writes are how
  /// the disconnect paths get exercised).
  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one framed response ("OK <n>" + n lines, or one ERR line).
  /// Returns the exact wire bytes; empty string = connection closed.
  std::string read_response() {
    std::string head = read_line();
    if (head.empty()) return {};
    std::string out = head;
    if (head.rfind("OK ", 0) == 0) {
      const std::size_t count = static_cast<std::size_t>(
          std::strtoul(head.c_str() + 3, nullptr, 10));
      for (std::size_t i = 0; i < count; ++i) {
        const std::string line = read_line();
        if (line.empty()) return {};
        out += line;
      }
    }
    return out;
  }

  /// One full round trip.
  std::string ask(const std::string& request) {
    if (!send_raw(request + "\n")) return {};
    return read_response();
  }

 private:
  /// Reads through the next '\n' (inclusive); empty on EOF/error.
  std::string read_line() {
    std::size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, eol + 1);
    buffer_.erase(0, eol + 1);
    return line;
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Shared fixtures --------------------------------------------------------

scenario::ScenarioOptions small_options() {
  scenario::ScenarioOptions options;
  options.scale = 0.04;
  options.seed = 11;
  return options;
}

/// The batch-built reference view every serving answer is compared to.
const ServeView& batch_view() {
  static const ServeView view = [] {
    const scenario::Dataset ds = scenario::build_paper_dataset(small_options());
    return ServeView::build(ds.db, ds.e, ds.p, ds.m, ds.b, 3);
  }();
  return view;
}

/// An md5 and b-cluster id that actually exist in the small dataset.
struct KnownFacts {
  std::string md5;
  int b_cluster = -1;
};

KnownFacts known_facts() {
  static const KnownFacts facts = [] {
    const scenario::Dataset ds = scenario::build_paper_dataset(small_options());
    KnownFacts out;
    out.md5 = ds.db.samples().front().md5;
    for (const auto& sample : ds.db.samples()) {
      const int c = ds.b.cluster_of_sample(sample.id);
      if (c >= 0) {
        out.md5 = sample.md5;
        out.b_cluster = c;
        break;
      }
    }
    return out;
  }();
  return facts;
}

/// The query script replies are golden-compared over: every verb, hits
/// and misses both.
std::vector<std::string> query_script() {
  const KnownFacts& facts = known_facts();
  return {
      "health",
      "stats",
      "ccmap",
      "lookup " + facts.md5,
      "lookup ffffffffffffffffffffffffffffffff",
      "cluster " + std::to_string(facts.b_cluster),
      "cluster 999999",
  };
}

/// What the reference view would put on the wire for `request`.
std::string expected_bytes(const ServeView& view, const std::string& request) {
  return render(view.answer(parse_request(request)));
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path{testing::TempDir()} / ("serve-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Starts a standalone server with a published batch view.
struct LiveServer {
  explicit LiveServer(ServerOptions options) : server{std::move(options)} {
    server.start();
    server.publish(std::make_shared<const ServeView>(batch_view()));
  }
  Server server;
};

// --- Admission queue --------------------------------------------------------

using Item = std::vector<std::uint8_t>;

Item item(std::uint8_t tag) { return {tag, tag, tag}; }

TEST(Queue, ShedOldestDropsTheHeadAtCapacity) {
  AdmissionQueue<Item> queue{3};
  std::optional<Item> evicted;
  std::size_t shed = 0;
  for (std::uint8_t i = 1; i <= 5; ++i) {
    EXPECT_TRUE(queue.offer(item(i), evicted));
    if (evicted) ++shed;
  }
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(queue.pop(), item(3));
  EXPECT_EQ(queue.pop(), item(4));
  EXPECT_EQ(queue.pop(), item(5));
}

TEST(Queue, OfferHandsBackTheEvictedItem) {
  AdmissionQueue<Item> queue{2};
  std::optional<Item> evicted;
  EXPECT_TRUE(queue.offer(item(1), evicted));
  EXPECT_FALSE(evicted.has_value());
  EXPECT_TRUE(queue.offer(item(2), evicted));
  EXPECT_FALSE(evicted.has_value());
  // Full: each further offer displaces the oldest item, in order.
  for (std::uint8_t i = 3; i <= 5; ++i) {
    EXPECT_TRUE(queue.offer(item(i), evicted));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, item(i - 2));
  }
  EXPECT_EQ(queue.pop(), item(4));
  EXPECT_EQ(queue.pop(), item(5));
}

TEST(Queue, RejectedOfferLeavesTheItemWithTheCaller) {
  // A closed queue must not consume its argument: the acceptor answers
  // the rejected connection BUSY itself.
  AdmissionQueue<Item> queue{1};
  std::optional<Item> evicted;
  EXPECT_TRUE(queue.offer(item(1), evicted));
  queue.close();
  Item late = item(3);
  EXPECT_FALSE(queue.offer(std::move(late), evicted));
  EXPECT_EQ(late, item(3));
  EXPECT_EQ(queue.pop(), item(1));
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(Queue, ClosedQueueNeverShedsOnARejectedPush) {
  // The items a closed, full queue holds belong to the draining
  // workers: a rejected offer must not displace one of them.
  AdmissionQueue<Item> queue{2};
  std::optional<Item> evicted;
  EXPECT_TRUE(queue.offer(item(1), evicted));
  EXPECT_TRUE(queue.offer(item(2), evicted));
  queue.close();
  EXPECT_FALSE(queue.offer(item(3), evicted));
  EXPECT_FALSE(evicted.has_value());
  // The drain still yields both admitted items, oldest first.
  EXPECT_EQ(queue.pop(), item(1));
  EXPECT_EQ(queue.pop(), item(2));
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(AdmissionQueue, ZeroCapacityIsRejected) {
  EXPECT_THROW(AdmissionQueue<Item>{0}, ConfigError);
}

TEST(AdmissionQueue, ConcurrentOfferAndPopAccountForEveryItem) {
  // One producer against one consumer over a tiny queue; the run under
  // TSan is what this test is for. Every offered item is either popped
  // or handed back, and each side sees the producer's order.
  constexpr std::uint64_t kItems = 2000;
  AdmissionQueue<std::uint64_t> queue{4};
  std::vector<std::uint64_t> handed_back;
  std::thread producer{[&] {
    std::optional<std::uint64_t> evicted;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      EXPECT_TRUE(queue.offer(std::uint64_t{i}, evicted));
      if (evicted) handed_back.push_back(*evicted);
    }
    queue.close();
  }};
  std::vector<std::uint64_t> popped;
  while (const std::optional<std::uint64_t> got = queue.pop()) {
    popped.push_back(*got);
  }
  producer.join();
  EXPECT_EQ(popped.size() + handed_back.size(), kItems);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_TRUE(std::is_sorted(handed_back.begin(), handed_back.end()));
  std::vector<std::uint64_t> all;
  std::merge(popped.begin(), popped.end(), handed_back.begin(),
             handed_back.end(), std::back_inserter(all));
  std::vector<std::uint64_t> offered(kItems);
  std::iota(offered.begin(), offered.end(), std::uint64_t{0});
  EXPECT_TRUE(all == offered) << "an item was lost or duplicated";
}

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, ParsesEveryVerb) {
  EXPECT_EQ(parse_request("health").kind, RequestKind::kHealth);
  EXPECT_EQ(parse_request("stats").kind, RequestKind::kStats);
  EXPECT_EQ(parse_request("ccmap").kind, RequestKind::kCcmap);
  const Request lookup =
      parse_request("lookup 0123456789abcdef0123456789abcdef");
  EXPECT_EQ(lookup.kind, RequestKind::kLookup);
  EXPECT_EQ(lookup.md5, "0123456789abcdef0123456789abcdef");
  const Request cluster = parse_request("cluster 42");
  EXPECT_EQ(cluster.kind, RequestKind::kCluster);
  EXPECT_EQ(cluster.cluster, 42);
  const Request slow = parse_request("slow 250");
  EXPECT_EQ(slow.kind, RequestKind::kSlow);
  EXPECT_EQ(slow.slow_ms, 250);
}

TEST(Protocol, RejectsEverythingOutsideTheGrammar) {
  for (const std::string line :
       {"", "bogus", "lookup", "lookup a b", "cluster", "cluster x",
        "cluster 1 2", "slow", "slow fast", "health now", " health",
        "health ", "lookup  abc"}) {
    EXPECT_THROW((void)parse_request(line), ParseError) << "'" << line << "'";
  }
}

TEST(Protocol, RejectsNonMd5LookupTokens) {
  // An md5 is exactly 32 lowercase hex characters; anything else is a
  // BAD_REQUEST before the view is ever consulted.
  for (const std::string line :
       {"lookup abc123",                                      // too short
        "lookup zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",            // not hex
        "lookup 0123456789ABCDEF0123456789ABCDEF",            // uppercase
        "lookup 0123456789abcdef0123456789abcde",             // 31 chars
        "lookup 0123456789abcdef0123456789abcdef0",           // 33 chars
        "lookup 0123456789abcdef0123456789abcdeg"}) {         // 'g'
    EXPECT_THROW((void)parse_request(line), ParseError) << "'" << line << "'";
  }
}

TEST(Protocol, RendersExactWireBytes) {
  Response ok;
  ok.lines = {"a 1", "b 2"};
  EXPECT_EQ(render(ok), "OK 2\na 1\nb 2\n");
  Response empty;
  EXPECT_EQ(render(empty), "OK 0\n");
  EXPECT_EQ(render(Response::error(ErrorCode::kBusy, "queue overflow")),
            "ERR BUSY queue overflow\n");
  EXPECT_EQ(render(Response::error(ErrorCode::kTimeout, "too slow")),
            "ERR TIMEOUT too slow\n");
}

// --- View -------------------------------------------------------------------

TEST(View, AnswersEveryVerbFromTheBatchDataset) {
  const ServeView& view = batch_view();
  const KnownFacts& facts = known_facts();
  EXPECT_GT(view.sample_count(), 0u);
  EXPECT_EQ(view.epoch(), 3u);

  const Response health = view.answer(parse_request("health"));
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health.lines.size(), 1u);
  EXPECT_EQ(health.lines[0].rfind("serving epoch=3 ", 0), 0u);

  const Response stats = view.answer(parse_request("stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.lines.size(), 9u);
  EXPECT_EQ(stats.lines[0], "epoch 3");

  const Response lookup =
      view.answer(parse_request("lookup " + facts.md5));
  ASSERT_TRUE(lookup.ok());
  ASSERT_EQ(lookup.lines.size(), 9u);
  EXPECT_EQ(lookup.lines[0], "md5 " + facts.md5);
  EXPECT_EQ(lookup.lines[5], "b_cluster " + std::to_string(facts.b_cluster));

  const Response cluster = view.answer(
      parse_request("cluster " + std::to_string(facts.b_cluster)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_GE(cluster.lines.size(), 3u);
  EXPECT_EQ(cluster.lines[0],
            "cluster " + std::to_string(facts.b_cluster));
  // The member that resolved facts.md5 must be listed.
  bool member_listed = false;
  for (const std::string& line : cluster.lines) {
    if (line.rfind("member " + facts.md5 + " ", 0) == 0) member_listed = true;
  }
  EXPECT_TRUE(member_listed);
  EXPECT_EQ(cluster.lines.back().rfind("timeline ", 0), 0u);

  const Response ccmap = view.answer(parse_request("ccmap"));
  ASSERT_TRUE(ccmap.ok());
  ASSERT_FALSE(ccmap.lines.empty());
  EXPECT_EQ(ccmap.lines[0].rfind("associations ", 0), 0u);
}

TEST(View, MissesAreTypedNotFound) {
  const ServeView& view = batch_view();
  const Response lookup =
      view.answer(parse_request("lookup ffffffffffffffffffffffffffffffff"));
  EXPECT_EQ(lookup.code, ErrorCode::kNotFound);
  const Response cluster = view.answer(parse_request("cluster 999999"));
  EXPECT_EQ(cluster.code, ErrorCode::kNotFound);
}

TEST(View, ClusterIdBoundariesMatchTheDensePartition) {
  // Regression (cluster-id-gap sweep): every id inside the dense
  // partition answers with a real member list (never a phantom
  // "size 0" cluster), and everything outside — including negatives,
  // which never come from the parser but can come from a buggy
  // caller — is a typed NOT_FOUND, not a crash.
  const scenario::Dataset ds = scenario::build_paper_dataset(small_options());
  const ServeView view = ServeView::build(ds.db, ds.e, ds.p, ds.m, ds.b, 3);
  const int count = static_cast<int>(ds.b.cluster_count());
  ASSERT_GT(count, 0);
  for (const int id : {0, count - 1}) {
    const Response ok =
        view.answer(parse_request("cluster " + std::to_string(id)));
    ASSERT_TRUE(ok.ok()) << "cluster " << id;
    ASSERT_GE(ok.lines.size(), 3u);
    EXPECT_EQ(ok.lines[0], "cluster " + std::to_string(id));
    EXPECT_EQ(ok.lines[1].rfind("size ", 0), 0u);
    EXPECT_NE(ok.lines[1], "size 0");
    EXPECT_EQ(ok.lines.back().rfind("timeline ", 0), 0u);
  }
  for (const int id : {count, count + 1}) {
    EXPECT_EQ(view.answer(parse_request("cluster " + std::to_string(id))).code,
              ErrorCode::kNotFound)
        << "cluster " << id;
  }
  Request negative;
  negative.kind = RequestKind::kCluster;
  negative.cluster = -1;
  EXPECT_EQ(view.answer(negative).code, ErrorCode::kNotFound);
}

TEST(View, SlowIsNeverAnswerableByAView) {
  EXPECT_EQ(batch_view().answer(parse_request("slow 5")).code,
            ErrorCode::kBadRequest);
}

TEST(View, AnswersByteIdenticalAtEveryThreadWidth) {
  // The serving guarantee's foundation: a view built from the pipeline
  // at any pool width renders identical bytes for every query.
  std::vector<std::string> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    scenario::ScenarioOptions options = small_options();
    options.threads = threads;
    const scenario::Dataset ds = scenario::build_paper_dataset(options);
    const ServeView view = ServeView::build(ds.db, ds.e, ds.p, ds.m, ds.b, 3);
    std::vector<std::string> replies;
    for (const std::string& request : query_script()) {
      replies.push_back(expected_bytes(view, request));
    }
    if (reference.empty()) {
      reference = replies;
    } else {
      EXPECT_EQ(replies, reference) << "threads=" << threads;
    }
  }
}

// --- Server over a live socket ----------------------------------------------

TEST(Server, UnavailableUntilTheFirstEpochIsPublished) {
  Server server{ServerOptions{}};
  server.start();
  Client client{server.port()};
  EXPECT_EQ(client.ask("health"),
            "ERR UNAVAILABLE no epoch published yet\n");
  server.publish(std::make_shared<const ServeView>(batch_view()));
  EXPECT_EQ(client.ask("health"), expected_bytes(batch_view(), "health"));
  server.stop();
}

TEST(Server, LiveRepliesMatchTheLocalViewByteForByte) {
  LiveServer live{ServerOptions{}};
  Client client{live.server.port()};
  for (const std::string& request : query_script()) {
    EXPECT_EQ(client.ask(request), expected_bytes(batch_view(), request))
        << request;
  }
  live.server.stop();
  const ServeReport report = live.server.report();
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.requests, query_script().size());
  EXPECT_EQ(report.replies_ok + report.replies_err, report.requests);
}

TEST(Server, BadRequestKeepsTheConnectionUsable) {
  LiveServer live{ServerOptions{}};
  Client client{live.server.port()};
  const std::string reply = client.ask("no-such-verb");
  EXPECT_EQ(reply.rfind("ERR BAD_REQUEST ", 0), 0u) << reply;
  // The protocol error is counted but the line was consumed cleanly, so
  // the same connection keeps answering.
  EXPECT_EQ(client.ask("health"), expected_bytes(batch_view(), "health"));
  live.server.stop();
}

TEST(Server, MalformedLookupMd5IsABadRequestOnTheWire) {
  LiveServer live{ServerOptions{}};
  Client client{live.server.port()};
  const std::string reply = client.ask("lookup abc123");
  EXPECT_EQ(reply,
            "ERR BAD_REQUEST serve request: lookup md5 must be 32 lowercase "
            "hex characters\n");
  // A well-formed (if unknown) md5 on the same connection still parses
  // and reaches the view.
  EXPECT_EQ(client.ask("lookup ffffffffffffffffffffffffffffffff"),
            expected_bytes(batch_view(),
                           "lookup ffffffffffffffffffffffffffffffff"));
  live.server.stop();
  EXPECT_GE(live.server.report().protocol_errors, 1u);
}

TEST(Server, OversizedRequestLineIsATypedProtocolError) {
  ServerOptions options;
  options.max_line_bytes = 32;
  LiveServer live{std::move(options)};
  Client client{live.server.port()};
  ASSERT_TRUE(client.send_raw(std::string(64, 'x')));
  const std::string reply = client.read_response();
  EXPECT_EQ(reply, "ERR BAD_REQUEST request line too long\n");
  // Oversized lines cannot be resynced; the connection is cut.
  EXPECT_EQ(client.read_response(), "");
  live.server.stop();
  EXPECT_GE(live.server.report().protocol_errors, 1u);
}

TEST(Server, SlowVerbIsDisabledOutsideDebugBuilds) {
  LiveServer live{ServerOptions{}};
  Client client{live.server.port()};
  EXPECT_EQ(client.ask("slow 5"), "ERR BAD_REQUEST slow is disabled\n");
  live.server.stop();
}

TEST(Server, DeadlineOverrunGetsATypedTimeoutAndTheConnectionIsCut) {
  ServerOptions options;
  options.enable_debug_commands = true;
  options.request_deadline_ms = 50;
  LiveServer live{std::move(options)};
  Client client{live.server.port()};
  EXPECT_EQ(client.ask("slow 200"), "ERR TIMEOUT request deadline exceeded\n");
  EXPECT_EQ(client.read_response(), "");
  live.server.stop();
  EXPECT_GE(live.server.report().timeouts, 1u);
}

TEST(Server, HalfARequestThenSilenceTimesOut) {
  ServerOptions options;
  options.request_deadline_ms = 60;
  LiveServer live{std::move(options)};
  Client client{live.server.port()};
  // First byte starts the clock; the newline never comes.
  ASSERT_TRUE(client.send_raw("hea"));
  EXPECT_EQ(client.read_response(), "ERR TIMEOUT request deadline exceeded\n");
  EXPECT_EQ(client.read_response(), "");
  live.server.stop();
  EXPECT_GE(live.server.report().timeouts, 1u);
}

TEST(Server, OverloadShedsTheOldestWaiterWithBusy) {
  ServerOptions options;
  options.workers = 1;
  options.admission_capacity = 1;
  options.enable_debug_commands = true;
  options.request_deadline_ms = 5000;
  LiveServer live{std::move(options)};
  // Park the single worker...
  Client parked{live.server.port()};
  ASSERT_TRUE(parked.send_raw("slow 400\n"));
  obs::sleep_ms(100);  // let the worker pop `parked` before queueing more
  // ...fill the admission queue...
  Client waiting{live.server.port()};
  obs::sleep_ms(100);
  // ...and overflow it: the oldest waiter is evicted with a typed BUSY.
  Client newest{live.server.port()};
  EXPECT_EQ(waiting.read_response(), "ERR BUSY admission queue overflow\n");
  EXPECT_EQ(waiting.read_response(), "");
  // The parked request still completes; hanging up afterwards frees
  // the single worker to pop the newest connection.
  EXPECT_EQ(parked.read_response(), "OK 1\nslept 400\n");
  parked.close();
  EXPECT_EQ(newest.ask("health"), expected_bytes(batch_view(), "health"));
  live.server.stop();
  EXPECT_GE(live.server.report().busy_sheds, 1u);
}

TEST(Server, InjectedSlowClientsSurfaceAsTypedTimeouts) {
  fault::FaultPlan plan;
  plan.serve_slow_client_probability = 1.0;
  fault::FaultInjector injector{plan};
  ServerOptions options;
  options.faults = &injector;
  LiveServer live{std::move(options)};
  Client client{live.server.port()};
  EXPECT_EQ(client.ask("health"), "ERR TIMEOUT request deadline exceeded\n");
  live.server.stop();
  EXPECT_GE(live.server.report().timeouts, 1u);
  EXPECT_GE(injector.report().serve_slow_clients, 1u);
}

TEST(Server, InjectedDisconnectsDropTheReplyNotTheServer) {
  fault::FaultPlan plan;
  plan.serve_disconnect_probability = 1.0;
  fault::FaultInjector injector{plan};
  ServerOptions options;
  options.faults = &injector;
  LiveServer live{std::move(options)};
  Client client{live.server.port()};
  EXPECT_EQ(client.ask("health"), "");
  // The server survives and keeps accepting.
  Client next{live.server.port()};
  EXPECT_EQ(next.ask("health"), "");
  live.server.stop();
  EXPECT_GE(live.server.report().disconnects, 2u);
  EXPECT_GE(injector.report().serve_disconnects, 2u);
}

TEST(Server, InjectedAcceptFailuresResetClientsBeforeTheFirstByte) {
  fault::FaultPlan plan;
  plan.serve_accept_failure_probability = 1.0;
  fault::FaultInjector injector{plan};
  ServerOptions options;
  options.faults = &injector;
  LiveServer live{std::move(options)};
  for (int i = 0; i < 3; ++i) {
    Client client{live.server.port()};
    EXPECT_EQ(client.ask("health"), "");
  }
  live.server.stop();
  EXPECT_GE(live.server.report().accept_failures, 3u);
  EXPECT_GE(injector.report().serve_accept_failures, 3u);
}

TEST(Server, GracefulStopAnswersEverythingAlreadyAdmitted) {
  ServerOptions options;
  options.workers = 1;
  options.enable_debug_commands = true;
  options.request_deadline_ms = 5000;
  LiveServer live{std::move(options)};
  Client parked{live.server.port()};
  ASSERT_TRUE(parked.send_raw("slow 300\n"));
  obs::sleep_ms(100);
  Client admitted{live.server.port()};
  ASSERT_TRUE(admitted.send_raw("health\n"));
  obs::sleep_ms(50);
  live.server.stop();
  // Both the in-flight slow request and the queued one were answered
  // before the workers joined.
  EXPECT_EQ(parked.read_response(), "OK 1\nslept 300\n");
  EXPECT_EQ(admitted.read_response(), expected_bytes(batch_view(), "health"));
}

TEST(Server, OptionsValidate) {
  const auto bad = [](auto mutate) {
    ServerOptions options;
    mutate(options);
    EXPECT_THROW(Server{options}, ConfigError);
  };
  bad([](ServerOptions& o) { o.workers = 0; });
  bad([](ServerOptions& o) { o.admission_capacity = 0; });
  bad([](ServerOptions& o) { o.request_deadline_ms = 0; });
  bad([](ServerOptions& o) { o.max_line_bytes = 0; });
}

TEST(Server, MetricsSplitDeterministicSwapsFromRuntimeTraffic) {
  ServeReport report;
  report.epoch_swaps = 3;
  report.requests = 17;
  report.timeouts = 2;
  obs::MetricsRegistry metrics;
  publish_serve_metrics(metrics, report);
  const auto deterministic =
      metrics.counter_values(obs::Channel::kDeterministic);
  ASSERT_EQ(deterministic.size(), 1u);
  EXPECT_EQ(deterministic[0].first, "serve.epoch_swaps");
  EXPECT_EQ(deterministic[0].second, 3u);
  bool requests_runtime = false;
  for (const auto& [name, value] : metrics.counter_values(
           obs::Channel::kRuntime)) {
    if (name == "serve.requests") requests_runtime = value == 17u;
  }
  EXPECT_TRUE(requests_runtime);
}

// --- Concurrent torture (the TSan target) -----------------------------------

TEST(Server, ConcurrentClientsSurviveHotSwapsDeadlinesAndRudeDisconnects) {
  ServerOptions options;
  options.workers = 4;
  options.admission_capacity = 32;
  options.enable_debug_commands = true;
  options.request_deadline_ms = 2000;
  LiveServer live{std::move(options)};
  const std::uint16_t port = live.server.port();

  std::atomic<bool> swapping{true};
  std::thread swapper{[&] {
    // Hot-swap views the whole time clients are querying: no request
    // may ever observe a half-built epoch.
    std::uint64_t epoch = 4;
    while (swapping.load(std::memory_order_relaxed)) {
      const scenario::Dataset ds =
          scenario::build_paper_dataset(small_options());
      live.server.publish(std::make_shared<const ServeView>(
          ServeView::build(ds.db, ds.e, ds.p, ds.m, ds.b, epoch++)));
      obs::sleep_ms(5);
    }
  }};

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> completed{0};
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string> script = query_script();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Client client{port};
        if (c % 4 == 3 && i % 3 == 2) {
          // The rude client: half a request, then gone mid-line.
          (void)client.send_raw("look");
          client.close();
          continue;
        }
        const std::string request = script[static_cast<std::size_t>(
            (c + i) % static_cast<int>(script.size()))];
        const std::string reply = client.ask(request);
        if (reply.empty()) continue;  // shed or raced the swap — fine
        completed.fetch_add(1, std::memory_order_relaxed);
        const bool framed = reply.rfind("OK ", 0) == 0 ||
                            reply.rfind("ERR ", 0) == 0;
        if (!framed) malformed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  swapping.store(false, std::memory_order_relaxed);
  swapper.join();
  live.server.stop();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GT(completed.load(), 0);
  const ServeReport report = live.server.report();
  EXPECT_GE(report.requests, static_cast<std::uint64_t>(completed.load()));
  EXPECT_GT(report.epoch_swaps, 1u);
}

// --- The serving scenario ----------------------------------------------------

/// Drives serve_streaming_dataset on a worker thread, queries the
/// script once the final epoch is visible, then releases the linger
/// loop. Returns the live replies in script order.
struct ScenarioRun {
  std::vector<std::string> replies;
  scenario::ServeOutcome outcome;
};

ScenarioRun run_and_query(const scenario::ScenarioOptions& options,
                          const scenario::StreamOptions& stream) {
  ScenarioRun out;
  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> port{0};
  scenario::ServeRunOptions run;
  run.server.request_deadline_ms = 10000;
  run.on_ready = [&](std::uint16_t p) {
    port.store(p, std::memory_order_release);
  };
  run.stop = &stop;
  run.poll_ms = 10;

  std::thread client{[&] {
    while (port.load(std::memory_order_acquire) == 0) obs::sleep_ms(5);
    const std::uint16_t p = port.load(std::memory_order_acquire);
    const std::string want =
        "serving epoch=" + std::to_string(stream.epochs) + " ";
    // Wait until the final epoch's view is live (earlier epochs and
    // UNAVAILABLE both answer, just not with the final health line).
    for (;;) {
      Client probe{p};
      const std::string health = probe.ask("health");
      if (health.rfind("OK 1\n" + want, 0) == 0) break;
      obs::sleep_ms(10);
    }
    Client session{p};
    for (const std::string& request : query_script()) {
      out.replies.push_back(session.ask(request));
    }
    stop.store(true, std::memory_order_relaxed);
  }};
  out.outcome = scenario::serve_streaming_dataset(options, stream, run);
  client.join();
  return out;
}

/// The reference: what a view built from the one-shot batch pipeline
/// would answer, epoch-stamped with the stream's epoch count.
std::vector<std::string> batch_replies(const scenario::ScenarioOptions& options,
                                       std::size_t epochs) {
  const scenario::Dataset ds = scenario::build_paper_dataset(options);
  const ServeView view =
      ServeView::build(ds.db, ds.e, ds.p, ds.m, ds.b, epochs);
  std::vector<std::string> replies;
  for (const std::string& request : query_script()) {
    replies.push_back(expected_bytes(view, request));
  }
  return replies;
}

TEST(ServeScenario, LiveAnswersMatchTheBatchBuildAtEveryThreadWidth) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    scenario::ScenarioOptions options = small_options();
    options.threads = threads;
    scenario::ScenarioOptions batch = options;
    const fs::path root = fresh_dir("widths-" + std::to_string(threads));
    scenario::StreamOptions stream;
    stream.epochs = 3;
    stream.wal_dir = (root / "wal").string();
    options.checkpoint.directory = (root / "ckpt").string();

    const ScenarioRun run = run_and_query(options, stream);
    EXPECT_EQ(run.replies, batch_replies(batch, stream.epochs))
        << "threads=" << threads;
    EXPECT_EQ(run.outcome.serve.epoch_swaps, stream.epochs);
    EXPECT_GE(run.outcome.serve.replies_ok, 1u);
  }
}

TEST(ServeScenario, KilledMidServeRestartsAndAnswersByteIdentical) {
  // The kill-anywhere serving guarantee: interrupt the stream while the
  // daemon is up (clients may be mid-query), verify the daemon drained
  // before the interrupt escaped, restart, and require every reply to
  // match the batch build byte-for-byte — at every thread width.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    scenario::ScenarioOptions options = small_options();
    options.threads = threads;
    scenario::ScenarioOptions batch = options;
    const fs::path root = fresh_dir("kill-" + std::to_string(threads));
    scenario::StreamOptions stream;
    stream.epochs = 3;
    stream.wal_dir = (root / "wal").string();
    options.checkpoint.directory = (root / "ckpt").string();

    scenario::StreamOptions crashing = stream;
    crashing.after_append = [](std::uint64_t appended) {
      if (appended == 23) {
        throw snapshot::CheckpointInterrupted{"simulated crash mid-serve"};
      }
    };
    scenario::ServeRunOptions run;  // no linger: drain as soon as it lands
    std::atomic<std::uint16_t> port{0};
    run.on_ready = [&](std::uint16_t p) {
      port.store(p, std::memory_order_release);
    };
    std::thread client{[&] {
      // Hammer the daemon until the crash tears it down mid-session.
      while (port.load(std::memory_order_acquire) == 0) obs::sleep_ms(2);
      const std::uint16_t p = port.load(std::memory_order_acquire);
      for (;;) {
        // The daemon may close its listener between probes; a refused
        // connect is the same "drained" signal as an empty reply.
        Client probe{p, Client::MayRefuse{}};
        if (probe.ask("health").empty()) return;  // daemon drained
      }
    }};
    EXPECT_THROW(
        (void)scenario::serve_streaming_dataset(options, crashing, run),
        snapshot::CheckpointInterrupted);
    client.join();

    // Restart over the same WAL + checkpoints; the port is free again
    // (the drain-before-rethrow contract) and the resumed run serves
    // exactly what the batch pipeline would.
    const ScenarioRun resumed = run_and_query(options, stream);
    EXPECT_EQ(resumed.replies, batch_replies(batch, stream.epochs))
        << "threads=" << threads;
    // A rerun over the completed state restores everything, replays no
    // epoch, and still stamps the same epoch number (the fallback
    // publish) — replies stay byte-identical.
    const ScenarioRun rerun = run_and_query(options, stream);
    EXPECT_EQ(rerun.replies, batch_replies(batch, stream.epochs));
    EXPECT_EQ(rerun.outcome.serve.epoch_swaps, 1u);
  }
}

}  // namespace
}  // namespace repro::serve
