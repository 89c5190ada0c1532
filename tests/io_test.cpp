// Unit tests for the io module: CSV/JSONL export and CSV re-import.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/backend.hpp"
#include "fault/plan.hpp"
#include "ingest/wal.hpp"
#include "io/csv_export.hpp"
#include "io/csv_import.hpp"
#include "util/table.hpp"
#include "scenario/paper.hpp"
#include "scenario/stream.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"

namespace repro::io {
namespace {

/// One tiny shared dataset for the export tests.
const scenario::Dataset& dataset() {
  static const scenario::Dataset ds = [] {
    scenario::ScenarioOptions options;
    options.scale = 0.03;
    options.seed = 3;
    return scenario::build_paper_dataset(options);
  }();
  return ds;
}

TEST(CsvRow, ParsesPlainFields) {
  EXPECT_EQ(parse_csv_row("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_row(""), (std::vector<std::string>{""}));
  EXPECT_EQ(parse_csv_row("a,,c"), (std::vector<std::string>{"a", "", "c"}));
}

TEST(CsvRow, ParsesQuotedFields) {
  EXPECT_EQ(parse_csv_row("a,\"b,c\",d"),
            (std::vector<std::string>{"a", "b,c", "d"}));
  EXPECT_EQ(parse_csv_row("\"say \"\"hi\"\"\""),
            (std::vector<std::string>{"say \"hi\""}));
}

TEST(CsvRow, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv_row("a,\"broken"), ParseError);
}

TEST(CsvRow, RoundTripsThroughWriter) {
  const std::vector<std::string> cells{"plain", "with,comma", "with\"quote",
                                       ""};
  EXPECT_EQ(parse_csv_row(to_csv_row(cells)), cells);
}

TEST(CsvRow, RoundTripsCarriageReturns) {
  // Regression for the writer's quote set missing '\r': the bare CR
  // survived the writer unquoted and the round trip lost cell framing.
  const std::vector<std::string> cells{"a\rb", "c\r\nd", "\r"};
  EXPECT_EQ(parse_csv_row(to_csv_row(cells)), cells);
}

TEST(CsvRow, RoundTripFuzzOverHostileCells) {
  // Deterministic property fuzz: rows assembled from every CSV
  // metacharacter must survive write -> parse unchanged.
  constexpr char kAlphabet[] = {',', '"', '\n', '\r', 'a', 'Z', ' ', '\t'};
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed seed, splitmix64
  const auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<std::string> cells(1 + next() % 5);
    for (std::string& cell : cells) {
      cell.resize(next() % 8);
      for (char& c : cell) c = kAlphabet[next() % sizeof(kAlphabet)];
    }
    const std::string row = to_csv_row(cells);
    // Outside quotes the row must never contain a bare CR or LF — that
    // is the exact bug class this guards against.
    for (std::size_t i = 0, quoted = 0; i < row.size(); ++i) {
      if (row[i] == '"') quoted ^= 1;
      if (quoted == 0) {
        EXPECT_NE(row[i], '\n') << "bare LF in: " << row;
        EXPECT_NE(row[i], '\r') << "bare CR in: " << row;
      }
    }
    EXPECT_EQ(parse_csv_row(row), cells) << "row: " << row;
  }
}

TEST(Export, EventsCsvRoundTrips) {
  const auto& ds = dataset();
  std::stringstream stream;
  write_events_csv(stream, ds.db, ds.e, ds.p, ds.m, ds.b);
  const auto records = read_events_csv(stream);
  ASSERT_EQ(records.size(), ds.db.events().size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const auto& event = ds.db.events()[i];
    EXPECT_EQ(record.event_id, event.id);
    EXPECT_EQ(record.attacker, event.attacker.to_string());
    EXPECT_EQ(record.dst_port, event.epsilon.dst_port);
    EXPECT_EQ(record.fsm_path, event.epsilon.fsm_path);
    EXPECT_EQ(record.e_cluster, ds.e.cluster_of_event(event.id));
    EXPECT_EQ(record.m_cluster, ds.m.cluster_of_event(event.id));
    if (event.sample.has_value()) {
      EXPECT_EQ(record.sample_id, static_cast<int>(*event.sample));
    } else {
      EXPECT_EQ(record.sample_id, -1);
    }
  }
}

TEST(Export, SamplesCsvHasOneRowPerSample) {
  const auto& ds = dataset();
  std::stringstream stream;
  write_samples_csv(stream, ds.db, ds.b);
  std::string line;
  std::size_t rows = 0;
  ASSERT_TRUE(std::getline(stream, line));  // header
  EXPECT_EQ(parse_csv_row(line).front(), "sample_id");
  while (std::getline(stream, line)) {
    const auto fields = parse_csv_row(line);
    ASSERT_EQ(fields.size(), 9u);
    EXPECT_EQ(fields[1].size(), 32u);  // md5 hex
    ++rows;
  }
  EXPECT_EQ(rows, ds.db.samples().size());
}

TEST(Export, ClustersCsvListsAllPatterns) {
  const auto& ds = dataset();
  std::stringstream stream;
  write_clusters_csv(stream, ds.p);
  std::string line;
  std::size_t rows = 0;
  std::getline(stream, line);
  while (std::getline(stream, line)) {
    const auto fields = parse_csv_row(line);
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[1], "Pi");
    ++rows;
  }
  EXPECT_EQ(rows, ds.p.cluster_count());
}

TEST(Export, ProfilesJsonlOnePerAnalyzableSample) {
  const auto& ds = dataset();
  std::stringstream stream;
  write_profiles_jsonl(stream, ds.db);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(stream, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"features\":["), std::string::npos);
    ++rows;
  }
  EXPECT_EQ(rows, ds.db.analyzable_sample_count());
}

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nfeed"), "line\\nfeed");
  EXPECT_EQ(json_escape(std::string{"\x01", 1}), "\\u0001");
}

/// MD5 of every file the batch build's export directory holds, keyed by
/// file name (build_paper_dataset --export-dir writes these six).
std::map<std::string, std::string> export_digests(
    const scenario::Dataset& ds) {
  const auto digest = [](const std::ostringstream& out) {
    const std::string bytes = out.str();
    return Md5::hex_digest(std::span{
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  };
  std::map<std::string, std::string> digests;
  std::ostringstream events, samples, e, p, m, profiles;
  write_events_csv(events, ds.db, ds.e, ds.p, ds.m, ds.b);
  write_samples_csv(samples, ds.db, ds.b);
  write_clusters_csv(e, ds.e);
  write_clusters_csv(p, ds.p);
  write_clusters_csv(m, ds.m);
  write_profiles_jsonl(profiles, ds.db);
  digests["events.csv"] = digest(events);
  digests["samples.csv"] = digest(samples);
  digests["clusters_e.csv"] = digest(e);
  digests["clusters_p.csv"] = digest(p);
  digests["clusters_m.csv"] = digest(m);
  digests["profiles.jsonl"] = digest(profiles);
  return digests;
}

// The batch export pinned outside the code: a refactor of how samples,
// features or clusters are held must leave every exported byte alone.
// Seed 2008 (the benches' default) at scale 0.05, LSH B backend.
TEST(ExportOracle, BatchExportDigestsArePinned) {
  for (const bool faults : {false, true}) {
    scenario::ScenarioOptions options;
    options.scale = 0.05;
    options.seed = 2008;
    options.b_backend = cluster::BackendKind::kLsh;
    if (faults) options.faults = fault::FaultPlan::paper_calibrated();
    const std::map<std::string, std::string> expected =
        faults ? std::map<std::string, std::string>{
                     {"events.csv", "ed48726ec2b7ee9c8f76275c82ee9332"},
                     {"samples.csv", "023357c63109ed5d547ff037ebdf64ca"},
                     {"clusters_e.csv", "a18ce9d32c75ced7114f10e57a00b3fe"},
                     {"clusters_p.csv", "53c67fbf8d7c7f2ab8ab88651898a5e2"},
                     {"clusters_m.csv", "5d5e04fb9e7c8a259c9b68541301bf2e"},
                     {"profiles.jsonl", "a035799673d673e0e9fab09c73572ba4"}}
               : std::map<std::string, std::string>{
                     {"events.csv", "8858836e6f46108788cf6f5aebb1d7bf"},
                     {"samples.csv", "b30d2e08b7b86a9fd6ae4c62ecd6e2a1"},
                     {"clusters_e.csv", "816d66305f35297ad8bc36a0243de6fd"},
                     {"clusters_p.csv", "f17d7150a738d7b2f1366d2de0e5ce3d"},
                     {"clusters_m.csv", "2af2679a9a03d7963d2ffd21b2267b5a"},
                     {"profiles.jsonl", "89c23295725076cba388ca5e29bbd5eb"}};
    const std::map<std::string, std::string> actual =
        export_digests(scenario::build_paper_dataset(options));
    for (const auto& [file, md5] : expected) {
      EXPECT_EQ(actual.at(file), md5)
          << file << (faults ? " (--faults paper)" : " (--faults none)");
    }
  }
}

// The WAL a cold stream writes, pinned outside the code: how the sensor
// stream is generated must leave every record payload alone. Same point
// as the export oracle, 4 epochs. Read back through recovery and the
// WAL reader; the pin is the record count plus the MD5 over the records'
// MD5s in index order, so one changed, dropped or reordered record moves
// it.
TEST(WalOracle, RecordDigestsArePinned) {
  for (const bool faults : {false, true}) {
    scenario::ScenarioOptions options;
    options.scale = 0.05;
    options.seed = 2008;
    options.b_backend = cluster::BackendKind::kLsh;
    if (faults) options.faults = fault::FaultPlan::paper_calibrated();
    const std::filesystem::path root =
        std::filesystem::path{testing::TempDir()} /
        (faults ? "wal-oracle-paper" : "wal-oracle-none");
    std::filesystem::remove_all(root);
    options.checkpoint.directory = (root / "ckpt").string();
    scenario::StreamOptions stream;
    stream.epochs = 4;
    stream.wal_dir = (root / "wal").string();
    (void)scenario::build_streaming_dataset(options, stream);

    ingest::WalOptions wal;
    wal.directory = stream.wal_dir;
    ingest::IngestReport report;
    const ingest::RecoveredWal recovered = ingest::recover_wal(
        wal, scenario::scenario_fingerprint(options), report);
    Md5 chain;
    std::uint64_t records = 0;
    for (const std::span<const std::uint8_t> payload : recovered.records) {
      chain.update(Md5::digest(payload));
      ++records;
    }
    const auto [count, digest] =
        faults ? std::pair{337ull, "aecd3a06a4be8a8094aef0e204ab170f"}
               : std::pair{339ull, "a85f8ca04046002ba04a05e596168701"};
    EXPECT_EQ(records, count) << (faults ? "--faults paper" : "--faults none");
    EXPECT_EQ(hex_encode(chain.finish()), digest)
        << (faults ? "--faults paper" : "--faults none");
    std::filesystem::remove_all(root);
  }
}

TEST(Import, RejectsBadHeader) {
  std::stringstream stream{"not,a,header\n1,2,3\n"};
  EXPECT_THROW(read_events_csv(stream), ParseError);
}

TEST(Import, RejectsArityMismatch) {
  std::stringstream good;
  write_events_csv(good, dataset().db, dataset().e, dataset().p, dataset().m,
                   dataset().b);
  std::string header;
  std::getline(good, header);
  std::stringstream bad{header + "\n1,2,3\n"};
  EXPECT_THROW(read_events_csv(bad), ParseError);
}

TEST(Import, EmptyInputThrows) {
  std::stringstream empty;
  EXPECT_THROW(read_events_csv(empty), ParseError);
}

namespace {

/// A header-plus-one-row CSV with the given event_id and dst_port
/// fields spliced into an otherwise valid row.
std::string one_row_csv(const std::string& event_id,
                        const std::string& dst_port) {
  std::stringstream good;
  write_events_csv(good, dataset().db, dataset().e, dataset().p, dataset().m,
                   dataset().b);
  std::string header;
  std::getline(good, header);
  return header + "\n" + event_id +
         ",2008-01-02T03:04:05Z,1.2.3.4,5.6.7.8,3," + dst_port +
         ",S|E,Generic,cmd.exe,-1,epsilon,0,1,2,3,4\n";
}

}  // namespace

TEST(Import, MalformedNumbersThrowParseError) {
  // Regression: these used to leak std::invalid_argument /
  // std::out_of_range from std::stoi instead of the documented
  // ParseError.
  for (const char* bad_id : {"abc", "12abc", "", "-1", "1.5",
                             "99999999999999999999"}) {
    std::stringstream stream{one_row_csv(bad_id, "445")};
    EXPECT_THROW(read_events_csv(stream), ParseError) << bad_id;
  }
  for (const char* bad_port : {"port", "445x", "4.5",
                               "99999999999999999999"}) {
    std::stringstream stream{one_row_csv("7", bad_port)};
    EXPECT_THROW(read_events_csv(stream), ParseError) << bad_port;
  }
}

TEST(Import, EmptyOptionalFieldsKeepFallbacks) {
  std::stringstream stream{one_row_csv("7", "")};
  const auto records = read_events_csv(stream);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event_id, 7u);
  EXPECT_EQ(records[0].dst_port, 0);  // empty field falls back, no throw
}

}  // namespace
}  // namespace repro::io
