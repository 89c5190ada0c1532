// Deterministic robustness sweeps ("fuzz-lite"): every parser that
// consumes externally-controlled bytes must survive arbitrary
// mutations — returning an error value or throwing ParseError, never
// crashing or reading out of bounds. Honeypot data is attacker
// controlled by definition, so these paths are the library's security
// boundary.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/report.hpp"
#include "honeypot/database.hpp"
#include "io/csv_import.hpp"
#include "pe/builder.hpp"
#include "pe/filetype.hpp"
#include "pe/parser.hpp"
#include "proto/gamma.hpp"
#include "proto/region.hpp"
#include "scenario/paper.hpp"
#include "scenario/wal_record.hpp"
#include "serve/protocol.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/durable_file.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace repro {
namespace {

/// Applies `count` random byte mutations (overwrite, truncate, extend).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> data, Rng& rng,
                                 int count) {
  for (int i = 0; i < count && !data.empty(); ++i) {
    switch (rng.index(4)) {
      case 0:  // overwrite
        data[rng.index(data.size())] =
            static_cast<std::uint8_t>(rng.uniform(0, 255));
        break;
      case 1:  // truncate
        data.resize(1 + rng.index(data.size()));
        break;
      case 2: {  // extend with junk
        std::vector<std::uint8_t> junk(rng.index(64));
        rng.fill(junk);
        data.insert(data.end(), junk.begin(), junk.end());
        break;
      }
      case 3: {  // byte swap
        const std::size_t a = rng.index(data.size());
        const std::size_t b = rng.index(data.size());
        std::swap(data[a], data[b]);
        break;
      }
    }
  }
  return data;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, PeParserSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 977 + 1};
  pe::PeTemplate tmpl;
  tmpl.sections.push_back(pe::SectionSpec{
      ".text", pe::kSectionCode, std::vector<std::uint8_t>(1500, 0x90),
      false});
  tmpl.sections.push_back(
      pe::SectionSpec{"rdata", pe::kSectionInitializedData, {}, true});
  tmpl.imports.push_back(pe::ImportSpec{"KERNEL32.dll", {"Sleep"}});
  const auto valid = pe::build_pe(tmpl);
  for (int trial = 0; trial < 50; ++trial) {
    const auto mutated = mutate(valid, rng, 1 + static_cast<int>(rng.index(8)));
    try {
      const pe::PeInfo info = pe::parse_pe(mutated);
      // If it still parses, basic invariants must hold.
      EXPECT_LE(info.sections.size(), 64u);
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
    // The type detector must always return something.
    EXPECT_FALSE(pe::detect_file_type(mutated).empty());
    (void)pe::looks_like_pe(mutated);
  }
}

TEST_P(FuzzSeed, ShellcodeAnalyzerSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 1013 + 7};
  shellcode::DownloadIntent intent;
  intent.protocol = shellcode::Protocol::kHttp;
  intent.port = 80;
  intent.host = net::Ipv4{1, 2, 3, 4};
  intent.filename = "x.exe";
  for (const auto kind :
       {shellcode::EncoderKind::kXor, shellcode::EncoderKind::kAlphanumeric,
        shellcode::EncoderKind::kClear}) {
    shellcode::EncoderOptions options;
    options.kind = kind;
    const auto valid = shellcode::build_shellcode(intent, options, rng);
    for (int trial = 0; trial < 30; ++trial) {
      const auto mutated =
          mutate(valid, rng, 1 + static_cast<int>(rng.index(6)));
      // Must return nullopt or a structurally valid intent — never crash.
      const auto analyzed = shellcode::analyze_shellcode(mutated);
      if (analyzed.has_value()) {
        EXPECT_LE(analyzed->filename.size(), 4096u);
      }
    }
  }
}

TEST_P(FuzzSeed, GammaObserverSurvivesMutations) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 3};
  const auto spec = proto::make_gamma_spec(static_cast<std::uint64_t>(
      GetParam()));
  const auto valid = proto::build_gamma(spec, rng);
  for (int trial = 0; trial < 30; ++trial) {
    const auto mutated = mutate(valid, rng, 1 + static_cast<int>(rng.index(6)));
    (void)proto::observe_gamma(mutated);  // must not crash
  }
}

TEST_P(FuzzSeed, RegionAnalysisSurvivesRandomMessages) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 131 + 5};
  std::vector<proto::Bytes> messages(2 + rng.index(4));
  for (auto& message : messages) {
    message.resize(rng.index(120));
    rng.fill(message);
  }
  std::vector<const proto::Bytes*> views;
  for (const auto& message : messages) views.push_back(&message);
  const auto regions = proto::region_analysis(views);
  // Whatever was extracted must match every input.
  for (const auto& message : messages) {
    EXPECT_TRUE(proto::regions_match(regions, message));
  }
}

TEST_P(FuzzSeed, CsvParserSurvivesRandomLines) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 613 + 11};
  for (int trial = 0; trial < 50; ++trial) {
    std::string line;
    const std::size_t length = rng.index(200);
    for (std::size_t i = 0; i < length; ++i) {
      // Printable chars with elevated quote/comma frequency.
      const int draw = static_cast<int>(rng.index(10));
      line.push_back(draw < 2   ? '"'
                     : draw < 4 ? ','
                                : static_cast<char>(rng.uniform(0x20, 0x7e)));
    }
    try {
      const auto fields = io::parse_csv_row(line);
      EXPECT_GE(fields.size(), 1u);
    } catch (const ParseError&) {
      // Unterminated quotes are expected.
    }
  }
}

TEST_P(FuzzSeed, HexAndDateParsersSurviveJunk) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 503 + 13};
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = rng.alnum(rng.index(24));
    try {
      (void)hex_decode(text);
    } catch (const ParseError&) {
    }
    try {
      (void)parse_date(text);
    } catch (const ParseError&) {
    }
  }
}

TEST_P(FuzzSeed, EpochCutSectionsSurviveMutations) {
  // One tiny cut, written the way the epoch loop writes it. Each trial
  // mutates one section's payload and re-seals the container, so every
  // CRC is valid and the mutation reaches that section's decoder.
  namespace fs = std::filesystem;
  constexpr std::uint64_t kFingerprint = 42;
  constexpr std::size_t kTrials = 12;
  const fs::path dir = fs::path{testing::TempDir()} /
                       ("fuzz-cut-" + std::to_string(GetParam()));
  fs::remove_all(dir);
  scenario::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 5;
  const scenario::Dataset ds = scenario::build_paper_dataset(options);
  const snapshot::EpmStage epm{ds.e, ds.p, ds.m};
  ingest::IngestReport totals;
  totals.records_appended = ds.db.events().size();
  const std::vector<std::uint8_t> ingest_blob =
      ingest::encode_stream_totals(totals);
  snapshot::CheckpointStore writer{snapshot::CheckpointOptions{dir.string()},
                                   kFingerprint};
  writer.save_epoch(snapshot::EpochCut{.epoch = 0,
                                       .wal_records = ds.db.events().size(),
                                       .event_total = ds.db.events().size(),
                                       .db = ds.db,
                                       .enrichment = ds.enrichment,
                                       .fault_report = ds.fault_report,
                                       .epm = epm,
                                       .behavioral = ds.b,
                                       .ingest_blob = ingest_blob,
                                       .epm_reclassified = {1, 2, 3}});
  const std::string path = (dir / snapshot::epoch_filename(0)).string();
  const std::optional<std::vector<std::uint8_t>> valid =
      snapshot::read_whole_file(path);
  ASSERT_TRUE(valid.has_value());
  const snapshot::DecodedSnapshot cut = snapshot::decode_snapshot(*valid);

  Rng rng{static_cast<std::uint64_t>(GetParam()) * 811 + 3};
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t section = 0; section < cut.sections.size(); ++section) {
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      std::vector<snapshot::Section> sections = cut.sections;
      sections[section].payload =
          mutate(sections[section].payload, rng,
                 1 + static_cast<int>(rng.index(6)));
      snapshot::atomic_write(
          path, snapshot::encode_snapshot(kFingerprint, sections), "fuzz");
      snapshot::CheckpointStore reader{
          snapshot::CheckpointOptions{dir.string()}, kFingerprint};
      std::optional<snapshot::EpochStage> stage;
      ASSERT_NO_THROW(stage = reader.load_latest_epoch())
          << cut.sections[section].name;
      if (stage.has_value()) {
        ++loaded;
        EXPECT_EQ(reader.activity().quarantined, 0u);
        // The ingest totals stay opaque until priming decodes them.
        ingest::IngestReport decoded;
        try {
          ingest::decode_stream_totals(stage->ingest_blob, decoded);
        } catch (const ParseError&) {
        }
      } else {
        ++rejected;
        EXPECT_EQ(reader.activity().quarantined, 1u)
            << cut.sections[section].name;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(loaded + rejected, kTrials * cut.sections.size());
  fs::remove_all(dir);
}

TEST_P(FuzzSeed, RequestLineSurvivesMutations) {
  // bench_serve's query script (with a fixed md5 and cluster id where it
  // picks them from a built dataset) plus the debug verb. A request line
  // comes straight off a client socket: parse_request must answer every
  // mutation, random byte string and over-long line with a Request or a
  // ParseError, and nothing else.
  const std::vector<std::string> script = {
      "health",
      "stats",
      "ccmap",
      "lookup 0123456789abcdef0123456789abcdef",
      "lookup ffffffffffffffffffffffffffffffff",
      "cluster 7",
      "cluster 999999",
      "slow 5",
  };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  const auto check = [&](std::string_view line) {
    try {
      const serve::Request request = serve::parse_request(line);
      ++parsed;
      if (request.kind == serve::RequestKind::kLookup) {
        EXPECT_EQ(request.md5.size(), 32u);
      }
      if (request.kind == serve::RequestKind::kSlow) {
        EXPECT_GE(request.slow_ms, 0);
      }
    } catch (const ParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ParseError exception: " << e.what();
    }
  };
  const auto to_line = [](const std::vector<std::uint8_t>& bytes) {
    return std::string{bytes.begin(), bytes.end()};
  };

  for (const std::string& line : script) {
    ASSERT_NO_THROW((void)serve::parse_request(line)) << line;
  }
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 389 + 17};
  for (const std::string& line : script) {
    const std::vector<std::uint8_t> valid{line.begin(), line.end()};
    for (int trial = 0; trial < 40; ++trial) {
      check(to_line(mutate(valid, rng, 1 + static_cast<int>(rng.index(6)))));
    }
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint8_t> junk(rng.index(80));
    rng.fill(junk);
    check(to_line(junk));
  }
  // Over-long lines: far past the server's line bound, in each verb's
  // argument position and with no verb at all.
  for (const std::string_view verb : {"lookup ", "cluster ", "slow ", ""}) {
    std::string line{verb};
    line.append(8192 + rng.index(8192), verb == "lookup " ? 'a' : '9');
    check(line);
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST_P(FuzzSeed, RecordPayloadSurvivesMutations) {
  // A three-event stream: a sample's first event (content record), a
  // second event of that sample (reference record) and an event with no
  // download (no-sample record). A WAL record reaches replay only past
  // its frame CRC, so this is the decoder behind a forged or buggy
  // payload: every mutation must decode to a valid event or throw
  // ParseError with the database untouched.
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 661 + 19};
  std::vector<std::uint8_t> binary(48);
  rng.fill(binary);
  std::vector<honeypot::GeneratedRecord> generated(3);
  for (int i = 0; i < 3; ++i) {
    honeypot::GeneratedRecord& record = generated[i];
    record.event.time = SimTime{100 + i};
    record.event.epsilon.fsm_path = "smb/" + std::to_string(i);
    record.event.epsilon.dst_port = 445;
    record.event.pi = honeypot::PiObservation{"http", "x.exe", 80, "PULL"};
    if (i < 2) {
      record.event.sample = 0;
      record.md5 = Md5::digest(binary);
    }
  }
  generated[0].new_sample = true;
  generated[0].content = binary;
  generated[0].truncated = true;
  std::vector<std::vector<std::uint8_t>> records;
  for (const honeypot::GeneratedRecord& record : generated) {
    records.push_back(scenario::encode_record(record));
  }

  // `stored` already holds the sample, so its reference record decodes.
  const honeypot::EventDatabase empty;
  honeypot::EventDatabase stored;
  scenario::replay_record(records[0], stored);
  ASSERT_EQ(stored.sample(0).md5, Md5::hex_digest(binary));
  {
    honeypot::EventDatabase db = stored;
    EXPECT_THROW(scenario::replay_record(records[0], db), ParseError)
        << "content for a digest already stored";
    EXPECT_EQ(db.events().size(), 1u);
    db = empty;
    EXPECT_THROW(scenario::replay_record(records[1], db), ParseError)
        << "reference to an unknown digest";
    EXPECT_TRUE(db.events().empty());
    // A sample travels by digest, never as a database id in the event.
    ByteWriter forged;
    forged.u8(scenario::kRecordVersion);
    honeypot::AttackEvent event = generated[2].event;
    event.sample = 0;
    snapshot::write_attack_event(forged, event);
    forged.u8(0);  // no sample block
    db = stored;
    EXPECT_THROW(scenario::replay_record(forged.data(), db), ParseError)
        << "event carrying a sample id";
    EXPECT_EQ(db.events().size(), 1u);
  }

  const std::array<const honeypot::EventDatabase*, 2> bases{&empty, &stored};
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const std::vector<std::uint8_t>& valid : records) {
    for (const honeypot::EventDatabase* base : bases) {
      for (int trial = 0; trial < 25; ++trial) {
        const std::vector<std::uint8_t> mutated =
            mutate(valid, rng, 1 + static_cast<int>(rng.index(6)));
        honeypot::EventDatabase db = *base;
        try {
          scenario::replay_record(mutated, db);
          ++decoded;
          EXPECT_EQ(db.events().size(), base->events().size() + 1);
          EXPECT_NO_THROW(db.check_consistency());
        } catch (const ParseError&) {
          ++rejected;
          EXPECT_EQ(db.events().size(), base->events().size());
          EXPECT_EQ(db.samples().size(), base->samples().size());
        } catch (const std::exception& e) {
          ADD_FAILURE() << "non-ParseError exception: " << e.what();
        }
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(0, 8));

}  // namespace
}  // namespace repro
