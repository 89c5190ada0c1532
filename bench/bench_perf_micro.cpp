// Microbenchmarks of the library's hot paths: MD5, PE build/parse,
// LCS/region analysis, FSM matching, shellcode analysis, Jaccard and
// MinHash signatures, EPM clustering throughput.
#include <benchmark/benchmark.h>

#include "cluster/epm.hpp"
#include "cluster/minhash.hpp"
#include "pe/builder.hpp"
#include "pe/parser.hpp"
#include "proto/fsm.hpp"
#include "proto/services.hpp"
#include "sandbox/profile.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace {

using namespace repro;

void BM_Md5(benchmark::State& state) {
  Rng rng{1};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  rng.fill(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(1024)->Arg(65536);

// Md5::digest_many over eight downloads of 22.5 KB (the mean sample size
// of the paper scenario), or, for Arg(0), over 32 messages of 0-60 KB,
// the spread of sample sizes, so lanes end and refill unevenly.
void BM_Md5Many(benchmark::State& state) {
  Rng rng{2};
  const bool mixed = state.range(0) == 0;
  std::vector<std::vector<std::uint8_t>> data(mixed ? 32 : 8);
  std::int64_t bytes = 0;
  for (std::vector<std::uint8_t>& message : data) {
    message.resize(mixed ? rng.uniform(0, 60 * 1024)
                         : static_cast<std::size_t>(state.range(0)));
    rng.fill(message);
    bytes += static_cast<std::int64_t>(message.size());
  }
  const std::vector<std::span<const std::uint8_t>> messages{data.begin(),
                                                            data.end()};
  std::vector<Md5Digest> out(messages.size());
  for (auto _ : state) {
    Md5::digest_many(messages, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(mixed ? "32 mixed" : "8 equal");
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Md5Many)->Arg(23040)->Arg(0);

pe::PeTemplate bench_template() {
  pe::PeTemplate tmpl;
  tmpl.sections.push_back(pe::SectionSpec{
      ".text", pe::kSectionCode | pe::kSectionExecute,
      std::vector<std::uint8_t>(4096, 0x90), false});
  tmpl.sections.push_back(
      pe::SectionSpec{"rdata", pe::kSectionInitializedData, {}, true});
  tmpl.sections.push_back(pe::SectionSpec{
      ".data", pe::kSectionInitializedData,
      std::vector<std::uint8_t>(2048, 0), false});
  tmpl.imports.push_back(
      pe::ImportSpec{"KERNEL32.dll", {"GetProcAddress", "LoadLibraryA"}});
  tmpl.target_file_size = 16384;
  return tmpl;
}

void BM_PeBuild(benchmark::State& state) {
  const auto tmpl = bench_template();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe::build_pe(tmpl));
  }
}
BENCHMARK(BM_PeBuild);

void BM_PeParse(benchmark::State& state) {
  const auto image = pe::build_pe(bench_template());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe::parse_pe(image));
  }
}
BENCHMARK(BM_PeParse);

void BM_Lcs(benchmark::State& state) {
  Rng rng{2};
  proto::Bytes a(static_cast<std::size_t>(state.range(0)));
  proto::Bytes b(static_cast<std::size_t>(state.range(0)));
  rng.fill(a);
  rng.fill(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::longest_common_subsequence(a, b));
  }
}
BENCHMARK(BM_Lcs)->Arg(64)->Arg(256);

void BM_FsmMatch(benchmark::State& state) {
  Rng rng{3};
  std::vector<proto::Conversation> training;
  for (std::uint32_t impl = 0; impl < 20; ++impl) {
    const auto tmpl =
        proto::make_exploit_template(proto::ServiceKind::kSmb445, impl);
    const auto loc = proto::payload_location(tmpl);
    for (int i = 0; i < 4; ++i) {
      training.push_back(proto::strip_payload(
          proto::synthesize_attack(
              tmpl, proto::to_bytes("P" + rng.alnum(20)),
              net::Ipv4{static_cast<std::uint32_t>(rng.next())},
              net::Ipv4{10, 0, 0, 1}, rng),
          loc));
    }
  }
  const proto::Fsm fsm = proto::Fsm::learn(training);
  const auto probe_tmpl =
      proto::make_exploit_template(proto::ServiceKind::kSmb445, 11);
  const auto probe = proto::synthesize_attack(
      probe_tmpl, proto::to_bytes("PAYLOAD"), net::Ipv4{9, 9, 9, 9},
      net::Ipv4{10, 0, 0, 1}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.match(probe));
  }
}
BENCHMARK(BM_FsmMatch);

void BM_ShellcodeAnalyze(benchmark::State& state) {
  Rng rng{4};
  shellcode::DownloadIntent intent;
  intent.protocol = shellcode::Protocol::kHttp;
  intent.port = 80;
  intent.host = net::Ipv4{85, 14, 27, 9};
  intent.filename = "update.exe";
  const auto payload =
      shellcode::build_shellcode(intent, shellcode::EncoderOptions{}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shellcode::analyze_shellcode(payload));
  }
}
BENCHMARK(BM_ShellcodeAnalyze);

void BM_Jaccard(benchmark::State& state) {
  sandbox::BehavioralProfile a;
  sandbox::BehavioralProfile b;
  for (int i = 0; i < 30; ++i) {
    a.add("feature" + std::to_string(i));
    b.add("feature" + std::to_string(i + 10));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sandbox::jaccard(a, b));
  }
}
BENCHMARK(BM_Jaccard);

void BM_MinHashSignature(benchmark::State& state) {
  Rng rng{5};
  const cluster::MinHasher hasher{100, 1};
  std::vector<std::uint64_t> ids(30);
  for (auto& id : ids) id = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.signature(ids));
  }
}
BENCHMARK(BM_MinHashSignature);

void BM_EpmCluster(benchmark::State& state) {
  // Synthetic mu-like matrix: n rows, 11 features, mixed invariants.
  Rng rng{6};
  cluster::DimensionData data;
  data.schema = cluster::mu_schema();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    cluster::FeatureVector row;
    row.values.push_back(rng.alnum(32));  // unique md5
    row.values.push_back(std::to_string(4608 + 512 * rng.index(80)));
    for (int f = 0; f < 9; ++f) {
      row.values.push_back("v" + std::to_string(rng.index(6)));
    }
    data.instances.push_back(std::move(row));
    data.contexts.push_back(cluster::InstanceContext{
        net::Ipv4{static_cast<std::uint32_t>(rng.index(500))},
        net::Ipv4{static_cast<std::uint32_t>(rng.index(150) + 1000)}});
    data.event_ids.push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::epm_cluster(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpmCluster)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
