#include "scenario/paper.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "cluster/feature.hpp"
#include "cluster/incremental.hpp"
#include "malware/binary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pe/builder.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::scenario {

namespace {

using malware::ActivitySchedule;
using malware::BehaviorKind;
using malware::BehaviorSpec;
using malware::Landscape;
using malware::MalwareFamily;
using malware::MalwareVariant;
using malware::PayloadSpec;
using malware::PeShape;
using malware::PolymorphismMode;
using malware::PopulationSpec;

// ---------------------------------------------------------------------------
// Calibration constants. Paper targets are quoted next to each knob.
// ---------------------------------------------------------------------------

/// Observation window: January 2008 - May 2009 (Section 4).
constexpr int kWeeks = 74;

/// Allaple-like worm: "almost 100 different static clusters" linked to
/// two B-clusters; the bulk of the 6353 collected samples.
constexpr int kAllapleSizeVariants = 84;    // distinct file sizes
constexpr int kAllapleRelinkEvery = 3;      // every 4th size also ships a
                                            // recompiled (new linker) build
constexpr std::uint32_t kAllapleBaseSize = 4608;
constexpr double kAllapleRate = 0.44;       // events/week per 100 hosts

/// Per-execution noise behind the ~860 singleton B-clusters.
constexpr double kAllapleNoiseProbability = 0.172;
constexpr int kAllapleNoiseFeatures = 8;

/// The "M-cluster 13" case: per-source polymorphic downloader.
constexpr std::uint32_t kM13Size = 59904;

/// Bot landscape: Table 2 channels plus a wider population of botnets.
constexpr int kExtraBotChannels = 28;

/// Trojan families (multi-variant, stable hash codebases).
constexpr int kTrojanFamilies = 14;

/// Rare tail: variants observed a handful of times.
constexpr int kRareTail = 40;

/// Download failure rate; calibrated against 5165/6353 analyzable.
constexpr double kTruncationProbability = 0.14;

// ---------------------------------------------------------------------------
// Static-shape pools (drive the Table 1 mu invariant counts).
// ---------------------------------------------------------------------------

struct ShapePools {
  std::vector<std::vector<std::string>> section_sets;
  std::vector<std::vector<pe::ImportSpec>> import_sets;
  std::vector<std::pair<std::uint8_t, std::uint8_t>> linkers;
  std::vector<std::uint32_t> bot_sizes;
};

ShapePools make_pools(Rng& rng) {
  ShapePools pools;

  // ~52 distinct section-name sets (Table 1: 43 invariant name sets).
  const std::vector<std::string> names = {
      ".text",  ".data", ".rdata", "rdata",  ".rsrc", ".reloc",
      "UPX0",   "UPX1",  ".code",  ".bss",   ".idata", ".pack",
      "CODE",   "DATA",  ".tls",   ".crt"};
  std::set<std::string> seen;
  while (pools.section_sets.size() < 52) {
    std::vector<std::string> pick = names;
    rng.shuffle(pick);
    const std::size_t count = 2 + rng.index(7);  // 2..8 sections
    std::vector<std::string> set{pick.begin(),
                                 pick.begin() + static_cast<long>(count)};
    std::string key;
    for (const auto& n : set) key += n + ",";
    if (seen.insert(key).second) pools.section_sets.push_back(std::move(set));
  }

  // Import sets: 11 distinct DLL combinations, 15 distinct Kernel32
  // symbol subsets (Table 1).
  const std::vector<std::string> k32 = {
      "GetProcAddress", "LoadLibraryA",  "CreateFileA",   "WriteFile",
      "CreateMutexA",   "Sleep",         "GetTickCount",  "VirtualAlloc",
      "ExitProcess",    "CopyFileA",     "GetModuleHandleA",
      "CreateProcessA", "GetTempPathA",  "WinExec",       "CloseHandle"};
  const std::vector<std::string> other_dlls = {
      "USER32.dll", "WS2_32.dll", "WININET.dll", "ADVAPI32.dll",
      "SHELL32.dll", "MSVCRT.dll"};
  std::set<std::string> seen_syms;
  for (int i = 0; i < 15; ++i) {
    std::vector<std::string> symbols = k32;
    rng.shuffle(symbols);
    symbols.resize(2 + rng.index(5));  // 2..6 symbols
    std::sort(symbols.begin(), symbols.end());
    std::vector<pe::ImportSpec> set;
    set.push_back(pe::ImportSpec{"KERNEL32.dll", symbols});
    // 11 distinct DLL-name combinations over 15 sets: sets i and i+11
    // intentionally share the DLL list (differing only in symbols).
    const int dll_combo = i % 11;
    for (int d = 0; d < dll_combo % 7; ++d) {
      set.push_back(pe::ImportSpec{
          other_dlls[static_cast<std::size_t>((dll_combo + d) %
                                              other_dlls.size())],
          {"func" + std::to_string(d)}});
    }
    pools.import_sets.push_back(std::move(set));
  }

  // 7 linker versions (Table 1).
  pools.linkers = {{9, 2}, {8, 0}, {7, 1}, {9, 0}, {6, 0}, {8, 1}, {5, 0}};

  // ~20 bot/trojan file sizes, reused across variants so the size
  // invariant count stays near the paper's 95.
  for (int i = 0; i < 22; ++i) {
    pools.bot_sizes.push_back(7680 +
                              512 * static_cast<std::uint32_t>(rng.index(44)));
  }
  std::sort(pools.bot_sizes.begin(), pools.bot_sizes.end());
  pools.bot_sizes.erase(
      std::unique(pools.bot_sizes.begin(), pools.bot_sizes.end()),
      pools.bot_sizes.end());
  return pools;
}

// ---------------------------------------------------------------------------
// Payload specs (drive the Table 1 pi invariant counts, 27 P-clusters).
// ---------------------------------------------------------------------------

std::vector<PayloadSpec> make_payloads() {
  std::vector<PayloadSpec> payloads;
  const auto push = [&](PayloadSpec spec) { payloads.push_back(std::move(spec)); };

  // 0: the Allaple/M13 vector — PUSH on tcp/9988 ("P-pattern 45").
  {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kBind;
    spec.port = 9988;
    push(spec);
  }
  // 1: push over the exploited connection.
  {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kCsend;
    spec.port = 445;
    push(spec);
  }
  // 2: connect-back listener (reuses 445 so the pi port-invariant count
  // stays near the paper's 4).
  {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kConnectBack;
    spec.port = 445;
    push(spec);
  }
  // FTP fetches from the attacker: 8 fixed filenames + 1 random-name.
  const std::vector<std::string> ftp_names = {
      "ssms.exe", "x.exe",     "winudp.exe", "bot.exe",
      "crss.exe", "msnet.exe", "udpx.exe",   "lsasvc.exe"};
  for (const std::string& name : ftp_names) {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kFtp;
    spec.port = 21;
    spec.filename = name;
    push(spec);
  }
  {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kFtp;
    spec.port = 21;
    spec.random_filename = true;
    push(spec);
  }
  // HTTP fetches: 7 from the attacker, 3 from central repositories,
  // 1 random-name.
  const std::vector<std::string> http_names = {
      "update.exe", "load.exe",   "setup32.exe", "winsys.exe",
      "qx.exe",     "netmgr.exe", "applet.exe",  "mswupd.exe"};
  for (const std::string& name : http_names) {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kHttp;
    spec.port = 80;
    spec.filename = name;
    push(spec);
  }
  const std::vector<std::pair<std::string, std::string>> central = {
      {"pack1.exe", "85.14.27.9"},
      {"pack2.exe", "85.14.27.9"},
      {"stage2.exe", "203.117.45.30"}};
  for (const auto& [name, host] : central) {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kHttp;
    spec.port = 80;
    spec.filename = name;
    spec.host_role = shellcode::HostRole::kThirdParty;
    spec.central_host = net::Ipv4::parse(host);
    push(spec);
  }
  {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kHttp;
    spec.port = 80;
    spec.random_filename = true;
    push(spec);
  }
  // TFTP fetches: 3 fixed filenames, delivered by alphanumeric-encoded
  // shellcode (a second decoder family for the Nepenthes analyzer).
  for (const std::string& name :
       {std::string{"wins.exe"}, std::string{"tftpd32.exe"},
        std::string{"mslaugh.exe"}}) {
    PayloadSpec spec;
    spec.protocol = shellcode::Protocol::kTftp;
    spec.port = 69;
    spec.filename = name;
    spec.encoder.kind = shellcode::EncoderKind::kAlphanumeric;
    push(spec);
  }
  return payloads;  // 27 distinct pi patterns
}

// ---------------------------------------------------------------------------
// Behavior feature helpers.
// ---------------------------------------------------------------------------

std::vector<std::string> allaple_base(int group) {
  std::vector<std::string> features = {
      "file|write|C:\\WINDOWS\\system32\\urdvxc.exe",
      "registry|set|HKLM\\SOFTWARE\\Classes\\CLSID\\{55DB983C}",
      "mutex|create|jhdheruhfrthkgjhti",
      "network|scan|445",
      "network|raw-socket|icmp",
      "file|enum|*.html",
      "file|infect|html-prepend-object",
      "process|create|self-copy",
      "service|install|MSWindows",
      "network|scan|139",
  };
  if (group == 0) {
    features.push_back("dos|syn|www.target-a.example");
    features.push_back("dos|icmp|www.target-a.example");
    features.push_back("file|write|C:\\WINDOWS\\babackup.exe");
    features.push_back("mutex|create|allaplemtx_a");
  } else {
    features.push_back("dos|syn|www.target-b.example");
    features.push_back("dos|udp|www.target-b.example");
    features.push_back("file|write|C:\\WINDOWS\\nvrsvc.exe");
    features.push_back("mutex|create|allaplemtx_b");
    features.push_back("registry|set|HKLM\\...\\Run\\nvrsvc");
  }
  return features;
}

std::vector<std::string> botkit_base(int kit) {
  std::vector<std::string> features = {
      "file|write|C:\\WINDOWS\\system32\\wuamgrd.exe",
      "registry|set|HKLM\\...\\Run\\wuamgrd",
      "process|inject|explorer.exe",
      "network|scan|445",
      "keylog|install|hook13",
      "service|stop|wscsvc",
      "service|stop|SharedAccess",
      "file|delete|C:\\WINDOWS\\temp\\~tmp",
  };
  features.push_back("mutex|create|botkit" + std::to_string(kit));
  features.push_back("file|write|C:\\WINDOWS\\kit" + std::to_string(kit) +
                     ".dll");
  features.push_back("registry|set|HKLM\\...\\kit" + std::to_string(kit));
  return features;
}

// ---------------------------------------------------------------------------
// Landscape assembly.
// ---------------------------------------------------------------------------

struct Builder {
  Landscape landscape;
  ShapePools pools;
  Rng rng;
  double scale;

  explicit Builder(const ScenarioOptions& options)
      : rng(mix64(options.seed ^ 0x5ce0'0000'0000'0000ULL)),
        scale(options.scale) {
    landscape.start_time = parse_date("2008-01-01");
    landscape.weeks = kWeeks;
    pools = make_pools(rng);
    landscape.payloads = make_payloads();
    // 50 exploit implementations over the three service ports.
    for (std::uint32_t i = 0; i < 30; ++i) {
      landscape.exploits.push_back(
          proto::make_exploit_template(proto::ServiceKind::kSmb445, i));
    }
    for (std::uint32_t i = 0; i < 12; ++i) {
      landscape.exploits.push_back(
          proto::make_exploit_template(proto::ServiceKind::kNetbios139, i));
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      landscape.exploits.push_back(
          proto::make_exploit_template(proto::ServiceKind::kDceRpc135, i));
    }
  }

  MalwareFamily& family(const std::string& name) {
    MalwareFamily fam;
    fam.id = static_cast<malware::FamilyId>(landscape.families.size());
    fam.name = name;
    landscape.families.push_back(std::move(fam));
    return landscape.families.back();
  }

  MalwareVariant& variant(MalwareFamily& fam, const std::string& name) {
    MalwareVariant var;
    var.id = static_cast<malware::VariantId>(landscape.variants.size());
    var.family = fam.id;
    var.name = name;
    var.seed = mix64(rng.next() ^ fnv1a64(name));
    landscape.variants.push_back(std::move(var));
    // The family list references the id; note that &landscape.variants
    // .back() stays valid only until the next push -- callers configure
    // the variant before creating another.
    landscape.families[fam.id].variants.push_back(
        landscape.variants.back().id);
    return landscape.variants.back();
  }

  void finalize_template(MalwareVariant& var, PeShape shape) {
    if (shape.target_file_size != 0) {
      // Guarantee the padding target is reachable: section content plus
      // import tables may exceed a small pool size.
      PeShape unpadded = shape;
      unpadded.target_file_size = 0;
      const std::uint32_t natural = static_cast<std::uint32_t>(
          pe::build_pe(malware::make_pe_template(unpadded, var.seed)).size());
      if (shape.target_file_size < natural) {
        shape.target_file_size = (natural + 511) / 512 * 512;
      }
    }
    var.pe_template = malware::make_pe_template(shape, var.seed);
    var.mutable_sections = malware::mutable_section_indices(var.pe_template);
  }

  void add_allaple();
  void add_m13();
  void add_botnets();
  void add_trojans();
  void add_tail();
};

void Builder::add_allaple() {
  family("allaple");
  const std::size_t fam_index = landscape.families.size() - 1;
  int built = 0;
  for (int i = 0; i < kAllapleSizeVariants; ++i) {
    const std::uint32_t size =
        kAllapleBaseSize + 512 * static_cast<std::uint32_t>(i);
    const int relink_builds = i % kAllapleRelinkEvery == 0 ? 2 : 1;
    for (int build = 0; build < relink_builds; ++build) {
      MalwareVariant& var = variant(landscape.families[fam_index],
                                    "allaple-" + std::to_string(i) +
                                        (build ? "b" : "a"));
      PeShape shape;
      shape.section_names = {".text", "rdata", ".data"};
      shape.import_section = 1;
      shape.code_bytes = 2048;
      shape.data_bytes = 1024;
      const auto& linker = pools.linkers[static_cast<std::size_t>(build == 0
                                                                      ? 0
                                                                      : 1 + i % 3)];
      shape.linker_major = linker.first;
      shape.linker_minor = linker.second;
      shape.imports = pools.import_sets[static_cast<std::size_t>(i % 2)];
      shape.target_file_size = size;
      finalize_template(var, shape);

      var.polymorphism = PolymorphismMode::kPerInstance;
      const int group = i % 2;
      var.behavior.kind = BehaviorKind::kWormDos;
      var.behavior.base_features = allaple_base(group);
      var.behavior.noise_probability = kAllapleNoiseProbability;
      var.behavior.noise_feature_count = kAllapleNoiseFeatures;
      var.exploit_index = i % 5 == 4 ? 1 : 0;  // two SMB implementations
      var.payload_index = 0;                   // PUSH tcp/9988
      var.population.spread = PopulationSpec::Spread::kWidespread;
      var.population.host_count =
          20 + static_cast<std::size_t>(rng.index(580));
      var.schedule.kind = ActivitySchedule::Kind::kContinuous;
      var.schedule.start_week = static_cast<int>(rng.index(28));
      var.schedule.end_week = std::min(
          kWeeks, var.schedule.start_week + 22 + static_cast<int>(rng.index(44)));
      var.schedule.weekly_event_rate =
          kAllapleRate * scale *
          static_cast<double>(var.population.host_count) / 100.0;
      var.schedule.seed = var.seed;
      static const char* kSuffix[] = {"A", "B", "C", "D", "E", "F", "G", "H"};
      var.av_name = std::string{"W32.Rahack."} + kSuffix[i % 8];
      ++built;
    }
  }
  (void)built;
}

void Builder::add_m13() {
  MalwareFamily& fam = family("iliketay");
  MalwareVariant& var = variant(fam, "iliketay-dropper");
  PeShape shape;
  shape.section_names = {".text", "rdata", ".data"};
  shape.import_section = 1;
  shape.code_bytes = 2048;
  shape.data_bytes = 1024;
  shape.linker_major = 9;   // linkerversion=92, as in the paper's dump
  shape.linker_minor = 2;
  shape.imports = {{"KERNEL32.dll", {"GetProcAddress", "LoadLibraryA"}}};
  shape.target_file_size = kM13Size;  // size=59904
  finalize_template(var, shape);

  var.polymorphism = PolymorphismMode::kPerSource;
  var.behavior.kind = BehaviorKind::kDownloader;
  var.behavior.base_features = {
      "file|write|C:\\WINDOWS\\system32\\qx32.exe",
      "registry|set|HKLM\\...\\Run\\qx32",
      "mutex|create|iliketaymtx",
      "network|scan|445",
      "file|enum|*.html",
      "file|infect|html-prepend-object",
      "process|create|self-copy",
  };
  var.behavior.downloader =
      malware::DownloaderCnc{"iliketay.cn", 2};
  // Same propagation vector as Allaple/Rahack (Section 4.2).
  var.exploit_index = 0;
  var.payload_index = 0;
  var.population.spread = PopulationSpec::Spread::kWidespread;
  var.population.host_count = 70;
  var.schedule.kind = ActivitySchedule::Kind::kContinuous;
  var.schedule.start_week = 6;
  var.schedule.end_week = kWeeks - 4;
  var.schedule.weekly_event_rate = 0.95 * scale;
  var.schedule.seed = var.seed;
  var.av_name = "Trojan.Iliketay.A";
}

void Builder::add_botnets() {
  // Table 2 ground truth: (server, room, number of patched builds).
  struct Channel {
    const char* server;
    const char* room;
    int builds;
  };
  const std::vector<Channel> table2 = {
      {"67.43.226.242", "#las6", 2}, {"67.43.232.34", "#kok8", 1},
      {"67.43.232.35", "#kok6", 2},  {"67.43.232.36", "#kham", 1},
      {"67.43.232.36", "#kok2", 1},  {"67.43.232.36", "#kok6", 2},
      {"67.43.232.36", "#ns", 1},    {"72.10.172.211", "#las6", 1},
      {"72.10.172.218", "#siwa", 1}, {"83.68.16.6", "#ns", 1},
  };
  // Additional botnets beyond Table 2: servers drawn from a few /24s
  // (co-location) and rooms from a recurring name pool.
  const std::vector<std::string> extra_servers_base = {
      "67.43.232", "67.43.226", "72.10.172", "83.68.16", "194.6.17",
      "210.51.8"};
  const std::vector<std::string> room_pool = {
      "#las2", "#kok1", "#ns2", "#siwa2", "#dpi", "#rx", "#sym", "#fud"};

  std::vector<std::tuple<std::string, std::string, int>> channels;
  for (const Channel& c : table2) channels.emplace_back(c.server, c.room, c.builds);
  for (int i = 0; i < kExtraBotChannels; ++i) {
    const std::string server =
        rng.pick(extra_servers_base) + "." +
        std::to_string(20 + rng.index(200));
    channels.emplace_back(server, rng.pick(room_pool),
                          rng.chance(0.75) ? 2 : 1);
  }

  // Provider networks bot populations live in.
  std::vector<net::Subnet> providers;
  for (int i = 0; i < 12; ++i) {
    const net::WidespreadSampler sampler;
    providers.push_back(net::Subnet{sampler.sample(rng), 16});
  }

  family("ircbot");
  const std::size_t fam_index = landscape.families.size() - 1;
  int channel_index = 0;
  for (const auto& [server, room, builds] : channels) {
    const int kit = channel_index % 3;
    for (int build = 0; build < builds; ++build) {
      MalwareVariant& var =
          variant(landscape.families[fam_index],
                  "bot-" + std::to_string(channel_index) + "-" +
                      std::to_string(build));
      PeShape shape;
      shape.section_names =
          pools.section_sets[(static_cast<std::size_t>(channel_index) * 2 +
                              static_cast<std::size_t>(build)) %
                             pools.section_sets.size()];
      shape.import_section = 1 % shape.section_names.size();
      shape.code_bytes = 1536;
      shape.data_bytes = 1024;
      const auto& linker =
          pools.linkers[static_cast<std::size_t>(channel_index + build) %
                        pools.linkers.size()];
      shape.linker_major = linker.first;
      shape.linker_minor = linker.second;
      shape.imports =
          pools.import_sets[static_cast<std::size_t>(channel_index) %
                            pools.import_sets.size()];
      shape.target_file_size =
          pools.bot_sizes[static_cast<std::size_t>(channel_index + 3 * build) %
                          pools.bot_sizes.size()];
      finalize_template(var, shape);

      var.polymorphism = PolymorphismMode::kNone;
      var.behavior.kind = BehaviorKind::kIrcBot;
      var.behavior.base_features = botkit_base(kit);
      var.behavior.irc =
          malware::IrcCnc{net::Ipv4::parse(server), 6667, room};
      var.exploit_index =
          1 + (static_cast<std::size_t>(channel_index) * 7 + 3) % 34;
      var.payload_index =
          1 + (static_cast<std::size_t>(channel_index) * 5 +
               static_cast<std::size_t>(build)) %
                  (landscape.payloads.size() - 1);
      var.population.spread = PopulationSpec::Spread::kConcentrated;
      var.population.subnets = {
          providers[static_cast<std::size_t>(channel_index) %
                    providers.size()],
          providers[static_cast<std::size_t>(channel_index * 3 + 1) %
                    providers.size()]};
      var.population.host_count = 6 + rng.index(14);
      var.schedule.kind = ActivitySchedule::Kind::kBursty;
      var.schedule.start_week = static_cast<int>(rng.index(48));
      var.schedule.end_week = std::min(
          kWeeks,
          var.schedule.start_week + 12 + static_cast<int>(rng.index(26)));
      var.schedule.weekly_event_rate = (1.5 + rng.real() * 1.8) * scale;
      var.schedule.burst_week_probability = 0.3;
      var.schedule.locations_per_burst = 1 + static_cast<int>(rng.index(2));
      var.schedule.seed = var.seed;
      var.av_name = kit == 0   ? "W32.Spybot.W"
                    : kit == 1 ? "W32.IRCBot.Gen"
                               : "Backdoor.Ranky";
    }
    ++channel_index;
  }
}

void Builder::add_trojans() {
  for (int f = 0; f < kTrojanFamilies; ++f) {
    family("trojan-" + std::to_string(f));
    const std::size_t fam_index = landscape.families.size() - 1;
    std::vector<std::string> base = {
        "file|write|C:\\WINDOWS\\tj" + std::to_string(f) + ".exe",
        "registry|set|HKLM\\...\\Run\\tj" + std::to_string(f),
        "mutex|create|tjmtx" + std::to_string(f),
        "process|create|self-copy",
        "file|delete|self",
        "registry|query|HKLM\\...\\CurrentVersion",
        "file|write|C:\\WINDOWS\\temp\\tj" + std::to_string(f) + ".log",
    };
    const int members = 2 + f % 2;
    for (int v = 0; v < members; ++v) {
      MalwareVariant& var = variant(
          landscape.families[fam_index],
          "trojan-" + std::to_string(f) + "-" + std::to_string(v));
      PeShape shape;
      shape.section_names =
          pools.section_sets[static_cast<std::size_t>(20 + f) %
                             pools.section_sets.size()];
      shape.import_section = 1 % shape.section_names.size();
      shape.code_bytes = 1024;
      shape.data_bytes = 1024;
      const auto& linker = pools.linkers[static_cast<std::size_t>(f + v) %
                                         pools.linkers.size()];
      shape.linker_major = linker.first;
      shape.linker_minor = linker.second;
      shape.imports = pools.import_sets[static_cast<std::size_t>(3 + f) %
                                        pools.import_sets.size()];
      shape.target_file_size =
          pools.bot_sizes[static_cast<std::size_t>(f * 2 + v) %
                          pools.bot_sizes.size()];
      finalize_template(var, shape);

      var.polymorphism = PolymorphismMode::kNone;
      var.behavior.kind = BehaviorKind::kGenericTrojan;
      var.behavior.base_features = base;
      var.exploit_index = 5 + (static_cast<std::size_t>(f) * 3 +
                               static_cast<std::size_t>(v)) %
                                  40;
      var.payload_index =
          4 + (static_cast<std::size_t>(f) + static_cast<std::size_t>(v)) %
                  (landscape.payloads.size() - 4);
      var.population.spread = PopulationSpec::Spread::kWidespread;
      var.population.host_count = 10 + rng.index(30);
      var.schedule.kind = ActivitySchedule::Kind::kContinuous;
      var.schedule.start_week = static_cast<int>(rng.index(40));
      var.schedule.end_week = std::min(
          kWeeks,
          var.schedule.start_week + 10 + static_cast<int>(rng.index(30)));
      var.schedule.weekly_event_rate = (0.25 + rng.real() * 0.3) * scale;
      var.schedule.seed = var.seed;
      var.av_name = "Trojan.Dropper." + std::to_string(f);
    }
  }
}

void Builder::add_tail() {
  family("rare-tail");
  const std::size_t fam_index = landscape.families.size() - 1;
  for (int i = 0; i < kRareTail; ++i) {
    // Shared behavior of this rare codebase; both static builds below
    // exhibit it, so the pair forms one tiny (but multi-sample)
    // B-cluster -- a residue of small, short-lived threats.
    const std::vector<std::string> base = {
        "file|write|C:\\WINDOWS\\rare" + std::to_string(i) + ".exe",
        "registry|set|HKLM\\...\\Run\\rare" + std::to_string(i),
        "mutex|create|rare" + std::to_string(i),
        "network|connect|rare" + std::to_string(i) + ".example:8080",
        "file|write|C:\\WINDOWS\\temp\\r" + std::to_string(i) + ".dat",
        "process|create|cmd.exe",
        "registry|query|HKLM\\...\\ComputerName",
        "file|read|C:\\boot.ini",
        "mutex|create|shield" + std::to_string(i * 17),
        "file|write|C:\\pagefile.tmp" + std::to_string(i),
    };
    for (int build = 0; build < 2; ++build) {
      MalwareVariant& var = variant(
          landscape.families[fam_index],
          "rare-" + std::to_string(i) + (build ? "b" : "a"));
      PeShape shape;
      shape.section_names =
          pools.section_sets[static_cast<std::size_t>(i + 11 * build) %
                             pools.section_sets.size()];
      shape.import_section = 1 % shape.section_names.size();
      shape.code_bytes =
          512 + 256 * static_cast<std::size_t>((i + build) % 4);
      shape.data_bytes = 512;
      const auto& linker =
          pools.linkers[static_cast<std::size_t>(i + build) %
                        pools.linkers.size()];
      shape.linker_major = linker.first;
      shape.linker_minor = linker.second;
      shape.imports = pools.import_sets[static_cast<std::size_t>(i * 5 + build) %
                                        pools.import_sets.size()];
      // Natural size (no padding): tail sizes are idiosyncratic and
      // mostly below the invariant thresholds.
      finalize_template(var, shape);

      var.polymorphism = PolymorphismMode::kNone;
      var.behavior.kind = BehaviorKind::kGenericTrojan;
      var.behavior.base_features = base;
      // The last few implementations exist only in the tail and stay
      // below the FSM-path invariant thresholds.
      var.exploit_index = i < 30
                              ? 8 + static_cast<std::size_t>(i) % 34
                              : 42 + static_cast<std::size_t>(i) % 8;
      var.payload_index = 2 + static_cast<std::size_t>(i * 3) %
                                  (landscape.payloads.size() - 2);
      var.population.spread = PopulationSpec::Spread::kWidespread;
      var.population.host_count = 2 + rng.index(3);
      var.schedule.kind = ActivitySchedule::Kind::kBursty;
      var.schedule.start_week = static_cast<int>(rng.index(kWeeks - 8));
      var.schedule.end_week = var.schedule.start_week + 4;
      var.schedule.weekly_event_rate = (0.3 + rng.real() * 0.6) * scale;
      var.schedule.burst_week_probability = 0.6;
      var.schedule.seed = var.seed;
      var.av_name = "Trojan.Gen." + std::to_string(i % 9);
    }
  }

  // Non-PE residue: HTML droppers, scripts, archives and plain junk
  // occasionally collected by the deployment. They cannot execute
  // (enrichment marks them failed) but contribute the remaining
  // libmagic file-type invariants of Table 1.
  const std::vector<malware::BinaryFormat> oddballs = {
      malware::BinaryFormat::kHtml, malware::BinaryFormat::kScript,
      malware::BinaryFormat::kZip, malware::BinaryFormat::kRawData};
  for (std::size_t i = 0; i < oddballs.size(); ++i) {
    MalwareVariant& var = variant(landscape.families[fam_index],
                                  "oddball-" + std::to_string(i));
    var.format = oddballs[i];
    var.raw_size = 2048 + 512 * static_cast<std::uint32_t>(i);
    var.polymorphism = PolymorphismMode::kNone;
    var.behavior.kind = BehaviorKind::kGenericTrojan;
    var.exploit_index = 3 + i;
    var.payload_index = 4 + i;
    var.population.spread = PopulationSpec::Spread::kWidespread;
    var.population.host_count = 6;
    var.schedule.kind = ActivitySchedule::Kind::kContinuous;
    var.schedule.start_week = static_cast<int>(4 + 6 * i);
    var.schedule.end_week = var.schedule.start_week + 30;
    var.schedule.weekly_event_rate = 0.7 * scale;
    var.schedule.seed = var.seed;
    var.av_name = "(not detected)";
  }
}

}  // namespace

malware::Landscape make_paper_landscape(const ScenarioOptions& options) {
  Builder builder{options};
  builder.add_allaple();
  builder.add_m13();
  builder.add_botnets();
  builder.add_trojans();
  builder.add_tail();
  builder.landscape.validate();
  return std::move(builder.landscape);
}

sandbox::Environment make_paper_environment(
    const malware::Landscape& landscape) {
  sandbox::Environment environment;
  const SimTime start = landscape.start_time;

  // The distribution domain of the downloader family resolves for the
  // first ~60% of the observation window, then disappears from DNS
  // (the paper's footnote: the entry was removed and is now
  // blacklisted).
  for (const malware::MalwareVariant& var : landscape.variants) {
    if (var.behavior.downloader.has_value()) {
      environment.set_dns(
          var.behavior.downloader->domain,
          sandbox::AvailabilityWindow{
              start, add_weeks(start, landscape.weeks * 6 / 10)});
    }
    if (var.behavior.irc.has_value()) {
      // A C&C server is reachable from its botnet's first activity until
      // ~70% through the window; samples collected late are executed
      // after the channel died.
      const int up_from = var.schedule.start_week;
      const int up_to =
          up_from + std::max(1, (var.schedule.end_week - up_from) * 7 / 10);
      const net::Ipv4 server = var.behavior.irc->server;
      // Merge with any window registered by a sibling botnet on the
      // same server: keep the widest span.
      const auto it = environment.servers().find(server);
      SimTime from = add_weeks(start, up_from);
      SimTime to = add_weeks(start, up_to);
      if (it != environment.servers().end()) {
        from = std::min(from, it->second.from);
        to = std::max(to, it->second.to);
      }
      environment.set_server(server, sandbox::AvailabilityWindow{from, to});
    }
  }
  return environment;
}

std::uint64_t scenario_fingerprint(const ScenarioOptions& options) {
  // Serialize every dataset-shaping knob deterministically and digest
  // the bytes. The checkpoint knobs are deliberately excluded: where a
  // snapshot lives must not change what it certifies.
  ByteWriter writer;
  writer.u64(options.seed);
  writer.u64(std::bit_cast<std::uint64_t>(options.scale));
  writer.u64(std::bit_cast<std::uint64_t>(options.b_threshold));
  const fault::FaultPlan& plan = options.faults;
  writer.u64(plan.seed);
  writer.u64(plan.sensor_outages.size());
  for (const fault::SensorOutage& outage : plan.sensor_outages) {
    writer.u32(static_cast<std::uint32_t>(outage.location));
    writer.u32(static_cast<std::uint32_t>(outage.from_week));
    writer.u32(static_cast<std::uint32_t>(outage.to_week));
  }
  writer.u64(std::bit_cast<std::uint64_t>(plan.proxy_failure_probability));
  writer.u32(static_cast<std::uint32_t>(plan.proxy_max_retries));
  writer.u32(static_cast<std::uint32_t>(plan.proxy_backoff_base_seconds));
  writer.u64(std::bit_cast<std::uint64_t>(plan.download_refused_probability));
  writer.u64(
      std::bit_cast<std::uint64_t>(plan.download_corruption_probability));
  writer.u64(std::bit_cast<std::uint64_t>(plan.sandbox_failure_probability));
  writer.u64(std::bit_cast<std::uint64_t>(plan.av_label_gap_probability));
  writer.u64(std::bit_cast<std::uint64_t>(plan.ingest_failure_probability));
  // The serve_* probabilities are deliberately excluded: they shape the
  // query surface of a live daemon, never the dataset a snapshot
  // certifies (same rationale as the checkpoint knobs above).
  return fnv1a64(std::string_view{
      reinterpret_cast<const char*>(writer.data().data()),
      writer.data().size()});
}

/// Publishes the pipeline's outcome counts from the *final* Dataset,
/// so fresh and resumed runs export the same values (restored epochs
/// contribute through their cuts, not by re-running).
void publish_dataset_metrics(obs::MetricsRegistry& metrics,
                             const Dataset& dataset) {
  const auto set = [&](std::string_view name, std::size_t value) {
    metrics.counter(name).add(static_cast<std::uint64_t>(value));
  };
  set("landscape.families", dataset.landscape.families.size());
  set("landscape.variants", dataset.landscape.variants.size());
  set("landscape.exploits", dataset.landscape.exploits.size());
  set("environment.dns_entries", dataset.environment.dns().size());
  set("environment.servers", dataset.environment.servers().size());
  set("pipeline.events", dataset.db.events().size());
  set("pipeline.samples", dataset.db.samples().size());

  set("enrich.submitted", dataset.enrichment.submitted);
  set("enrich.executed", dataset.enrichment.executed);
  set("enrich.failed", dataset.enrichment.failed);
  set("enrich.parse_failures", dataset.enrichment.parse_failures);
  set("enrich.sandbox_faults", dataset.enrichment.sandbox_faults);
  set("enrich.label_gaps", dataset.enrichment.label_gaps);

  set("cluster.e.clusters", dataset.e.cluster_count());
  set("cluster.p.clusters", dataset.p.cluster_count());
  set("cluster.m.clusters", dataset.m.cluster_count());
  set("cluster.b.clusters", dataset.b.cluster_count());
  set("cluster.b.singletons", dataset.b.singleton_count());
  auto& sizes = metrics.histogram("cluster.b.size", {1, 2, 4, 8, 16, 64});
  for (const auto& members : dataset.b.clusters().members) {
    sizes.observe(static_cast<std::uint64_t>(members.size()));
  }

  const fault::FaultReport& faults = dataset.fault_report;
  set("fault.sensor.checked", faults.sensor_checks);
  set("fault.sensor.injected", faults.attacks_lost_to_outage);
  set("fault.proxy.checked", faults.proxy_attempts);
  set("fault.proxy.injected", faults.proxy_failures);
  set("fault.download.checked", faults.download_checks);
  set("fault.download.injected",
      faults.downloads_refused + faults.downloads_corrupted);
  set("fault.sandbox.checked", faults.sandbox_checks);
  set("fault.sandbox.injected", faults.sandbox_failures);
  set("fault.avlabel.checked", faults.av_label_checks);
  set("fault.avlabel.injected", faults.av_label_gaps);
  // Retry-exhaustion and ingest-delivery auditing (all-zero outside
  // fault-injected streaming runs, but always exported so the bench
  // --check tables stay total).
  set("fault.proxy.retry_exhausted", faults.refinements_abandoned);
  set("fault.delivery.checked", faults.delivery_checks);
  set("fault.delivery.injected", faults.delivery_failures);
  set("fault.delivery.retries", faults.delivery_retries);
  set("fault.delivery.retry_exhausted", faults.delivery_retry_exhausted);
  set("fault.delivery.backoff_seconds",
      static_cast<std::size_t>(faults.delivery_backoff_seconds));

  const snapshot::CheckpointStore::Activity& snap =
      dataset.checkpoint_activity;
  set("snapshot.saved", snap.saved);
  set("snapshot.restored", snap.restored);
  set("snapshot.quarantined", snap.quarantined);
  set("snapshot.stale", snap.stale);
  set("snapshot.bytes_written", snap.bytes_written);
}

void publish_pool_metrics(obs::MetricsRegistry& metrics,
                          const ThreadPool& pool,
                          const ThreadPoolMetrics& counters) {
  constexpr auto kRuntime = obs::Channel::kRuntime;
  metrics.gauge("pool.width", kRuntime)
      .set(static_cast<std::int64_t>(pool.width()));
  metrics.counter("pool.jobs", kRuntime).add(counters.jobs.load());
  metrics.counter("pool.chunks", kRuntime).add(counters.chunks.load());
  metrics.counter("pool.caller_chunks", kRuntime)
      .add(counters.caller_chunks.load());
  metrics.counter("pool.helper_chunks", kRuntime)
      .add(counters.helper_chunks.load());
  metrics.gauge("pool.max_queue_depth", kRuntime)
      .raise_to(static_cast<std::int64_t>(counters.max_queue_depth.load()));
}

honeypot::DeploymentConfig make_paper_deployment_config(
    const ScenarioOptions& options, fault::FaultInjector* faults) {
  honeypot::DeploymentConfig config;
  config.seed = options.seed;
  config.download.truncation_probability = kTruncationProbability;
  config.faults = faults;
  return config;
}

EpochClusters cluster_epoch(const honeypot::EventDatabase& db,
                            const ScenarioOptions& options, ThreadPool& pool,
                            obs::TraceRecorder::SpanId parent,
                            const IncrementalClustering* incremental,
                            obs::MetricsRegistry* b_metrics) {
  EpochClusters out;
  const auto epm = [&](cluster::IncrementalEpm* engine,
                       cluster::DimensionData (*build)(
                           const honeypot::EventDatabase&)) {
    return engine != nullptr ? engine->update(db)
                             : cluster::epm_cluster(build(db));
  };
  // Task spans attach to `parent` by id: the Scoped handles below are
  // created on whichever pool thread runs the task, while the parent
  // was opened on the caller's.
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] {
    const obs::TraceRecorder::Scoped span{options.trace, "cluster.e", parent};
    out.epm.e = epm(incremental != nullptr ? &incremental->e : nullptr,
                    cluster::build_epsilon_data);
  });
  tasks.emplace_back([&] {
    const obs::TraceRecorder::Scoped span{options.trace, "cluster.p", parent};
    out.epm.p = epm(incremental != nullptr ? &incremental->p : nullptr,
                    cluster::build_pi_data);
  });
  tasks.emplace_back([&] {
    const obs::TraceRecorder::Scoped span{options.trace, "cluster.m", parent};
    out.epm.m = epm(incremental != nullptr ? &incremental->m : nullptr,
                    cluster::build_mu_data);
  });
  tasks.emplace_back([&] {
    const obs::TraceRecorder::Scoped span{options.trace, "cluster.b", parent};
    cluster::BehavioralOptions behavioral;
    behavioral.threshold = options.b_threshold;
    behavioral.backend = options.b_backend;
    // The behavioral task additionally parallelizes internally (nested
    // submission): idle workers from the cheaper EPM tasks drain its
    // feature-id and signature chunks.
    behavioral.pool = &pool;
    behavioral.metrics = b_metrics;
    cluster::LshLinkage* linkage = nullptr;
    if (incremental != nullptr &&
        options.b_backend == cluster::BackendKind::kLsh) {
      if (!incremental->b) incremental->b.emplace(behavioral);
      linkage = &*incremental->b;
    }
    out.b = analysis::BehavioralView::build(db, behavioral, linkage);
  });
  pool.run_tasks(tasks);
  return out;
}

Dataset build_paper_dataset(const ScenarioOptions& options) {
  options.faults.validate();
  if (!options.checkpoint.directory.empty()) {
    throw ConfigError(
        "build_paper_dataset does not checkpoint; the durable one-shot "
        "build is build_streaming_dataset with epochs = 1 and a WAL "
        "directory");
  }
  Dataset dataset;
  // One pool for the whole build; every consumer produces output
  // byte-identical to the serial path, so the width is a pure
  // throughput knob (and deliberately absent from the fingerprint).
  ThreadPool pool{options.threads};
  ThreadPoolMetrics pool_metrics;
  if (options.metrics != nullptr) pool.attach_metrics(&pool_metrics);

  const obs::TraceRecorder::Scoped pipeline_span{options.trace, "pipeline"};

  // Ground truth. The environment is a pure function of the landscape.
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.landscape",
                                          pipeline_span.id()};
    dataset.landscape = make_paper_landscape(options);
  }
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.environment",
                                          pipeline_span.id()};
    dataset.environment = make_paper_environment(dataset.landscape);
  }

  // Deployment + enrichment. Only hand the deployment an injector when
  // a *pipeline* site can actually fire; an empty plan is equivalent
  // either way (the injector draws no shared randomness), the nullptr
  // path just makes that obvious. Serve-only plans gate on
  // pipeline_empty() so a live daemon's client-fault knobs never
  // perturb fault.*.checked.
  fault::FaultInjector injector{options.faults};
  fault::FaultInjector* faults =
      options.faults.pipeline_empty() ? nullptr : &injector;
  honeypot::Deployment deployment{dataset.landscape,
                                  make_paper_deployment_config(options, faults)};
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.deployment",
                                          pipeline_span.id()};
    // The batch build never logs the samples' bytes: each record's
    // facts enter the database and its bytes are dropped.
    deployment.drain_into(dataset.db);
  }
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.enrichment",
                                          pipeline_span.id()};
    dataset.enrichment = honeypot::enrich_database(
        dataset.db, dataset.landscape, dataset.environment, faults, &pool);
  }
  dataset.fault_report = injector.report();

  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.clustering",
                                          pipeline_span.id()};
    EpochClusters clusters = cluster_epoch(dataset.db, options, pool,
                                           span.id(), nullptr, options.metrics);
    dataset.e = std::move(clusters.epm.e);
    dataset.p = std::move(clusters.epm.p);
    dataset.m = std::move(clusters.epm.m);
    dataset.b = std::move(clusters.b);
  }

  if (options.metrics != nullptr) {
    publish_dataset_metrics(*options.metrics, dataset);
    publish_pool_metrics(*options.metrics, pool, pool_metrics);
  }
  return dataset;
}

}  // namespace repro::scenario
