// Static analysis on one synthetic sample: build a PE the way the
// landscape does, then inspect it with the parser, the libmagic-style
// detector, the peHash baseline, and the EPM mu features — the same
// toolchain the clustering pipeline runs on every collected binary.
//
//   $ ./pe_inspect
#include <iostream>

#include "cluster/feature.hpp"
#include "cluster/pehash.hpp"
#include "malware/binary.hpp"
#include "malware/landscape.hpp"
#include "pe/filetype.hpp"
#include "pe/parser.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"
#include "util/strings.hpp"

int main() {
  using namespace repro;

  // The paper's "M-cluster 13" shape: 59904 bytes, 3 sections,
  // KERNEL32-only imports, linker 9.2.
  malware::MalwareVariant variant;
  variant.name = "demo";
  variant.seed = 2024;
  variant.polymorphism = malware::PolymorphismMode::kPerSource;
  malware::PeShape shape;
  shape.section_names = {".text", "rdata", ".data"};
  shape.import_section = 1;
  shape.imports = {{"KERNEL32.dll", {"GetProcAddress", "LoadLibraryA"}}};
  shape.target_file_size = 59904;
  variant.pe_template = malware::make_pe_template(shape, variant.seed);
  variant.mutable_sections =
      malware::mutable_section_indices(variant.pe_template);

  const auto binary =
      malware::realize_binary(variant, net::Ipv4{81, 57, 112, 9}, 0);

  std::cout << "== header bytes ==\n";
  std::cout << hex_encode(std::span<const std::uint8_t>{binary.data(), 64})
            << "...\n\n";

  std::cout << "== parsed structure ==\n";
  const pe::PeInfo info = pe::parse_pe(binary);
  std::cout << "machine: " << info.machine << " (0x" << std::hex
            << info.machine << std::dec << ")\n"
            << "linker:  " << static_cast<int>(info.linker_major) << "."
            << static_cast<int>(info.linker_minor) << "\n"
            << "os:      " << info.os_major << "." << info.os_minor << "\n";
  for (const pe::SectionInfo& section : info.sections) {
    std::cout << "section '" << escape_bytes(section.raw_name) << "' vsize "
              << section.virtual_size << " raw " << section.raw_size << " @ "
              << section.raw_offset << "\n";
  }
  for (const pe::ImportInfo& import : info.imports) {
    std::cout << "imports " << import.dll << ":";
    for (const auto& symbol : import.symbols) std::cout << " " << symbol;
    std::cout << "\n";
  }

  std::cout << "\n== identification ==\n";
  std::cout << "md5:    " << Md5::hex_digest(binary) << "\n"
            << "type:   " << pe::detect_file_type(binary) << "\n"
            << "pehash: " << cluster::pehash(binary).value_or("(n/a)")
            << "\n";

  std::cout << "\n== EPM mu features (Table 1) ==\n";
  honeypot::MalwareSample sample;
  sample.facts = honeypot::SampleFacts::of(binary);
  sample.md5 = Md5::hex_digest(binary);
  const auto features = cluster::extract_mu(sample);
  const auto schema = cluster::mu_schema();
  for (std::size_t f = 0; f < schema.size(); ++f) {
    std::cout << "  " << schema.names[f] << " = " << features.values[f]
              << "\n";
  }

  std::cout << "\n== per-source polymorphism ==\n";
  const auto same_source =
      malware::realize_binary(variant, net::Ipv4{81, 57, 112, 9}, 7);
  const auto other_source =
      malware::realize_binary(variant, net::Ipv4{9, 8, 7, 6}, 0);
  std::cout << "same source again:  " << Md5::hex_digest(same_source)
            << (same_source == binary ? "  (identical)" : "  (DIFFERENT?)")
            << "\n"
            << "different source:   " << Md5::hex_digest(other_source)
            << (other_source != binary ? "  (mutated)" : "  (SAME?)") << "\n"
            << "pehash of mutated:  "
            << cluster::pehash(other_source).value_or("(n/a)")
            << (cluster::pehash(other_source) == cluster::pehash(binary)
                    ? "  (structure unchanged)"
                    : "  (structure changed?)")
            << "\n";
  return 0;
}
