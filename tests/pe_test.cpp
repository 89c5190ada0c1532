// Unit tests for the pe module: builder/parser roundtrips, file-type
// detection, and robustness against truncation.
#include <gtest/gtest.h>

#include "pe/builder.hpp"
#include "pe/filetype.hpp"
#include "pe/image.hpp"
#include "pe/parser.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace repro::pe {
namespace {

PeTemplate basic_template() {
  PeTemplate tmpl;
  tmpl.sections.push_back(
      SectionSpec{".text", kSectionCode | kSectionExecute | kSectionRead,
                  std::vector<std::uint8_t>(3000, 0x90), false});
  tmpl.sections.push_back(
      SectionSpec{"rdata", kSectionInitializedData | kSectionRead, {}, true});
  tmpl.sections.push_back(SectionSpec{
      ".data", kSectionInitializedData | kSectionRead | kSectionWrite,
      std::vector<std::uint8_t>(1000, 0xcc), false});
  tmpl.imports.push_back(
      ImportSpec{"KERNEL32.dll", {"GetProcAddress", "LoadLibraryA"}});
  tmpl.imports.push_back(ImportSpec{"WS2_32.dll", {"socket", "connect"}});
  return tmpl;
}

TEST(PeBuilder, RoundTripHeaders) {
  PeTemplate tmpl = basic_template();
  tmpl.linker_major = 9;
  tmpl.linker_minor = 2;
  tmpl.os_major = 6;
  tmpl.os_minor = 4;
  tmpl.timestamp = 0x12345678;
  const auto image = build_pe(tmpl);
  const PeInfo info = parse_pe(image);
  EXPECT_EQ(info.machine, kMachineI386);
  EXPECT_EQ(info.machine, 332);  // decimal rendering used by the paper
  EXPECT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.linker_version(), 92);
  EXPECT_EQ(info.os_version(), 64);
  EXPECT_EQ(info.subsystem, kSubsystemGui);
  EXPECT_EQ(info.timestamp, 0x12345678u);
}

TEST(PeBuilder, RoundTripSections) {
  const auto image = build_pe(basic_template());
  const PeInfo info = parse_pe(image);
  EXPECT_EQ(info.sections[0].raw_name, (std::string{".text\0\0\0", 8}));
  EXPECT_EQ(info.sections[0].virtual_size, 3000u);
  EXPECT_EQ(info.sections[2].virtual_size, 1000u);
  // Raw layout is file-aligned and non-overlapping.
  for (std::size_t i = 1; i < info.sections.size(); ++i) {
    EXPECT_GE(info.sections[i].raw_offset,
              info.sections[i - 1].raw_offset + info.sections[i - 1].raw_size);
  }
}

TEST(PeBuilder, RoundTripImports) {
  const auto image = build_pe(basic_template());
  const PeInfo info = parse_pe(image);
  ASSERT_EQ(info.imports.size(), 2u);
  EXPECT_EQ(info.imports[0].dll, "KERNEL32.dll");
  EXPECT_EQ(info.imports[0].symbols,
            (std::vector<std::string>{"GetProcAddress", "LoadLibraryA"}));
  EXPECT_EQ(info.imports[1].dll, "WS2_32.dll");
  EXPECT_EQ(info.kernel32_symbols(),
            (std::vector<std::string>{"GetProcAddress", "LoadLibraryA"}));
  EXPECT_EQ(info.dll_count(), 2u);
}

TEST(PeBuilder, TargetFileSizeExact) {
  PeTemplate tmpl = basic_template();
  tmpl.target_file_size = 59904;
  EXPECT_EQ(build_pe(tmpl).size(), 59904u);
}

TEST(PeBuilder, UnreachableTargetThrows) {
  PeTemplate tmpl = basic_template();
  tmpl.target_file_size = 512;  // smaller than headers + content
  EXPECT_THROW(build_pe(tmpl), ConfigError);
  tmpl.target_file_size = natural_size(basic_template()) + 100;  // unaligned
  EXPECT_THROW(build_pe(tmpl), ConfigError);
}

TEST(PeBuilder, NaturalSizeMatchesUnpaddedBuild) {
  PeTemplate tmpl = basic_template();
  EXPECT_EQ(natural_size(tmpl), build_pe(tmpl).size());
  tmpl.target_file_size = 59904;
  EXPECT_LT(natural_size(tmpl), 59904u);
}

TEST(PeBuilder, RequiresSections) {
  PeTemplate tmpl;
  EXPECT_THROW(build_pe(tmpl), ConfigError);
}

TEST(PeBuilder, ImportsNeedExactlyOneHolder) {
  PeTemplate tmpl = basic_template();
  tmpl.sections[0].holds_imports = true;  // now two holders
  EXPECT_THROW(build_pe(tmpl), ConfigError);
  tmpl.sections[0].holds_imports = false;
  tmpl.sections[1].holds_imports = false;  // now zero holders
  EXPECT_THROW(build_pe(tmpl), ConfigError);
}

TEST(PeBuilder, NoImportsIsValid) {
  PeTemplate tmpl;
  tmpl.sections.push_back(
      SectionSpec{".text", kSectionCode | kSectionExecute,
                  std::vector<std::uint8_t>(100, 0x90), false});
  const PeInfo info = parse_pe(build_pe(tmpl));
  EXPECT_TRUE(info.imports.empty());
  EXPECT_TRUE(info.kernel32_symbols().empty());
}

TEST(PeBuilder, ConsoleSubsystem) {
  PeTemplate tmpl = basic_template();
  tmpl.subsystem = kSubsystemConsole;
  EXPECT_EQ(parse_pe(build_pe(tmpl)).subsystem, kSubsystemConsole);
}

TEST(PeBuilder, DeterministicOutput) {
  EXPECT_EQ(build_pe(basic_template()), build_pe(basic_template()));
}

TEST(PeParser, LooksLikePe) {
  const auto image = build_pe(basic_template());
  EXPECT_TRUE(looks_like_pe(image));
  EXPECT_FALSE(looks_like_pe(std::vector<std::uint8_t>{1, 2, 3}));
  std::vector<std::uint8_t> mz(128, 0);
  mz[0] = 'M';
  mz[1] = 'Z';
  EXPECT_FALSE(looks_like_pe(mz));  // no PE signature
}

TEST(PeParser, RejectsGarbage) {
  const std::vector<std::uint8_t> junk(200, 0x41);
  EXPECT_THROW(parse_pe(junk), ParseError);
}

TEST(PeParser, RejectsEmptyInput) {
  EXPECT_THROW(parse_pe(std::vector<std::uint8_t>{}), ParseError);
}

/// Truncating a valid image at any point must either parse (when only
/// trailing padding was lost) or throw ParseError — never crash or
/// misreport.
TEST(PeParser, TruncationSweepNeverCrashes) {
  const auto image = build_pe(basic_template());
  Rng rng{99};
  int parse_failures = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t keep = 1 + rng.index(image.size() - 1);
    const std::span<const std::uint8_t> prefix{image.data(), keep};
    try {
      const PeInfo info = parse_pe(prefix);
      // If it parsed, the section table must have been intact.
      EXPECT_EQ(info.sections.size(), 3u);
    } catch (const ParseError&) {
      ++parse_failures;
    }
  }
  EXPECT_GT(parse_failures, 0);
}

TEST(PeParser, TruncationInsideSectionDataThrows) {
  const auto image = build_pe(basic_template());
  const PeInfo info = parse_pe(image);
  // Cut in the middle of the first section's raw data.
  const std::size_t cut = info.sections[0].raw_offset + 10;
  EXPECT_THROW(
      parse_pe(std::span<const std::uint8_t>{image.data(), cut}),
      ParseError);
}

TEST(FileType, DetectsPeGui) {
  EXPECT_EQ(detect_file_type(build_pe(basic_template())),
            "MS-DOS executable PE for MS Windows (GUI) Intel 80386 32-bit");
}

TEST(FileType, DetectsPeConsole) {
  PeTemplate tmpl = basic_template();
  tmpl.subsystem = kSubsystemConsole;
  EXPECT_EQ(detect_file_type(build_pe(tmpl)),
            "MS-DOS executable PE for MS Windows (console) Intel 80386 "
            "32-bit");
}

TEST(FileType, TruncatedPeFallsBackToMsDos) {
  const auto image = build_pe(basic_template());
  // Keep the headers but cut section data.
  const std::span<const std::uint8_t> prefix{image.data(), 600};
  EXPECT_EQ(detect_file_type(prefix), "MS-DOS executable");
}

struct TypeCase {
  const char* content;
  const char* expected;
};

// Names each case after its expected type. gtest would otherwise print the
// two pointers' bytes, and the discovered test names would change with
// every load address.
void PrintTo(const TypeCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.expected);
}

class FileTypeSignatures : public ::testing::TestWithParam<TypeCase> {};

TEST_P(FileTypeSignatures, Detects) {
  const auto& [content, expected] = GetParam();
  const std::string text{content};
  const std::vector<std::uint8_t> bytes{text.begin(), text.end()};
  EXPECT_EQ(detect_file_type(bytes), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Magic, FileTypeSignatures,
    ::testing::Values(TypeCase{"<html><body>x</body></html>",
                               "HTML document text"},
                      TypeCase{"#!/bin/sh\necho", "script text executable"},
                      TypeCase{"PK\x03\x04junk", "Zip archive data"},
                      TypeCase{"\x7f"
                               "ELFjunkjunk",
                               "ELF 32-bit LSB executable"},
                      TypeCase{"random stuff", "data"}));

TEST(FileType, Empty) {
  EXPECT_EQ(detect_file_type(std::vector<std::uint8_t>{}), "empty");
}

/// Property sweep: roundtrip across randomized shapes.
class PeShapeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PeShapeSweep, RoundTrips) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  PeTemplate tmpl;
  const std::size_t nsections = 1 + rng.index(6);
  const std::size_t import_holder = rng.index(nsections);
  for (std::size_t i = 0; i < nsections; ++i) {
    SectionSpec section;
    section.name = "s" + std::to_string(i);
    section.characteristics =
        i == 0 ? (kSectionCode | kSectionExecute) : kSectionInitializedData;
    section.content.resize(rng.index(5000));
    rng.fill(section.content);
    section.holds_imports = i == import_holder;
    tmpl.sections.push_back(std::move(section));
  }
  const std::size_t ndlls = rng.index(4);
  for (std::size_t d = 0; d < ndlls; ++d) {
    ImportSpec import;
    import.dll = "DLL" + std::to_string(d) + ".dll";
    const std::size_t nsyms = 1 + rng.index(6);
    for (std::size_t s = 0; s < nsyms; ++s) {
      import.symbols.push_back("Sym" + std::to_string(s) + rng.alnum(3));
    }
    tmpl.imports.push_back(std::move(import));
  }
  tmpl.linker_major = static_cast<std::uint8_t>(rng.index(12));
  tmpl.linker_minor = static_cast<std::uint8_t>(rng.index(10));

  const auto image = build_pe(tmpl);
  const PeInfo info = parse_pe(image);
  EXPECT_EQ(info.sections.size(), nsections);
  EXPECT_EQ(info.imports.size(), ndlls);
  EXPECT_EQ(info.linker_major, tmpl.linker_major);
  EXPECT_EQ(info.linker_minor, tmpl.linker_minor);
  for (std::size_t d = 0; d < ndlls; ++d) {
    EXPECT_EQ(info.imports[d].dll, tmpl.imports[d].dll);
    EXPECT_EQ(info.imports[d].symbols, tmpl.imports[d].symbols);
  }
  // Section content integrity: the bytes written are the bytes stored.
  for (std::size_t i = 0; i < nsections; ++i) {
    if (tmpl.sections[i].holds_imports) continue;
    const SectionInfo& parsed = info.sections[i];
    ASSERT_LE(parsed.raw_offset + tmpl.sections[i].content.size(),
              image.size());
    for (std::size_t k = 0; k < tmpl.sections[i].content.size(); ++k) {
      ASSERT_EQ(image[parsed.raw_offset + k], tmpl.sections[i].content[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, PeShapeSweep, ::testing::Range(0, 25));

TEST(PeInfo, Kernel32MatchIsCaseInsensitive) {
  PeTemplate tmpl = basic_template();
  tmpl.imports[0].dll = "kernel32.DLL";
  const PeInfo info = parse_pe(build_pe(tmpl));
  EXPECT_EQ(info.kernel32_symbols().size(), 2u);
}

TEST(PeBuilder, PolymorphicRebuildKeepsSizeAndHeaders) {
  // The Allaple property: mutate section content, keep size + headers.
  PeTemplate tmpl = basic_template();
  tmpl.target_file_size = 8192;
  const auto image_a = build_pe(tmpl);
  Rng rng{123};
  rng.fill(tmpl.sections[0].content);
  rng.fill(tmpl.sections[2].content);
  const auto image_b = build_pe(tmpl);
  EXPECT_NE(image_a, image_b);
  EXPECT_NE(Md5::digest(image_a), Md5::digest(image_b));
  EXPECT_EQ(image_a.size(), image_b.size());
  const PeInfo a = parse_pe(image_a);
  const PeInfo b = parse_pe(image_b);
  EXPECT_EQ(a.sections.size(), b.sections.size());
  EXPECT_EQ(a.linker_version(), b.linker_version());
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    EXPECT_EQ(a.sections[i].raw_name, b.sections[i].raw_name);
  }
}

}  // namespace
}  // namespace repro::pe
