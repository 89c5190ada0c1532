// The EXPERIMENTS.md gates of the bench harnesses. A `--check` run
// reruns its bench and requires the rows it measures to equal the
// committed table of its section, both ways, so a change that moves a
// pinned figure must come with the table's update.
#pragma once

#include <cctype>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::bench {

/// The "| `name` | value |" rows of the EXPERIMENTS.md section whose
/// heading names `gate` (e.g. "ABL-9").
inline std::map<std::string, std::uint64_t> read_counter_table(
    const std::string& path, std::string_view gate) {
  std::ifstream in{path};
  if (!in) {
    throw IoError(std::string{gate} + " gate: cannot open " + path);
  }
  std::map<std::string, std::uint64_t> table;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find(gate) != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("|", 0) != 0) continue;
    const std::size_t tick_open = line.find('`');
    if (tick_open == std::string::npos) continue;
    const std::size_t tick_close = line.find('`', tick_open + 1);
    if (tick_close == std::string::npos) continue;
    const std::string name =
        line.substr(tick_open + 1, tick_close - tick_open - 1);
    const std::size_t bar = line.find('|', tick_close);
    if (bar == std::string::npos) continue;
    std::size_t begin = bar + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    std::size_t end = begin;
    while (end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[end])) != 0) {
      ++end;
    }
    if (end == begin) continue;
    table[name] = parse_u64(line.substr(begin, end - begin),
                            std::string{gate} + " row " + name);
  }
  return table;
}

/// Strict two-way comparison of the measured rows against the table;
/// prints every discrepancy, prefixed "<gate> gate:".
template <typename Value>
bool rows_match_table(std::string_view gate,
                      const std::map<std::string, Value>& measured,
                      const std::map<std::string, Value>& table) {
  bool ok = true;
  for (const auto& [name, value] : measured) {
    const auto it = table.find(name);
    if (it == table.end()) {
      std::cerr << gate << " gate: row '" << name << "' (= " << value
                << ") is missing from the table\n";
      ok = false;
    } else if (it->second != value) {
      std::cerr << gate << " gate: row '" << name << "' measured " << value
                << " but the table says " << it->second << "\n";
      ok = false;
    }
  }
  for (const auto& [name, value] : table) {
    if (measured.count(name) == 0) {
      std::cerr << gate << " gate: table row '" << name
                << "' was not produced by this run\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace repro::bench
