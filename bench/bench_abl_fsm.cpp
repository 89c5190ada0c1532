// ABL-4 — ScriptGen FSM learner sensitivity: how the message-clustering
// similarity threshold and the maturity requirement trade off epsilon
// classification quality against the proxying load on the sample
// factory. The SGNET design point (threshold 0.8, maturity 3) should
// classify nearly all events correctly with a small proxied fraction.
//
//   $ bench_abl_fsm --check ../EXPERIMENTS.md
//
// compares the 15 sweep rows (similarity, maturity, proxied %, distinct
// paths, purity %) against the ABL-4 table, both ways; exit 1 on any
// drift, so a change to ScriptGen learning must come with a committed
// update to EXPERIMENTS.md.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gate_table.hpp"
#include "proto/incremental.hpp"
#include "proto/services.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// One sweep row keyed "similarity/maturity"; the value is the other
/// cells, " | "-joined.
using SweepRows = std::map<std::string, std::string>;

void add_sweep_row(SweepRows& rows, const std::vector<std::string>& cells) {
  rows[cells[0] + "/" + cells[1]] =
      repro::join({cells.begin() + 2, cells.end()}, " | ");
}

/// The data rows of the ABL-4 table in EXPERIMENTS.md: the `|` lines of
/// that section whose first cell starts with a digit.
SweepRows read_abl4_table(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw repro::IoError("bench_abl_fsm: cannot open " + path);
  SweepRows rows;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("ABL-4 ") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("|", 0) != 0) continue;
    std::vector<std::string> cells;
    for (const std::string& cell : repro::split(line, '|')) {
      cells.push_back(repro::trim(cell));
    }
    // split keeps the empty fields before the first and after the last bar.
    if (cells.size() < 4) continue;
    cells = {cells.begin() + 1, cells.end() - 1};
    if (cells[0].empty() || cells[0][0] < '0' || cells[0][0] > '9') continue;
    add_sweep_row(rows, cells);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  using namespace repro::proto;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: bench_abl_fsm [--check <EXPERIMENTS.md>]\n";
      return 2;
    }
  }
  std::cout << "### ABL-4: incremental ScriptGen sensitivity\n\n";

  // A stream of attacks: 12 implementations, 60 instances each,
  // interleaved (as the deployment would see them).
  struct Attack {
    int impl;
    Conversation conversation;
    Conversation stripped;
  };
  Rng rng{99};
  std::vector<Attack> stream;
  for (int round = 0; round < 60; ++round) {
    for (int impl = 0; impl < 12; ++impl) {
      const auto tmpl = make_exploit_template(
          ServiceKind::kSmb445, static_cast<std::uint32_t>(impl));
      const auto location = payload_location(tmpl);
      auto conversation = synthesize_attack(
          tmpl, to_bytes("PAYLOAD" + rng.alnum(24)),
          net::Ipv4{static_cast<std::uint32_t>(rng.next())},
          net::Ipv4{10, 0, 0, 1}, rng);
      Attack attack;
      attack.impl = impl;
      attack.stripped = strip_payload(conversation, location);
      attack.conversation = std::move(conversation);
      stream.push_back(std::move(attack));
    }
  }

  TextTable table{{"similarity", "maturity", "proxied %", "distinct paths",
                   "path purity %"}};
  SweepRows sweep;
  for (const double similarity : {0.6, 0.7, 0.8, 0.9, 0.97}) {
    for (const std::size_t maturity : {std::size_t{1}, std::size_t{3},
                                       std::size_t{10}}) {
      IncrementalFsm::Options options;
      options.fsm.similarity_threshold = similarity;
      options.maturity = maturity;
      IncrementalFsm model{445, options};

      std::size_t proxied = 0;
      std::map<int, std::map<std::string, std::size_t>> impl_paths;
      for (const Attack& attack : stream) {
        const auto path = model.match(attack.conversation);
        if (!path.has_value()) {
          ++proxied;
          model.train(attack.stripped);
          continue;
        }
        ++impl_paths[attack.impl][*path];
      }
      // Purity: fraction of matched events whose path is the dominant
      // path of their implementation (path splits/merges lower it).
      std::size_t matched = 0;
      std::size_t dominant = 0;
      std::set<std::string> distinct;
      for (const auto& [impl, paths] : impl_paths) {
        std::size_t best = 0;
        for (const auto& [path, count] : paths) {
          matched += count;
          best = std::max(best, count);
          distinct.insert(path);
        }
        dominant += best;
      }
      std::vector<std::string> cells{
          fixed(similarity, 2), std::to_string(maturity),
          fixed(100.0 * static_cast<double>(proxied) /
                    static_cast<double>(stream.size()),
                1),
          std::to_string(distinct.size()),
          matched > 0 ? fixed(100.0 * static_cast<double>(dominant) /
                                  static_cast<double>(matched),
                              1)
                      : std::string{"-"}};
      add_sweep_row(sweep, cells);
      table.add_row(std::move(cells));
    }
  }
  std::cout << table.render()
            << "\n(12 true implementations; at the SGNET design point the "
               "learner converges to\n~12 distinct paths with high purity "
               "and a proxied fraction near maturity*impls/total.\nLoose "
               "similarity merges implementations; strict similarity "
               "shatters them and\nkeeps proxying; maturity trades early "
               "coverage against factory load)\n";

  if (!check_path.empty()) {
    try {
      if (!bench::rows_match_table("ABL-4", sweep,
                                   read_abl4_table(check_path))) {
        std::cerr << "bench_abl_fsm: ScriptGen learning drifted — update "
                     "the ABL-4 table in EXPERIMENTS.md alongside the "
                     "change\n";
        return 1;
      }
    } catch (const std::exception& error) {
      std::cerr << error.what() << "\n";
      return 1;
    }
    std::cout << "ABL-4 gate: " << sweep.size()
              << " rows match EXPERIMENTS.md\n";
  }
  return 0;
}
