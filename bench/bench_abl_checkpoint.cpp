// ABL-7 — cost of the durable one-shot build. Builds the dataset three
// ways: the plain batch build (no durability), the durable one-shot
// build cold (`--epochs 1 --wal-dir`: every record appended to the WAL,
// one epoch cut written, fsynced and renamed into place), and the same
// command rerun warm (WAL recovered, the cut restored, nothing
// re-clustered). Reports wall time per mode plus the on-disk size of
// the WAL and the cut, and exits 1 unless every export is
// byte-identical to the plain build.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "io/csv_export.hpp"
#include "scenario/stream.hpp"
#include "util/table.hpp"

namespace {

std::string all_csv(const repro::scenario::Dataset& ds) {
  std::ostringstream out;
  repro::io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  repro::io::write_samples_csv(out, ds.db, ds.b);
  repro::io::write_clusters_csv(out, ds.e);
  repro::io::write_clusters_csv(out, ds.p);
  repro::io::write_clusters_csv(out, ds.m);
  return out.str();
}

std::string megabytes(std::uintmax_t bytes) {
  std::ostringstream out;
  out.precision(2);
  out << std::fixed << static_cast<double>(bytes) / (1024.0 * 1024.0)
      << " MiB";
  return out.str();
}

std::uintmax_t directory_bytes(const std::filesystem::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

int main() {
  using namespace repro;
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;

  const scenario::ScenarioOptions base = bench::options_from_env();
  std::cout << "### ABL-7: cost of the durable one-shot build\n"
            << "(seed " << base.seed << ", scale " << base.scale
            << "; building the pipeline plain and with --epochs 1 "
               "--wal-dir...)\n\n";

  const fs::path dir = fs::temp_directory_path() / "repro-abl-checkpoint";
  fs::remove_all(dir);

  struct Timed {
    double seconds = 0.0;
    scenario::Dataset dataset;
  };
  const auto timed = [](auto&& build) {
    const clock::time_point start = clock::now();
    Timed result{0.0, build()};
    result.seconds =
        std::chrono::duration<double>(clock::now() - start).count();
    return result;
  };

  const Timed plain = timed([&] { return scenario::build_paper_dataset(base); });

  scenario::ScenarioOptions durable = base;
  durable.checkpoint.directory = (dir / "ckpt").string();
  scenario::StreamOptions one_shot;
  one_shot.epochs = 1;
  one_shot.wal_dir = (dir / "wal").string();
  const auto stream = [&] {
    return scenario::build_streaming_dataset(durable, one_shot);
  };
  const Timed cold = timed(stream);
  const Timed warm = timed(stream);

  TextTable table{{"mode", "wall time", "vs plain", "saved", "restored"}};
  const auto add = [&](const char* name, const Timed& run) {
    std::ostringstream secs, ratio;
    secs.precision(2);
    secs << std::fixed << run.seconds << " s";
    ratio.precision(2);
    ratio << std::fixed << run.seconds / plain.seconds << "x";
    table.add_row({name, secs.str(), ratio.str(),
                   std::to_string(run.dataset.checkpoint_activity.saved),
                   std::to_string(run.dataset.checkpoint_activity.restored)});
  };
  add("plain batch", plain);
  add("--epochs 1 --wal-dir (cold)", cold);
  add("--epochs 1 --wal-dir (warm resume)", warm);
  std::cout << table.render() << "\n";

  TextTable sizes{{"durable state", "size"}};
  const std::uintmax_t wal = directory_bytes(dir / "wal");
  const std::uintmax_t cut = directory_bytes(dir / "ckpt");
  sizes.add_row({"WAL", megabytes(wal)});
  sizes.add_row({"epoch cut", megabytes(cut)});
  sizes.add_row({"total", megabytes(wal + cut)});
  std::cout << sizes.render() << "\n";

  const bool identical = all_csv(plain.dataset) == all_csv(warm.dataset) &&
                         all_csv(plain.dataset) == all_csv(cold.dataset);
  std::cout << (identical
                    ? "durable exports byte-identical to plain build: yes\n"
                    : "durable exports byte-identical to plain build: NO "
                      "(BUG)\n");
  fs::remove_all(dir);
  return identical ? 0 : 1;
}
