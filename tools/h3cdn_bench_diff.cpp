// h3cdn_bench_diff — compares two directories of schema-v1 BENCH_*.json
// records (as written by the bench binaries into $H3CDN_BENCH_OUT) and exits
// non-zero when any metric moved beyond the noise band. CI wires this after
// the bench-trajectory step so simulation-output regressions fail the build.
//
//   h3cdn_bench_diff BASE_DIR CURRENT_DIR [--noise FRAC] [--abs-floor X]
//                    [--allow-config-mismatch] [--include-wall]
//
// Exit codes: 0 clean, 1 regression (or config mismatch), 2 usage/IO error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "numeric_flag.h"
#include "obs/bench_diff.h"
#include "util/table.h"

using namespace h3cdn;

namespace {

std::vector<obs::BenchRecordInfo> load_dir(const std::filesystem::path& dir, bool* ok) {
  *ok = true;
  std::vector<obs::BenchRecordInfo> records;
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "not a directory: " << dir << '\n';
    *ok = false;
    return records;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    auto record = obs::parse_bench_record(buffer.str(), &error);
    if (!record) {
      std::cerr << file << ": " << error << '\n';
      *ok = false;
      continue;
    }
    records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: " << argv[0]
              << " BASE_DIR CURRENT_DIR [--noise FRAC] [--abs-floor X]"
                 " [--allow-config-mismatch] [--include-wall]\n";
    return 2;
  }
  obs::BenchDiffOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--noise" && i + 1 < argc) {
      const auto value = tools::parse_number<double>(arg, argv[++i], tools::kNonNegative);
      if (!value) return 2;
      options.noise_frac = *value;
    } else if (arg == "--abs-floor" && i + 1 < argc) {
      const auto value = tools::parse_number<double>(arg, argv[++i], tools::kNonNegative);
      if (!value) return 2;
      options.abs_floor = *value;
    } else if (arg == "--allow-config-mismatch") {
      options.require_matching_config = false;
    } else if (arg == "--include-wall") {
      options.skip_wall_metrics = false;
    } else {
      std::cerr << "unknown option: " << arg << '\n';
      return 2;
    }
  }

  bool base_ok = false;
  bool cur_ok = false;
  const auto base = load_dir(argv[1], &base_ok);
  const auto current = load_dir(argv[2], &cur_ok);
  if (!base_ok || !cur_ok) return 2;
  if (base.empty()) {
    std::cerr << "no BENCH_*.json records in " << argv[1] << '\n';
    return 2;
  }

  const auto report = obs::diff_bench_records(base, current, options);

  std::cout << "compared " << report.benches_compared << " benches, "
            << report.deltas.size() << " metrics (noise band "
            << util::fmt_pct(options.noise_frac) << ")\n";
  for (const auto& note : report.skipped) std::cout << "  skip: " << note << '\n';
  for (const auto& bench : report.config_mismatches) {
    std::cout << "  config hash mismatch: " << bench << '\n';
  }

  util::AsciiTable t({"bench", "metric", "base", "current", "change", "verdict"});
  for (const auto& d : report.deltas) {
    if (!d.flagged && std::abs(d.rel_change) <= options.noise_frac / 2) continue;
    t.add_row({d.bench, d.metric, util::fmt(d.base, 3), util::fmt(d.current, 3),
               util::fmt_pct(d.rel_change), d.flagged ? "REGRESSION" : "ok"});
  }
  std::cout << t.to_string();

  if (!report.clean(options)) {
    std::cout << "FAIL: " << report.flagged_count() << " metric(s) beyond noise band";
    if (!report.config_mismatches.empty()) {
      std::cout << ", " << report.config_mismatches.size() << " config mismatch(es)";
    }
    std::cout << '\n';
    return 1;
  }
  std::cout << "OK: all metrics within noise band\n";
  return 0;
}
