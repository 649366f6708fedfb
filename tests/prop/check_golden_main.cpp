// check_golden: compares a figure binary's --json output against a committed
// baseline with per-metric relative tolerance bands.
//
//   check_golden [--ignore a,b,c] [--tol-scale X] BASELINE CANDIDATE
//                                            exit 0 iff within bands;
//                                            --ignore skips the named fields
//                                            entirely (cross-engine-tier
//                                            comparisons where counts differ
//                                            by construction); --tol-scale
//                                            widens every relative band by X
//                                            (cross-tier runs agree in shape,
//                                            not to same-engine noise levels)
//   check_golden --self-test BASELINE OUT    perturb a copy of BASELINE into
//                                            OUT; exit 0 iff the comparator
//                                            flags the perturbation
//
// The self-test proves the bands actually bite: a comparator that passes
// everything would make every golden test green forever.
#include <cstdio>
#include <cstring>
#include <string>

#include "check/golden.hpp"
#include "durable/wire.hpp"

int main(int argc, char** argv) {
  using namespace pi2::check;
  GoldenOptions options = default_golden_options();

  int arg = 1;
  while (arg + 1 < argc) {
    if (std::strcmp(argv[arg], "--ignore") == 0) {
      std::string list = argv[arg + 1];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string field =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!field.empty()) options.ignore_fields.push_back(field);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      arg += 2;
    } else if (std::strcmp(argv[arg], "--tol") == 0) {
      // --tol NAME=V sets an explicit relative band for one metric; used by
      // cross-tier comparisons to declare, per field, how closely the two
      // engine renderings are required to agree.
      const std::string spec = argv[arg + 1];
      const std::size_t eq = spec.find('=');
      double value = -1.0;
      if (eq == std::string::npos || eq == 0 ||
          !pi2::durable::parse_decimal(spec.substr(eq + 1), value) ||
          !(value >= 0.0)) {
        std::printf("check_golden: --tol expects NAME=VALUE with VALUE >= 0\n");
        return 2;
      }
      options.metric_rel_tol[spec.substr(0, eq)] = value;
      arg += 2;
    } else if (std::strcmp(argv[arg], "--tol-scale") == 0) {
      double scale = 0.0;
      if (!pi2::durable::parse_decimal(argv[arg + 1], scale) || !(scale > 0.0)) {
        std::printf("check_golden: --tol-scale needs a value > 0\n");
        return 2;
      }
      options.default_rel_tol *= scale;
      // Zero-width bands stay zero: machinery-health fields (invariant
      // violations, clamped events) are regressions at any scale.
      for (auto& [metric, tol] : options.metric_rel_tol) tol *= scale;
      arg += 2;
    } else {
      break;
    }
  }

  if (argc - arg == 3 && std::strcmp(argv[arg], "--self-test") == 0) {
    const std::string baseline = argv[arg + 1];
    const std::string out = argv[arg + 2];
    const std::string field = write_perturbed_copy(baseline, out, options);
    if (field.empty()) {
      std::printf("self-test: could not perturb %s\n", baseline.c_str());
      return 1;
    }
    const auto mismatches = compare_golden(baseline, out, options);
    if (mismatches.empty()) {
      std::printf("self-test FAILED: perturbed \"%s\" but the comparator saw "
                  "no mismatch\n",
                  field.c_str());
      return 1;
    }
    std::printf("self-test ok: perturbed \"%s\", comparator flagged %zu "
                "mismatch(es):\n",
                field.c_str(), mismatches.size());
    for (const auto& m : mismatches) std::printf("  %s\n", m.c_str());
    return 0;
  }

  if (argc - arg != 2) {
    std::printf(
        "usage: check_golden [--ignore a,b,c] [--tol NAME=V] [--tol-scale X]\n"
        "                    BASELINE CANDIDATE\n"
        "       check_golden --self-test BASELINE OUT\n");
    return 2;
  }

  const auto mismatches = compare_golden(argv[arg], argv[arg + 1], options);
  if (mismatches.empty()) {
    std::printf("golden ok: %s within tolerance of %s\n", argv[arg + 1],
                argv[arg]);
    return 0;
  }
  std::printf("golden MISMATCH (%zu):\n", mismatches.size());
  for (const auto& m : mismatches) std::printf("  %s\n", m.c_str());
  return 1;
}
