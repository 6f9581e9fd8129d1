#pragma once
// Shared helpers for the figure/table reproduction benches: TOP/s math,
// geometric-mean accumulation, and aligned table printing.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace magicube::bench {

/// Command-line options shared by every bench binary. `--smoke` shrinks the
/// sweep to a sub-second sanity pass (one sparsity level, a handful of
/// matrices, tiny panels) so CTest can exercise each binary on every commit
/// (the `bench-smoke` label); the default run reproduces the full figure.
struct Options {
  bool smoke = false;
};

inline Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: %s [--smoke]\n"
                  "  --smoke  tiny shapes / single sweep point, < 1 s\n",
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

/// The DLMC sweep bounds every figure bench shares: one sparsity level and a
/// handful of matrices under --smoke, the full collection otherwise.
inline std::vector<double> dlmc_levels(const Options& opt,
                                       const std::vector<double>& full) {
  return opt.smoke ? std::vector<double>{0.9} : full;
}
inline std::size_t dlmc_matrices_per_level(const Options& opt) {
  return opt.smoke ? 4 : 256;
}

inline double tops(std::uint64_t useful_ops, double seconds) {
  return static_cast<double>(useful_ops) / seconds / 1e12;
}

/// Geometric mean with max tracking (the paper reports "on average
/// (geometric mean) ... (up to ...)").
struct GeoMean {
  double log_sum = 0.0;
  std::size_t n = 0;
  double max_value = 0.0;

  void add(double v) {
    if (v <= 0.0) return;
    log_sum += std::log(v);
    n += 1;
    if (v > max_value) max_value = v;
  }
  double mean() const { return n == 0 ? 0.0 : std::exp(log_sum / n); }
};

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      w[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c) {
        if (r[c].size() > w[c]) w[c] = r[c].size();
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < w.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(w[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < w.size(); ++c) {
      std::printf("%s|", std::string(w[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Recorded-baseline bar sheet: a flat {"key": number} JSON object in
/// bench/baselines/, read with the tests' JSON parser. Shared by every bench
/// that gates against recorded bars; bars rise by re-recording, never by
/// editing a gate.
struct Baselines {
  bool loaded = false;  // the file was read and parsed as a JSON object
  std::string path;
  testjson::Value doc;

  /// Reads key's number; clears *ok on a missing key or non-number value
  /// (the caller fails its gate cleanly instead of throwing).
  double get(const std::string& key, bool* ok) const {
    const testjson::Value* v = doc.find(key);
    if (v == nullptr || v->kind != testjson::Value::Kind::number) {
      *ok = false;
      return 0;
    }
    return v->num;
  }
};

inline Baselines load_baselines(const std::string& dir,
                                const std::string& file) {
  Baselines b;
  b.path = dir + "/" + file;
  std::ifstream in(b.path);
  if (!in) return b;
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    b.doc = testjson::parse(ss.str());
  } catch (const std::runtime_error&) {
    return b;
  }
  b.loaded = b.doc.is_object();
  return b;
}

}  // namespace magicube::bench
