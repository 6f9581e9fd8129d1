// Trace regression report: aggregates the TRACE_*.json artifacts the
// serving benches export (serve/trace.cpp's magicube.trace.v1 documents)
// into per-span-kind latency percentiles.
//
// CI pipes the stdout markdown into $GITHUB_STEP_SUMMARY after the soak
// benches run, so a reviewer reads p50/p99/max modeled span durations per
// kind (queue, replay, retry, shed, replace, ...) without downloading the
// artifact; --out=FILE.json additionally emits a machine-readable
// magicube.trace_report.v1 document that rides next to the BENCH_*.json
// uploads.
//
// --fail-on-failed-spans[=kind1,kind2] turns the report into a gate: the
// exit code goes nonzero when any listed span kind carries an ok="false"
// span. The default list is just `merge` — a failed merge means a sharded
// request died after its slices ran, which no soak tolerates — because
// chaos artifacts legitimately contain failed `replay` spans (injected
// faults) that must NOT turn CI red. Durations are *modeled* microseconds (end - begin on the
// request's modeled timeline), the same clock the placement and the gates
// reason about — zero-width marker spans (price, place, shed, merge)
// aggregate like everything else, their counts being the interesting part.
//
// --self-test runs the aggregation against an in-process document and is
// registered as the bench-smoke CTest entry (the tool has no recorded
// bars of its own — it reports; the soak gates).
//
// Parsing uses tests/support/json.hpp — the same reader the trace schema
// tests trust, so the report stays honest about well-formedness.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using magicube::testjson::Parser;
using magicube::testjson::Value;

struct KindStats {
  std::size_t spans = 0;             // every span of the kind
  std::vector<double> completed_us;  // durations of spans without ok="false"
  std::size_t failed_spans = 0;      // spans with ok="false"
};

struct Report {
  std::map<std::string, KindStats> kinds;  // ordered for stable output
  std::size_t files = 0;
  std::size_t traces = 0;
  std::size_t traces_failed = 0;
  std::size_t traces_dropped = 0;  // ring-capacity drops reported upstream
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void accumulate_document(const Value& doc, Report* report) {
  const Value* schema = doc.find("schema");
  if (schema == nullptr || schema->str != "magicube.trace.v1") {
    throw std::runtime_error("not a magicube.trace.v1 document");
  }
  const Value* dropped = doc.find("dropped");
  if (dropped != nullptr) {
    report->traces_dropped += static_cast<std::size_t>(dropped->num);
  }
  for (const Value& trace : doc.at("traces").arr) {
    report->traces += 1;
    const Value* ok = trace.find("ok");
    if (ok != nullptr && !ok->b) report->traces_failed += 1;
    for (const Value& span : trace.at("spans").arr) {
      KindStats& ks = report->kinds[span.at("name").str];
      const double begin = span.at("begin").num;
      const double end = span.at("end").num;
      ks.spans += 1;
      bool failed = false;
      const Value* attrs = span.find("attrs");
      if (attrs != nullptr) {
        const Value* span_ok = attrs->find("ok");
        failed = span_ok != nullptr && span_ok->str == "false";
      }
      if (failed) {
        // Failed spans count but never enter the percentile set: a faulted
        // replay's rolled-back duration would skew the latency a reader
        // takes as the completed-work profile.
        ks.failed_spans += 1;
      } else {
        ks.completed_us.push_back((end - begin) * 1e6);
      }
    }
  }
}

bool accumulate_file(const std::string& path, Report* report) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    accumulate_document(Parser(ss.str()).parse(), report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  report->files += 1;
  return true;
}

void print_markdown(const Report& r) {
  std::printf("### Trace regression report\n\n");
  std::printf("%zu file(s), %zu trace(s), %zu failed, %zu dropped by the "
              "ring\n\n",
              r.files, r.traces, r.traces_failed, r.traces_dropped);
  std::printf("| span kind | count | failed | p50 (us) | p99 (us) | max "
              "(us) |\n");
  std::printf("|---|---|---|---|---|---|\n");
  for (const auto& [kind, stats] : r.kinds) {
    std::vector<double> sorted = stats.completed_us;
    std::sort(sorted.begin(), sorted.end());
    // Percentiles cover completed spans only; a kind whose spans all
    // failed still gets a clean zero row (count and failed carry the
    // information), never an out-of-range read.
    std::printf("| %s | %zu | %zu | %.2f | %.2f | %.2f |\n", kind.c_str(),
                stats.spans, stats.failed_spans, percentile(sorted, 0.5),
                percentile(sorted, 0.99), sorted.empty() ? 0.0
                                                         : sorted.back());
  }
  std::printf("\nDurations are modeled microseconds on each request's own "
              "timeline; percentiles cover completed (non-failed) spans.\n");
}

bool write_json(const Report& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trace_report: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"schema\": \"magicube.trace_report.v1\",\n";
  out << "  \"files\": " << r.files << ",\n";
  out << "  \"traces\": " << r.traces << ",\n";
  out << "  \"traces_failed\": " << r.traces_failed << ",\n";
  out << "  \"traces_dropped\": " << r.traces_dropped << ",\n";
  out << "  \"kinds\": {";
  bool first = true;
  for (const auto& [kind, stats] : r.kinds) {
    std::vector<double> sorted = stats.completed_us;
    std::sort(sorted.begin(), sorted.end());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n    \"%s\": {\"count\": %zu, \"failed\": %zu, "
                  "\"p50_us\": %.6g, \"p99_us\": %.6g, \"max_us\": %.6g}",
                  kind.c_str(), stats.spans, stats.failed_spans,
                  percentile(sorted, 0.5), percentile(sorted, 0.99),
                  sorted.empty() ? 0.0 : sorted.back());
    out << (first ? "" : ",") << buf;
    first = false;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

/// Splits a comma-separated kind list ("merge,replay"); empty input
/// yields the default gate set.
std::vector<std::string> parse_gate_kinds(const std::string& list) {
  if (list.empty()) return {"merge"};
  std::vector<std::string> kinds;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) kinds.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) kinds.push_back(cur);
  return kinds;
}

/// ok="false" spans among the gated kinds (the --fail-on-failed-spans
/// verdict).
std::size_t gated_failed_spans(const Report& r,
                               const std::vector<std::string>& kinds) {
  std::size_t n = 0;
  for (const std::string& kind : kinds) {
    const auto it = r.kinds.find(kind);
    if (it != r.kinds.end()) n += it->second.failed_spans;
  }
  return n;
}

/// In-process check of the whole pipeline: parse a known document,
/// aggregate, verify counts and percentiles exactly. Exercised by CTest
/// (bench-smoke label) and safe to run anywhere — no files touched.
int self_test() {
  const std::string doc = R"({
    "schema": "magicube.trace.v1", "engine": "device_pool", "dropped": 2,
    "traces": [
      {"ok": true, "spans": [
        {"name": "queue", "begin": 0, "end": 1e-6},
        {"name": "replay", "begin": 1e-6, "end": 5e-6,
         "attrs": {"ok": "true"}}]},
      {"ok": false, "spans": [
        {"name": "replay", "begin": 0, "end": 3e-6,
         "attrs": {"ok": "false"}},
        {"name": "shed", "begin": 3e-6, "end": 3e-6}]}
    ]})";
  Report r;
  accumulate_document(Parser(doc).parse(), &r);
  auto fail = [](const char* what) {
    std::fprintf(stderr, "trace_report --self-test FAILED: %s\n", what);
    return 1;
  };
  if (r.traces != 2 || r.traces_failed != 1 || r.traces_dropped != 2) {
    return fail("trace counts");
  }
  if (r.kinds.size() != 3 || r.kinds.count("queue") == 0 ||
      r.kinds.count("replay") == 0 || r.kinds.count("shed") == 0) {
    return fail("span kinds");
  }
  const KindStats& replay = r.kinds.at("replay");
  if (replay.spans != 2 || replay.completed_us.size() != 1 ||
      replay.failed_spans != 1) {
    return fail("replay aggregation");
  }
  // Percentiles cover completed spans only: the failed 3us replay stays
  // out of the set, so p50 is the lone completed span's 4us.
  std::vector<double> sorted = replay.completed_us;
  std::sort(sorted.begin(), sorted.end());
  if (std::abs(percentile(sorted, 0.5) - 4.0) > 1e-9 ||
      std::abs(sorted.back() - 4.0) > 1e-9) {
    return fail("replay percentiles");
  }
  if (r.kinds.at("shed").completed_us.front() != 0.0) {
    return fail("zero-width shed span");
  }
  // A kind whose spans ALL failed has an empty percentile set: the report
  // must produce a clean zero row, not an out-of-range read.
  const std::string all_failed_doc = R"({
    "schema": "magicube.trace.v1", "engine": "device_pool",
    "traces": [
      {"ok": false, "spans": [
        {"name": "merge", "begin": 0, "end": 2e-6, "attrs": {"ok": "false"}},
        {"name": "merge", "begin": 2e-6, "end": 5e-6,
         "attrs": {"ok": "false"}}]}
    ]})";
  Report af;
  accumulate_document(Parser(all_failed_doc).parse(), &af);
  const KindStats& af_merge = af.kinds.at("merge");
  if (af_merge.spans != 2 || af_merge.failed_spans != 2 ||
      !af_merge.completed_us.empty()) {
    return fail("all-failed kind aggregation");
  }
  std::vector<double> af_sorted = af_merge.completed_us;
  if (percentile(af_sorted, 0.5) != 0.0 || percentile(af_sorted, 0.99) != 0.0) {
    return fail("all-failed kind percentiles must be a clean zero");
  }
  print_markdown(af);  // must not crash on the empty percentile set
  // An empty TRACE document (no traces at all) aggregates to a report with
  // no kinds and renders cleanly.
  Report empty;
  accumulate_document(
      Parser(R"({"schema": "magicube.trace.v1", "traces": []})").parse(),
      &empty);
  if (empty.traces != 0 || !empty.kinds.empty()) {
    return fail("empty trace document");
  }
  print_markdown(empty);
  // The recovery span kinds aggregate like any other, and the
  // --fail-on-failed-spans gate fires on its listed kinds only: the
  // failed replay above must not trip the default (merge-only) gate, a
  // failed merge must.
  const std::string recovery_doc = R"({
    "schema": "magicube.trace.v1", "engine": "device_pool",
    "traces": [
      {"ok": true, "spans": [
        {"name": "retry", "begin": 0, "end": 2e-6,
         "attrs": {"attempt": "1", "from_device": "0"}},
        {"name": "retry", "begin": 2e-6, "end": 3e-6,
         "attrs": {"attempt": "2", "from_device": "1"}},
        {"name": "replace", "begin": 1e-6, "end": 1e-6,
         "attrs": {"from_device": "2"}}]},
      {"ok": false, "spans": [
        {"name": "merge", "begin": 0, "end": 4e-6,
         "attrs": {"ok": "false"}}]}
    ]})";
  Report h;
  accumulate_document(Parser(recovery_doc).parse(), &h);
  if (h.kinds.at("retry").completed_us.size() != 2 ||
      h.kinds.count("replace") == 0) {
    return fail("recovery span kinds");
  }
  if (gated_failed_spans(r, parse_gate_kinds("")) != 0) {
    return fail("default gate tripped on an injected-fault replay");
  }
  if (gated_failed_spans(h, parse_gate_kinds("")) != 1 ||
      gated_failed_spans(h, parse_gate_kinds("merge,replay")) != 1 ||
      gated_failed_spans(r, parse_gate_kinds("replay")) != 1) {
    return fail("gate kind selection");
  }
  // A malformed document must be rejected, not half-aggregated.
  try {
    Report bad;
    accumulate_document(Parser(R"({"schema": "other", "traces": []})")
                            .parse(), &bad);
    return fail("schema check");
  } catch (const std::exception&) {
  }
  std::printf("trace_report --self-test PASSED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  bool gate_failed_spans = false;
  std::vector<std::string> gate_kinds;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      return self_test();
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--fail-on-failed-spans") == 0) {
      gate_failed_spans = true;
      gate_kinds = parse_gate_kinds("");
    } else if (std::strncmp(argv[i], "--fail-on-failed-spans=", 23) == 0) {
      gate_failed_spans = true;
      gate_kinds = parse_gate_kinds(argv[i] + 23);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--out=FILE.json] [--fail-on-failed-spans[=KINDS]] "
          "TRACE_*.json...\n"
          "       %s --self-test\n"
          "Aggregates magicube.trace.v1 documents into per-span-kind "
          "modeled-latency percentiles (markdown to stdout).\n"
          "--fail-on-failed-spans exits nonzero when a gated span kind "
          "carries ok=\"false\" spans (default gate: merge).\n",
          argv[0], argv[0]);
      return 0;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "trace_report: no input files (try --help)\n");
    return 2;
  }
  Report report;
  bool ok = true;
  for (const std::string& path : inputs) {
    ok = accumulate_file(path, &report) && ok;
  }
  print_markdown(report);
  if (!out_path.empty()) ok = write_json(report, out_path) && ok;
  if (gate_failed_spans) {
    const std::size_t bad = gated_failed_spans(report, gate_kinds);
    std::string joined;
    for (const std::string& k : gate_kinds) {
      joined += (joined.empty() ? "" : ",") + k;
    }
    std::printf("\nfailed-span gate over [%s]: %zu failed span(s) — %s\n",
                joined.c_str(), bad, bad == 0 ? "PASS" : "FAIL");
    ok = ok && bad == 0;
  }
  return ok ? 0 : 1;
}
