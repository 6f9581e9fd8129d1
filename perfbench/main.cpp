// perfbench_serve: the repository's serving benchmark.
//
//   perfbench_serve --workload NAME --seed N --seconds S --trace 0|1
//                   --light-rps R --busy-rps R --slo-ms MS [--quick]
//                   [--spans-out PATH]
//
// One generator thread drives the workload through the public serving API
// (serve::DevicePool::submit and serve::TokenSession::step) in three
// phases: a closed loop with at most nproc requests in flight, then open
// loops at the workload's light and busy rates. Every response is compared
// bit-exact against the reference computed at set-up. Completion is observed
// by a pool of waiter threads, each blocked on one future, so a response is
// timestamped when it becomes ready, not when the generator gets round to
// it. With --trace 1 a separate traced pass follows (traced.cpp).
//
// Output: a human-readable report, then one line `PERFBENCH_RESULT {json}`
// holding every metric with its unit, the phase accounting and the host
// fingerprint. Exits 1 on any bit-exactness mismatch.

#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "simt/tensor_core.hpp"

namespace perfbench {
namespace {

// ---- host fingerprint -------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

/// The ISA tier the panel kernels dispatch to, probed with the same checks
/// src/simt/tensor_core.cpp makes.
std::string isa_tier() {
  if (!simt::simd_enabled()) return "base";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return "avx512";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "base";
#elif defined(__aarch64__)
  return "neon";
#else
  return "base";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---- completion observation -------------------------------------------------

/// What the generator needs to know about one sent request once it is done.
struct Done {
  int slot = -1;  // session slot, -1 for matrix requests
  Clock::time_point due;
  Clock::time_point at;
  bool ok = false;
  bool failed = false;
  bool shed = false;
  bool mismatch = false;
  // Cache flags of the response, for the per-slot hit rates (only counted
  // when the slot is cacheable).
  int lhs_cacheable = 0, lhs_hit = 0, rhs_cacheable = 0, rhs_hit = 0;
};

struct Job {
  std::future<serve::Response> fut;
  Done done;
  const MatrixItem* item = nullptr;   // matrix request
  const Matrix<float>* ref = nullptr;  // session step
};

/// Waiter threads: each takes one job, blocks on its future, timestamps the
/// completion and checks the output, then reports to the generator.
class Observer {
 public:
  explicit Observer(std::size_t threads) {
    for (std::size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }
  ~Observer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    jobs_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void watch(Job job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(std::move(job));
    }
    jobs_cv_.notify_one();
  }

  /// Next completion, or nothing once `deadline` passes.
  std::optional<Done> next(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!done_cv_.wait_until(lock, deadline, [this] { return !done_.empty(); })) {
      return std::nullopt;
    }
    Done d = done_.front();
    done_.pop_front();
    return d;
  }

 private:
  void loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        jobs_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      Done d = job.done;
      try {
        const serve::Response resp = job.fut.get();
        d.at = Clock::now();
        if (job.item != nullptr) {
          d.mismatch = !response_matches(*job.item, resp);
          const serve::Request& r = job.item->req;
          d.lhs_cacheable = r.op == serve::OpKind::spmm || r.lhs_id != 0;
          d.rhs_cacheable = r.rhs_id != 0;
        } else {
          d.mismatch = !resp.graph || !(resp.graph->out == *job.ref);
          d.lhs_cacheable = d.rhs_cacheable = 1;
        }
        d.lhs_hit = resp.lhs_cache_hit;
        d.rhs_hit = resp.rhs_cache_hit;
        d.ok = !d.mismatch;
      } catch (const serve::ShedError&) {
        d.at = Clock::now();
        d.shed = true;
      } catch (const std::exception&) {
        d.at = Clock::now();
        d.failed = true;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.push_back(d);
      }
      done_cv_.notify_one();
    }
  }

  std::mutex mutex_;  // guards jobs_, done_, stop_
  std::condition_variable jobs_cv_, done_cv_;
  std::deque<Job> jobs_;
  std::deque<Done> done_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joins before the rest dies
};

// ---- phases -----------------------------------------------------------------

struct PhaseStats {
  std::string name;
  double seconds = 0.0;
  double rate = 0.0;  // offered rate (open loops), 0 = closed loop
  std::uint64_t sent = 0, ok = 0, failed = 0, shed = 0, mismatched = 0;
  std::uint64_t ok_in_window = 0;  // closed loop: completions before the end
  std::uint64_t within_slo = 0;
  std::vector<double> latency_ms;  // successful requests, from the due time
  std::vector<double> lateness_ms;  // send time minus due time
};

/// Folds one round of a phase into the phase's running totals.
void merge(PhaseStats& into, const PhaseStats& st) {
  into.name = st.name;
  into.seconds += st.seconds;
  into.rate = st.rate;
  into.sent += st.sent;
  into.ok += st.ok;
  into.failed += st.failed;
  into.shed += st.shed;
  into.mismatched += st.mismatched;
  into.ok_in_window += st.ok_in_window;
  into.within_slo += st.within_slo;
  into.latency_ms.insert(into.latency_ms.end(), st.latency_ms.begin(),
                         st.latency_ms.end());
  into.lateness_ms.insert(into.lateness_ms.end(), st.lateness_ms.begin(),
                          st.lateness_ms.end());
}

struct Counts {
  std::uint64_t lhs_lookups = 0, lhs_hits = 0, rhs_lookups = 0, rhs_hits = 0;
};

/// The single generator thread's state: the pool, the workload's send order
/// and, for token streams, the open sessions.
class Generator {
 public:
  Generator(const Workload& w, serve::DevicePool& pool, Observer& obs,
            std::uint64_t seed, double slo_ms)
      : w_(w), pool_(pool), obs_(obs), slo_ms_(slo_ms) {
    if (w_.sessions()) {
      next_feed_ = seed % w_.feeds.size();
    } else {
      next_item_ = seed % w_.stream.size();
    }
  }

  /// Closed loop: keep `inflight` requests outstanding for `seconds`.
  PhaseStats closed(double seconds, std::size_t inflight) {
    PhaseStats st = begin("closed", seconds, 0.0);
    const Clock::time_point end = start_ + to_duration(seconds);
    for (std::size_t i = 0; i < inflight; ++i) send(st, Clock::now());
    while (Clock::now() < end) {
      const std::optional<Done> d = obs_.next(end);
      if (!d) break;
      account(st, *d, end);
      if (d->slot >= 0) session_done(d->slot, st, /*resend=*/true);
      else send(st, Clock::now());
    }
    finish(st, end);
    return st;
  }

  /// Open loop at a fixed rate: request i is due at start + i / rate and
  /// its latency counts from that due time.
  PhaseStats open(const char* name, double seconds, double rate) {
    PhaseStats st = begin(name, seconds, rate);
    const Clock::time_point end = start_ + to_duration(seconds);
    for (std::uint64_t i = 0;; ++i) {
      const Clock::time_point due =
          start_ + to_duration(static_cast<double>(i) / rate);
      if (due >= end) break;
      while (Clock::now() < due) {
        const std::optional<Done> d = obs_.next(due);
        if (!d) break;
        account(st, *d, end);
        if (d->slot >= 0) session_done(d->slot, st, /*resend=*/false);
      }
      const Clock::time_point now = Clock::now();
      st.lateness_ms.push_back(seconds_between(due, now) * 1e3);
      send(st, due);
    }
    finish(st, end);
    return st;
  }

  const Counts& counts() const { return counts_; }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  PhaseStats begin(const char* name, double seconds, double rate) {
    PhaseStats st;
    st.name = name;
    st.seconds = seconds;
    st.rate = rate;
    start_ = Clock::now();
    return st;
  }

  /// Waits out the phase's outstanding requests and closes its sessions.
  void finish(PhaseStats& st, Clock::time_point end) {
    while (outstanding_ > 0) {
      const std::optional<Done> d =
          obs_.next(Clock::now() + std::chrono::seconds(60));
      if (!d) throw Error("perfbench: a request never completed");
      account(st, *d, end);
    }
    for (Slot& s : slots_) s.session.close();
    slots_.clear();
    idle_.clear();
  }

  void account(PhaseStats& st, const Done& d, Clock::time_point end) {
    outstanding_ -= 1;
    const double ms = seconds_between(d.due, d.at) * 1e3;
    if (d.ok) {
      st.ok += 1;
      st.latency_ms.push_back(ms);
      if (d.at <= end) st.ok_in_window += 1;
      if (ms <= slo_ms_) st.within_slo += 1;
    }
    st.failed += d.failed;
    st.shed += d.shed;
    st.mismatched += d.mismatch;
    counts_.lhs_lookups += d.lhs_cacheable;
    counts_.lhs_hits += d.lhs_cacheable && d.lhs_hit;
    counts_.rhs_lookups += d.rhs_cacheable;
    counts_.rhs_hits += d.rhs_cacheable && d.rhs_hit;
  }

  void send(PhaseStats& st, Clock::time_point due) {
    st.sent += 1;
    if (!w_.sessions()) {
      const MatrixItem& item = w_.items[w_.stream[next_item_]];
      next_item_ = (next_item_ + 1) % w_.stream.size();
      Job job;
      job.item = &item;
      job.done.due = due;
      job.fut = pool_.submit(item.req);
      outstanding_ += 1;
      obs_.watch(std::move(job));
      return;
    }
    // A step goes to the session idle longest; with none idle a new
    // session opens, up to a cap past which the send is shed.
    int slot = -1;
    if (!idle_.empty()) {
      slot = idle_.front();
      idle_.pop_front();
    } else if (open_sessions() < kMaxSessions) {
      slot = open_session();
    } else {
      st.shed += 1;
      return;
    }
    step(slot, due);
  }

  static constexpr std::size_t kMaxSessions = 64;

  struct Slot {
    serve::TokenSession session;
    std::size_t feed = 0;
    std::size_t next = 0;  // next step index
  };

  std::size_t open_sessions() const {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.session.open();
    return n;
  }

  int open_session() {
    std::size_t slot = 0;
    while (slot < slots_.size() && slots_[slot].session.open()) ++slot;
    if (slot == slots_.size()) slots_.emplace_back();
    Slot& s = slots_[slot];
    s.feed = next_feed_;
    next_feed_ = (next_feed_ + 1) % w_.feeds.size();
    s.next = 0;
    serve::SessionConfig cfg;
    cfg.mask = w_.mask;
    cfg.dk = w_.dk;
    cfg.scheme = w_.feeds[s.feed].scheme;
    s.session = pool_.open_session(cfg);
    return static_cast<int>(slot);
  }

  void step(int slot, Clock::time_point due) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    const Feed& feed = w_.feeds[s.feed];
    Job job;
    job.ref = &feed.ref[s.next];
    job.done.slot = slot;
    job.done.due = due;
    job.fut = s.session.step(feed.q[s.next], feed.k[s.next], feed.v[s.next]);
    s.next += 1;
    outstanding_ += 1;
    obs_.watch(std::move(job));
  }

  /// A session's step resolved: finish the session at L_max, otherwise it
  /// is idle again. In the closed loop its next step (or a fresh session's
  /// first) is sent at once.
  void session_done(int slot, PhaseStats& st, bool resend) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (s.next == w_.steps_per_session()) {
      s.session.close();
      if (resend) {
        st.sent += 1;
        step(open_session(), Clock::now());
      }
      return;
    }
    if (resend) {
      st.sent += 1;
      step(slot, Clock::now());
    } else {
      idle_.push_back(slot);
    }
  }

  const Workload& w_;
  serve::DevicePool& pool_;
  Observer& obs_;
  const double slo_ms_;
  Clock::time_point start_;
  std::uint64_t outstanding_ = 0;
  std::size_t next_item_ = 0;
  std::size_t next_feed_ = 0;
  std::vector<Slot> slots_;
  std::deque<int> idle_;
  Counts counts_;
};

/// The warm pass: every distinct matrix request once per device, a batch
/// at a time (placement spreads each batch, so every device's cache sees the
/// requests), or one full session per feed scheme, through the pool.
/// Returns the number of mismatches.
std::uint64_t warm_pass(const Workload& w, serve::DevicePool& pool) {
  std::uint64_t bad = 0;
  if (!w.sessions()) {
    for (std::size_t d = 0; d < pool.device_count(); ++d) {
      std::vector<std::future<serve::Response>> futs;
      for (const MatrixItem& it : w.items) futs.push_back(pool.submit(it.req));
      for (std::size_t i = 0; i < futs.size(); ++i) {
        bad += !response_matches(w.items[i], futs[i].get());
      }
    }
    return bad;
  }
  const std::size_t feeds = std::min<std::size_t>(2, w.feeds.size());
  std::vector<serve::TokenSession> sessions;
  for (std::size_t f = 0; f < feeds; ++f) {
    serve::SessionConfig cfg;
    cfg.mask = w.mask;
    cfg.dk = w.dk;
    cfg.scheme = w.feeds[f].scheme;
    sessions.push_back(pool.open_session(cfg));
  }
  for (std::size_t s = 0; s < w.steps_per_session(); ++s) {
    std::vector<std::future<serve::Response>> futs;
    for (std::size_t f = 0; f < feeds; ++f) {
      const Feed& feed = w.feeds[f];
      futs.push_back(sessions[f].step(feed.q[s], feed.k[s], feed.v[s]));
    }
    for (std::size_t f = 0; f < feeds; ++f) {
      const serve::Response r = futs[f].get();
      bad += !r.graph || !(r.graph->out == w.feeds[f].ref[s]);
    }
  }
  return bad;
}

serve::CacheStats operand_stats(serve::DevicePool& pool) {
  serve::CacheStats s;
  for (std::size_t d = 0; d < pool.device_count(); ++d) {
    s += pool.device_cache(d).stats();
  }
  return s;
}

double rate(std::uint64_t hits, std::uint64_t lookups) {
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

void print_phase(const PhaseStats& st, double slo_ms) {
  std::printf("phase %-6s %5.1fs %s sent %llu ok %llu failed %llu shed %llu "
              "mismatched %llu\n",
              st.name.c_str(), st.seconds,
              st.rate > 0 ? ("at " + std::to_string(st.rate) + " req/s").c_str()
                          : "closed",
              static_cast<unsigned long long>(st.sent),
              static_cast<unsigned long long>(st.ok),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.shed),
              static_cast<unsigned long long>(st.mismatched));
  std::printf("  latency ms over %zu samples: p50 %.3f  p99 %.3f  max %.3f",
              st.latency_ms.size(), percentile(st.latency_ms, 0.5),
              percentile(st.latency_ms, 0.99), percentile(st.latency_ms, 1.0));
  if (st.rate > 0) {
    std::printf("  | send lag ms: p99 %.3f  max %.3f  | within %.1f ms: %llu",
                percentile(st.lateness_ms, 0.99),
                percentile(st.lateness_ms, 1.0), slo_ms,
                static_cast<unsigned long long>(st.within_slo));
  }
  std::printf("\n");
}

std::string phase_json(const PhaseStats& st) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"seconds\":" << st.seconds << ",\"rate_rps\":" << st.rate
    << ",\"sent\":" << st.sent << ",\"succeeded\":" << st.ok
    << ",\"failed\":" << st.failed << ",\"shed\":" << st.shed
    << ",\"mismatched\":" << st.mismatched
    << ",\"samples\":" << st.latency_ms.size()
    << ",\"p50_ms\":" << percentile(st.latency_ms, 0.5)
    << ",\"p99_ms\":" << percentile(st.latency_ms, 0.99)
    << ",\"lag_p99_ms\":" << percentile(st.lateness_ms, 0.99)
    << ",\"lag_max_ms\":" << percentile(st.lateness_ms, 1.0) << "}";
  return o.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Params params;
  std::string spans_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--light-rps R --busy-rps R --slo-ms MS [--quick] "
               "[--spans-out PATH]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.params.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--light-rps") o.params.light_rps = std::stod(v);
    else if (a == "--busy-rps") o.params.busy_rps = std::stod(v);
    else if (a == "--slo-ms") o.params.slo_ms = std::stod(v);
    else if (a == "--spans-out") o.spans_out = v;
    else usage(argv[0]);
  }
  if (o.workload.empty() || o.seconds <= 0 || o.params.light_rps <= 0 ||
      o.params.busy_rps <= 0 || o.params.slo_ms <= 0) {
    usage(argv[0]);
  }
  return o;
}

int run(const Options& opt) {
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("== perfbench %s seed %llu, %.1f s ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds);
  const std::string host = "{\"cpu\":\"" + json_escape(cpu_model()) +
                           "\",\"nproc\":" + std::to_string(nproc) +
                           ",\"isa\":\"" + isa_tier() +
                           "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
                           "\",\"simd\":\"" +
                           (simt::simd_enabled() ? "on" : "off") + "\"}";
  std::printf("host %s\n", host.c_str());

  const Clock::time_point t_ref = Clock::now();
  const Workload w = make_workload(opt.workload, opt.seed, opt.params);
  std::printf("inputs and references: %.2f s (%zu distinct requests, %zu "
              "feeds)\n",
              seconds_between(t_ref, Clock::now()), w.items.size(),
              w.feeds.size());
  if (!w.sessions()) {
    std::printf("working set: %.2f MB prepared weights, %.2f MB plans; "
                "budgets %.2f MB per device, %.2f MB plans\n",
                static_cast<double>(w.operand_bytes) / 1048576.0,
                static_cast<double>(w.plan_bytes) / 1048576.0,
                static_cast<double>(w.pool.cache_capacity_bytes) / 1048576.0,
                static_cast<double>(w.pool.plan_cache_capacity_bytes) /
                    1048576.0);
  }
  for (const MatrixItem& it : w.items) {
    if (it.shards <= 1) continue;
    std::printf("prefill-sized request: %zu x %zu x %zu %s, %zu slices\n",
                it.req.pattern->rows, it.req.pattern->cols,
                it.req.rhs_values->cols(), pair_tag(it.req.precision).c_str(),
                it.shards);
  }

  // Set-up: pool construction plus the warm pass, five times; the median
  // is reported and the last pool serves the timed phases.
  std::uint64_t mismatched = 0;
  std::vector<double> setups;
  std::unique_ptr<serve::DevicePool> pool;
  for (int rep = 0; rep < 5; ++rep) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    pool = std::make_unique<serve::DevicePool>(w.pool);
    mismatched += warm_pass(w, *pool);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const serve::DevicePoolStats pool0 = pool->stats();
  const serve::CacheStats ops0 = operand_stats(*pool);
  const serve::CacheStats plans0 = pool->plan_cache().stats();

  // The phases take 20% (closed), 50% (light) and 30% (busy) of the run,
  // interleaved over several rounds so that a slow stretch of a shared host
  // lands on every phase alike. Throughput is the median round's. The light
  // phase gets the most time because its rate is the lowest: its p99 needs
  // the samples.
  constexpr int kRounds = 5;
  const double round_s = opt.seconds / kRounds;
  Observer obs(32);
  Generator gen(w, *pool, obs, opt.seed, opt.params.slo_ms);
  std::vector<PhaseStats> phases(3);
  std::vector<double> round_rps;
  for (int r = 0; r < kRounds; ++r) {
    const PhaseStats c = gen.closed(0.2 * round_s, nproc);
    round_rps.push_back(static_cast<double>(c.ok_in_window) / c.seconds);
    merge(phases[0], c);
    merge(phases[1], gen.open("light", 0.5 * round_s, opt.params.light_rps));
    merge(phases[2], gen.open("busy", 0.3 * round_s, opt.params.busy_rps));
  }
  pool->drain();
  const PhaseStats& light = phases[1];
  const PhaseStats& busy = phases[2];

  std::uint64_t attempted = 0, failures = 0;
  for (const PhaseStats& st : phases) {
    attempted += st.sent;
    failures += st.failed + st.shed + st.mismatched;
    mismatched += st.mismatched;
    print_phase(st, opt.params.slo_ms);
  }
  std::printf("closed-loop rounds (req/s):");
  for (const double r : round_rps) std::printf(" %.1f", r);
  std::printf("\n");

  Metrics m;
  m["throughput_rps"] = {percentile(round_rps, 0.5), "1/s"};
  m["p50_ms_light"] = {percentile(light.latency_ms, 0.5), "ms"};
  m["p99_ms_light"] = {percentile(light.latency_ms, 0.99), "ms"};
  m["p50_ms_busy"] = {percentile(busy.latency_ms, 0.5), "ms"};
  m["p99_ms_busy"] = {percentile(busy.latency_ms, 0.99), "ms"};
  m["slo_attainment"] = {busy.sent == 0 ? 0.0
                                        : static_cast<double>(busy.within_slo) /
                                              static_cast<double>(busy.sent),
                         "share"};
  m["success_rate"] = {attempted == 0
                           ? 0.0
                           : 1.0 - static_cast<double>(failures) /
                                       static_cast<double>(attempted),
                       "share"};
  m["setup_s"] = {percentile(setups, 0.5), "s"};

  // Layer counters of the timed phases (warm pass excluded).
  const serve::DevicePoolStats ps = pool->stats();
  const serve::CacheStats ops1 = operand_stats(*pool);
  const serve::CacheStats plans1 = pool->plan_cache().stats();
  const Counts& c = gen.counts();
  m["serve.cache.lhs_hit_rate"] = {rate(c.lhs_hits, c.lhs_lookups), "share"};
  m["serve.cache.rhs_hit_rate"] = {rate(c.rhs_hits, c.rhs_lookups), "share"};
  m["serve.cache.plan_hit_rate"] = {
      rate(plans1.hits - plans0.hits, plans1.lookups - plans0.lookups),
      "share"};
  m["serve.cache.evictions"] = {
      static_cast<double>(ops1.evictions - ops0.evictions + plans1.evictions -
                          plans0.evictions),
      "count"};
  m["serve.pool.retries"] = {static_cast<double>(ps.retries - pool0.retries),
                             "count"};
  m["serve.pool.shed"] = {static_cast<double>(ps.shed - pool0.shed), "count"};
  m["serve.pool.tie_breaks"] = {
      static_cast<double>(ps.tie_breaks - pool0.tie_breaks), "count"};
  m["serve.pool.urgent_rounds"] = {
      static_cast<double>(ps.urgent_rounds - pool0.urgent_rounds), "count"};
  m["serve.pool.shard_slices"] = {
      static_cast<double>(ps.shard_slices - pool0.shard_slices), "count"};
  pool.reset();

  if (opt.trace) {
    run_traced_pass(w, opt.seed, opt.seconds, opt.spans_out, m, &mismatched);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};

  std::printf("\nmetrics:\n");
  for (const auto& [name, metric] : m) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("setup runs (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\nerror rate %.6f over %llu attempted; mismatched %llu\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failures) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(mismatched));

  std::ostringstream o;
  o.precision(12);
  o << "PERFBENCH_RESULT {\"workload\":\"" << w.name << "\",\"seed\":"
    << opt.seed << ",\"host\":" << host << ",\"correct\":"
    << (mismatched == 0 ? "true" : "false") << ",\"attempted\":" << attempted
    << ",\"failed\":" << failures << ",\"phases\":{";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    o << (i ? "," : "") << "\"" << phases[i].name
      << "\":" << phase_json(phases[i]);
  }
  o << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
      << metric.value << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
  return mismatched == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
