#include "serve/device_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "serve/execute.hpp"
#include "serve/graph.hpp"
#include "serve/session.hpp"
#include "serve/shard.hpp"
#include "serve/submit_queue.hpp"
#include "simt/cost_model.hpp"

namespace magicube::serve {

namespace {

using detail::PendingRequest;

std::string describe_exception(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

std::string fmt_seconds(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Affinity identity of a whole request: the pattern it replays (the proxy
/// for where its prepared operands are resident), folded with the named
/// weight version and the op so SpMM and SDDMM traffic over one pattern
/// track separate residency.
std::uint64_t affinity_key(const Request& req, std::uint64_t pattern_fp) {
  std::uint64_t h = pattern_fp;
  h ^= req.lhs_id * 0x9e3779b97f4a7c15ull;
  if (req.op == OpKind::sddmm) h ^= 0xddull << 56;
  return h;
}

}  // namespace

// The submit/backpressure/shutdown half lives in detail::SubmitQueueCore;
// this Impl is the placement half: pricing, device choice, sharding, fault
// injection, retry and tracing. Its mutex guards the fleet state (stats,
// specs, active flags, caches, fault counters) and is never held across a
// core call or a kernel execution.
struct DevicePool::Impl {
  DevicePool* owner = nullptr;
  detail::SubmitQueueCore core;

  mutable std::mutex mutex;
  DevicePoolStats stats;
  std::vector<simt::DeviceSpec> specs;
  std::vector<char> active;  // 1 = accepting placements
  std::vector<std::shared_ptr<OperandCache>> caches;
  std::vector<std::uint64_t> executions;  // per-device, for FaultPlan::exact
  Rng fault_rng;
  std::uint64_t next_batch_id = 1;
  std::uint64_t rr_cursor = 0;  // round-robin tie-break cursor
  TraceLog traces;
  /// Open token streams (serve/session.hpp): id -> modeled full-length
  /// step cost. The summed load is what open_session admission compares
  /// against cfg.session_budget_seconds.
  std::unordered_map<std::uint64_t, double> session_cost;
  double session_load = 0.0;
  std::uint64_t next_session_id = 1;

  explicit Impl(const DevicePoolConfig& cfg)
      : fault_rng(cfg.fault_plan.seed),
        traces(detail::kEngineId, cfg.trace_capacity) {}

  /// One committed device assignment: where, its per-spec estimate, and
  /// the device's modeled backlog at commit time (the request-relative
  /// trace start of its replay).
  struct Placement {
    std::size_t device = 0;
    double est = 0.0;
    double start = 0.0;
  };

  /// Rendezvous of one sharded request: slice tasks fill disjoint parts and
  /// the last finisher merges — no pool task ever waits on another.
  struct ShardState {
    PendingRequest pending;
    OpKind op = OpKind::spmm;
    std::uint64_t full_lhs_content = 0;
    std::vector<RowSlice> slices;
    std::vector<std::shared_ptr<const sparse::BlockPattern>> patterns;
    std::vector<core::SpmmPlanHandle> spmm_plans;
    std::vector<core::SddmmPlanHandle> sddmm_plans;
    std::vector<simt::KernelRun> runs;  // per-slice, for retry repricing
    std::vector<Placement> placements;  // guarded by the pool mutex
    std::vector<core::SpmmResult> spmm_parts;
    std::vector<core::SddmmResult> sddmm_parts;
    std::vector<char> lhs_hits;
    core::DenseOperandHandle rhs;
    bool rhs_hit = false;
    bool all_plan_hits = true;
    /// This request's modeled busy seconds per device (makespan input);
    /// guarded by the pool mutex, grown on add_device.
    std::vector<double> per_device_busy;
    std::uint64_t retries = 0;  // requeues across slices (pool mutex)
    std::uint64_t batch_id = 0;
    std::size_t batch_size = 0;
    OperandCache::PinScope plan_pins;  // held until the merge completes
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  /// Work placed but not yet executing: the placement its ThreadPool task
  /// will claim when it starts running. Between registration and claim,
  /// drain_device's re-placement may rewrite the placement; the executing
  /// task reads the final word under claim_ticket. Ordered by ticket id
  /// (= placement order) so re-placement after a drain is deterministic.
  struct Ticket {
    simt::KernelRun run;
    Placement pl;
    bool is_slice = false;
    std::size_t slice = 0;
    std::shared_ptr<ShardState> shard;    // slice tickets only
    std::shared_ptr<RequestTrace> trace;  // for `replace` spans
  };
  std::map<std::uint64_t, Ticket> tickets;  // guarded by the pool mutex
  std::uint64_t next_ticket_id = 1;
  /// Last device that served each affinity key — where that traffic's
  /// prepared operands are resident. Maintained only when
  /// affinity_tolerance_seconds > 0.
  std::unordered_map<std::uint64_t, std::size_t> affinity;
  /// Hot-layer plan pins taken by warmup(), held for the pool's lifetime.
  OperandCache::PinScope warmup_pins;

  std::uint64_t register_ticket_locked(
      const simt::KernelRun& run, const Placement& pl,
      std::shared_ptr<RequestTrace> trace, bool is_slice = false,
      std::size_t slice = 0, std::shared_ptr<ShardState> shard = nullptr) {
    const std::uint64_t id = next_ticket_id++;
    Ticket t;
    t.run = run;
    t.pl = pl;
    t.is_slice = is_slice;
    t.slice = slice;
    t.shard = std::move(shard);
    t.trace = std::move(trace);
    tickets.emplace(id, std::move(t));
    return id;
  }

  /// What an executing task learns when it claims its ticket: the final
  /// (possibly re-placed) placement plus the per-device execution state it
  /// needs, read under one lock.
  struct Claimed {
    Placement pl;
    bool injected = false;
    std::uint64_t execution = 0;
    std::shared_ptr<OperandCache> cache;
    simt::DeviceSpec spec;
  };

  /// Claims a ticket at execution start: reads its placement, removes it
  /// from the re-placement window (in-flight work is never moved), and
  /// rolls the fault-injection dice on the device it finally landed on.
  Claimed claim_ticket(std::uint64_t id) {
    Claimed c;
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = tickets.find(id);
    MAGICUBE_CHECK_MSG(it != tickets.end(),
                       "DevicePool ticket " << id << " claimed twice");
    c.pl = it->second.pl;
    tickets.erase(it);
    c.injected = inject_fault_locked(c.pl.device);
    c.execution = executions[c.pl.device];
    c.cache = caches[c.pl.device];
    c.spec = specs[c.pl.device];
    return c;
  }

  std::size_t active_count_locked() const {
    std::size_t n = 0;
    for (const char a : active) n += a != 0;
    return n;
  }

  /// Counts one kernel execution on `dev` and decides whether the
  /// FaultPlan fails it. The probabilistic draw uses the max of the global
  /// rate and every window covering this execution count, so a plan
  /// without windows draws on exactly the schedule it always did. Lock
  /// held.
  bool inject_fault_locked(std::size_t dev) {
    executions[dev] += 1;
    const FaultPlan& plan = owner->cfg_.fault_plan;
    if (!plan.enabled()) return false;
    bool fire = false;
    for (const FaultPlan::Exact& e : plan.exact) {
      if (e.device == dev && e.nth == executions[dev]) fire = true;
    }
    double p = plan.probability;
    for (const FaultPlan::Window& w : plan.windows) {
      if (w.device == dev && executions[dev] >= w.from &&
          executions[dev] <= w.to && w.probability > p) {
        p = w.probability;
      }
    }
    if (!fire && p > 0.0 && fault_rng.next_double() < p) fire = true;
    if (fire) stats.faults_injected += 1;
    return fire;
  }

  /// Earliest modeled completion wins: every active candidate prices the
  /// run on its own spec (backlog + per-spec estimate), so a fast part
  /// absorbs more traffic than a slow one; on a homogeneous fleet the
  /// estimate is a uniform addend and the argmin reduces to least modeled
  /// backlog. Exact ties — the idle-pool common case — are broken
  /// round-robin so bursts spread instead of piling onto device 0.
  /// `exclude` skips one device (retry placement). Returns false when no
  /// active candidate exists. Lock held.
  bool choose_device_locked(const simt::KernelRun& run, std::ptrdiff_t exclude,
                            Placement* out) {
    double best = 0.0;
    double best_est = 0.0;
    std::vector<std::size_t> tied;
    for (std::size_t d = 0; d < specs.size(); ++d) {
      if (active[d] == 0 || static_cast<std::ptrdiff_t>(d) == exclude) {
        continue;
      }
      const double est = simt::estimate_seconds(specs[d], run);
      const double t = stats.devices[d].modeled_busy_seconds + est;
      if (tied.empty() || t < best) {
        best = t;
        best_est = est;
        tied.assign(1, d);
      } else if (t == best) {
        tied.push_back(d);
      }
    }
    if (tied.empty()) return false;
    std::size_t dev = tied.front();
    if (tied.size() > 1) {
      stats.tie_breaks += 1;
      dev = tied[rr_cursor++ % tied.size()];
      best_est = simt::estimate_seconds(specs[dev], run);
    }
    out->device = dev;
    out->est = best_est;
    out->start = stats.devices[dev].modeled_busy_seconds;
    return true;
  }

  /// Retry placement: prefer a surviving device other than the one that
  /// failed; fall back to the failed device itself when it is the only
  /// active one. Lock held.
  bool choose_retry_device_locked(const simt::KernelRun& run,
                                  std::size_t failed, Placement* out) {
    if (choose_device_locked(run, static_cast<std::ptrdiff_t>(failed), out)) {
      return true;
    }
    return choose_device_locked(run, -1, out);
  }

  struct CommitResult {
    bool placed = false;
    bool shed = false;  // deadline unmet on every active candidate
    bool affinity_hit = false;
    /// Modeled completion: committed placement's start + est, or the best
    /// candidate's when shed.
    double completion = 0.0;
    Placement pl;
    std::uint64_t ticket = 0;
  };

  /// Commits a whole-request placement: earliest-completion device choice,
  /// deadline admission, optional affinity upgrade, then modeled clock +
  /// ticket registration. `!placed && !shed` means every device is drained.
  CommitResult commit_whole(const simt::KernelRun& run, double deadline,
                            std::uint64_t aff_key,
                            const std::shared_ptr<RequestTrace>& trace) {
    CommitResult out;
    std::lock_guard<std::mutex> lock(mutex);
    Placement best;
    if (!choose_device_locked(run, -1, &best)) return out;
    const double best_completion = best.start + best.est;
    // Deadline admission: when even the earliest modeled completion misses
    // the budget, the request is shed *before* any clock commits — serving
    // it would be guaranteed late and would push everything behind it late
    // too.
    if (deadline > 0.0 && best_completion > deadline) {
      out.shed = true;
      out.completion = best_completion;
      return out;
    }
    Placement chosen = best;
    out.completion = best_completion;
    // Affinity upgrade: repeat-pattern traffic goes back to the device
    // that served the pattern last — where its prepared operands are
    // resident — as long as the modeled completion there trails the best
    // candidate by at most the tolerance (and still meets the deadline).
    const double tol = owner->cfg_.affinity_tolerance_seconds;
    if (tol > 0.0) {
      const auto it = affinity.find(aff_key);
      if (it != affinity.end() && it->second < specs.size() &&
          it->second != best.device && active[it->second] != 0) {
        const std::size_t d = it->second;
        const double est = simt::estimate_seconds(specs[d], run);
        const double t = stats.devices[d].modeled_busy_seconds + est;
        if (t - best_completion <= tol && (deadline <= 0.0 || t <= deadline)) {
          chosen.device = d;
          chosen.est = est;
          chosen.start = stats.devices[d].modeled_busy_seconds;
          out.completion = t;
          out.affinity_hit = true;
          stats.affinity_hits += 1;
        }
      }
      affinity[aff_key] = chosen.device;
    }
    stats.devices[chosen.device].placed += 1;
    stats.devices[chosen.device].modeled_busy_seconds += chosen.est;
    out.placed = true;
    out.pl = chosen;
    out.ticket = register_ticket_locked(run, chosen, trace);
    return out;
  }

  /// Sheds a request (admission or retry re-placement missed the
  /// deadline): counted, stamped with a `shed` span, surfaced as a
  /// ShedError — always an explicit, observable rejection, never a silent
  /// drop.
  void shed_request(PendingRequest& p, double completion, double at_seconds) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stats.shed += 1;
    }
    if (p.trace) {
      p.trace->add_span(
          TraceSpan("shed", at_seconds, at_seconds)
              .attr("deadline_seconds", fmt_seconds(p.req.deadline_seconds))
              .attr("modeled_completion_seconds", fmt_seconds(completion)));
    }
    fail_request(
        p, std::make_exception_ptr(ShedError(
               "request shed: modeled completion " + fmt_seconds(completion) +
               "s exceeds deadline " + fmt_seconds(p.req.deadline_seconds) +
               "s on every active device")));
  }

  /// Cost-model-driven re-placement after a drain: every ticket still
  /// queued on `d` (placed, not yet claimed by its executing task) is
  /// re-priced onto the surviving device with the earliest modeled
  /// completion — in placement order, each commit updating the modeled
  /// clocks the next choice sees. Work with no surviving candidate keeps
  /// its drained target and executes exactly as before the drain. Lock
  /// held.
  void replace_queued_locked(std::size_t d) {
    for (auto& [id, t] : tickets) {
      if (t.pl.device != d) continue;
      Placement np;
      if (!choose_device_locked(t.run, -1, &np)) break;  // no survivor
      const Placement old = t.pl;
      // The request's timeline stays monotone: earlier spans already
      // extend to the old start, so the new start never precedes it; a
      // `replace` span bridges the gap a later backlog opens.
      if (np.start < old.start) np.start = old.start;
      stats.devices[d].modeled_busy_seconds -= old.est;
      stats.devices[np.device].modeled_busy_seconds += np.est;
      if (t.is_slice) {
        stats.devices[d].shard_slices -= 1;
        stats.devices[np.device].shard_slices += 1;
      } else {
        stats.devices[d].placed -= 1;
        stats.devices[np.device].placed += 1;
      }
      if (t.shard) {
        ShardState& st = *t.shard;
        if (d < st.per_device_busy.size()) st.per_device_busy[d] -= old.est;
        if (np.device >= st.per_device_busy.size()) {
          st.per_device_busy.resize(np.device + 1, 0.0);
        }
        st.per_device_busy[np.device] += np.est;
        st.placements[t.slice] = np;
      }
      t.pl = np;
      stats.replaced += 1;
      if (t.trace) {
        TraceSpan span("replace", old.start, np.start,
                       static_cast<int>(np.device));
        span.attr("from_device", std::to_string(d));
        if (t.is_slice) span.attr("slice", std::to_string(t.slice));
        t.trace->add_span(std::move(span));
      }
    }
  }

  void complete(bool failed) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stats.completed += 1;
      if (failed) stats.failed += 1;
    }
    core.complete();
  }

  /// Fails a request whose promise is still held here: finalizes the
  /// trace, surfaces `err` on the future and retires the request. The
  /// failure is counted *before* the promise resolves so a caller that
  /// catches the error observes consistent stats.
  void fail_request(PendingRequest& p, const std::exception_ptr& err) {
    if (p.trace) {
      p.trace->ok = false;
      p.trace->error = describe_exception(err);
      traces.add(p.trace);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      stats.completed += 1;
      stats.failed += 1;
    }
    p.promise.set_exception(err);
    core.complete();
  }

  void dispatch(std::deque<PendingRequest> taken) {
    std::vector<PendingRequest> batch;
    batch.reserve(taken.size());
    while (!taken.empty()) {
      batch.push_back(std::move(taken.front()));
      taken.pop_front();
    }
    // Priority classes: higher priorities place (and therefore claim the
    // least-loaded devices) first. Within a class, earliest deadline first
    // (EDF) so the tightest budget sees the shortest backlog; requests
    // without a deadline follow, keeping arrival order (stable sort).
    const double inf = std::numeric_limits<double>::infinity();
    std::stable_sort(batch.begin(), batch.end(),
                     [inf](const PendingRequest& a, const PendingRequest& b) {
                       if (a.req.priority != b.req.priority) {
                         return a.req.priority > b.req.priority;
                       }
                       const double da = a.req.deadline_seconds > 0.0
                                             ? a.req.deadline_seconds
                                             : inf;
                       const double db = b.req.deadline_seconds > 0.0
                                             ? b.req.deadline_seconds
                                             : inf;
                       return da < db;
                     });
    std::uint64_t batch_id;
    {
      std::lock_guard<std::mutex> lock(mutex);
      batch_id = next_batch_id++;
    }
    const std::size_t batch_size = batch.size();
    bool urgent = false;
    for (PendingRequest& p : batch) {
      try {
        // place() moves from p only once placement is committed; on a
        // throw before that (malformed request, no active device, plan
        // build failure) the promise is still here to carry the failure.
        urgent = place(p, batch_id, batch_size) || urgent;
      } catch (...) {
        fail_request(p, std::current_exception());
      }
    }
    // Modeled-latency-driven cadence instead of the static linger knob: a
    // round that shed work or committed a placement past half its deadline
    // budget leaves no linger for the next round (the backlog drains at
    // full speed); a calm round restores the configured coalescing window.
    if (owner->cfg_.adaptive_linger) {
      core.set_linger(urgent ? std::chrono::microseconds{0}
                             : owner->cfg_.linger);
      if (urgent) {
        std::lock_guard<std::mutex> lock(mutex);
        stats.urgent_rounds += 1;
      }
    }
  }

  /// Prices and places one request. Returns whether the request put the
  /// round under SLA pressure (it was shed, or its committed modeled
  /// completion passed half its deadline budget).
  bool place(PendingRequest& p, std::uint64_t batch_id,
             std::size_t batch_size) {
    const Request& req = p.req;
    const DevicePoolConfig& cfg = owner->cfg_;

    // Price the request on its cached plan when one is resident (O(1));
    // otherwise fall back to the analytic estimator — identical numbers by
    // the estimate-equals-execute invariant — WITHOUT building or caching
    // anything: a request about to shard would only churn the plan cache
    // with a full plan no one replays. The executing path builds and
    // caches the plan it actually needs (and reports plan_cache_hit from
    // what it observed at execution time, so an eviction between pricing
    // and execution is not masked). Per-device pricing happens at device
    // choice; the shard decision uses the reference spec so thresholds
    // keep one meaning across fleet compositions. The pricing body is
    // serve/sla.hpp's price_request.
    const simt::KernelRun run = price_request(req, owner->plan_cache_);
    const std::uint64_t pattern_fp =
        owner->plan_cache_.pattern_identity(req.pattern);
    const double est_ref = simt::estimate_seconds(cfg.device, run);
    if (p.trace) {
      p.trace->op = req.graph ? "graph" : to_string(req.op);
      p.trace->precision = to_string(req.precision);
      p.trace->add_span(
          TraceSpan("price", 0.0, 0.0)
              .attr("est_ref_seconds", fmt_seconds(est_ref)));
    }

    // Shard decision: over threshold, several active devices, and never
    // below one block per SM of the largest active part — a slice that
    // cannot put work on every SM of the device it moves to would trade
    // real occupancy for modeled parallelism (the "fill a modeled wave"
    // floor).
    std::size_t active_devices;
    std::uint64_t max_sm = 1;
    {
      std::lock_guard<std::mutex> lock(mutex);
      active_devices = active_count_locked();
      for (std::size_t d = 0; d < specs.size(); ++d) {
        if (active[d] != 0 && static_cast<std::uint64_t>(
                                  specs[d].sm_count) > max_sm) {
          max_sm = static_cast<std::uint64_t>(specs[d].sm_count);
        }
      }
      if (req.graph) stats.graph_requests += 1;
    }
    // A fused graph never shards: its stages share one arena (the point of
    // fusion is that the intermediates are never materialized for anyone
    // else), so the DAG places whole — retries re-run it whole, bit-exactly.
    if (!req.graph && active_devices > 1 &&
        cfg.shard_threshold_seconds > 0 &&
        est_ref > cfg.shard_threshold_seconds) {
      const std::uint64_t wave_blocks =
          cfg.wave_floor_blocks != 0 ? cfg.wave_floor_blocks : max_sm;
      const std::size_t by_wave = static_cast<std::size_t>(std::max<
          std::uint64_t>(1, run.launch.grid_blocks /
                                std::max<std::uint64_t>(1, wave_blocks)));
      const std::size_t by_cost = static_cast<std::size_t>(
          std::ceil(est_ref / cfg.shard_threshold_seconds));
      const std::size_t want = std::min(
          {cfg.max_shards == 0
               ? active_devices
               : std::min(cfg.max_shards, active_devices),
           by_cost, by_wave});
      if (want > 1) {
        // Defer the O(pattern) slicing and the sub-plan builds to the
        // pool: the single dispatcher thread must keep placing the rest
        // of the queue (no head-of-line blocking behind a cold giant).
        // Pressure a sharded giant turns out to exert is discovered on
        // the pool thread, after this round's cadence was decided.
        auto item = std::make_shared<PendingRequest>(std::move(p));
        ThreadPool::instance().post([this, item, pattern_fp, want, run,
                                     batch_id, batch_size] {
          prepare_shards(item, pattern_fp, want, run, batch_id, batch_size);
        });
        return false;
      }
    }

    const double deadline = req.deadline_seconds;
    const CommitResult cr =
        commit_whole(run, deadline, affinity_key(req, pattern_fp), p.trace);
    if (cr.shed) {
      shed_request(p, cr.completion, /*at_seconds=*/0.0);
      return true;
    }
    if (!cr.placed) {
      throw Error("DevicePool: no active device to place a request on "
                  "(every device is drained)");
    }
    const Placement pl = cr.pl;
    if (p.trace) {
      p.trace->add_span(TraceSpan("queue", 0.0, pl.start));
      p.trace->add_span(
          TraceSpan("place", pl.start, pl.start,
                    static_cast<int>(pl.device))
              .attr("est_seconds", fmt_seconds(pl.est))
              .attr("batch_id", std::to_string(batch_id))
              .attr("batch_size", std::to_string(batch_size))
              .attr("affinity", cr.affinity_hit ? "true" : "false"));
    }
    auto item = std::make_shared<PendingRequest>(std::move(p));
    const std::uint64_t ticket = cr.ticket;
    ThreadPool::instance().post([this, item, ticket, run, batch_id,
                                 batch_size] {
      run_single(item, ticket, /*attempt=*/0, run, batch_id, batch_size);
    });
    return deadline > 0.0 && cr.completion > 0.5 * deadline;
  }

  void run_single(const std::shared_ptr<PendingRequest>& item,
                  std::uint64_t ticket, std::size_t attempt,
                  const simt::KernelRun& run, std::uint64_t batch_id,
                  std::size_t batch_size) {
    // The claim reads the final placement: drain_device may have re-priced
    // this work onto a surviving device since it was committed.
    const Claimed c = claim_ticket(ticket);
    const Placement pl = c.pl;
    const std::size_t dev = pl.device;
    const bool injected = c.injected;
    std::exception_ptr err;
    Response resp;
    try {
      if (injected) {
        if (item->trace) item->trace->faults_injected.fetch_add(1);
        throw FaultError("injected fault: kernel execution " +
                         std::to_string(c.execution) + " on device " +
                         std::to_string(dev));
      }
      // serve_request reports plan_cache_hit as observed at execution
      // time (builds into the shared plan cache on a miss).
      resp = serve_request(item->req, *c.cache, owner->plan_cache_, c.spec);
    } catch (...) {
      err = std::current_exception();
    }

    if (!err) {
      resp.device = static_cast<int>(dev);
      resp.shards = 1;
      resp.batch_id = batch_id;
      resp.batch_size = batch_size;
      resp.retries = attempt;
      resp.modeled_completion_seconds = pl.start + pl.est;
      {
        std::lock_guard<std::mutex> lock(mutex);
        stats.devices[dev].completed += 1;
      }
      if (item->trace) {
        item->trace->add_span(
            TraceSpan("replay", pl.start, pl.start + pl.est,
                      static_cast<int>(dev))
                .attr("ok", "true")
                .attr("plan_cache_hit",
                      resp.plan_cache_hit ? "true" : "false")
                .attr("lhs_cache_hit", resp.lhs_cache_hit ? "true" : "false")
                .attr("rhs_cache_hit",
                      resp.rhs_cache_hit ? "true" : "false"));
        if (resp.graph) {
          // One span per DAG stage under the same request trace, laid out
          // back to back from the placement start on the device's modeled
          // timeline (their sum exceeds the fused replay span — the
          // difference is the modeled fusion win).
          double at = pl.start;
          for (const GraphStage& st : resp.graph->stages) {
            item->trace->add_span(
                TraceSpan("stage_" + st.name, at, at + st.modeled_seconds,
                          static_cast<int>(dev))
                    .attr("plan_cache_hit",
                          st.plan_cache_hit ? "true" : "false")
                    .attr("lhs_cache_hit",
                          st.lhs_cache_hit ? "true" : "false")
                    .attr("rhs_cache_hit",
                          st.rhs_cache_hit ? "true" : "false"));
            at += st.modeled_seconds;
          }
        }
        item->trace->ok = true;
        item->trace->device = static_cast<int>(dev);
        item->trace->shards = 1;
        resp.trace = item->trace;
        traces.add(item->trace);
      }
      item->promise.set_value(std::move(resp));
      complete(/*failed=*/false);
      return;
    }

    // Failed attempt (injected or genuine): the modeled clock only
    // accumulates work that actually ran, so the estimate rolls off the
    // device and — budget permitting — the request requeues to a
    // surviving device.
    const double fail_end = pl.start + pl.est;
    if (item->trace) {
      item->trace->add_span(
          TraceSpan("replay", pl.start, fail_end, static_cast<int>(dev))
              .attr("ok", "false")
              .attr("fault", injected ? "injected" : "genuine")
              .attr("error", describe_exception(err)));
    }
    const double deadline = item->req.deadline_seconds;
    const std::size_t next_attempt = attempt + 1;
    Placement next;
    bool requeue = false;
    bool shed = false;
    double shed_completion = 0.0;
    std::uint64_t next_ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      stats.devices[dev].completed += 1;
      stats.devices[dev].modeled_busy_seconds -= pl.est;
      if (attempt < owner->cfg_.max_retries &&
          choose_retry_device_locked(run, dev, &next)) {
        // The request's timeline is monotone: the retry bridges from the
        // failed attempt's modeled end to the new device's backlog (or is
        // instantaneous when that backlog is already behind us).
        if (next.start < fail_end) next.start = fail_end;
        if (deadline > 0.0 && next.start + next.est > deadline) {
          // The re-placed completion now misses the deadline: shed instead
          // of burning retry budget on guaranteed-late work.
          shed = true;
          shed_completion = next.start + next.est;
        } else {
          requeue = true;
          stats.retries += 1;
          stats.devices[next.device].placed += 1;
          stats.devices[next.device].modeled_busy_seconds += next.est;
          next_ticket = register_ticket_locked(run, next, item->trace);
        }
      }
    }
    if (requeue) {
      if (item->trace) {
        item->trace->retries.fetch_add(1);
        item->trace->add_span(
            TraceSpan("retry", fail_end, next.start,
                      static_cast<int>(next.device))
                .attr("attempt", std::to_string(next_attempt))
                .attr("from_device", std::to_string(dev)));
      }
      ThreadPool::instance().post([this, item, next_ticket, next_attempt,
                                   run, batch_id, batch_size] {
        run_single(item, next_ticket, next_attempt, run, batch_id,
                   batch_size);
      });
      return;
    }
    if (shed) {
      shed_request(*item, shed_completion, fail_end);
      return;
    }
    if (attempt >= owner->cfg_.max_retries) {
      err = std::make_exception_ptr(Error(
          "request failed after " + std::to_string(attempt + 1) +
          " attempts (retry budget exhausted): " + describe_exception(err)));
    } else {
      err = std::make_exception_ptr(Error(
          "request failed and no active device survives to requeue it: " +
          describe_exception(err)));
    }
    fail_request(*item, err);
  }

  /// Pool-task body of the sharded path: slices the pattern, builds (or
  /// finds) the pinned sub-plans, assigns devices, then fans the slices
  /// out. Runs on a ThreadPool worker so a cold giant never head-of-line
  /// blocks the dispatcher.
  void prepare_shards(const std::shared_ptr<PendingRequest>& item,
                      std::uint64_t pattern_fp, std::size_t want,
                      const simt::KernelRun& run, std::uint64_t batch_id,
                      std::size_t batch_size) {
    const Request& req = item->req;
    auto st = std::make_shared<ShardState>();
    st->op = req.op;
    core::SpmmConfig scfg;
    core::SddmmConfig dcfg;
    std::size_t n_cols = 0;  // SpMM N
    std::size_t k_depth = 0; // SDDMM K
    try {
      int stride;
      if (req.op == OpKind::spmm) {
        scfg.precision = req.precision;
        scfg.variant = req.variant;
        scfg.bsn = req.bsn;
        n_cols = req.rhs_values->cols();
        stride = core::stride_for(req.precision);
        st->full_lhs_content = req.lhs_id != 0 ? req.lhs_id : pattern_fp;
      } else {
        dcfg.precision = req.precision;
        dcfg.prefetch = req.sddmm_prefetch;
        k_depth = req.lhs_values->cols();
        // SDDMM blocks own groups of 16 output vectors: balancing on that
        // granularity mirrors what each block actually executes.
        stride = core::detail::kSddmmSlotsPerBlock;
        st->full_lhs_content = req.lhs_id;  // 0 = anonymous activation
      }
      st->slices = plan_row_shards(*req.pattern, stride, want);
      if (st->slices.size() <= 1) {
        // The pattern would not split (e.g. a single block row): place it
        // whole from here — we are already on a pool thread.
        const CommitResult cr = commit_whole(
            run, req.deadline_seconds, affinity_key(req, pattern_fp),
            item->trace);
        if (cr.shed) {
          shed_request(*item, cr.completion, /*at_seconds=*/0.0);
          return;
        }
        if (!cr.placed) {
          throw Error("DevicePool: no active device to place a request on "
                      "(every device is drained)");
        }
        if (item->trace) {
          item->trace->add_span(TraceSpan("queue", 0.0, cr.pl.start));
          item->trace->add_span(
              TraceSpan("place", cr.pl.start, cr.pl.start,
                        static_cast<int>(cr.pl.device))
                  .attr("est_seconds", fmt_seconds(cr.pl.est)));
        }
        run_single(item, cr.ticket, /*attempt=*/0, run, batch_id,
                   batch_size);
        return;
      }

      st->batch_id = batch_id;
      st->batch_size = batch_size;
      st->plan_pins = OperandCache::PinScope(owner->plan_cache_);

      const std::size_t n = st->slices.size();
      st->patterns.reserve(n);
      st->runs.resize(n);
      st->lhs_hits.assign(n, 0);
      if (req.op == OpKind::spmm) {
        st->spmm_plans.reserve(n);
        st->spmm_parts.resize(n);
      } else {
        st->sddmm_plans.reserve(n);
        st->sddmm_parts.resize(n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const RowSlice& s = st->slices[i];
        st->patterns.push_back(std::make_shared<const sparse::BlockPattern>(
            sparse::slice_vector_rows(*req.pattern, s.vr_begin, s.vr_end)));
        // Sub-plans key on (full pattern identity, slice bounds):
        // shareable across every weight version and every request over
        // this pattern. Pin the sub-plan entry for the request's
        // lifetime: concurrent eviction must not drop a plan another
        // slice is about to replay. A pin can race an eviction in the
        // get→pin window; re-insert and retry (correctness never depends
        // on the pin — the handle keeps the plan alive — but residency is
        // what prevents rebuild churn).
        const std::uint64_t plan_id = slice_content_id(pattern_fp, s);
        bool hit = false;
        if (req.op == OpKind::spmm) {
          st->spmm_plans.push_back(owner->plan_cache_.get_or_build_spmm_plan(
              st->patterns.back(), n_cols, scfg, plan_id, &hit));
          const OperandKey pk = spmm_plan_key(plan_id, n_cols, scfg);
          for (int att = 0; !st->plan_pins.pin(pk) && att < 3; ++att) {
            st->spmm_plans.back() = owner->plan_cache_.get_or_build_spmm_plan(
                st->patterns.back(), n_cols, scfg, plan_id);
          }
          st->runs[i] = st->spmm_plans.back()->run;
        } else {
          st->sddmm_plans.push_back(
              owner->plan_cache_.get_or_build_sddmm_plan(
                  st->patterns.back(), k_depth, dcfg, plan_id, &hit));
          const OperandKey pk = sddmm_plan_key(plan_id, k_depth, dcfg);
          for (int att = 0; !st->plan_pins.pin(pk) && att < 3; ++att) {
            st->sddmm_plans.back() =
                owner->plan_cache_.get_or_build_sddmm_plan(
                    st->patterns.back(), k_depth, dcfg, plan_id);
          }
          st->runs[i] = st->sddmm_plans.back()->run;
        }
        st->all_plan_hits = st->all_plan_hits && hit;
      }
    } catch (...) {
      fail_request(*item, std::current_exception());
      return;  // st's PinScope releases on destruction
    }

    const std::size_t n = st->slices.size();
    st->placements.resize(n);
    const double deadline = req.deadline_seconds;
    std::vector<std::uint64_t> slice_tickets(n, 0);
    double max_completion = 0.0;
    bool shed = false;
    bool placed_ok = false;
    // Once the tickets are registered a concurrent drain may re-place the
    // slices (rewriting st->placements under the lock), so every read the
    // rest of this function does goes through this admission-time
    // snapshot; the executing slice reads the final word via its claim.
    std::vector<Placement> admitted;
    {
      std::lock_guard<std::mutex> lock(mutex);
      // Slices go wherever modeled completion is earliest — usually one
      // per device, but a slow or backlogged device may be skipped,
      // co-locating slices on the others. The request's modeled makespan
      // sums the per-spec estimates per assigned device (co-located
      // slices serialize on their device's modeled clock).
      st->per_device_busy.assign(specs.size(), 0.0);
      bool placed_all = true;
      std::size_t placed_n = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Placement pl;
        if (!choose_device_locked(st->runs[i], -1, &pl)) {
          // Every device drained while the plans were building: roll the
          // earlier slices back and fail below.
          placed_all = false;
          break;
        }
        st->placements[i] = pl;
        stats.devices[pl.device].shard_slices += 1;
        stats.devices[pl.device].modeled_busy_seconds += pl.est;
        st->per_device_busy[pl.device] += pl.est;
        if (pl.start + pl.est > max_completion) {
          max_completion = pl.start + pl.est;
        }
        placed_n = i + 1;
      }
      // Deadline admission for the sharded path: the request completes
      // when its *latest* slice does; when that already misses the budget,
      // roll every slice back untouched and shed below.
      shed = placed_all && deadline > 0.0 && max_completion > deadline;
      if (placed_all && !shed) {
        stats.sharded_requests += 1;
        stats.shard_slices += n;
        for (std::size_t i = 0; i < n; ++i) {
          slice_tickets[i] = register_ticket_locked(
              st->runs[i], st->placements[i], item->trace,
              /*is_slice=*/true, i, st);
        }
        admitted = st->placements;
        placed_ok = true;
      } else {
        for (std::size_t j = 0; j < placed_n; ++j) {
          const Placement& q = st->placements[j];
          stats.devices[q.device].shard_slices -= 1;
          stats.devices[q.device].modeled_busy_seconds -= q.est;
        }
        st->per_device_busy.clear();
      }
    }
    if (shed) {
      st->plan_pins.release();
      shed_request(*item, max_completion, /*at_seconds=*/0.0);
      return;
    }
    if (!placed_ok) {
      fail_request(*item, std::make_exception_ptr(Error(
                              "DevicePool: no active device to place a "
                              "request on (every device is drained)")));
      return;
    }
    if (item->trace) {
      item->trace->add_span(
          TraceSpan("shard", 0.0, 0.0)
              .attr("slices", std::to_string(n))
              .attr("batch_id", std::to_string(batch_id)));
      for (std::size_t i = 0; i < n; ++i) {
        const Placement& pl = admitted[i];
        item->trace->add_span(TraceSpan("queue", 0.0, pl.start)
                                  .attr("slice", std::to_string(i)));
        item->trace->add_span(
            TraceSpan("place", pl.start, pl.start,
                      static_cast<int>(pl.device))
                .attr("slice", std::to_string(i))
                .attr("est_seconds", fmt_seconds(pl.est)));
      }
    }

    st->pending = std::move(*item);
    st->remaining.store(n, std::memory_order_relaxed);
    try {
      // The shared RHS (SpMM: the full-K dense B; SDDMM: the column-major
      // B) is prepared once — cached in the first slice's device when the
      // client named it — and aliased by every slice: operands are
      // immutable shared handles.
      st->rhs =
          cache_for(admitted.front().device)
              ->get_or_prepare_dense(st->op == OpKind::spmm
                                         ? OperandKind::spmm_rhs
                                         : OperandKind::sddmm_rhs,
                                     *st->pending.req.rhs_values,
                                     st->pending.req.precision,
                                     st->pending.req.rhs_id, &st->rhs_hit);
    } catch (...) {
      // No slice task was posted yet: fail the request directly and roll
      // the assignment back — modeled clocks must not keep busy seconds
      // (nor the counters slices, nor the ticket registry placements) for
      // work that never executed. A drain may have re-placed some tickets
      // meanwhile; st->placements tracks those rewrites, so rolling back
      // from it always hits the device currently charged.
      {
        std::lock_guard<std::mutex> lock(mutex);
        stats.sharded_requests -= 1;
        stats.shard_slices -= n;
        for (std::size_t i = 0; i < n; ++i) {
          tickets.erase(slice_tickets[i]);
          const Placement& pl = st->placements[i];
          stats.devices[pl.device].shard_slices -= 1;
          stats.devices[pl.device].modeled_busy_seconds -= pl.est;
        }
      }
      st->plan_pins.release();
      fail_request(st->pending, std::current_exception());
      return;
    }
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint64_t tk = slice_tickets[i];
      ThreadPool::instance().post(
          [this, st, i, tk] { run_slice(st, i, tk, /*attempt=*/0); });
    }
    run_slice(st, 0, slice_tickets[0], /*attempt=*/0);
  }

  std::shared_ptr<OperandCache> cache_for(std::size_t dev) {
    std::lock_guard<std::mutex> lock(mutex);
    return caches[dev];
  }

  void run_slice(const std::shared_ptr<ShardState>& st, std::size_t i,
                 std::uint64_t ticket, std::size_t attempt) {
    // As for whole requests: the claim reads the final placement, which a
    // drain may have re-priced onto a surviving device.
    const Claimed c = claim_ticket(ticket);
    const Placement pl = c.pl;
    const std::size_t dev = pl.device;
    const bool injected = c.injected;
    const std::shared_ptr<OperandCache>& cache = c.cache;
    std::exception_ptr err;
    try {
      if (injected) {
        if (st->pending.trace) st->pending.trace->faults_injected.fetch_add(1);
        throw FaultError("injected fault: shard slice " + std::to_string(i) +
                         " on device " + std::to_string(dev));
      }
      if (st->op == OpKind::spmm) {
        SliceExecution se = execute_spmm_slice(
            st->pending.req, st->patterns[i], st->slices[i],
            st->full_lhs_content, st->spmm_plans[i], st->rhs, *cache);
        st->spmm_parts[i] = std::move(se.result);
        st->lhs_hits[i] = se.lhs_cache_hit ? 1 : 0;
      } else {
        SddmmSliceExecution se = execute_sddmm_slice(
            st->pending.req, st->patterns[i], st->slices[i],
            st->sddmm_plans[i], st->rhs, *cache);
        st->sddmm_parts[i] = std::move(se.result);
        st->lhs_hits[i] = se.lhs_cache_hit ? 1 : 0;
      }
    } catch (...) {
      err = std::current_exception();
    }

    if (!err) {
      if (st->pending.trace) {
        st->pending.trace->add_span(
            TraceSpan("replay", pl.start, pl.start + pl.est,
                      static_cast<int>(dev))
                .attr("ok", "true")
                .attr("slice", std::to_string(i)));
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        stats.devices[dev].completed += 1;
        st->placements[i] = pl;
      }
      if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finish_shard(st);
      }
      return;
    }

    // Failed slice: roll the estimate off the modeled clock and requeue
    // the slice alone — the siblings' work stands.
    const double fail_end = pl.start + pl.est;
    if (st->pending.trace) {
      st->pending.trace->add_span(
          TraceSpan("replay", pl.start, fail_end, static_cast<int>(dev))
              .attr("ok", "false")
              .attr("slice", std::to_string(i))
              .attr("fault", injected ? "injected" : "genuine")
              .attr("error", describe_exception(err)));
    }
    Placement next;
    bool requeue = false;
    std::uint64_t next_ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      stats.devices[dev].completed += 1;
      stats.devices[dev].modeled_busy_seconds -= pl.est;
      if (dev < st->per_device_busy.size()) {
        st->per_device_busy[dev] -= pl.est;
      }
      if (attempt < owner->cfg_.max_retries &&
          choose_retry_device_locked(st->runs[i], dev, &next)) {
        if (next.start < fail_end) next.start = fail_end;
        requeue = true;
        stats.retries += 1;
        st->retries += 1;
        stats.shard_slices += 1;
        stats.devices[next.device].shard_slices += 1;
        stats.devices[next.device].modeled_busy_seconds += next.est;
        if (next.device >= st->per_device_busy.size()) {
          st->per_device_busy.resize(next.device + 1, 0.0);
        }
        st->per_device_busy[next.device] += next.est;
        next_ticket = register_ticket_locked(st->runs[i], next,
                                             st->pending.trace,
                                             /*is_slice=*/true, i, st);
      }
    }
    if (requeue) {
      if (st->pending.trace) {
        st->pending.trace->retries.fetch_add(1);
        st->pending.trace->add_span(
            TraceSpan("retry", fail_end, next.start,
                      static_cast<int>(next.device))
                .attr("slice", std::to_string(i))
                .attr("attempt", std::to_string(attempt + 1))
                .attr("from_device", std::to_string(dev)));
      }
      ThreadPool::instance().post([this, st, i, next_ticket, attempt] {
        run_slice(st, i, next_ticket, attempt + 1);
      });
      return;
    }
    if (attempt >= owner->cfg_.max_retries) {
      err = std::make_exception_ptr(Error(
          "shard slice " + std::to_string(i) + " failed after " +
          std::to_string(attempt + 1) +
          " attempts (retry budget exhausted): " + describe_exception(err)));
    } else {
      err = std::make_exception_ptr(Error(
          "shard slice " + std::to_string(i) +
          " failed and no active device survives to requeue it: " +
          describe_exception(err)));
    }
    {
      std::lock_guard<std::mutex> lock(st->error_mutex);
      if (!st->error) st->error = err;
    }
    if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_shard(st);
    }
  }

  void finish_shard(const std::shared_ptr<ShardState>& st) {
    if (st->error) {
      st->plan_pins.release();
      fail_request(st->pending, st->error);
      return;
    }
    bool failed = false;
    try {
      const Request& req = st->pending.req;
      Response resp;
      resp.op = st->op;
      if (st->op == OpKind::spmm) {
        resp.spmm = merge_row_shards(req.pattern->rows,
                                     req.rhs_values->cols(),
                                     req.pattern->vector_length, st->slices,
                                     std::move(st->spmm_parts));
      } else {
        resp.sddmm = merge_sddmm_row_shards(*req.pattern, st->slices,
                                            std::move(st->sddmm_parts));
      }
      double makespan = 0.0;
      double completion = 0.0;
      std::uint64_t retries = 0;
      bool one_device = true;
      int first_device = -1;
      {
        std::lock_guard<std::mutex> lock(mutex);
        for (const double busy : st->per_device_busy) {
          if (busy > makespan) makespan = busy;
        }
        retries = st->retries;
        first_device = static_cast<int>(st->placements.front().device);
        for (const Placement& pl : st->placements) {
          one_device = one_device &&
                       static_cast<int>(pl.device) == first_device;
          // The request completes when its latest slice does.
          if (pl.start + pl.est > completion) completion = pl.start + pl.est;
        }
      }
      // Usually the slices spanned several devices (-1); under a skewed
      // backlog they may all have co-located on one, which is then
      // reported like a whole placement.
      resp.device = one_device ? first_device : -1;
      resp.shards = st->slices.size();
      resp.plan_cache_hit = st->all_plan_hits;
      resp.lhs_cache_hit =
          std::all_of(st->lhs_hits.begin(), st->lhs_hits.end(),
                      [](char h) { return h != 0; });
      resp.rhs_cache_hit = st->rhs_hit;
      resp.modeled_seconds = makespan;
      resp.modeled_completion_seconds = completion;
      resp.batch_id = st->batch_id;
      resp.batch_size = st->batch_size;
      resp.retries = retries;
      if (st->pending.trace) {
        RequestTrace& t = *st->pending.trace;
        t.add_span(TraceSpan("merge", t.total_modeled_seconds,
                             t.total_modeled_seconds)
                       .attr("ok", "true")
                       .attr("slices", std::to_string(st->slices.size())));
        t.ok = true;
        t.device = resp.device;
        t.shards = st->slices.size();
        resp.trace = st->pending.trace;
        traces.add(st->pending.trace);
      }
      // Release before the future resolves: the merge has consumed the
      // sub-plans, and a caller returning from get() may immediately
      // assert that no pin outlives its request.
      st->plan_pins.release();
      st->pending.promise.set_value(std::move(resp));
    } catch (...) {
      failed = true;
      if (st->pending.trace) {
        RequestTrace& t = *st->pending.trace;
        // A failed merge still gets its terminal span (ok="false") so
        // trace_report --fail-on-failed-spans can flag it from the CI
        // artifact alone.
        t.add_span(TraceSpan("merge", t.total_modeled_seconds,
                             t.total_modeled_seconds)
                       .attr("ok", "false")
                       .attr("slices", std::to_string(st->slices.size()))
                       .attr("error", describe_exception(
                                          std::current_exception())));
        t.ok = false;
        t.error = describe_exception(std::current_exception());
        traces.add(st->pending.trace);
      }
      st->plan_pins.release();
      st->pending.promise.set_exception(std::current_exception());
    }
    complete(failed);
  }
};

DevicePool::DevicePool(DevicePoolConfig cfg)
    : cfg_(std::move(cfg)), plan_cache_(cfg_.plan_cache_capacity_bytes),
      impl_(new Impl(cfg_)) {
  std::vector<simt::DeviceSpec> specs = cfg_.devices;
  if (specs.empty()) {
    MAGICUBE_CHECK_MSG(cfg_.device_count > 0,
                       "a DevicePool needs at least one device");
    specs.assign(cfg_.device_count, cfg_.device);
  }
  MAGICUBE_CHECK_MSG(cfg_.fault_plan.probability >= 0.0 &&
                         cfg_.fault_plan.probability <= 1.0,
                     "FaultPlan probability must lie in [0, 1]");
  for (const FaultPlan::Window& w : cfg_.fault_plan.windows) {
    MAGICUBE_CHECK_MSG(w.probability >= 0.0 && w.probability <= 1.0,
                       "FaultPlan window probability must lie in [0, 1]");
  }
  impl_->owner = this;
  impl_->warmup_pins = OperandCache::PinScope(plan_cache_);
  impl_->specs = std::move(specs);
  const std::size_t n = impl_->specs.size();
  impl_->active.assign(n, 1);
  impl_->executions.assign(n, 0);
  impl_->caches.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    impl_->caches.push_back(
        std::make_shared<OperandCache>(cfg_.cache_capacity_bytes));
  }
  impl_->stats.devices.resize(n);
  detail::SubmitQueueCore::Tuning tuning;
  tuning.linger = cfg_.linger;
  tuning.max_queue_depth = cfg_.max_queue_depth;
  tuning.collect_traces = cfg_.collect_traces;
  impl_->core.start(tuning, [impl = impl_.get()](
                                std::deque<PendingRequest> taken) {
    impl->dispatch(std::move(taken));
  });
}

DevicePool::~DevicePool() { impl_->core.shutdown(); }

std::future<Response> DevicePool::submit(Request req) {
  return impl_->core.submit(std::move(req));
}

void DevicePool::drain() { impl_->core.drain(); }

void DevicePool::shutdown() { impl_->core.shutdown(); }

std::size_t DevicePool::add_device(const simt::DeviceSpec& spec) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->specs.push_back(spec);
  impl_->active.push_back(1);
  impl_->executions.push_back(0);
  impl_->caches.push_back(
      std::make_shared<OperandCache>(cfg_.cache_capacity_bytes));
  impl_->stats.devices.emplace_back();
  return impl_->specs.size() - 1;
}

void DevicePool::drain_device(std::size_t d) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  MAGICUBE_CHECK_MSG(d < impl_->specs.size(),
                     "drain_device: no device " << d << " in the pool");
  impl_->active[d] = 0;
  impl_->replace_queued_locked(d);
}

WarmupReport DevicePool::warmup(const WarmupManifest& manifest) {
  return warmup_plans(plan_cache_, manifest, &impl_->warmup_pins);
}

std::size_t DevicePool::device_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->specs.size();
}

std::size_t DevicePool::active_device_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->active_count_locked();
}

simt::DeviceSpec DevicePool::device_spec(std::size_t d) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  MAGICUBE_CHECK(d < impl_->specs.size());
  return impl_->specs[d];
}

bool DevicePool::device_active(std::size_t d) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  MAGICUBE_CHECK(d < impl_->specs.size());
  return impl_->active[d] != 0;
}

OperandCache& DevicePool::device_cache(std::size_t d) {
  std::shared_ptr<OperandCache> cache;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    MAGICUBE_CHECK(d < impl_->caches.size());
    cache = impl_->caches[d];
  }
  // The pool never removes a device, so the cache outlives every caller.
  return *cache;
}

const TraceLog& DevicePool::traces() const { return impl_->traces; }

DevicePoolStats DevicePool::stats() const {
  DevicePoolStats out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->stats;
  }
  out.submitted = impl_->core.submitted();
  return out;
}

TokenSession DevicePool::open_session(SessionConfig cfg) {
  MAGICUBE_CHECK_MSG(cfg.mask != nullptr, "open_session needs a mask");
  MAGICUBE_CHECK_MSG(transformer::is_magicube(cfg.scheme),
                     "token streams serve the Magicube schemes only");
  MAGICUBE_CHECK_MSG(cfg.mask->rows == cfg.mask->cols,
                     "session masks are square (L_max x L_max)");
  MAGICUBE_CHECK_MSG(
      cfg.mask->rows % static_cast<std::size_t>(cfg.mask->vector_length) ==
          0,
      "session mask rows must be a multiple of its vector length");
  MAGICUBE_CHECK_MSG(cfg.dk > 0, "open_session needs the stream's dk");
  // The admission currency: the stream's modeled *ceiling* — a full-length
  // step on the reference device spec. Priced outside the lock (analytic,
  // no caches touched).
  const double cost = price_session_step_seconds(*cfg.mask, cfg.dk,
                                                 cfg.scheme, cfg_.device);
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (cfg_.session_budget_seconds > 0.0 &&
        impl_->session_load + cost > cfg_.session_budget_seconds) {
      impl_->stats.sessions_shed += 1;
      throw ShedError(
          "DevicePool: session admission shed — open-session modeled load " +
          std::to_string(impl_->session_load + cost) +
          "s would exceed the budget of " +
          std::to_string(cfg_.session_budget_seconds) + "s");
    }
    id = impl_->next_session_id++;
    impl_->session_cost[id] = cost;
    impl_->session_load += cost;
    impl_->stats.sessions_opened += 1;
  }
  return TokenSession(this, id, std::move(cfg));
}

double DevicePool::session_load_seconds() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->session_load;
}

void DevicePool::close_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->session_cost.find(id);
  if (it == impl_->session_cost.end()) return;
  impl_->session_load -= it->second;
  if (impl_->session_load < 0.0) impl_->session_load = 0.0;
  impl_->session_cost.erase(it);
  impl_->stats.sessions_closed += 1;
}

void DevicePool::note_session_step() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->stats.session_steps += 1;
}

}  // namespace magicube::serve
